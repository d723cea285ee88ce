"""Time integration of the two-species system with quasi-static signal.

One step is first-order operator splitting: the chemotactic advection
(conservative face fluxes, donor-cell upwinding by the sign of the signal
gradient) and the mass-coupled reaction are advanced by explicit Euler,
then each species is diffused implicitly (backward Euler), which leaves
the step restricted only by the positivity limit of the explicit stage
and the explicit-reaction stability bound.  The signal w is re-solved
once per step from the pre-step densities.  The stepper holds u, v and w
as the rows of one (3, n) stack, so each stage is one array expression for
both species.

Spatially constant states reduce the step to plain explicit Euler for the
homogeneous interaction ODE: the advection fluxes vanish, and the implicit
diffusion of a constant is the constant itself.
"""
from __future__ import annotations

import math

import numpy as np

from ._lapack import dpttrs
from .diagnostics import TrajectoryRecord, detect_steady, may_be_steady
from .elliptic import assemble, neumann_factor, solve_w
from .model import (
    FieldState,
    Grid1D,
    ModelParams,
    PreconditionError,
    StepperConfig,
    check_time_resolution,
)

# Recorded (3, n) stacks are reduced a block at a time, one NumPy call per
# statistic for the whole block, which costs about what one call per
# sample did.  A block holds at most this many values (256 KiB), and at
# least one stack.
BLOCK_VALUES = 1 << 15


def chemotaxis_flux(left: np.ndarray, right: np.ndarray, dw: np.ndarray, chi: np.ndarray, dx: float,
                    mask: np.ndarray, out: np.ndarray) -> None:
    """Interior face fluxes of the attraction term, donor-cell upwinded, into out.

    left and right hold m densities (m, n - 1) left and right of the n - 1
    interior faces, chi their (m, 1) sensitivities, and dw the signal
    differences w[i+1] - w[i] across those faces.  Face i+1/2 carries
    chi * u_donor * dw[i] / dx, the donor being the cell the signal
    gradient points away from.  mask is (n - 1,) boolean scratch.
    """
    np.multiply(chi, np.where(np.greater(dw, 0.0, mask), left, right), out)
    np.multiply(out, dw, out)
    np.divide(out, dx, out)


class CflViolationError(RuntimeError):
    """A step's dt violates an explicit stability constraint: run_simulation's "cfl_violation"."""

    def __init__(self, binding: str, dt: float, suggested_dt: float):
        self.binding = binding
        self.dt = dt
        self.suggested_dt = suggested_dt
        super().__init__(
            f"dt={dt!r} violates the {binding} constraint; "
            f"largest admissible dt here is {suggested_dt!r}"
        )


class _State:
    """A (3, n) stack fields of u, v, w and the (2,) masses, with the views a
    step reads: uv, its rows as (v, u), the cells left and right of each
    interior face, the rows u, v, w, and w right and left of each face."""

    def __init__(self, n: int):
        self.fields, self.mass = np.empty((3, n)), np.empty(2)
        self.uv = uv = self.fields[:2]
        self.vu, self.left, self.right = uv[::-1], uv[:, :-1], uv[:, 1:]
        self.u, self.v, self.w = self.fields
        self.w_right, self.w_left = self.w[1:], self.w[:-1]


class _Workspace:
    """Per-run cache: the signal factor, the coefficients (row 0 for u, 1
    for v), the two states a run steps between, the stage buffers and
    the dpttrf factors of the implicit diffusion matrices for the last step
    width (only a run's final step may be shorter; equal diffusivities
    share one factor)."""

    def __init__(self, p: ModelParams, grid: Grid1D, cfg: StepperConfig):
        self.p, self.grid = p, grid
        self.dx = grid.dx
        self.dx_operand = np.array(grid.dx)  # a 0-d array converts faster than a float
        self.cfl_safety = cfg.cfl_safety
        self.signal_factor = assemble(p, grid)
        # bracket = (a0 - (a3*mass_u + a4*mass_v)) - (a1*u + a2*v), v's from the
        # b's, in elementwise products, so no BLAS kernel sets its bits; a1*u
        # and b2*v are also terms of the reaction Jacobian diagonal.
        self.self_limit = np.array([[p.a1], [p.b2]])
        self.cross_coupling = np.array([[p.a2], [p.b1]])
        self.growth = np.empty((2, 1))
        self.chi = np.array([[p.chi1], [p.chi2]])
        self.chi_max = max(p.chi1, p.chi2)
        self.n_cells = n = grid.n_cells
        self.states = _State(n), _State(n)
        # The face fluxes, whose boundary faces stay zero, their interior and
        # their views right and left of each cell; the stage buffers; the
        # signal differences, their absolute values and signs; the outflow
        # terms of each cell; the l*v term of the signal solve.
        self.flux = np.zeros((2, n + 1))
        self.flux_inner = self.flux[:, 1:-1]
        self.flux_right, self.flux_left = self.flux[:, 1:], self.flux[:, :-1]
        self.bracket, self.jac, self.div = np.empty((2, n)), np.empty((2, n)), np.empty((2, n))
        self.dw, self.abs_dw, self.mask = np.empty(n - 1), np.empty(n - 1), np.empty(n - 1, bool)
        self.outflow, self.rhs_term = np.empty(n), np.empty(n)
        self.factored_dt = math.nan  # equal to no step width
        self.factors: tuple[tuple[np.ndarray, np.ndarray], ...] = ()

    def start(self, uv: np.ndarray) -> tuple[_State, _State]:
        """Fill the first state from the (2, n) densities uv, with their
        signal solve and masses; returns both states, that one first."""
        first = self.states[0]
        if uv.shape != first.uv.shape:
            raise PreconditionError(f"densities of shape {uv.shape[1:]} do not fit n_cells={self.n_cells}")
        first.uv[...] = uv
        solve_w(self.signal_factor, first.u, first.v, self.p, first.w, self.rhs_term)
        first.mass[...] = self.grid.integrate(first.uv)
        return self.states

    def diffusion_factors(self, dt: float) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The dpttrf factors of u's and v's diffusion matrix for a step dt."""
        if dt != self.factored_dt:
            d1, d2, dx2 = self.p.d1, self.p.d2, self.dx * self.dx
            first = neumann_factor(1.0, dt * d1 / dx2, self.n_cells)
            second = first if d2 == d1 else neumann_factor(1.0, dt * d2 / dx2, self.n_cells)
            self.factored_dt, self.factors = dt, (first, second)
        return self.factors


def _outflow_rate(ws: _Workspace) -> float:
    """max(out - ws.bracket) over both species, out = chi*(max(dw_right, 0)
    + max(-dw_left, 0))/dx² the upwind outflow rate of each cell, dw =
    ws.dw.  Writes ws.outflow, ws.abs_dw and ws.div."""
    dw, out = ws.dw, ws.outflow
    out[-1] = 0.0
    np.maximum(dw, 0.0, out=out[:-1])  # NumPy 2.4 deprecates a positional out here
    out[1:] += np.maximum(np.negative(dw, ws.abs_dw), 0.0, out=ws.abs_dw)
    rate = np.divide(np.multiply(ws.chi, out, ws.div), ws.dx * ws.dx, ws.div)
    return float(np.maximum.reduce(np.subtract(rate, ws.bracket, rate), None))


def _check_stability(ws: _Workspace, dt: float) -> None:
    """Raise when dt exceeds the positivity limit cfl_safety / max(out -
    bracket) (see _outflow_rate), below which the explicit stage keeps every
    cell nonnegative, or 1/|J|, J the reaction Jacobian diagonal bracket_u -
    a1*u (and bracket_v - b2*v); ws.jac holds the products a1*u and b2*v on
    entry and |J| on return.  ws.dw holds the signal differences across the
    interior faces.  For u, v >= 0, -bracket <= |J| <= jmax and out <=
    2*chi_max*max|dw|/dx², so the exact rate is computed only when their sum
    does not admit dt."""
    jac = np.subtract(ws.bracket, ws.jac, ws.jac)
    jmax = float(np.maximum.reduce(np.abs(jac, jac), None))
    rx_limit = math.inf if jmax == 0.0 else 1.0 / jmax
    rate = 2.0 * ws.chi_max * float(np.maximum.reduce(np.abs(ws.dw, ws.abs_dw))) / (ws.dx * ws.dx) + jmax
    pos_limit = math.inf if rate == 0.0 else ws.cfl_safety / rate
    if dt > pos_limit:
        rate = _outflow_rate(ws)
        pos_limit = math.inf if rate <= 0.0 else ws.cfl_safety / rate
    if dt > pos_limit or dt > rx_limit:
        if dt > pos_limit and dt > rx_limit:
            binding = "positivity and reaction"
        elif dt > pos_limit:
            binding = "positivity"
        else:
            binding = "reaction"
        raise CflViolationError(binding, dt, min(pos_limit, rx_limit))


def _advance(ws: _Workspace, src: _State, dst: _State, dt: float) -> None:
    """One split step of width dt from the state src into the state dst.

    Trusts src.w to be the signal solve of src.uv and src.mass their
    integrals, as _Workspace.start and every step leave them.  Writes dst
    and the workspace's stage buffers, and reads src alone.  Each stage is
    written in place, with the operations and operand order of the
    expression uv + dt * (uv * bracket - (flux[:, 1:] - flux[:, :-1]) / dx).
    """
    p, dx = ws.p, ws.dx_operand
    dw = np.subtract(src.w_right, src.w_left, ws.dw)
    mass_u, mass_v = src.mass.tolist()
    ws.growth[0, 0] = p.a0 - (p.a3 * mass_u + p.a4 * mass_v)
    ws.growth[1, 0] = p.b0 - (p.b3 * mass_u + p.b4 * mass_v)
    # (a1*u, b2*v) + (a2*v, b1*u), sums whose bits do not depend on the order
    jac = np.multiply(ws.self_limit, src.uv, ws.jac)
    bracket = np.multiply(ws.cross_coupling, src.vu, ws.bracket)
    np.add(jac, bracket, bracket)
    np.subtract(ws.growth, bracket, bracket)
    _check_stability(ws, dt)

    chemotaxis_flux(src.left, src.right, dw, ws.chi, dx, ws.mask, ws.flux_inner)
    div = np.subtract(ws.flux_right, ws.flux_left, ws.div)
    np.divide(div, dx, div)
    stage = np.multiply(src.uv, bracket, dst.uv)
    np.subtract(stage, div, stage)
    np.multiply(dt, stage, stage)
    np.add(src.uv, stage, stage)

    # Each row is contiguous, so dpttrs solves it in place; its M-matrix
    # factor (d > 0, e < 0) adds only nonnegative terms, so no sign flips.
    u_factor, v_factor = ws.factors if dt == ws.factored_dt else ws.diffusion_factors(dt)
    dpttrs(*u_factor, dst.u, True)  # overwrite_b, passed by position: keywords cost
    dpttrs(*v_factor, dst.v, True)

    np.multiply(np.add.reduce(stage, 1, None, dst.mass), dx, dst.mass)
    solve_w(ws.signal_factor, dst.u, dst.v, p, dst.w, ws.rhs_term)


def _same_bits(new: tuple[np.ndarray, ...], old: tuple[np.ndarray, ...]) -> bool:
    """Whether each float array of new equals its partner in old bit for
    bit, so a signed zero is not the other zero."""
    return all(np.array_equal(a.view(np.uint64), b.view(np.uint64)) for a, b in zip(new, old))


@np.errstate(over="ignore")  # an overflow is inf, which a run's guards report
def initial_state(u0: np.ndarray, v0: np.ndarray, p: ModelParams, grid: Grid1D) -> FieldState:
    """Bundle initial densities with their signal solve at t = 0.

    Nothing in the package calls it: run_simulation starts from the
    densities.  It is kept because perfbench/tracer.py's CALL_SITES
    resolves the name, and a traced run fails without it, until the
    tracer's refresh (ROADMAP item 2 Part A) deletes both.
    """
    u0 = np.asarray(u0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    return FieldState(t=0.0, u=u0, v=v0, w=solve_w(assemble(p, grid), u0, v0, p))


# An overflowing run turns the densities to inf and NaN, which the non_finite
# and blow_up guards report; NumPy's warnings would only repeat it on stderr.
@np.errstate(over="ignore", invalid="ignore")
def run_simulation(
    u0: np.ndarray,
    v0: np.ndarray,
    p: ModelParams,
    grid: Grid1D,
    cfg: StepperConfig,
) -> TrajectoryRecord:
    """Drive the stepper from the densities u0, v0 at t = 0 to cfg.t_end,
    recording summaries.

    Records every record_every-th step plus the initial and final
    snapshots.  Stops early when a density becomes NaN or infinite
    (guard_tripped="non_finite") or exceeds cfg.blowup_guard ("blow_up"), in
    both cases with the partial trace kept, or, when cfg.steady_tol and
    cfg.steady_window are given, once the trailing window certifies
    stationarity at that tolerance.  A step whose dt fails the stability
    check ends the run likewise ("cfl_violation", the binding constraint
    and the largest admissible dt in the notes), also on the first step,
    whose record then holds the initial sample alone.  A dt too small to
    advance t at the run's largest |t|, a negative initial density, or
    densities whose length is not grid.n_cells raise PreconditionError
    before any step.

    Recorded samples are copied into a block of (3, n) stacks (rows u, v,
    w) that the record reduces in one call when the block is full, before
    each steady-state test, and at the end of the run.

    Once a full step of width cfg.dt writes u, v, w and the masses bit for
    bit as it read them, every later full step would too: those steps keep
    the state and only advance t, with the guards, the recording and the
    steady-state test run as before.  rec.stationary_from_t is the start of
    that first unchanging step, and rec.steps counts every step taken.
    """
    if grid.length != p.omega_measure:
        raise PreconditionError(
            f"grid length {grid.length!r} must equal omega_measure {p.omega_measure!r}"
        )
    uv = np.array([u0, v0], dtype=float)
    if (uv < 0.0).any():
        raise PreconditionError("initial densities must be nonnegative")
    t = 0.0
    t_stop, last_step = check_time_resolution(t, cfg.t_end, cfg.dt)
    ws = _Workspace(p, grid, cfg)
    cur, nxt = ws.start(uv)
    rec = TrajectoryRecord()
    n = grid.n_cells
    block = np.empty((max(1, BLOCK_VALUES // (3 * n)), 3, n))
    masses = np.empty((block.shape[0], 2))
    times: list[float] = []  # of the samples held in the block

    def flush() -> None:
        if times:
            rec.append_block(times, block[: len(times)], masses[: len(times)])
            times.clear()

    def record() -> None:
        i = len(times)
        block[i] = cur.fields
        masses[i] = cur.mass
        times.append(t)
        if i + 1 == len(block):
            flush()

    record()
    steps_done = 0
    while t < t_stop:
        rest = cfg.t_end - t
        dt = rest if rest < last_step else cfg.dt
        if rec.stationary_from_t is None or dt != cfg.dt:
            try:
                _advance(ws, cur, nxt, dt)
            except CflViolationError as exc:
                rec.guard_tripped = "cfl_violation"
                rec.notes.append(str(exc))
                break
            # A full step that leaves its state as it was, bit for bit, leaves it so
            # at every later full step too.  The float compares of the masses
            # fail first on almost every step, and on a NaN.
            if (dt == cfg.dt and nxt.mass[0] == cur.mass[0] and nxt.mass[1] == cur.mass[1]
                    and _same_bits((nxt.fields, nxt.mass), (cur.fields, cur.mass))):
                rec.stationary_from_t = t
            else:
                cur, nxt = nxt, cur
        t += dt
        steps_done += 1
        peak = float(np.maximum.reduce(cur.uv, axis=None))
        if not math.isfinite(peak):
            rec.guard_tripped = "non_finite"
            rec.notes.append(f"a density became non-finite (maximum {peak!r}) at t={t!r}")
        elif peak > cfg.blowup_guard:
            rec.guard_tripped = "blow_up"
            rec.notes.append(f"field maximum exceeded the blow-up guard {cfg.blowup_guard!r} at t={t!r}")
        if rec.guard_tripped:
            record()
            break
        if steps_done % cfg.record_every == 0 or t >= t_stop:
            record()
            tol, window = cfg.steady_tol, cfg.steady_window
            if tol is not None:
                flush()
                if (rec.span >= window and may_be_steady(rec, tol, window)
                        and detect_steady(rec, tol, window).steady):
                    rec.stopped_early = True
                    rec.notes.append(
                        f"stationary at tol={tol!r} over window={window!r}; stopped at t={t!r}"
                    )
                    break
    if t > (times[-1] if times else rec.t[-1]):
        record()
    flush()
    rec.steps = steps_done
    rec.final_state = FieldState(t=t, u=cur.u, v=cur.v, w=cur.w)
    return rec
