"""Time integration of the two-species system with quasi-static signal.

One step is first-order operator splitting: the chemotactic advection
(conservative face fluxes, donor-cell upwinding by the sign of the signal
gradient) and the mass-coupled reaction are advanced by explicit Euler,
then each species is diffused implicitly (backward Euler), which leaves
the step restricted only by the advection CFL and the explicit-reaction
stability bound.  The signal w is re-solved once per step from the
pre-step densities.  The stepper holds u and v as the rows of one (2, n)
array, so each stage is one array expression for both species.

Spatially constant states reduce the step to plain explicit Euler for the
homogeneous interaction ODE: the advection fluxes vanish, and the implicit
diffusion of a constant is the constant itself.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dpttrs

from .diagnostics import TrajectoryRecord, detect_steady, may_be_steady
from .elliptic import assemble, neumann_factor, solve_w
from .model import (
    CflViolationError,
    FieldState,
    Grid1D,
    ModelParams,
    PreconditionError,
    StepperConfig,
    check_time_resolution,
)
from .steady_states import ConstantState

# Recorded (3, n) stacks are reduced a block at a time, one NumPy call per
# statistic for the whole block, which costs about what one call per
# sample did.  A block holds at most this many values (256 KiB), and at
# least one stack.
BLOCK_VALUES = 1 << 15


def chemotaxis_flux(
    u: np.ndarray, dw: np.ndarray, chi: float | np.ndarray, dx: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Face fluxes of the attraction term, donor-cell upwinded.

    dw holds the signal differences w[i+1] - w[i] across the n - 1 interior
    faces.  Face i+1/2 carries chi * u_donor * dw[i] / dx, the donor being
    the cell the signal gradient points away from.  The two boundary faces
    carry zero flux.  u is one density (n,) with a scalar chi, giving (n + 1,)
    fluxes, or m densities (m, n) with chi an (m, 1) column, giving (m, n + 1).
    The fluxes go into out when it is given, whose boundary faces must
    already hold zeros; otherwise into a new array.
    """
    if out is None:
        out = np.zeros(u.shape[:-1] + (u.shape[-1] + 1,))
    inner = out[..., 1:-1]
    np.multiply(chi, np.where(dw > 0.0, u[..., :-1], u[..., 1:]), out=inner)
    inner *= dw
    inner /= dx
    return out


class _Workspace:
    """Per-run cache: the signal operator, the coefficients (row 0 for u, 1
    for v), the stage buffers and the dpttrf factors of the implicit
    diffusion matrices, one pair per step width (the final step of a run
    may be shorter; equal diffusivities share one factor)."""

    def __init__(self, p: ModelParams, grid: Grid1D, cfg: StepperConfig):
        self.p = p
        self.dx = grid.dx
        self.cfg = cfg
        self.op = assemble(p, grid)
        # bracket = growth - local_coupling @ (u, v) - mass_coupling @ (mass_u, mass_v)
        self.growth = np.array([p.a0, p.b0])
        self.local_coupling = np.array([[p.a1, p.a2], [p.b1, p.b2]])
        self.mass_coupling = np.array([[p.a3, p.a4], [p.b3, p.b4]])
        self.self_limit = np.array([[p.a1], [p.b2]])
        self.chi = np.array([[p.chi1], [p.chi2]])
        self.chi_max = max(p.chi1, p.chi2)
        self.n_cells = n = grid.n_cells
        # The face fluxes, whose boundary faces stay zero, and their views
        # right and left of each cell; the flux divergence; the scratch of
        # the reaction Jacobian diagonal.
        self.flux = np.zeros((2, n + 1))
        self.flux_right, self.flux_left = self.flux[:, 1:], self.flux[:, :-1]
        self.div = np.empty((2, n))
        self.jac = np.empty((2, n))
        self.factors: dict[float, tuple[tuple[np.ndarray, np.ndarray], ...]] = {}

    def diffusion_factors(self, dt: float) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """The dpttrf factors of u's and v's diffusion matrix for a step dt."""
        pair = self.factors.get(dt)
        if pair is None:
            d1, d2, dx2 = self.p.d1, self.p.d2, self.dx * self.dx
            first = neumann_factor(1.0, dt * d1 / dx2, self.n_cells)
            second = first if d2 == d1 else neumann_factor(1.0, dt * d2 / dx2, self.n_cells)
            pair = self.factors[dt] = (first, second)
        return pair


def _check_stability(
    ws: _Workspace, uv: np.ndarray, dw: np.ndarray, dt: float, bracket: np.ndarray
) -> None:
    """Raise when dt exceeds the advection CFL limit or 1/|J|, J the local
    reaction Jacobian diagonal d(u*bracket_u)/du = bracket_u - a1*u (and
    bracket_v - b2*v).  dw holds the signal differences across the interior
    faces."""
    dx = ws.dx
    grad_max = float(np.maximum.reduce(np.abs(dw))) / dx
    speed = ws.chi_max * grad_max
    adv_limit = math.inf if speed == 0.0 else ws.cfg.cfl_safety * dx / speed
    jac = np.multiply(ws.self_limit, uv, out=ws.jac)
    np.subtract(bracket, jac, out=jac)
    jmax = float(np.maximum.reduce(np.abs(jac, out=jac), axis=None))
    rx_limit = math.inf if jmax == 0.0 else 1.0 / jmax
    if dt > adv_limit or dt > rx_limit:
        if dt > adv_limit and dt > rx_limit:
            binding = "advection and reaction"
        elif dt > adv_limit:
            binding = "advection"
        else:
            binding = "reaction"
        raise CflViolationError(binding, dt, min(adv_limit, rx_limit))


def _advance(ws: _Workspace, uv: np.ndarray, w: np.ndarray, mass: np.ndarray, dt: float) -> tuple:
    """One split step of width dt on the (2, n) densities uv.

    Trusts w to be the signal solve of uv and mass the (2,) array of their
    integrals; every producer in this module maintains that invariant.
    Returns the same three for the new densities, then the clipped mass.
    Each stage is written in place into one new (2, n) array, with the
    operations and operand order of the expression
    uv + dt * (uv * bracket - (flux[:, 1:] - flux[:, :-1]) / dx).
    """
    dx = ws.dx
    dw = w[1:] - w[:-1]
    stage = ws.local_coupling @ uv
    np.subtract((ws.growth - ws.mass_coupling @ mass)[:, None], stage, out=stage)  # the bracket
    _check_stability(ws, uv, dw, dt, stage)

    chemotaxis_flux(uv, dw, ws.chi, dx, out=ws.flux)
    div = np.subtract(ws.flux_right, ws.flux_left, out=ws.div)
    div /= dx
    np.multiply(uv, stage, out=stage)
    np.subtract(stage, div, out=stage)
    np.multiply(dt, stage, out=stage)
    np.add(uv, stage, out=stage)

    # Each row is contiguous, so dpttrs solves it in place.
    for factor, row in zip(ws.diffusion_factors(dt), stage):
        dpttrs(*factor, row, overwrite_b=True)

    clipped = 0.0
    if ws.cfg.positivity_clip:
        neg = float(np.add.reduce(np.minimum(stage, 0.0), axis=None))
        if neg < 0.0:
            clipped = -dx * neg
            np.maximum(stage, 0.0, out=stage)

    mass_new = np.add.reduce(stage, axis=1)
    mass_new *= dx
    return stage, solve_w(ws.op, *stage, ws.p), mass_new, clipped


def initial_state(u0: np.ndarray, v0: np.ndarray, p: ModelParams, grid: Grid1D) -> FieldState:
    """Bundle initial densities with their signal solve at t = 0."""
    op = assemble(p, grid)
    u0 = np.asarray(u0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    return FieldState(t=0.0, u=u0, v=v0, w=solve_w(op, u0, v0, p))


def run_simulation(
    state0: FieldState,
    p: ModelParams,
    grid: Grid1D,
    cfg: StepperConfig,
    references: tuple[tuple[str, ConstantState], ...] = (),
) -> TrajectoryRecord:
    """Drive the stepper from state0 to cfg.t_end, recording summaries.

    Records every record_every-th step plus the initial and final
    snapshots.  Stops early when a density becomes NaN or infinite
    (guard_tripped="non_finite") or exceeds cfg.blowup_guard ("blow_up"), in
    both cases with the partial trace kept, or, when cfg.steady_tol and
    cfg.steady_window are given, once the trailing window certifies
    stationarity at that tolerance.  A stability violation after
    at least one completed step is likewise recorded as a guard trip
    ("cfl_violation"); on the very first step it propagates, since then
    the configured dt was never admissible.  A dt too small to advance t
    at the run's largest |t| raises PreconditionError before any step.

    Recorded samples are copied into a block of (3, n) stacks (rows u, v,
    w) that the record reduces in one call when the block is full, before
    each steady-state test, and at the end of the run.
    """
    if grid.length != p.omega_measure:
        raise PreconditionError(
            f"grid length {grid.length!r} must equal omega_measure {p.omega_measure!r}"
        )
    t_stop, last_step = check_time_resolution(state0.t, cfg.t_end, cfg.dt)
    ws = _Workspace(p, grid, cfg)
    t = state0.t
    uv = np.array([state0.u, state0.v], dtype=float)
    w = solve_w(ws.op, *uv, p)
    mass = np.array(grid.integrate(uv))
    rec = TrajectoryRecord(ref_labels=tuple(label for label, _ in references))
    levels = np.array(
        [(r.u_star, r.v_star, r.w_star) for _, r in references], dtype=float
    ).reshape(-1, 3)
    n = grid.n_cells
    block = np.empty((max(1, BLOCK_VALUES // (3 * n)), 3, n))
    slots = [(stack[:2], stack[2]) for stack in block]
    masses = np.empty((block.shape[0], 2))
    times: list[float] = []  # of the samples held in the block

    def flush() -> None:
        if times:
            rec.append_block(times, block[: len(times)], masses[: len(times)], levels)
            times.clear()

    def record() -> None:
        i = len(times)
        uv_slot, w_slot = slots[i]
        uv_slot[...] = uv
        w_slot[...] = w
        masses[i] = mass
        times.append(t)
        if i + 1 == len(slots):
            flush()

    record()
    steps_done = 0
    # An overflowing run turns the densities to inf and NaN, which the
    # non_finite and blow_up guards report; NumPy's warnings would only
    # repeat it on stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_stop:
            rest = cfg.t_end - t
            dt = rest if rest < last_step else cfg.dt
            try:
                uv, w, mass, clipped = _advance(ws, uv, w, mass, dt)
            except CflViolationError as exc:
                if steps_done == 0:
                    raise
                rec.guard_tripped = "cfl_violation"
                rec.notes.append(str(exc))
                break
            t += dt
            steps_done += 1
            rec.clipped_mass += clipped
            peak = float(np.maximum.reduce(uv, axis=None))
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
    rec.final_state = FieldState(t=t, u=uv[0], v=uv[1], w=w)
    return rec
