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


def chemotaxis_flux(
    u: np.ndarray, w: np.ndarray, chi: float | np.ndarray, grid: Grid1D
) -> np.ndarray:
    """Face fluxes of the attraction term, donor-cell upwinded.

    Face i+1/2 carries chi * u_donor * (w[i+1] - w[i]) / dx, the donor being
    the cell the signal gradient points away from.  The two boundary faces
    carry zero flux.  u is one density (n,) with a scalar chi, giving (n + 1,)
    fluxes, or m densities (m, n) with chi an (m, 1) column, giving (m, n + 1).
    """
    flux = np.zeros(u.shape[:-1] + (u.shape[-1] + 1,))
    dw = w[1:] - w[:-1]
    donor = np.where(dw > 0.0, u[..., :-1], u[..., 1:])
    flux[..., 1:-1] = chi * donor * dw / grid.dx
    return flux


class _Workspace:
    """Per-run cache: the signal operator, the coefficients (row 0 for u, 1
    for v) and the dpttrf factors of the implicit diffusion matrices (keyed
    by (d, dt): equal diffusivities share one, and the final step of a run
    may be shorter)."""

    def __init__(self, p: ModelParams, grid: Grid1D, cfg: StepperConfig):
        self.p = p
        self.grid = grid
        self.cfg = cfg
        self.op = assemble(p, grid)
        # bracket = growth - local_coupling @ (u, v) - mass_coupling @ (mass_u, mass_v)
        self.growth = np.array([p.a0, p.b0])
        self.local_coupling = np.array([[p.a1, p.a2], [p.b1, p.b2]])
        self.mass_coupling = np.array([[p.a3, p.a4], [p.b3, p.b4]])
        self.self_limit = np.array([[p.a1], [p.b2]])
        self.chi = np.array([[p.chi1], [p.chi2]])
        self._factors: dict[tuple[float, float], tuple[np.ndarray, np.ndarray]] = {}

    def diffusion_factor(self, d: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
        key = (d, dt)
        factor = self._factors.get(key)
        if factor is None:
            r = dt * d / (self.grid.dx * self.grid.dx)
            factor = neumann_factor(1.0, r, self.grid.n_cells)[1:]
            self._factors[key] = factor
        return factor


def _check_stability(
    ws: _Workspace, uv: np.ndarray, w: np.ndarray, dt: float, bracket: np.ndarray
) -> None:
    """Raise when dt exceeds the advection CFL limit or 1/|J|, J the local
    reaction Jacobian diagonal d(u*bracket_u)/du = bracket_u - a1*u (and
    bracket_v - b2*v)."""
    p, grid = ws.p, ws.grid
    dx = grid.dx
    grad_max = float(np.abs(w[1:] - w[:-1]).max()) / dx if w.shape[0] > 1 else 0.0
    speed = max(p.chi1, p.chi2) * grad_max
    adv_limit = math.inf if speed == 0.0 else ws.cfg.cfl_safety * dx / speed
    jmax = float(np.abs(bracket - ws.self_limit * uv).max())
    rx_limit = math.inf if jmax == 0.0 else 1.0 / jmax
    if dt > adv_limit or dt > rx_limit:
        if dt > adv_limit and dt > rx_limit:
            binding = "advection and reaction"
        elif dt > adv_limit:
            binding = "advection"
        else:
            binding = "reaction"
        raise CflViolationError(binding, dt, min(adv_limit, rx_limit))


def _advance(ws: _Workspace, uv: np.ndarray, w: np.ndarray, mass: list[float], dt: float) -> tuple:
    """One split step of width dt on the (2, n) densities uv.

    Trusts w to be the signal solve of uv and mass its two integrals; every
    producer in this module maintains that invariant.  Returns the same
    three for the new densities, then the clipped mass.
    """
    p, grid = ws.p, ws.grid
    bracket = (ws.growth - ws.mass_coupling @ mass)[:, None] - ws.local_coupling @ uv
    _check_stability(ws, uv, w, dt, bracket)

    flux = chemotaxis_flux(uv, w, ws.chi, grid)
    uv_star = uv + dt * (uv * bracket - (flux[:, 1:] - flux[:, :-1]) / grid.dx)

    uv_new = np.array(
        [dpttrs(*ws.diffusion_factor(d, dt), row)[0] for d, row in zip((p.d1, p.d2), uv_star)]
    )

    clipped = 0.0
    if ws.cfg.positivity_clip:
        neg = float(np.minimum(uv_new, 0.0).sum())
        if neg < 0.0:
            clipped = -grid.dx * neg
            uv_new = np.maximum(uv_new, 0.0)

    w_new = solve_w(ws.op, *uv_new, p)
    return uv_new, w_new, grid.integrate(uv_new), clipped


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
    """
    if grid.length != p.omega_measure:
        raise PreconditionError(
            f"grid length {grid.length!r} must equal omega_measure {p.omega_measure!r}"
        )
    check_time_resolution(state0.t, cfg.t_end, cfg.dt)
    ws = _Workspace(p, grid, cfg)
    t = state0.t
    uv = np.array([state0.u, state0.v], dtype=float)
    w = solve_w(ws.op, *uv, p)
    mass = grid.integrate(uv)
    rec = TrajectoryRecord(ref_labels=tuple(label for label, _ in references))
    levels = np.array(
        [(r.u_star, r.v_star, r.w_star) for _, r in references], dtype=float
    ).reshape(-1, 3)
    fields = np.empty((3, uv.shape[1]))  # the sample stack: rows u, v, w

    def record() -> None:
        if not rec.t or t > rec.t[-1]:
            fields[:2] = uv
            fields[2] = w
            rec.append_sample(t, fields, mass[0], mass[1], levels)

    record()
    time_scale = max(cfg.t_end, 1.0)
    steps_done = 0
    while t < cfg.t_end - 1e-12 * time_scale:
        dt = min(cfg.dt, cfg.t_end - t)
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
        peak = float(uv.max())
        if not math.isfinite(peak):
            rec.guard_tripped = "non_finite"
            rec.notes.append(f"a density became non-finite (maximum {peak!r}) at t={t!r}")
        elif peak > cfg.blowup_guard:
            rec.guard_tripped = "blow_up"
            rec.notes.append(f"field maximum exceeded the blow-up guard {cfg.blowup_guard!r} at t={t!r}")
        if rec.guard_tripped:
            record()
            break
        at_stride = steps_done % cfg.record_every == 0
        if at_stride or t >= cfg.t_end - 1e-12 * time_scale:
            record()
            tol, window = cfg.steady_tol, cfg.steady_window
            if tol is not None and rec.span >= window and may_be_steady(rec, tol, window):
                if detect_steady(rec, tol, window).steady:
                    rec.stopped_early = True
                    rec.notes.append(
                        f"stationary at tol={tol!r} over window={window!r}; stopped at t={t!r}"
                    )
                    break
    record()
    rec.final_state = FieldState(t=t, u=uv[0], v=uv[1], w=w)
    return rec
