"""Time integration of the two-species system with quasi-static signal.

One step is first-order operator splitting: the chemotactic advection
(conservative face fluxes, donor-cell upwinding by the sign of the signal
gradient) and the mass-coupled reaction are advanced by explicit Euler,
then each species is diffused implicitly (backward Euler), which leaves
the step restricted only by the advection CFL and the explicit-reaction
stability bound.  The signal w is re-solved once per step from the
pre-step densities.

Spatially constant states reduce the step to plain explicit Euler for the
homogeneous interaction ODE: the advection fluxes vanish, and the implicit
diffusion of a constant is the constant itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve_banded

from .diagnostics import TrajectoryRecord, detect_steady
from .elliptic import assemble, neumann_factor, solve_w
from .model import FieldState, Grid1D, ModelParams, PreconditionError
from .steady_states import ConstantState

DEFAULT_BLOWUP_GUARD = 1e8


class CflViolationError(RuntimeError):
    """The configured dt violates an explicit stability constraint."""

    def __init__(self, binding: str, dt: float, suggested_dt: float):
        self.binding = binding
        self.dt = dt
        self.suggested_dt = suggested_dt
        super().__init__(
            f"dt={dt!r} violates the {binding} constraint; "
            f"largest admissible dt here is {suggested_dt!r}"
        )


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    t_end: float
    cfl_safety: float = 0.9
    positivity_clip: bool = False
    record_every: int = 1

    def __post_init__(self) -> None:
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ValueError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety!r}")
        if not (self.t_end >= 0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be nonnegative and finite, got {self.t_end!r}")
        if not isinstance(self.record_every, int) or self.record_every < 1:
            raise ValueError(f"record_every must be an integer >= 1, got {self.record_every!r}")


def chemotaxis_flux(u: np.ndarray, w: np.ndarray, chi: float, grid: Grid1D) -> np.ndarray:
    """Face fluxes of the attraction term, donor-cell upwinded.

    Face i+1/2 carries chi * u_donor * (w[i+1] - w[i]) / dx, the donor being
    the cell the signal gradient points away from.  The two boundary faces
    carry zero flux.
    """
    n = u.shape[0]
    flux = np.zeros(n + 1)
    dw = w[1:] - w[:-1]
    donor = np.where(dw > 0.0, u[:-1], u[1:])
    flux[1:-1] = chi * donor * dw / grid.dx
    return flux


class _Workspace:
    """Per-run cache: the assembled signal operator and the Cholesky
    factors of the implicit diffusion matrices (keyed by dt, since the
    final step of a run may be shorter)."""

    def __init__(self, p: ModelParams, grid: Grid1D, cfg: StepperConfig):
        self.p = p
        self.grid = grid
        self.cfg = cfg
        self.op = assemble(p, grid)
        self._factors: dict[tuple[float, float], np.ndarray] = {}

    def diffusion_factor(self, d: float, dt: float) -> np.ndarray:
        key = (d, dt)
        factor = self._factors.get(key)
        if factor is None:
            r = dt * d / (self.grid.dx * self.grid.dx)
            _, factor = neumann_factor(1.0, r, self.grid.n_cells)
            self._factors[key] = factor
        return factor


def _check_stability(
    ws: _Workspace, state: FieldState, dt: float, bracket_u: np.ndarray, bracket_v: np.ndarray
) -> None:
    """Raise when dt exceeds the advection CFL limit or 1/|J|, J the local
    reaction Jacobian diagonal d(u*bracket_u)/du = bracket_u - a1*u (and
    bracket_v - b2*v)."""
    p, grid = ws.p, ws.grid
    dx = grid.dx
    grad_max = float(np.abs(state.w[1:] - state.w[:-1]).max()) / dx if state.n_cells > 1 else 0.0
    speed = max(p.chi1, p.chi2) * grad_max
    adv_limit = math.inf if speed == 0.0 else ws.cfg.cfl_safety * dx / speed
    ju = float(np.abs(bracket_u - p.a1 * state.u).max())
    jv = float(np.abs(bracket_v - p.b2 * state.v).max())
    jmax = max(ju, jv)
    rx_limit = math.inf if jmax == 0.0 else 1.0 / jmax
    if dt > adv_limit or dt > rx_limit:
        if dt > adv_limit and dt > rx_limit:
            binding = "advection and reaction"
        elif dt > adv_limit:
            binding = "advection"
        else:
            binding = "reaction"
        raise CflViolationError(binding, dt, min(adv_limit, rx_limit))


def _advance(ws: _Workspace, state: FieldState, dt: float) -> tuple[FieldState, float]:
    """One split step of width dt; returns the new state and clipped mass.

    Trusts state.w to be the signal solve of (state.u, state.v); every
    producer in this module maintains that invariant.
    """
    p, grid = ws.p, ws.grid
    u, v, w = state.u, state.v, state.w
    mass_u = grid.integrate(u)
    mass_v = grid.integrate(v)
    bracket_u = p.a0 - p.a1 * u - p.a2 * v - p.a3 * mass_u - p.a4 * mass_v
    bracket_v = p.b0 - p.b1 * u - p.b2 * v - p.b3 * mass_u - p.b4 * mass_v
    _check_stability(ws, state, dt, bracket_u, bracket_v)

    flux_u = chemotaxis_flux(u, w, p.chi1, grid)
    flux_v = chemotaxis_flux(v, w, p.chi2, grid)
    u_star = u + dt * (u * bracket_u - np.diff(flux_u) / grid.dx)
    v_star = v + dt * (v * bracket_v - np.diff(flux_v) / grid.dx)

    u_new = cho_solve_banded((ws.diffusion_factor(p.d1, dt), False), u_star)
    v_new = cho_solve_banded((ws.diffusion_factor(p.d2, dt), False), v_star)

    clipped = 0.0
    if ws.cfg.positivity_clip:
        neg = np.minimum(u_new, 0.0).sum() + np.minimum(v_new, 0.0).sum()
        if neg < 0.0:
            clipped = -grid.dx * float(neg)
            u_new = np.maximum(u_new, 0.0)
            v_new = np.maximum(v_new, 0.0)

    w_new = solve_w(ws.op, u_new, v_new, p)
    return FieldState(t=state.t + dt, u=u_new, v=v_new, w=w_new), clipped


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
    blowup_guard: float = DEFAULT_BLOWUP_GUARD,
    steady_tol: float | None = None,
    steady_window: float | None = None,
) -> TrajectoryRecord:
    """Drive the stepper from state0 to cfg.t_end, recording summaries.

    Records every record_every-th step plus the initial and final
    snapshots.  Stops early when a field exceeds blowup_guard (recorded as
    guard_tripped="blow_up" with the partial trace kept) or, when
    steady_tol and steady_window are both given, once the trailing window
    certifies stationarity at that tolerance.  A stability violation after
    at least one completed step is likewise recorded as a guard trip
    ("cfl_violation"); on the very first step it propagates, since then
    the configured dt was never admissible.
    """
    if grid.length != p.omega_measure:
        raise PreconditionError(
            f"grid length {grid.length!r} must equal omega_measure {p.omega_measure!r}"
        )
    ws = _Workspace(p, grid, cfg)
    state = FieldState(
        t=state0.t, u=state0.u, v=state0.v, w=solve_w(ws.op, state0.u, state0.v, p)
    )
    rec = TrajectoryRecord(ref_labels=tuple(label for label, _ in references))

    def record(s: FieldState) -> None:
        if rec.t and s.t <= rec.t[-1]:
            return
        m_u, m_v = grid.integrate(s.u), grid.integrate(s.v)
        rec.append_sample(s, m_u, m_v, references)

    record(state)
    time_scale = max(cfg.t_end, 1.0)
    steps_done = 0
    while state.t < cfg.t_end - 1e-12 * time_scale:
        dt = min(cfg.dt, cfg.t_end - state.t)
        try:
            state, clipped = _advance(ws, state, dt)
        except CflViolationError as exc:
            if steps_done == 0:
                raise
            rec.guard_tripped = "cfl_violation"
            rec.notes.append(str(exc))
            break
        steps_done += 1
        rec.clipped_mass += clipped
        if max(float(state.u.max()), float(state.v.max())) > blowup_guard:
            record(state)
            rec.guard_tripped = "blow_up"
            rec.notes.append(
                f"field maximum exceeded the blow-up guard {blowup_guard!r} at t={state.t!r}"
            )
            break
        at_stride = steps_done % cfg.record_every == 0
        if at_stride or state.t >= cfg.t_end - 1e-12 * time_scale:
            record(state)
            if (
                steady_tol is not None
                and steady_window is not None
                and rec.span >= steady_window
            ):
                if detect_steady(rec, steady_tol, steady_window).steady:
                    rec.stopped_early = True
                    rec.notes.append(
                        f"stationary at tol={steady_tol!r} over window={steady_window!r}; "
                        f"stopped at t={state.t!r}"
                    )
                    break
    record(state)
    rec.final_state = state
    return rec
