"""Rectangle ODE enclosures of the PDE densities.

The rectangle system evolves four scalars (u_hi, u_lo, v_hi, v_lo) whose
box [u_lo, u_hi] x [v_lo, v_hi] encloses the spatial range of the PDE
densities when initialized at the initial extrema.  Its right-hand side
splits every interaction coefficient into signed parts so that each
bounding curve moves at least as fast outward as the field it dominates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    FieldState,
    ModelParams,
    PreconditionError,
    negative_part,
    positive_part,
)

DIVERGENCE_GUARD = 1e8


@dataclass(frozen=True)
class RectangleState:
    """One sample of the four bounding curves at time t."""

    t: float
    u_hi: float
    u_lo: float
    v_hi: float
    v_lo: float

    def ordered(self) -> bool:
        return self.u_lo <= self.u_hi and self.v_lo <= self.v_hi


@dataclass
class RectangleTrace:
    """Recorded rectangle trajectory.  guard_tripped is None for a clean
    run and "blow_up" when a component passed the divergence guard, in
    which case states holds the partial trace up to the trip."""

    states: list[RectangleState] = field(default_factory=list)
    guard_tripped: str | None = None
    notes: list[str] = field(default_factory=list)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    def component(self, name: str) -> np.ndarray:
        return np.array([getattr(s, name) for s in self.states])


def initial_rectangle(state: FieldState) -> RectangleState:
    """Rectangle data at the field extrema, the canonical initialization."""
    return RectangleState(
        t=state.t,
        u_hi=float(state.u.max()),
        u_lo=float(state.u.min()),
        v_hi=float(state.v.max()),
        v_lo=float(state.v.min()),
    )


class _RhsConstants:
    """Signed-part coefficient groups precomputed once per integration."""

    __slots__ = (
        "c1", "c2", "k", "l", "a0", "b0",
        "a_self", "a_self_opp", "a_cross_up", "a_cross_down",
        "b_self", "b_self_opp", "b_cross_up", "b_cross_down",
    )

    def __init__(self, p: ModelParams):
        w = p.omega_measure
        self.c1 = p.chi1 / p.d3
        self.c2 = p.chi2 / p.d3
        self.k = p.k
        self.l = p.l
        self.a0 = p.a0
        self.b0 = p.b0
        self.a_self = p.a1 - w * negative_part(p.a3)
        self.a_self_opp = w * positive_part(p.a3)
        self.a_cross_up = negative_part(p.a2) + w * negative_part(p.a4)
        self.a_cross_down = positive_part(p.a2) + w * positive_part(p.a4)
        self.b_self = p.b2 - w * negative_part(p.b4)
        self.b_self_opp = w * positive_part(p.b4)
        self.b_cross_up = negative_part(p.b1) + w * negative_part(p.b3)
        self.b_cross_down = positive_part(p.b1) + w * positive_part(p.b3)


def _rhs(
    c: _RhsConstants, u_hi: float, u_lo: float, v_hi: float, v_lo: float
) -> tuple[float, float, float, float]:
    signal_hi = c.k * u_hi + c.l * v_hi - c.k * u_lo - c.l * v_lo
    signal_lo = c.k * u_lo + c.l * v_lo - c.k * u_hi - c.l * v_hi
    du_hi = (
        c.c1 * u_hi * signal_hi
        + u_hi * (c.a0 - c.a_self * u_hi - c.a_self_opp * u_lo)
        + u_hi * (c.a_cross_up * v_hi - c.a_cross_down * v_lo)
    )
    du_lo = (
        c.c1 * u_lo * signal_lo
        + u_lo * (c.a0 - c.a_self * u_lo - c.a_self_opp * u_hi)
        + u_lo * (c.a_cross_up * v_lo - c.a_cross_down * v_hi)
    )
    dv_hi = (
        c.c2 * v_hi * signal_hi
        + v_hi * (c.b0 - c.b_self * v_hi - c.b_self_opp * v_lo)
        + v_hi * (c.b_cross_up * u_hi - c.b_cross_down * u_lo)
    )
    dv_lo = (
        c.c2 * v_lo * signal_lo
        + v_lo * (c.b0 - c.b_self * v_lo - c.b_self_opp * v_hi)
        + v_lo * (c.b_cross_up * u_lo - c.b_cross_down * u_hi)
    )
    return du_hi, du_lo, dv_hi, dv_lo


def rectangle_rhs(s: RectangleState, p: ModelParams) -> tuple[float, float, float, float]:
    """Time derivatives (du_hi, du_lo, dv_hi, dv_lo) of the rectangle system.

    The hi equations push the upper curves outward with the favorable
    signed parts of the cross terms; the lo equations are the exact mirror
    with hi and lo swapped, so a diagonal state (u_hi = u_lo, v_hi = v_lo)
    recombines to the plain interaction ODE.
    """
    return _rhs(_RhsConstants(p), s.u_hi, s.u_lo, s.v_hi, s.v_lo)


def integrate_rectangles(
    s0: RectangleState,
    p: ModelParams,
    t_end: float,
    dt: float = 1e-3,
    record_every: int = 1,
) -> RectangleTrace:
    """Classical fixed-step RK4 for the rectangle system.

    Requires ordered nonnegative initial data.  Records the initial state,
    every record_every-th step, and the final state.  When a component
    exceeds the divergence guard (or turns non-finite) the run stops with
    guard_tripped = "blow_up" and the partial trace kept; the rectangle
    system can genuinely blow up in finite time outside the
    global-existence parameter regions.
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not isinstance(record_every, int) or record_every < 1:
        raise ValueError(f"record_every must be an integer >= 1, got {record_every!r}")
    if not s0.ordered():
        raise PreconditionError(
            f"initial rectangle must be ordered (u_lo <= u_hi, v_lo <= v_hi), got {s0!r}"
        )
    if min(s0.u_lo, s0.v_lo) < 0:
        raise PreconditionError(f"initial rectangle must be nonnegative, got {s0!r}")

    c = _RhsConstants(p)
    trace = RectangleTrace(states=[s0])
    t, u_hi, u_lo, v_hi, v_lo = s0.t, s0.u_hi, s0.u_lo, s0.v_hi, s0.v_lo
    time_scale = max(abs(t_end), 1.0)
    steps_done = 0
    while t < t_end - 1e-12 * time_scale:
        h = min(dt, t_end - t)
        k1 = _rhs(c, u_hi, u_lo, v_hi, v_lo)
        k2 = _rhs(
            c,
            u_hi + 0.5 * h * k1[0],
            u_lo + 0.5 * h * k1[1],
            v_hi + 0.5 * h * k1[2],
            v_lo + 0.5 * h * k1[3],
        )
        k3 = _rhs(
            c,
            u_hi + 0.5 * h * k2[0],
            u_lo + 0.5 * h * k2[1],
            v_hi + 0.5 * h * k2[2],
            v_lo + 0.5 * h * k2[3],
        )
        k4 = _rhs(
            c,
            u_hi + h * k3[0],
            u_lo + h * k3[1],
            v_hi + h * k3[2],
            v_lo + h * k3[3],
        )
        sixth = h / 6.0
        u_hi += sixth * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        u_lo += sixth * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        v_hi += sixth * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        v_lo += sixth * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
        t += h
        steps_done += 1
        components = (u_hi, u_lo, v_hi, v_lo)
        finite = all(math.isfinite(x) for x in components)
        if not finite or max(components) > DIVERGENCE_GUARD:
            trace.states.append(RectangleState(t, u_hi, u_lo, v_hi, v_lo))
            trace.guard_tripped = "blow_up"
            trace.notes.append(
                f"rectangle component exceeded the divergence guard {DIVERGENCE_GUARD!r} "
                f"at t={t!r} (finite-time blow-up of the bounding system)"
            )
            break
        if steps_done % record_every == 0 or t >= t_end - 1e-12 * time_scale:
            if trace.states[-1].t < t:
                trace.states.append(RectangleState(t, u_hi, u_lo, v_hi, v_lo))
    if trace.states[-1].t < t:
        trace.states.append(RectangleState(t, u_hi, u_lo, v_hi, v_lo))
    return trace


@dataclass(frozen=True)
class EnclosureReport:
    """Outcome of comparing a PDE trace against a rectangle trace.

    worst_violation is the signed worst excess over the tolerance band
    (negative means every sample sat inside with slack); passed is
    worst_violation <= 0.  n_times counts the compared samples.
    """

    passed: bool
    tol: float
    worst_violation: float
    worst_time: float
    n_times: int
    notes: tuple[str, ...] = ()


def check_enclosure(pde_trace, rect_trace: RectangleTrace, tol: float) -> EnclosureReport:
    """Verify u_lo - tol <= min u, max u <= u_hi + tol (and v analogues).

    Rectangle components are linearly interpolated onto the PDE sample
    times.  PDE samples outside the rectangle trace's time span are
    excluded from the comparison and flagged in the notes, since constant
    extrapolation would not be evidence of enclosure.
    """
    if not (tol >= 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be nonnegative and finite, got {tol!r}")
    if not rect_trace.states:
        raise PreconditionError("rectangle trace has no samples")
    pde_t = np.asarray(pde_trace.t, dtype=float)
    rect_t = rect_trace.times
    inside = (pde_t >= rect_t[0] - 1e-12) & (pde_t <= rect_t[-1] + 1e-12)
    notes: list[str] = []
    if not inside.all():
        n_out = int((~inside).sum())
        notes.append(
            f"{n_out} PDE sample(s) fall outside the rectangle time span "
            f"[{rect_t[0]!r}, {rect_t[-1]!r}] and were not compared"
        )
    if rect_trace.guard_tripped is not None:
        notes.append(f"rectangle trace ended early: guard_tripped={rect_trace.guard_tripped!r}")
    t_cmp = pde_t[inside]
    if t_cmp.size == 0:
        return EnclosureReport(
            passed=False,
            tol=tol,
            worst_violation=math.inf,
            worst_time=math.nan,
            n_times=0,
            notes=tuple(notes + ["no overlapping sample times"]),
        )
    u_hi = np.interp(t_cmp, rect_t, rect_trace.component("u_hi"))
    u_lo = np.interp(t_cmp, rect_t, rect_trace.component("u_lo"))
    v_hi = np.interp(t_cmp, rect_t, rect_trace.component("v_hi"))
    v_lo = np.interp(t_cmp, rect_t, rect_trace.component("v_lo"))
    u_min = np.asarray(pde_trace.u_min, dtype=float)[inside]
    u_max = np.asarray(pde_trace.u_max, dtype=float)[inside]
    v_min = np.asarray(pde_trace.v_min, dtype=float)[inside]
    v_max = np.asarray(pde_trace.v_max, dtype=float)[inside]
    excess = np.maximum.reduce(
        [
            (u_lo - u_min) - tol,
            (u_max - u_hi) - tol,
            (v_lo - v_min) - tol,
            (v_max - v_hi) - tol,
        ]
    )
    worst_idx = int(np.argmax(excess))
    worst = float(excess[worst_idx])
    return EnclosureReport(
        passed=worst <= 0.0,
        tol=tol,
        worst_violation=worst,
        worst_time=float(t_cmp[worst_idx]),
        n_times=int(t_cmp.size),
        notes=tuple(notes),
    )
