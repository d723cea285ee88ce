"""Rectangle ODE enclosures of the PDE densities.

The rectangle system evolves four scalars (u_hi, u_lo, v_hi, v_lo) whose
box [u_lo, u_hi] x [v_lo, v_hi] encloses the spatial range of the PDE
densities when initialized at the initial extrema.  Its right-hand side
splits every interaction coefficient into signed parts so that each
bounding curve moves at least as fast outward as the field it dominates.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .model import (
    ModelParams,
    PreconditionError,
    check_time_resolution,
    negative_part,
    positive_part,
)

DIVERGENCE_GUARD = 1e8


@dataclass(frozen=True)
class RectangleState:
    """The four bounding curves at time t: the initial data of integrate_rectangles."""

    t: float
    u_hi: float
    u_lo: float
    v_hi: float
    v_lo: float

    def ordered(self) -> bool:
        return self.u_lo <= self.u_hi and self.v_lo <= self.v_hi


@dataclass
class RectangleTrace:
    """Recorded rectangle trajectory, one list per column.  guard_tripped
    is None for a clean run and "blow_up" when a component passed the
    divergence guard, in which case the columns hold the partial trace up
    to and including the tripping step."""

    t: list[float] = field(default_factory=list)
    u_hi: list[float] = field(default_factory=list)
    u_lo: list[float] = field(default_factory=list)
    v_hi: list[float] = field(default_factory=list)
    v_lo: list[float] = field(default_factory=list)
    guard_tripped: str | None = None
    notes: list[str] = field(default_factory=list)

    def append(self, t: float, u_hi: float, u_lo: float, v_hi: float, v_lo: float) -> None:
        self.t.append(t)
        self.u_hi.append(u_hi)
        self.u_lo.append(u_lo)
        self.v_hi.append(v_hi)
        self.v_lo.append(v_lo)


def rectangle_rhs(
    p: ModelParams,
) -> Callable[[float, float, float, float], tuple[float, float, float, float]]:
    """The rectangle system's right-hand side for parameters p, as a
    function (u_hi, u_lo, v_hi, v_lo) -> (du_hi, du_lo, dv_hi, dv_lo).

    The hi equations push the upper curves outward with the favorable
    signed parts of the cross terms; the lo equations are the exact mirror
    with hi and lo swapped, so a diagonal state (u_hi = u_lo, v_hi = v_lo)
    recombines to the plain interaction ODE.  The signed-part coefficient
    groups are computed once here; integrate_rectangles calls the returned
    function four times per RK4 step.
    """
    w = p.omega_measure
    c1 = p.chi1 / p.d3
    c2 = p.chi2 / p.d3
    k = p.k
    l = p.l
    a0 = p.a0
    b0 = p.b0
    a_self = p.a1 - w * negative_part(p.a3)
    a_self_opp = w * positive_part(p.a3)
    a_cross_up = negative_part(p.a2) + w * negative_part(p.a4)
    a_cross_down = positive_part(p.a2) + w * positive_part(p.a4)
    b_self = p.b2 - w * negative_part(p.b4)
    b_self_opp = w * positive_part(p.b4)
    b_cross_up = negative_part(p.b1) + w * negative_part(p.b3)
    b_cross_down = positive_part(p.b1) + w * positive_part(p.b3)

    def rhs(u_hi: float, u_lo: float, v_hi: float, v_lo: float) -> tuple[float, float, float, float]:
        # Each signal keeps its own left-to-right sum: signal_lo is not
        # -signal_hi in floating point, and the recorded digits depend on it.
        ku_hi = k * u_hi
        ku_lo = k * u_lo
        lv_hi = l * v_hi
        lv_lo = l * v_lo
        signal_hi = ku_hi + lv_hi - ku_lo - lv_lo
        signal_lo = ku_lo + lv_lo - ku_hi - lv_hi
        return (
            c1 * u_hi * signal_hi
            + u_hi * (a0 - a_self * u_hi - a_self_opp * u_lo)
            + u_hi * (a_cross_up * v_hi - a_cross_down * v_lo),
            c1 * u_lo * signal_lo
            + u_lo * (a0 - a_self * u_lo - a_self_opp * u_hi)
            + u_lo * (a_cross_up * v_lo - a_cross_down * v_hi),
            c2 * v_hi * signal_hi
            + v_hi * (b0 - b_self * v_hi - b_self_opp * v_lo)
            + v_hi * (b_cross_up * u_hi - b_cross_down * u_lo),
            c2 * v_lo * signal_lo
            + v_lo * (b0 - b_self * v_lo - b_self_opp * v_hi)
            + v_lo * (b_cross_up * u_lo - b_cross_down * u_hi),
        )

    return rhs


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
    global-existence parameter regions.  A dt too small to advance t at
    the run's largest |t| raises PreconditionError before the first step.
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
    t_stop, last_step = check_time_resolution(s0.t, t_end, dt)

    rhs = rectangle_rhs(p)
    t, u_hi, u_lo, v_hi, v_lo = s0.t, s0.u_hi, s0.u_lo, s0.v_hi, s0.v_lo
    trace = RectangleTrace([t], [u_hi], [u_lo], [v_hi], [v_lo])
    record = trace.append
    guard = DIVERGENCE_GUARD
    ninf = -math.inf
    last_t = t
    steps_done = 0
    # Every rewrite below keeps each floating-point operation and its
    # order: 0.5 * h * x is (0.5 * h) * x, so 0.5 * h and h / 6 can be
    # computed once per step size, and the chained comparisons trip exactly
    # when a component is non-finite or above the guard.
    half_dt, sixth_dt = 0.5 * dt, dt / 6.0
    while t < t_stop:
        rest = t_end - t
        if rest < last_step:
            h, half, sixth = rest, 0.5 * rest, rest / 6.0
        else:
            h, half, sixth = dt, half_dt, sixth_dt
        k1_0, k1_1, k1_2, k1_3 = rhs(u_hi, u_lo, v_hi, v_lo)
        k2_0, k2_1, k2_2, k2_3 = rhs(
            u_hi + half * k1_0, u_lo + half * k1_1, v_hi + half * k1_2, v_lo + half * k1_3
        )
        k3_0, k3_1, k3_2, k3_3 = rhs(
            u_hi + half * k2_0, u_lo + half * k2_1, v_hi + half * k2_2, v_lo + half * k2_3
        )
        k4_0, k4_1, k4_2, k4_3 = rhs(
            u_hi + h * k3_0, u_lo + h * k3_1, v_hi + h * k3_2, v_lo + h * k3_3
        )
        u_hi += sixth * (k1_0 + 2.0 * k2_0 + 2.0 * k3_0 + k4_0)
        u_lo += sixth * (k1_1 + 2.0 * k2_1 + 2.0 * k3_1 + k4_1)
        v_hi += sixth * (k1_2 + 2.0 * k2_2 + 2.0 * k3_2 + k4_2)
        v_lo += sixth * (k1_3 + 2.0 * k2_3 + 2.0 * k3_3 + k4_3)
        t += h
        steps_done += 1
        if not (
            ninf < u_hi <= guard and ninf < u_lo <= guard
            and ninf < v_hi <= guard and ninf < v_lo <= guard
        ):
            trace.guard_tripped = "blow_up"
            trace.notes.append(
                f"rectangle component exceeded the divergence guard {DIVERGENCE_GUARD!r} "
                f"at t={t!r} (finite-time blow-up of the bounding system)"
            )
            break
        if steps_done % record_every == 0 and last_t < t:
            record(t, u_hi, u_lo, v_hi, v_lo)
            last_t = t
    if last_t < t:  # the final step, when off the stride or tripped
        record(t, u_hi, u_lo, v_hi, v_lo)
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
    if not rect_trace.t:
        raise PreconditionError("rectangle trace has no samples")
    pde_t = np.asarray(pde_trace.t, dtype=float)
    rect_t = np.asarray(rect_trace.t, dtype=float)
    inside = (pde_t >= rect_t[0] - 1e-12) & (pde_t <= rect_t[-1] + 1e-12)
    notes: list[str] = []
    if not inside.all():
        n_out = int((~inside).sum())
        # Python floats: a NumPy scalar's repr depends on the NumPy version.
        first, last = float(rect_trace.t[0]), float(rect_trace.t[-1])
        notes.append(
            f"{n_out} PDE sample(s) fall outside the rectangle time span "
            f"[{first!r}, {last!r}] and were not compared"
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
    u_hi = np.interp(t_cmp, rect_t, rect_trace.u_hi)
    u_lo = np.interp(t_cmp, rect_t, rect_trace.u_lo)
    v_hi = np.interp(t_cmp, rect_t, rect_trace.v_hi)
    v_lo = np.interp(t_cmp, rect_t, rect_trace.v_lo)
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
