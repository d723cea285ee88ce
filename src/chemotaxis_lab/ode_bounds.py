"""Rectangle ODE enclosures of the PDE densities.

The rectangle system evolves four scalars (u_hi, u_lo, v_hi, v_lo) whose
box [u_lo, u_hi] x [v_lo, v_hi] encloses the spatial range of the PDE
densities when initialized at the initial extrema.  Its right-hand side
splits every interaction coefficient into signed parts so that each
bounding curve moves at least as fast outward as the field it dominates.
"""
from __future__ import annotations

import bisect
import math
import struct
from collections.abc import Callable
from dataclasses import dataclass, field

from .model import (
    ModelParams,
    PreconditionError,
    check_time_resolution,
    negative_part,
    per_species,
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
    groups are computed once here, u's and their mirror images for v;
    integrate_rectangles calls the returned function four times per RK4 step.
    """
    w = p.omega_measure
    k = p.k
    l = p.l
    (c1, a0, a_self, a_self_opp, a_cross_up, a_cross_down), (
        c2, b0, b_self, b_self_opp, b_cross_up, b_cross_down
    ) = per_species(lambda q: (
        q.chi1 / q.d3, q.a0, q.a1 - w * negative_part(q.a3), w * positive_part(q.a3),
        negative_part(q.a2) + w * negative_part(q.a4),
        positive_part(q.a2) + w * positive_part(q.a4),
    ), p)

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
    if type(record_every) is not int or record_every < 1:  # a bool is no int
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
    # The system is autonomous: once a full step maps the state to itself
    # bit for bit, so does every later one, and those steps only advance t.
    stationary = False
    while t < t_stop:
        rest = t_end - t
        if rest < last_step:
            h, half, sixth = rest, 0.5 * rest, rest / 6.0
        elif stationary:
            t += dt
            steps_done += 1
            if steps_done % record_every == 0 and last_t < t:
                record(t, u_hi, u_lo, v_hi, v_lo)
                last_t = t
            continue
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
        next_u_hi = u_hi + sixth * (k1_0 + 2.0 * k2_0 + 2.0 * k3_0 + k4_0)
        next_u_lo = u_lo + sixth * (k1_1 + 2.0 * k2_1 + 2.0 * k3_1 + k4_1)
        next_v_hi = v_hi + sixth * (k1_2 + 2.0 * k2_2 + 2.0 * k3_2 + k4_2)
        next_v_lo = v_lo + sixth * (k1_3 + 2.0 * k2_3 + 2.0 * k3_3 + k4_3)
        t += h
        steps_done += 1
        # Bit for bit: == fails on a NaN, and the packed bytes tell the zeros apart.
        if (
            h == dt and next_u_hi == u_hi and next_u_lo == u_lo
            and next_v_hi == v_hi and next_v_lo == v_lo
            and struct.pack("4d", next_u_hi, next_u_lo, next_v_hi, next_v_lo)
            == struct.pack("4d", u_hi, u_lo, v_hi, v_lo)
        ):
            stationary = True  # the state stays as it was
        else:
            u_hi = next_u_hi
            u_lo = next_u_lo
            v_hi = next_v_hi
            v_lo = next_v_lo
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


def _interp(x: float, t: list[float], j: int, f: list[float]) -> float:
    """np.interp(x, t, f) bit for bit, given j = bisect_right(t, x) - 1:
    f[0] before the first knot, f[-1] past the last, f[j] on a knot, else
    NumPy's slope formula and its fallbacks for a NaN result."""
    if j < 0:
        return f[0]
    if j == len(t) - 1 or t[j] == x:
        return f[j]
    slope = (f[j + 1] - f[j]) / (t[j + 1] - t[j])
    value = slope * (x - t[j]) + f[j]
    if value != value:
        value = slope * (x - t[j + 1]) + f[j + 1]
        if value != value and f[j] == f[j + 1]:
            value = f[j]
    return value


def check_enclosure(pde_trace, rect_trace: RectangleTrace, tol: float) -> EnclosureReport:
    """Verify u_lo - tol <= min u, max u <= u_hi + tol (and v analogues).

    Rectangle components are linearly interpolated onto the PDE sample
    times.  PDE samples outside the rectangle trace's time span are
    excluded from the comparison and flagged in the notes, since constant
    extrapolation would not be evidence of enclosure.  The span of a trace
    whose guard tripped ends on the row before the tripping one: that row
    holds a state past the guard, and the interval up to it bounds nothing.
    The worst excess is NumPy's maximum.reduce over the four and argmax over
    the samples: a NaN wins at its first sample; a tie of the four takes the
    later one (the sign of a zero), a tie of samples the first.
    """
    if not (tol >= 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be nonnegative and finite, got {tol!r}")
    columns = rect_trace.t, rect_trace.u_hi, rect_trace.u_lo, rect_trace.v_hi, rect_trace.v_lo
    if not columns[0]:
        raise PreconditionError("rectangle trace has no samples")
    if rect_trace.guard_tripped is not None and len(columns[0]) > 1:
        columns = tuple(c[:-1] for c in columns)
    rect_t, u_hi, u_lo, v_hi, v_lo = columns
    lo, hi = rect_t[0] - 1e-12, rect_t[-1] + 1e-12
    rows = zip(pde_trace.t, pde_trace.u_min, pde_trace.u_max, pde_trace.v_min, pde_trace.v_max)
    compared = [row for row in rows if lo <= row[0] <= hi]
    notes: list[str] = []
    n_out = len(pde_trace.t) - len(compared)
    if n_out:
        # Python floats: a NumPy scalar's repr depends on the NumPy version.
        first, last = float(rect_t[0]), float(rect_t[-1])
        notes.append(
            f"{n_out} PDE sample(s) fall outside the rectangle time span "
            f"[{first!r}, {last!r}] and were not compared"
        )
    if rect_trace.guard_tripped is not None:
        notes.append(f"rectangle trace ended early: guard_tripped={rect_trace.guard_tripped!r}")
    if not compared:
        return EnclosureReport(
            passed=False,
            tol=tol,
            worst_violation=math.inf,
            worst_time=math.nan,
            n_times=0,
            notes=tuple(notes + ["no overlapping sample times"]),
        )
    excess = []
    for s, u_min, u_max, v_min, v_max in compared:
        j = bisect.bisect_right(rect_t, s) - 1
        worst = (_interp(s, rect_t, j, u_lo) - u_min) - tol
        for e in (
            (u_max - _interp(s, rect_t, j, u_hi)) - tol,
            (_interp(s, rect_t, j, v_lo) - v_min) - tol,
            (v_max - _interp(s, rect_t, j, v_hi)) - tol,
        ):
            if not (worst > e or worst != worst):  # np.maximum
                worst = e
        excess.append(worst)
    # np.argmax: the first NaN, else the first maximum (max keeps the first of equal keys)
    k = max(range(len(excess)), key=lambda i: (excess[i] != excess[i], excess[i]))
    worst = float(excess[k])
    return EnclosureReport(
        passed=worst <= 0.0,
        tol=tol,
        worst_violation=worst,
        worst_time=float(compared[k][0]),
        n_times=len(compared),
        notes=tuple(notes),
    )
