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
from array import array
from collections.abc import Callable
from dataclasses import dataclass, field

from .model import (
    ModelParams,
    PreconditionError,
    check_time_resolution,
    float_column,
    negative_part,
    per_species,
    positive_part,
)

DIVERGENCE_GUARD = 1e8
# Attempted steps, accepted and rejected, that end a run: over three times
# the longest run measured (605,699 to t = 1e6), and about 2 minutes.
MAX_STEPS = 2_000_000

# The error target of every step: far below any enclosure tolerance, which
# may be 0, and met in a few hundred steps on a run to t = 200.
RTOL = 1e-12
ATOL = 1e-15
# A step size this many float spacings of t or smaller ends a run: past a
# finite-time blow-up the controller would otherwise shrink it forever.
MIN_STEP_ULPS = 4

# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Solving ODEs I, Table
# II.5.2): the rows of the Runge-Kutta matrix, the last one the
# fifth-order weights (the method is FSAL), the error weights (fifth minus
# fourth order) and the weights of Hairer's continuous extension (dopri5's
# contd5).  The system is autonomous, so the nodes are not needed.  Each
# weighted sum is written out left to right from 0.0, as the builtin sum
# adds with its int start (-0.0 becomes 0.0), but without the compensation
# of Python 3.12's sum.  A term of weight 0.0 stays: 0.0 * inf is a NaN.
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_D = (
    -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423,
)
# Hairer's step-size controller: safety factor, bounds on the change of h
# per step, and the weight of the previous error (Lund's stabilisation).
_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 10.0
_BETA = 0.04
_EXPONENT = 0.2 - 0.75 * _BETA


@dataclass(frozen=True)
class RectangleState:
    """The four bounding curves at time t: the initial data of integrate_rectangles."""

    t: float
    u_hi: float
    u_lo: float
    v_hi: float
    v_lo: float


@dataclass
class RectangleTrace:
    """Recorded rectangle trajectory, one packed float64 array('d') per
    column (see float_column), 8 bytes a row each.  guard_tripped is None
    for a clean run, "blow_up" when a component passed the divergence guard
    or the step size collapsed and "step_budget" after MAX_STEPS steps; the
    columns then end on the last accepted state.  steps and rejected count
    the integrator's accepted and rejected steps."""

    t: array = field(default_factory=float_column)
    u_hi: array = field(default_factory=float_column)
    u_lo: array = field(default_factory=float_column)
    v_hi: array = field(default_factory=float_column)
    v_lo: array = field(default_factory=float_column)
    guard_tripped: str | None = None
    notes: list[str] = field(default_factory=list)
    steps: int = 0
    rejected: int = 0

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
    integrate_rectangles calls the returned function six times per step.
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
    spacing: float,
) -> RectangleTrace:
    """The rectangle system from s0 to t_end by Dormand-Prince 5(4).

    Requires ordered nonnegative initial data.  The error target RTOL, ATOL
    sizes the steps; spacing only places the rows between the initial state
    and the state at t_end, at the times s0.t + i * spacing short of the
    stop tolerance of t_end, by Hairer's continuous extension.  When an
    accepted step ends with a component past the divergence guard (or
    non-finite), or a step falls below both MIN_STEP_ULPS float spacings of
    t and the remainder t_end - t, the run stops with guard_tripped =
    "blow_up", and after MAX_STEPS attempted steps with "step_budget": the
    last accepted state is the last row, and a note holds the time and
    state of a step past the guard.  An initial state that is not finite,
    or whose right-hand side is not, ends the run at once as "blow_up" with
    the initial row only.
    The rectangle system can genuinely blow up in finite time outside the
    global-existence parameter regions.  A spacing below MIN_STEP_ULPS float
    spacings of the run's largest |t|, the smallest step the guard lets
    through, raises PreconditionError before the first step.
    """
    if not spacing > 0:
        raise ValueError(f"spacing must be positive, got {spacing!r}")
    if not (s0.u_lo <= s0.u_hi and s0.v_lo <= s0.v_hi):
        raise PreconditionError(
            f"initial rectangle must be ordered (u_lo <= u_hi, v_lo <= v_hi), got {s0!r}"
        )
    if min(s0.u_lo, s0.v_lo) < 0:
        raise PreconditionError(f"initial rectangle must be nonnegative, got {s0!r}")
    if s0.t < t_end and spacing < MIN_STEP_ULPS * math.ulp(max(abs(s0.t), abs(t_end))):
        raise PreconditionError(
            f"row spacing {spacing!r} is below the float resolution of t between {s0.t!r} and "
            f"{t_end!r}: the smallest step is {MIN_STEP_ULPS} float spacings"
        )
    t_stop, _ = check_time_resolution(s0.t, t_end, spacing)

    t0 = t = last_t = s0.t
    y = (s0.u_hi, s0.u_lo, s0.v_hi, s0.v_lo)
    trace = RectangleTrace()
    trace.append(t, *y)
    if not t < t_end:  # t_stop may round down to t0 on a span of one float spacing
        return trace
    add_t, add_u_hi, add_u_lo, add_v_hi, add_v_lo = (
        trace.t.append, trace.u_hi.append, trace.u_lo.append, trace.v_hi.append, trace.v_lo.append)
    i_out = 1
    t_out = t0 + spacing
    rhs = rectangle_rhs(p)
    k1 = rhs(*y)
    if not all(math.isfinite(c) for c in y + k1):
        # every stage of every step size would be non-finite
        trace.guard_tripped = "blow_up"
        trace.notes.append(
            f"rectangle right-hand side is not finite at the initial state t={t!r} "
            f"(the bounding system cannot be started)"
        )
        return trace
    # The controller corrects this within a few steps: a rejection cuts h
    # by up to 5, an accepted step grows it by up to 10.
    h = min(spacing, t_end - t0)
    fac_old = 1e-4
    after_reject = False
    while t < t_end:
        if trace.steps + trace.rejected >= MAX_STEPS:
            trace.guard_tripped = "step_budget"
            trace.notes.append(f"rectangle run used up its {MAX_STEPS} steps at t={t!r} (stiff system)")
            break
        # the whole remainder passes, however small, but no retry cut below it
        if not h >= min(MIN_STEP_ULPS * math.ulp(t), t_end - t):
            trace.guard_tripped = "blow_up"
            trace.notes.append(
                f"rectangle step size {h!r} fell below {MIN_STEP_ULPS} float spacings "
                f"of t={t!r} (finite-time blow-up of the bounding system)"
            )
            break
        last = t + 1.01 * h >= t_end  # stretch a step rather than leave a sliver
        if last:
            h = t_end - t
        y_new, ks = _dopri_stages(rhs, y, k1, h)
        err = _error_norm(h, ks, y, y_new)
        # Hairer's controller with Lund's stabilisation; an infinite error
        # (overflowing stages) takes the largest cut.
        fac_err = err ** _EXPONENT
        if not err <= 1.0:
            trace.rejected += 1
            h /= min(1.0 / _FAC_MIN, fac_err / _SAFETY)
            after_reject = True
            continue
        fac = max(1.0 / _FAC_MAX, min(1.0 / _FAC_MIN, fac_err / fac_old ** _BETA / _SAFETY))
        fac_old = max(err, 1e-4)
        t_new = t_end if last else t + h
        trace.steps += 1
        if not all(-math.inf < c <= DIVERGENCE_GUARD for c in y_new):
            trace.guard_tripped = "blow_up"
            trace.notes.append(
                f"rectangle component exceeded the divergence guard {DIVERGENCE_GUARD!r} "
                f"at t={t_new!r} with (u_hi, u_lo, v_hi, v_lo) = {y_new!r} "
                f"(finite-time blow-up of the bounding system)"
            )
            break
        if t_out <= t_new and t_out < t_stop:
            (a0, b0, c0, d0, e0), (a1, b1, c1, d1, e1), (a2, b2, c2, d2, e2), (a3, b3, c3, d3, e3) = (
                _dense_coefficients(h, ks, y, y_new)
            )
            while t_out <= t_new and t_out < t_stop:
                if last_t < t_out:
                    theta = (t_out - t) / h
                    theta1 = 1.0 - theta
                    add_t(t_out)
                    add_u_hi(a0 + theta * (b0 + theta1 * (c0 + theta * (d0 + theta1 * e0))))
                    add_u_lo(a1 + theta * (b1 + theta1 * (c1 + theta * (d1 + theta1 * e1))))
                    add_v_hi(a2 + theta * (b2 + theta1 * (c2 + theta * (d2 + theta1 * e2))))
                    add_v_lo(a3 + theta * (b3 + theta1 * (c3 + theta * (d3 + theta1 * e3))))
                    last_t = t_out
                i_out += 1
                t_out = t0 + i_out * spacing
        h_next = min(h / fac, t_end - t0)
        if after_reject:
            h_next = min(h_next, h)
            after_reject = False
        t, y, k1, h = t_new, y_new, ks[-1], h_next
    if last_t < t:  # t_end, or the last accepted state
        trace.append(t, *y)
    return trace


def _dopri_stages(rhs, y, k1, h: float) -> tuple[tuple, tuple]:
    """One Dormand-Prince step of size h from y, where k1 = rhs(*y): the
    fifth-order result and the stages k1..k7.  The last row of _A holds the
    result's weights, so k7 = rhs(*result) is the next step's k1."""
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65), (
        a71, a72, a73, a74, a75, a76) = _A
    (y0, y1, y2, y3), (p0, p1, p2, p3) = y, k1
    q0, q1, q2, q3 = k2 = rhs(y0 + h * (0.0 + a21*p0), y1 + h * (0.0 + a21*p1),
                              y2 + h * (0.0 + a21*p2), y3 + h * (0.0 + a21*p3))
    r0, r1, r2, r3 = k3 = rhs(y0 + h * (0.0 + a31*p0 + a32*q0), y1 + h * (0.0 + a31*p1 + a32*q1),
                              y2 + h * (0.0 + a31*p2 + a32*q2), y3 + h * (0.0 + a31*p3 + a32*q3))
    s0, s1, s2, s3 = k4 = rhs(
        y0 + h * (0.0 + a41*p0 + a42*q0 + a43*r0), y1 + h * (0.0 + a41*p1 + a42*q1 + a43*r1),
        y2 + h * (0.0 + a41*p2 + a42*q2 + a43*r2), y3 + h * (0.0 + a41*p3 + a42*q3 + a43*r3))
    t0, t1, t2, t3 = k5 = rhs(y0 + h * (0.0 + a51*p0 + a52*q0 + a53*r0 + a54*s0),
                              y1 + h * (0.0 + a51*p1 + a52*q1 + a53*r1 + a54*s1),
                              y2 + h * (0.0 + a51*p2 + a52*q2 + a53*r2 + a54*s2),
                              y3 + h * (0.0 + a51*p3 + a52*q3 + a53*r3 + a54*s3))
    w0, w1, w2, w3 = k6 = rhs(y0 + h * (0.0 + a61*p0 + a62*q0 + a63*r0 + a64*s0 + a65*t0),
                              y1 + h * (0.0 + a61*p1 + a62*q1 + a63*r1 + a64*s1 + a65*t1),
                              y2 + h * (0.0 + a61*p2 + a62*q2 + a63*r2 + a64*s2 + a65*t2),
                              y3 + h * (0.0 + a61*p3 + a62*q3 + a63*r3 + a64*s3 + a65*t3))
    y_new = (y0 + h * (0.0 + a71*p0 + a72*q0 + a73*r0 + a74*s0 + a75*t0 + a76*w0),
             y1 + h * (0.0 + a71*p1 + a72*q1 + a73*r1 + a74*s1 + a75*t1 + a76*w1),
             y2 + h * (0.0 + a71*p2 + a72*q2 + a73*r2 + a74*s2 + a75*t2 + a76*w2),
             y3 + h * (0.0 + a71*p3 + a72*q3 + a73*r3 + a74*s3 + a75*t3 + a76*w3))
    return y_new, (k1, k2, k3, k4, k5, k6, rhs(*y_new))


def _weighted_sums(b: tuple, ks: tuple) -> tuple:
    """Per component i, 0.0 + b[0] * k1[i] + ... + b[6] * k7[i], left to right."""
    b1, b2, b3, b4, b5, b6, b7 = b
    (p0, p1, p2, p3), (q0, q1, q2, q3), (r0, r1, r2, r3), (s0, s1, s2, s3), (t0, t1, t2, t3), (
        w0, w1, w2, w3), (g0, g1, g2, g3) = ks
    return (0.0 + b1*p0 + b2*q0 + b3*r0 + b4*s0 + b5*t0 + b6*w0 + b7*g0,
            0.0 + b1*p1 + b2*q1 + b3*r1 + b4*s1 + b5*t1 + b6*w1 + b7*g1,
            0.0 + b1*p2 + b2*q2 + b3*r2 + b4*s2 + b5*t2 + b6*w2 + b7*g2,
            0.0 + b1*p3 + b2*q3 + b3*r3 + b4*s3 + b5*t3 + b6*w3 + b7*g3)


def _error_norm(h: float, ks: tuple, y, y_new) -> float:
    """The step's error estimate, the difference of the fifth- and
    fourth-order results, in the max norm scaled by ATOL + RTOL * |y|; inf
    when it is not finite.  The max norm does not depend on the order of
    the components, so the species swap leaves the step sequence alone."""
    (e0, e1, e2, e3), (y0, y1, y2, y3), (z0, z1, z2, z3) = _weighted_sums(_E, ks), y, y_new
    e0 = abs(h * e0) / (ATOL + RTOL * max(abs(y0), abs(z0)))
    e1 = abs(h * e1) / (ATOL + RTOL * max(abs(y1), abs(z1)))
    e2 = abs(h * e2) / (ATOL + RTOL * max(abs(y2), abs(z2)))
    e3 = abs(h * e3) / (ATOL + RTOL * max(abs(y3), abs(z3)))
    return max(e0, e1, e2, e3) if e0 + e1 + e2 + e3 < math.inf else math.inf


def _dense_coefficients(h: float, ks: tuple, y, y_new) -> tuple:
    """Per component, the coefficients (a, b, c, d, e) of Hairer's
    continuous extension of the step (contd5): at theta = (s - t) / h the
    state is a + theta * (b + theta1 * (c + theta * (d + theta1 * e))),
    theta1 = 1 - theta, of fourth order in h."""
    (y0, y1, y2, y3), (z0, z1, z2, z3), (p0, p1, p2, p3), (g0, g1, g2, g3) = y, y_new, ks[0], ks[6]
    e0, e1, e2, e3 = _weighted_sums(_D, ks)
    b0, b1, b2, b3 = z0 - y0, z1 - y1, z2 - y2, z3 - y3
    c0, c1, c2, c3 = h * p0 - b0, h * p1 - b1, h * p2 - b2, h * p3 - b3
    return ((y0, b0, c0, b0 - h * g0 - c0, h * e0), (y1, b1, c1, b1 - h * g1 - c1, h * e1),
            (y2, b2, c2, b2 - h * g2 - c2, h * e2), (y3, b3, c3, b3 - h * g3 - c3, h * e3))


@dataclass(frozen=True)
class EnclosureReport:
    """Outcome of comparing a PDE trace against a rectangle trace.

    worst_violation is the signed worst excess over the tolerance band (negative:
    every sample inside with slack) at the n_times compared of the n_samples samples.
    passed, the claim of an enclosure for all time, is n_times == n_samples and worst_violation <= 0.
    """

    passed: bool
    tol: float
    worst_violation: float
    worst_time: float
    n_times: int
    n_samples: int
    notes: tuple[str, ...] = ()


def _interp(x: float, t: array, j: int, f: array) -> float:
    """np.interp(x, t, f) bit for bit for t[0] <= x <= t[-1], given j =
    bisect_right(t, x) - 1: f[j] on a knot, else NumPy's slope formula and
    its fallbacks for a NaN result."""
    if t[j] == x:
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
    times.  PDE samples outside the rectangle trace's exact time span are
    excluded from the comparison and flagged in the notes, since constant
    extrapolation would not be evidence of enclosure; a tripped trace adds
    its own notes.  The worst excess is NumPy's maximum.reduce over the four
    and argmax over the samples: a NaN wins at its first sample; a tie of
    the four takes the later one (the sign of a zero), a tie of samples the
    first.
    """
    if not (tol >= 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be nonnegative and finite, got {tol!r}")
    rect_t = rect_trace.t
    if not rect_t:
        raise PreconditionError("rectangle trace has no samples")
    # Python floats: a NumPy scalar's repr, which the note prints, depends on
    # the NumPy version.
    lo, hi = float(rect_t[0]), float(rect_t[-1])
    rows = zip(pde_trace.t, pde_trace.u_min, pde_trace.u_max, pde_trace.v_min, pde_trace.v_max)
    compared = [row for row in rows if lo <= row[0] <= hi]
    notes: list[str] = []
    n_samples = len(pde_trace.t)
    n_out = n_samples - len(compared)
    if n_out:
        notes.append(
            f"{n_out} PDE sample(s) fall outside the rectangle time span "
            f"[{lo!r}, {hi!r}] and were not compared"
        )
    if rect_trace.guard_tripped is not None:
        notes.append(f"rectangle trace ended early: guard_tripped={rect_trace.guard_tripped!r}")
        notes.extend(rect_trace.notes)
    if not compared:
        return EnclosureReport(
            passed=False,
            tol=tol,
            worst_violation=math.inf,
            worst_time=math.nan,
            n_times=0,
            n_samples=n_samples,
            notes=tuple(notes + ["no overlapping sample times"]),
        )
    excess = []
    for s, u_min, u_max, v_min, v_max in compared:
        j = bisect.bisect_right(rect_t, s) - 1
        worst = (_interp(s, rect_t, j, rect_trace.u_lo) - u_min) - tol
        for e in (
            (u_max - _interp(s, rect_t, j, rect_trace.u_hi)) - tol,
            (_interp(s, rect_t, j, rect_trace.v_lo) - v_min) - tol,
            (v_max - _interp(s, rect_t, j, rect_trace.v_hi)) - tol,
        ):
            if not (worst > e or worst != worst):  # np.maximum
                worst = e
        excess.append(worst)
    # np.argmax: the first NaN, else the first maximum (max keeps the first of equal keys)
    k = max(range(len(excess)), key=lambda i: (excess[i] != excess[i], excess[i]))
    worst = float(excess[k])
    return EnclosureReport(
        passed=n_out == 0 and worst <= 0.0,
        tol=tol,
        worst_violation=worst,
        worst_time=float(compared[k][0]),
        n_times=len(compared),
        n_samples=n_samples,
        notes=tuple(notes),
    )
