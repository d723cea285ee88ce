import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from chemotaxis_lab.diagnostics import TrajectoryRecord
from chemotaxis_lab.model import PreconditionError, negative_part, positive_part
from chemotaxis_lab.ode_bounds import (
    DIVERGENCE_GUARD,
    RectangleState,
    RectangleTrace,
    check_enclosure,
    integrate_rectangles,
    rectangle_rhs,
)
from chemotaxis_lab.steady_states import linf_bounds
from helpers import coexistence_params, mk_params


def make_pde_trace(samples):
    """Synthetic trajectory record from (t, u_lo, u_hi, v_lo, v_hi) rows."""
    rec = TrajectoryRecord()
    for t, u_lo, u_hi, v_lo, v_hi in samples:
        fields = np.array([[u_lo, u_hi], [v_lo, v_hi], [0.0, 0.0]])
        rec.append_sample(t, fields, mass_u=0.0, mass_v=0.0)
    return rec


def box_trace(times):
    """Rectangle trace holding the box [0, 1] x [0, 1] at every time."""
    n = len(times)
    return RectangleTrace(
        t=list(times), u_hi=[1.0] * n, u_lo=[0.0] * n, v_hi=[1.0] * n, v_lo=[0.0] * n
    )


class TestRectangleRhs:
    def test_signal_term_hand_value(self):
        assert rectangle_rhs(mk_params(chi1=1.0))(1.0, 1.0, 1.0, 0.0) == (1.0, -1.0, 0.0, 0.0)

    def test_signed_part_hand_value(self):
        p = mk_params(a0=1.0, a1=3.0, a2=-2.0, a3=1.0, a4=1.0, omega_measure=2.0)
        assert rectangle_rhs(p)(2.0, 1.0, 3.0, 0.5) == (-4.0, -11.0, -6.0, 0.25)

    def test_diagonal_recombines_to_interaction_ode(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            p = mk_params(
                a0=float(rng.uniform(0.1, 2.0)),
                b0=float(rng.uniform(0.1, 2.0)),
                a1=float(rng.uniform(0.5, 3.0)),
                b2=float(rng.uniform(0.5, 3.0)),
                a2=float(rng.uniform(-1.0, 1.0)),
                b1=float(rng.uniform(-1.0, 1.0)),
                a3=float(rng.uniform(-0.5, 0.5)),
                a4=float(rng.uniform(-0.5, 0.5)),
                b3=float(rng.uniform(-0.5, 0.5)),
                b4=float(rng.uniform(-0.5, 0.5)),
                chi1=float(rng.uniform(0.0, 1.0)),
                chi2=float(rng.uniform(0.0, 1.0)),
                omega_measure=float(rng.uniform(0.5, 2.0)),
            )
            u = float(rng.uniform(0.0, 2.0))
            v = float(rng.uniform(0.0, 2.0))
            d_uhi, d_ulo, d_vhi, d_vlo = rectangle_rhs(p)(u, u, v, v)
            assert d_uhi == d_ulo
            assert d_vhi == d_vlo
            w = p.omega_measure
            ru = u * (p.a0 - (p.a1 + w * p.a3) * u - (p.a2 + w * p.a4) * v)
            rv = v * (p.b0 - (p.b1 + w * p.b3) * u - (p.b2 + w * p.b4) * v)
            assert d_uhi == pytest.approx(ru, rel=1e-13, abs=1e-13)
            assert d_vhi == pytest.approx(rv, rel=1e-13, abs=1e-13)


class TestIntegrateRectangles:
    def test_input_validation(self):
        s = RectangleState(t=0.0, u_hi=1.0, u_lo=0.5, v_hi=1.0, v_lo=0.5)
        with pytest.raises(ValueError):
            integrate_rectangles(s, mk_params(), 1.0, dt=0.0)
        with pytest.raises(ValueError):
            integrate_rectangles(s, mk_params(), 1.0, record_every=0)
        bad_order = RectangleState(t=0.0, u_hi=0.5, u_lo=1.0, v_hi=1.0, v_lo=0.5)
        with pytest.raises(PreconditionError, match="ordered"):
            integrate_rectangles(bad_order, mk_params(), 1.0)
        negative = RectangleState(t=0.0, u_hi=1.0, u_lo=-0.1, v_hi=1.0, v_lo=0.5)
        with pytest.raises(PreconditionError, match="nonnegative"):
            integrate_rectangles(negative, mk_params(), 1.0)

    def test_dt_just_above_half_spacing_advances(self):
        # Each step moves t by one float spacing: slow, but the run ends.
        s0 = RectangleState(t=1.0, u_hi=0.6, u_lo=0.4, v_hi=0.6, v_lo=0.4)
        t_end = 1.0 + 8192 * math.ulp(1.0)
        dt = math.nextafter(0.5 * math.ulp(1.0), 1.0)
        trace = integrate_rectangles(s0, mk_params(), t_end, dt=dt, record_every=1000)
        assert trace.t[-1] > 1.0
        assert trace.t == sorted(set(trace.t))

    def test_diagonal_stays_diagonal(self):
        p = coexistence_params(0.1)
        s0 = RectangleState(t=0.0, u_hi=0.6, u_lo=0.6, v_hi=0.4, v_lo=0.4)
        trace = integrate_rectangles(s0, p, t_end=20.0, dt=1e-2, record_every=10)
        gaps_u = np.array(trace.u_hi) - np.array(trace.u_lo)
        gaps_v = np.array(trace.v_hi) - np.array(trace.v_lo)
        assert np.max(np.abs(gaps_u)) <= 1e-12
        assert np.max(np.abs(gaps_v)) <= 1e-12

    def test_ordering_is_preserved(self):
        p = coexistence_params(0.1)
        s0 = RectangleState(t=0.0, u_hi=1.5, u_lo=0.2, v_hi=1.2, v_lo=0.1)
        trace = integrate_rectangles(s0, p, t_end=50.0, dt=1e-3, record_every=50)
        for u_hi, u_lo, v_hi, v_lo in zip(trace.u_hi, trace.u_lo, trace.v_hi, trace.v_lo):
            assert u_lo <= u_hi + 1e-9
            assert v_lo <= v_hi + 1e-9

    def test_diagonal_matches_reference_integrator(self):
        p = coexistence_params(0.0)

        def deriv(_t, y):
            u, v = y
            return [u * (1.0 - 2.0 * u - v), v * (1.0 - u - 2.0 * v)]

        sol = solve_ivp(
            deriv, (0.0, 10.0), [0.2, 0.6],
            rtol=1e-12, atol=1e-14, dense_output=True,
        )
        s0 = RectangleState(t=0.0, u_hi=0.2, u_lo=0.2, v_hi=0.6, v_lo=0.6)
        trace = integrate_rectangles(s0, p, t_end=10.0, dt=1e-3, record_every=100)
        for t, u_hi, v_hi in zip(trace.t, trace.u_hi, trace.v_hi):
            u_ref, v_ref = sol.sol(t)
            assert abs(u_hi - u_ref) <= 1e-9
            assert abs(v_hi - v_ref) <= 1e-9

    def test_components_respect_sup_caps(self):
        p = coexistence_params(0.1)
        s0 = RectangleState(t=0.0, u_hi=2.0, u_lo=1.0, v_hi=2.0, v_lo=1.0)
        trace = integrate_rectangles(s0, p, t_end=100.0, dt=1e-3, record_every=100)
        bc = linf_bounds(p, s0.u_hi, s0.v_hi)
        assert max(trace.u_hi) <= bc.sup_cap_u * (1.0 + 1e-6)
        assert max(trace.v_hi) <= bc.sup_cap_v * (1.0 + 1e-6)
        assert trace.guard_tripped is None

    def test_contracts_to_coexistence_point(self):
        p = coexistence_params(0.1)
        s0 = RectangleState(t=0.0, u_hi=2.0, u_lo=1.0, v_hi=2.0, v_lo=1.0)
        trace = integrate_rectangles(s0, p, t_end=100.0, dt=1e-3, record_every=100)
        third = 1.0 / 3.0
        assert abs(trace.u_hi[-1] - third) < 1e-8
        assert abs(trace.u_lo[-1] - third) < 1e-8
        assert abs(trace.v_hi[-1] - third) < 1e-8

    def test_divergence_guard_keeps_partial_trace(self):
        p = mk_params(chi1=10.0)
        s0 = RectangleState(t=0.0, u_hi=2.0, u_lo=0.0, v_hi=1.0, v_lo=1.0)
        trace = integrate_rectangles(s0, p, t_end=1.0, dt=1e-3)
        assert trace.guard_tripped == "blow_up"
        assert trace.t[-1] < 1.0
        assert any("divergence guard" in note for note in trace.notes)


class TestCheckEnclosure:
    def test_containment_with_slack(self):
        rect = box_trace((0.0, 0.5, 1.0))
        pde = make_pde_trace([(0.0, 0.2, 0.8, 0.2, 0.8), (1.0, 0.3, 0.7, 0.3, 0.7)])
        report = check_enclosure(pde, rect, tol=1e-3)
        assert report.passed
        assert report.worst_violation == pytest.approx(-0.2 - 1e-3, rel=1e-12)
        assert report.n_times == 2

    def test_violation_is_located(self):
        rect = box_trace((0.0, 1.0))
        pde = make_pde_trace([(0.0, 0.2, 0.8, 0.2, 0.8), (1.0, 0.2, 1.2, 0.2, 0.8)])
        report = check_enclosure(pde, rect, tol=1e-3)
        assert not report.passed
        assert report.worst_time == 1.0
        assert report.worst_violation == pytest.approx(0.2 - 1e-3, rel=1e-12)

    def test_uncovered_samples_are_flagged(self):
        rect = box_trace((0.0, 1.0))
        pde = make_pde_trace(
            [(0.0, 0.2, 0.8, 0.2, 0.8), (2.0, 0.0, 5.0, 0.0, 5.0)]
        )
        report = check_enclosure(pde, rect, tol=1e-3)
        assert report.passed
        assert report.n_times == 1
        assert any("not compared" in note for note in report.notes)

    def test_uncovered_note_prints_plain_floats(self):
        # The span is printed from Python floats, so the note reads the same
        # under every NumPy version, whatever float type the trace holds.
        pde = make_pde_trace([(0.0, 0.2, 0.8, 0.2, 0.8), (2.0, 0.0, 5.0, 0.0, 5.0)])
        for times in ((0.0, 0.5), np.array([0.0, 0.5])):
            report = check_enclosure(pde, box_trace(times), tol=1e-3)
            assert report.notes == (
                "1 PDE sample(s) fall outside the rectangle time span [0.0, 0.5] "
                "and were not compared",
            )

    def test_no_overlap_fails_explicitly(self):
        rect = box_trace((5.0,))
        pde = make_pde_trace([(0.0, 0.2, 0.8, 0.2, 0.8)])
        report = check_enclosure(pde, rect, tol=1e-3)
        assert not report.passed
        assert report.n_times == 0
        assert math.isinf(report.worst_violation)

    def test_input_validation(self):
        pde = make_pde_trace([(0.0, 0.2, 0.8, 0.2, 0.8)])
        with pytest.raises(PreconditionError):
            check_enclosure(pde, RectangleTrace(), tol=1e-3)
        rect = box_trace((0.0,))
        with pytest.raises(ValueError):
            check_enclosure(pde, rect, tol=-1.0)


def reference_rk4(s0, p, t_end, dt, record_every):
    """Textbook RK4 for the rectangle system with the right-hand side
    written out in the reference operation order, and the recording and
    divergence-guard rules of integrate_rectangles.  Returns the recorded
    (t, u_hi, u_lo, v_hi, v_lo) rows, the guard status and the notes."""
    w = p.omega_measure
    c1, c2, k, l, a0, b0 = p.chi1 / p.d3, p.chi2 / p.d3, p.k, p.l, p.a0, p.b0
    a_self = p.a1 - w * negative_part(p.a3)
    a_self_opp = w * positive_part(p.a3)
    a_cross_up = negative_part(p.a2) + w * negative_part(p.a4)
    a_cross_down = positive_part(p.a2) + w * positive_part(p.a4)
    b_self = p.b2 - w * negative_part(p.b4)
    b_self_opp = w * positive_part(p.b4)
    b_cross_up = negative_part(p.b1) + w * negative_part(p.b3)
    b_cross_down = positive_part(p.b1) + w * positive_part(p.b3)

    def f(y):
        u_hi, u_lo, v_hi, v_lo = y
        signal_hi = k * u_hi + l * v_hi - k * u_lo - l * v_lo
        signal_lo = k * u_lo + l * v_lo - k * u_hi - l * v_hi
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

    t, y = s0.t, (s0.u_hi, s0.u_lo, s0.v_hi, s0.v_lo)
    rows = [(t, *y)]
    guard, notes = None, []
    t_stop = t_end - 1e-12 * max(abs(t_end), 1.0)
    steps = 0
    while t < t_stop:
        # A remainder within the stop tolerance of dt is taken whole.
        h = t_end - t if t_end - t < dt + (t_end - t_stop) else dt
        k1 = f(y)
        k2 = f(tuple(y[i] + 0.5 * h * k1[i] for i in range(4)))
        k3 = f(tuple(y[i] + 0.5 * h * k2[i] for i in range(4)))
        k4 = f(tuple(y[i] + h * k3[i] for i in range(4)))
        y = tuple(y[i] + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(4))
        t += h
        steps += 1
        if not all(math.isfinite(x) for x in y) or max(y) > DIVERGENCE_GUARD:
            rows.append((t, *y))
            guard = "blow_up"
            notes.append(
                f"rectangle component exceeded the divergence guard {DIVERGENCE_GUARD!r} "
                f"at t={t!r} (finite-time blow-up of the bounding system)"
            )
            break
        if (steps % record_every == 0 or t >= t_stop) and rows[-1][0] < t:
            rows.append((t, *y))
    if rows[-1][0] < t:
        rows.append((t, *y))
    return rows, guard, notes


def assert_matches_reference(s0, p, t_end, dt, record_every):
    """integrate_rectangles records exactly the reference's values (NaN
    compares equal to NaN); returns the trace."""
    trace = integrate_rectangles(s0, p, t_end=t_end, dt=dt, record_every=record_every)
    rows, guard, notes = reference_rk4(s0, p, t_end, dt, record_every)
    got = np.column_stack([trace.t, trace.u_hi, trace.u_lo, trace.v_hi, trace.v_lo])
    assert got.shape == (len(rows), 5)
    np.testing.assert_array_equal(got, np.array(rows))
    assert trace.guard_tripped == guard
    assert trace.notes == notes
    return trace


SIGNED_NONLOCAL = dict(
    a2=-0.3, b1=-0.2, a3=0.15, a4=-0.1, b3=-0.05, b4=0.2,
    chi1=0.3, chi2=0.2, omega_measure=1.5,
)


class TestBitIdentity:
    @pytest.mark.parametrize("record_every", [1, 3])
    @pytest.mark.parametrize(
        "params, s0, t_end, dt, guard",
        [
            # signed local and nonlocal coefficients, t_end off the dt grid
            (
                mk_params(**SIGNED_NONLOCAL), RectangleState(0.0, 1.2, 0.1, 0.9, 0.05),
                3.3337, 1e-2, None,
            ),
            # coexistence regime from a nonzero start time
            (coexistence_params(0.1), RectangleState(0.25, 1.5, 0.2, 1.2, 0.1), 5.07, 2e-3, None),
            # strong chemotaxis: the bounding system blows up
            (mk_params(chi1=10.0), RectangleState(0.0, 2.0, 0.0, 1.0, 1.0), 1.0, 1e-3, "blow_up"),
        ],
        ids=["signed-nonlocal", "coexistence", "blow-up"],
    )
    def test_matches_textbook_rk4(self, params, s0, t_end, dt, guard, record_every):
        trace = assert_matches_reference(s0, params, t_end, dt, record_every)
        assert trace.guard_tripped == guard


class TestEndsOnTEnd:
    def test_drifted_step_sum_ends_on_t_end(self):
        # t is a sum of steps: 49,999 steps of 1e-3 leave a remainder just
        # above dt, and a full last step would end at 49.99999999997417.
        trace = integrate_rectangles(
            RectangleState(0.0, 0.6, 0.4, 0.6, 0.4), coexistence_params(0.1),
            t_end=50.0, dt=1e-3, record_every=10,
        )
        assert trace.t[-1] == 50.0
        assert len(trace.t) == 5001
        assert trace.t[-2] == pytest.approx(49.99)


class TestDivergenceGuard:
    def test_overflow_to_non_finite(self):
        # The first step's stages overflow: the new state is not finite.
        p = mk_params(chi1=1e200)
        s0 = RectangleState(0.0, 1.0, 0.0, 0.0, 0.0)
        trace = assert_matches_reference(s0, p, 1.0, 1e-3, 10)
        assert trace.guard_tripped == "blow_up"
        assert trace.t == [0.0, 1e-3]
        last = (trace.u_hi[-1], trace.u_lo[-1], trace.v_hi[-1], trace.v_lo[-1])
        assert not all(math.isfinite(x) for x in last)
        assert any("divergence guard" in note for note in trace.notes)

    def test_finite_crossing_of_the_guard(self):
        # Near-exponential growth carries u_hi past the guard in one step
        # while every component stays finite.
        p = mk_params(a1=1e-12)
        s0 = RectangleState(0.0, 0.999e8, 0.0, 0.0, 0.0)
        trace = assert_matches_reference(s0, p, 1.0, 1e-2, 10)
        assert trace.guard_tripped == "blow_up"
        assert trace.t == [0.0, 1e-2]
        assert math.isfinite(trace.u_hi[-1]) and trace.u_hi[-1] > DIVERGENCE_GUARD
        assert any("divergence guard" in note for note in trace.notes)
