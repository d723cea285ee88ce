import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from chemotaxis_lab import (
    FieldState,
    PreconditionError,
    RectangleState,
    RectangleTrace,
    TrajectoryRecord,
    check_enclosure,
    initial_rectangle,
    integrate_rectangles,
    linf_bounds,
    rectangle_rhs,
)
from helpers import coexistence_params, mk_params


def make_pde_trace(samples):
    """Synthetic trajectory record from (t, u_lo, u_hi, v_lo, v_hi) rows."""
    rec = TrajectoryRecord()
    for t, u_lo, u_hi, v_lo, v_hi in samples:
        state = FieldState(
            t=t,
            u=np.array([u_lo, u_hi]),
            v=np.array([v_lo, v_hi]),
            w=np.zeros(2),
        )
        rec.append_sample(state, mass_u=0.0, mass_v=0.0)
    return rec


class TestRectangleRhs:
    def test_signal_term_hand_value(self):
        s = RectangleState(t=0.0, u_hi=1.0, u_lo=1.0, v_hi=1.0, v_lo=0.0)
        assert rectangle_rhs(s, mk_params(chi1=1.0)) == (1.0, -1.0, 0.0, 0.0)

    def test_signed_part_hand_value(self):
        p = mk_params(a0=1.0, a1=3.0, a2=-2.0, a3=1.0, a4=1.0, omega_measure=2.0)
        s = RectangleState(t=0.0, u_hi=2.0, u_lo=1.0, v_hi=3.0, v_lo=0.5)
        assert rectangle_rhs(s, p) == (-4.0, -11.0, -6.0, 0.25)

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
            s = RectangleState(t=0.0, u_hi=u, u_lo=u, v_hi=v, v_lo=v)
            d_uhi, d_ulo, d_vhi, d_vlo = rectangle_rhs(s, p)
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

    def test_diagonal_stays_diagonal(self):
        p = coexistence_params(0.1)
        s0 = RectangleState(t=0.0, u_hi=0.6, u_lo=0.6, v_hi=0.4, v_lo=0.4)
        trace = integrate_rectangles(s0, p, t_end=20.0, dt=1e-2, record_every=10)
        gaps_u = trace.component("u_hi") - trace.component("u_lo")
        gaps_v = trace.component("v_hi") - trace.component("v_lo")
        assert np.max(np.abs(gaps_u)) <= 1e-12
        assert np.max(np.abs(gaps_v)) <= 1e-12

    def test_ordering_is_preserved(self):
        p = coexistence_params(0.1)
        s0 = RectangleState(t=0.0, u_hi=1.5, u_lo=0.2, v_hi=1.2, v_lo=0.1)
        trace = integrate_rectangles(s0, p, t_end=50.0, dt=1e-3, record_every=50)
        for s in trace.states:
            assert s.u_lo <= s.u_hi + 1e-9
            assert s.v_lo <= s.v_hi + 1e-9

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
        for s in trace.states:
            u_ref, v_ref = sol.sol(s.t)
            assert abs(s.u_hi - u_ref) <= 1e-9
            assert abs(s.v_hi - v_ref) <= 1e-9

    def test_components_respect_sup_caps(self):
        p = coexistence_params(0.1)
        s0 = RectangleState(t=0.0, u_hi=2.0, u_lo=1.0, v_hi=2.0, v_lo=1.0)
        trace = integrate_rectangles(s0, p, t_end=100.0, dt=1e-3, record_every=100)
        bc = linf_bounds(p, s0.u_hi, s0.v_hi)
        assert trace.component("u_hi").max() <= bc.sup_cap_u * (1.0 + 1e-6)
        assert trace.component("v_hi").max() <= bc.sup_cap_v * (1.0 + 1e-6)
        assert trace.guard_tripped is None

    def test_contracts_to_coexistence_point(self):
        p = coexistence_params(0.1)
        s0 = RectangleState(t=0.0, u_hi=2.0, u_lo=1.0, v_hi=2.0, v_lo=1.0)
        trace = integrate_rectangles(s0, p, t_end=100.0, dt=1e-3, record_every=100)
        final = trace.states[-1]
        third = 1.0 / 3.0
        assert abs(final.u_hi - third) < 1e-8
        assert abs(final.u_lo - third) < 1e-8
        assert abs(final.v_hi - third) < 1e-8

    def test_divergence_guard_keeps_partial_trace(self):
        p = mk_params(chi1=10.0)
        s0 = RectangleState(t=0.0, u_hi=2.0, u_lo=0.0, v_hi=1.0, v_lo=1.0)
        trace = integrate_rectangles(s0, p, t_end=1.0, dt=1e-3)
        assert trace.guard_tripped == "blow_up"
        assert trace.states[-1].t < 1.0
        assert any("divergence guard" in note for note in trace.notes)

    def test_initial_rectangle_from_field_extrema(self):
        state = FieldState(
            t=1.5,
            u=np.array([0.2, 0.9, 0.4]),
            v=np.array([1.0, 0.3, 0.6]),
            w=np.zeros(3),
        )
        r = initial_rectangle(state)
        assert r == RectangleState(t=1.5, u_hi=0.9, u_lo=0.2, v_hi=1.0, v_lo=0.3)


class TestCheckEnclosure:
    def test_containment_with_slack(self):
        rect = RectangleTrace(
            states=[RectangleState(t, 1.0, 0.0, 1.0, 0.0) for t in (0.0, 0.5, 1.0)]
        )
        pde = make_pde_trace([(0.0, 0.2, 0.8, 0.2, 0.8), (1.0, 0.3, 0.7, 0.3, 0.7)])
        report = check_enclosure(pde, rect, tol=1e-3)
        assert report.passed
        assert report.worst_violation == pytest.approx(-0.2 - 1e-3, rel=1e-12)
        assert report.n_times == 2

    def test_violation_is_located(self):
        rect = RectangleTrace(
            states=[RectangleState(t, 1.0, 0.0, 1.0, 0.0) for t in (0.0, 1.0)]
        )
        pde = make_pde_trace([(0.0, 0.2, 0.8, 0.2, 0.8), (1.0, 0.2, 1.2, 0.2, 0.8)])
        report = check_enclosure(pde, rect, tol=1e-3)
        assert not report.passed
        assert report.worst_time == 1.0
        assert report.worst_violation == pytest.approx(0.2 - 1e-3, rel=1e-12)

    def test_uncovered_samples_are_flagged(self):
        rect = RectangleTrace(
            states=[RectangleState(t, 1.0, 0.0, 1.0, 0.0) for t in (0.0, 1.0)]
        )
        pde = make_pde_trace(
            [(0.0, 0.2, 0.8, 0.2, 0.8), (2.0, 0.0, 5.0, 0.0, 5.0)]
        )
        report = check_enclosure(pde, rect, tol=1e-3)
        assert report.passed
        assert report.n_times == 1
        assert any("not compared" in note for note in report.notes)

    def test_no_overlap_fails_explicitly(self):
        rect = RectangleTrace(states=[RectangleState(5.0, 1.0, 0.0, 1.0, 0.0)])
        pde = make_pde_trace([(0.0, 0.2, 0.8, 0.2, 0.8)])
        report = check_enclosure(pde, rect, tol=1e-3)
        assert not report.passed
        assert report.n_times == 0
        assert math.isinf(report.worst_violation)

    def test_input_validation(self):
        pde = make_pde_trace([(0.0, 0.2, 0.8, 0.2, 0.8)])
        with pytest.raises(PreconditionError):
            check_enclosure(pde, RectangleTrace(), tol=1e-3)
        rect = RectangleTrace(states=[RectangleState(0.0, 1.0, 0.0, 1.0, 0.0)])
        with pytest.raises(ValueError):
            check_enclosure(pde, rect, tol=-1.0)
