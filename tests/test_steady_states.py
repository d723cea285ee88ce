import math

import numpy as np
import pytest

from chemotaxis_lab.model import PreconditionError
from chemotaxis_lab.steady_states import (
    BOUND_FAMILIES,
    CONSTANT_FAMILIES,
    alpha_beta,
    coexistence_state,
    exclusion_state,
    h1_margins,
    h2_margins,
    l1_bounds,
    linf_bounds,
    mass_sum_cap,
    semi_trivial_states,
)
from helpers import coexistence_params, cooperative_params, mk_params


class TestCoexistenceState:
    def test_reference_triple(self):
        p = mk_params(a1=2.0, b2=2.0, a2=1.0, b1=1.0)
        s = coexistence_state(p)
        assert s.u_star == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert s.v_star == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert s.w_star == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_symmetric_rows_give_equal_components(self):
        p = mk_params(
            a0=1.5, b0=1.5, a1=3.0, b2=3.0, a2=0.5, b1=0.5,
            a3=0.2, b4=0.2, a4=-0.1, b3=-0.1, omega_measure=2.0,
        )
        s = coexistence_state(p)
        assert s.u_star == s.v_star

    def test_decoupled_reduces_to_carrying_capacities(self):
        p = mk_params(a0=1.0, a1=2.0, b0=1.0, b2=1.0)
        s = coexistence_state(p)
        assert s.u_star == pytest.approx(0.5, rel=1e-15)
        assert s.v_star == pytest.approx(1.0, rel=1e-15)

    def test_singular_determinant(self):
        p = mk_params(a1=1.0, b2=1.0, a2=1.0, b1=1.0)
        with pytest.raises(PreconditionError, match="determinant"):
            coexistence_state(p)

    def test_overflowing_state_is_degenerate(self):
        # a2 + |Omega| a4 overflows to inf, and u* = -inf/-inf is NaN
        p = mk_params(a1=2.0, b2=2.0, a2=1e308, a4=1e308, b1=1.0)
        with pytest.raises(PreconditionError, match="is not finite"):
            coexistence_state(p)

    def test_signal_consistency(self):
        p = mk_params(a1=2.0, b2=2.0, a2=1.0, b1=1.0, k=3.0, l=0.5, lam=2.0)
        s = coexistence_state(p)
        assert s.w_star == pytest.approx((3.0 * s.u_star + 0.5 * s.v_star) / 2.0, rel=1e-15)

    def test_zeroes_homogeneous_reactions(self):
        rng = np.random.default_rng(20260819)
        for _ in range(50):
            c = rng.uniform(0.2, 3.0, size=9)
            w = float(rng.uniform(0.5, 2.0))
            p = mk_params(
                a0=c[0], b0=c[1], a1=c[2] + 2.0, b2=c[3] + 2.0,
                a2=c[4] * 0.3, b1=c[5] * 0.3,
                a3=(c[6] - 1.5) * 0.2, b4=(c[7] - 1.5) * 0.2, a4=0.1, b3=-0.1,
                omega_measure=w,
            )
            try:
                s = coexistence_state(p)
            except PreconditionError:
                continue
            r_u = p.a0 - (p.a1 + w * p.a3) * s.u_star - (p.a2 + w * p.a4) * s.v_star
            r_v = p.b0 - (p.b1 + w * p.b3) * s.u_star - (p.b2 + w * p.b4) * s.v_star
            scale = abs(p.a0) + abs(p.b0)
            assert abs(r_u) <= 1e-12 * scale
            assert abs(r_v) <= 1e-12 * scale


class TestExclusionState:
    def test_reference_triple(self):
        s = exclusion_state(mk_params(b0=1.0, b2=2.0))
        assert (s.u_star, s.v_star, s.w_star) == (0.0, 0.5, 0.5)

    def test_zero_denominator(self):
        with pytest.raises(PreconditionError, match=r"exclusion state needs b2 \+ \|Omega\|\*b4 > 0"):
            exclusion_state(mk_params(b2=1.0, b4=-0.5, omega_measure=2.0))

    def test_overflowing_state_is_degenerate(self):
        with pytest.raises(PreconditionError, match="is not finite"):
            exclusion_state(mk_params(b0=1e300, b2=1e-10))

    def test_independent_of_k(self):
        a = exclusion_state(mk_params(b0=3.0, b2=1.5, k=1.0))
        b = exclusion_state(mk_params(b0=3.0, b2=1.5, k=7.0))
        assert (a.u_star, a.v_star, a.w_star) == (b.u_star, b.v_star, b.w_star)

    def test_nonlocal_term_enters_denominator(self):
        s = exclusion_state(mk_params(b0=2.0, b2=1.0, b4=1.0, omega_measure=1.0))
        assert s.v_star == pytest.approx(1.0, rel=1e-15)


class TestSemiTrivialStates:
    def test_first_component(self):
        first, _ = semi_trivial_states(mk_params(a0=1.0, a1=2.0))
        assert (first.u_star, first.v_star, first.w_star) == (0.5, 0.0, 0.5)

    def test_second_equals_exclusion(self):
        p = mk_params(b0=2.5, b2=1.25, b4=0.5, l=2.0, lam=3.0)
        _, second = semi_trivial_states(p)
        ref = exclusion_state(p)
        assert (second.u_star, second.v_star, second.w_star) == (
            ref.u_star, ref.v_star, ref.w_star,
        )

    def test_nonlocal_self_limitation(self):
        first, _ = semi_trivial_states(mk_params(a0=2.0, a1=1.0, a3=1.0, k=3.0, lam=2.0))
        assert first.u_star == pytest.approx(1.0, rel=1e-15)
        assert first.w_star == pytest.approx(1.5, rel=1e-15)

    def test_degenerate_denominator(self):
        with pytest.raises(PreconditionError, match=r"u-only state needs a1 \+ \|Omega\|\*a3 > 0"):
            semi_trivial_states(mk_params(a1=1.0, a3=-1.0))

    def test_overflowing_state_is_degenerate(self):
        with pytest.raises(PreconditionError, match="is not finite"):
            semi_trivial_states(mk_params(a0=1e300, a1=1e-10))


class TestMarginHelpers:
    def test_h1_margins_reference(self):
        assert h1_margins(coexistence_params(0.1)) == (1.8, 1.8)

    def test_h1_margins_formula(self):
        p = mk_params(
            a1=4.0, b2=5.0, b1=-0.5, a2=-0.25, a3=-0.2, b3=-0.3, a4=-0.1, b4=-0.4,
            chi1=0.5, chi2=0.25, k=2.0, l=3.0, d3=2.0, omega_measure=2.0,
        )
        m1, m2 = h1_margins(p)
        assert m1 == pytest.approx(4.0 - (0.5 + 2.0 * 0.5 + 2.0 * 0.75 / 2.0), rel=1e-14)
        assert m2 == pytest.approx(5.0 - (0.25 + 2.0 * 0.5 + 3.0 * 0.75 / 2.0), rel=1e-14)

    def test_h2_margins_formula(self):
        p = mk_params(a1=2.0, b2=3.0, a3=-0.5, b3=-0.25, a4=-0.1, b4=-0.2, omega_measure=2.0)
        m1, m2 = h2_margins(p)
        assert m1 == pytest.approx(2.0 - 2.0 * 0.75, rel=1e-14)
        assert m2 == pytest.approx(3.0 - 2.0 * 0.3, rel=1e-14)

    def test_alpha_beta_formula(self):
        p = mk_params(
            a1=3.0, b2=4.0, a2=-1.0, b1=-0.5, a4=-2.0, b3=-1.0,
            a3=-0.5, b4=-0.25, omega_measure=0.5,
        )
        shared = 0.5 * (1.0 + 0.5 + 0.5 * (2.0 + 1.0))
        alpha, beta = alpha_beta(p)
        assert alpha == pytest.approx(3.0 - shared - 0.5 * 0.5, rel=1e-14)
        assert beta == pytest.approx(4.0 - shared - 0.5 * 0.25, rel=1e-14)


class TestLinfBounds:
    def test_logistic_reference(self):
        bc = linf_bounds(mk_params(), 0.5, 0.5)
        assert bc["l_const"] == 1.0
        assert bc["m00"] == 1.0
        assert bc["m01"] == 1.0
        assert bc["m02"] == 1.0
        assert bc["sup_cap_u"] == 1.0
        assert bc["sup_cap_v"] == 1.0

    def test_initial_data_dominates_cap(self):
        bc = linf_bounds(mk_params(), 2.5, 3.0)
        assert bc["sup_cap_u"] == 2.5
        assert bc["sup_cap_v"] == 3.0

    def test_coexistence_scenario_constants(self):
        p = coexistence_params(0.1)
        sup0 = 0.6
        bc = linf_bounds(p, sup0, sup0)
        l_expected = 1.8
        m00 = max(sup0 * sup0, (1.0 + 1.0) ** 2 / (4.0 * l_expected**2))
        a1c = 2.0 - 0.1
        a2c = 0.1
        m01 = (1.0 + math.sqrt(1.0 + 4.0 * a1c * a2c * m00)) / (2.0 * a1c)
        assert bc["l_const"] == pytest.approx(l_expected, rel=1e-14)
        assert bc["m00"] == pytest.approx(m00, rel=1e-14)
        assert bc["m01"] == pytest.approx(m01, rel=1e-14)
        assert bc["m02"] == pytest.approx(m01, rel=1e-14)
        assert bc["sup_cap_u"] == pytest.approx(max(sup0, m01), rel=1e-14)

    def test_requires_positive_margins(self):
        with pytest.raises(PreconditionError, match="margins"):
            linf_bounds(coexistence_params(10.0), 0.5, 0.5)

    def test_underflowing_margin_is_a_violation(self):
        # L = 1e-300 is positive, but 4*L*L is 0.0 in floating point.
        with pytest.raises(PreconditionError, match="squares to 0"):
            linf_bounds(mk_params(a1=1e-300, chi1=1e-320, chi2=1e-320), 0.5, 0.5)

    def test_overflowing_growth_rates_give_infinite_caps(self):
        # (a0 + b0)^2 = 1e400 is inf in floating point; a ** 2 would raise.
        bc = linf_bounds(coexistence_params(0.1, a0=1e200), 0.5, 0.5)
        assert bc["m00"] == bc["sup_cap_u"] == bc["sup_cap_v"] == math.inf


class TestL1Bounds:
    def test_reference_constants(self):
        p = mk_params(a1=2.0, b2=3.0, a3=-0.5, b3=-0.25, a4=-0.1, b4=-0.2, omega_measure=2.0)
        bc = l1_bounds(p, 1.0, 2.0)
        m1, m2 = 0.5, 2.4
        m = max(2.0, (2.0) ** 2 * 4.0 / (4.0 * min(m1 * m1, m2 * m2)))
        assert bc["m_l1"] == pytest.approx(m, rel=1e-14)
        a1t = (2.0 - 2.0 * 0.5) / 2.0
        cap_u = max(1.0, (1.0 + math.sqrt(1.0 + 4.0 * a1t * 0.1 * m)) / (2.0 * a1t))
        b2t = (3.0 - 2.0 * 0.2) / 2.0
        cap_v = max(2.0, (1.0 + math.sqrt(1.0 + 4.0 * b2t * 0.25 * m)) / (2.0 * b2t))
        assert bc["mass_u_cap"] == pytest.approx(cap_u, rel=1e-14)
        assert bc["mass_v_cap"] == pytest.approx(cap_v, rel=1e-14)

    def test_zero_coupling_reduces_to_mass_capacity(self):
        bc = l1_bounds(mk_params(a1=2.0), 0.25, 0.25)
        assert bc["mass_u_cap"] == 0.5
        assert bc["mass_v_cap"] == 1.0

    def test_requires_h2(self):
        with pytest.raises(PreconditionError, match="mass bounds need both H2 margins positive"):
            l1_bounds(mk_params(a3=-3.0), 1.0, 1.0)

    def test_underflowing_margin_is_a_violation(self):
        with pytest.raises(PreconditionError, match="square to 0"):
            l1_bounds(mk_params(a1=1e-300), 1.0, 1.0)

    @pytest.mark.parametrize("a4", [0.0, -1e-300])
    def test_underflowing_self_limitation_is_a_violation(self, a4):
        # The H2 margin 1e-100 squares to 1e-200, but (a1 - |Omega|(a3)_-)/|Omega|
        # underflows to 0.0; both forms of the root would divide by it.
        with pytest.raises(PreconditionError, match="self-limitation coefficient above 0.0"):
            l1_bounds(mk_params(a1=1e-100, a4=a4, omega_measure=1e250), 1.0, 1.0)

    def test_overflowing_growth_rates_give_infinite_constant(self):
        assert l1_bounds(coexistence_params(0.1, a0=1e200), 0.5, 0.5)["m_l1"] == math.inf


class TestMassSumCap:
    def test_cooperative_reference(self):
        cap = mass_sum_cap(cooperative_params(0.1), 1.0)
        assert cap == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_initial_mass_dominates(self):
        assert mass_sum_cap(cooperative_params(0.1), 3.0) == 3.0

    def test_requires_h3(self):
        with pytest.raises(PreconditionError, match="alpha"):
            mass_sum_cap(mk_params(a1=2.0, b2=2.0, a2=-5.0), 1.0)


class TestFamilies:
    def test_constant_families_label_their_states(self):
        p = coexistence_params(0.1)
        labelled = [item for family in CONSTANT_FAMILIES.values() for item in family(p)]
        assert labelled == [
            ("coexistence", coexistence_state(p)),
            ("exclusion", exclusion_state(p)),
            ("semi_trivial_u", semi_trivial_states(p)[0]),
            ("semi_trivial_v", semi_trivial_states(p)[1]),
        ]

    def test_bound_families_return_their_constants(self):
        p = cooperative_params(0.1)
        sup0, mass0 = (0.6, 0.5), (0.25, 0.75)
        alpha, beta = alpha_beta(p)
        assert [family(p, sup0, mass0) for family in BOUND_FAMILIES.values()] == [
            linf_bounds(p, *sup0),
            l1_bounds(p, *mass0),
            {"alpha": alpha, "beta": beta, "mass_sum_cap": mass_sum_cap(p, 1.0)},
        ]

    def test_bound_family_raises_when_its_hypothesis_fails(self):
        with pytest.raises(PreconditionError, match="alpha"):
            BOUND_FAMILIES["mass_sum"](mk_params(a1=2.0, b2=2.0, a2=-5.0), (0.5, 0.5), (0.5, 0.5))
