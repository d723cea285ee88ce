import math
from dataclasses import replace

import numpy as np
import pytest

from chemotaxis_lab.hypotheses import (
    Margin,
    check_all,
    check_coexistence,
    check_coexistence_competitive,
    check_exclusion,
    check_h1,
    check_h2,
    check_h3,
    check_h4,
    check_h5,
    check_h6,
    classify_regime,
    eval_f,
    eval_g,
    exclusion_dominance_margin,
    gamma_star,
)
from chemotaxis_lab.model import PreconditionError, negative_part
from helpers import coexistence_params, exclusion_params, mk_params


def by_label(report):
    return {m.label: m.value for m in report.margins}


class TestBasicHypotheses:
    def test_h1_coexistence_margins(self):
        rep = check_h1(coexistence_params(0.1))
        assert rep.holds
        assert by_label(rep) == {
            "a1_side": pytest.approx(1.8, rel=1e-14),
            "b2_side": pytest.approx(1.8, rel=1e-14),
        }

    def test_h1_fails_under_strong_chemotaxis(self):
        assert not check_h1(coexistence_params(10.0)).holds

    def test_h2_ignores_chemotaxis(self):
        rep = check_h2(coexistence_params(10.0))
        assert rep.holds
        assert by_label(rep) == {"a1_side": 2.0, "b2_side": 2.0}

    def test_h3_margins_are_alpha_beta(self):
        rep = check_h3(mk_params(a1=3.0, b2=4.0, a2=-1.0, b1=-0.5))
        assert by_label(rep) == {
            "alpha": pytest.approx(3.0 - 0.75, rel=1e-14),
            "beta": pytest.approx(4.0 - 0.75, rel=1e-14),
        }

    @pytest.mark.parametrize("n_dim", [1, 2])
    def test_h4_trivial_in_low_dimensions(self, n_dim):
        p = mk_params(a1=0.1, a2=0.1, b1=0.1, b2=0.1, chi1=50.0, chi2=50.0)
        rep = check_h4(p, n_dim)
        assert rep.holds
        assert by_label(rep) == {"a1": 0.1, "a2": 0.1, "b2": 0.1, "b1": 0.1}

    def test_h4_threshold_in_three_dimensions(self):
        p = mk_params(a1=1.0, a2=1.0, b1=1.0, b2=1.0, chi1=3.0, chi2=0.0, k=2.0, d3=2.0)
        rep = check_h4(p, 3)
        assert by_label(rep)["a1"] == pytest.approx(0.0, abs=1e-15)
        assert not rep.holds

    def test_h4_rejects_bad_dimension(self):
        with pytest.raises(PreconditionError):
            check_h4(mk_params(), 0)

    def test_h5_margins(self):
        rep = check_h5(coexistence_params(0.1))
        assert by_label(rep) == {
            "f_limit": pytest.approx(1.8, rel=1e-14),
            "g_limit": pytest.approx(1.8, rel=1e-14),
        }


class TestCoercivityFunctions:
    @pytest.mark.parametrize("gamma", [0.0, -1.0])
    def test_undefined_points(self, gamma):
        with pytest.raises(PreconditionError):
            eval_f(mk_params(), gamma)
        with pytest.raises(PreconditionError):
            eval_g(mk_params(), gamma)

    def test_f_at_one_drops_chemotaxis(self):
        p = mk_params(a1=3.0, a2=-1.0, b1=-0.5, chi1=7.0, chi2=9.0)
        assert eval_f(p, 1.0) == pytest.approx(3.0 - 0.5 - 0.25, rel=1e-14)

    def test_f_reference_value(self):
        p = mk_params(
            a1=4.0, a2=-2.0, b1=-1.0, b2=5.0,
            chi1=0.5, chi2=0.25, k=2.0, l=1.0, d3=2.0,
        )
        assert eval_f(p, 2.0) == pytest.approx(47.0 / 24.0, rel=1e-14)
        assert eval_g(p, 2.0) == pytest.approx(167.0 / 48.0, rel=1e-14)

    def test_h6_margins_evaluate_f_and_g_at_half_n(self):
        p = coexistence_params(0.1)
        for n_dim in (1, 2, 3, 5):
            rep = check_h6(p, n_dim)
            ms = by_label(rep)
            assert ms["f_at_half_n"] == eval_f(p, n_dim / 2.0)
            assert ms["g_at_half_n"] == eval_g(p, n_dim / 2.0)

    def test_h6_coexistence_reference(self):
        ms = by_label(check_h6(coexistence_params(0.1), 1))
        assert ms["f_at_half_n"] == pytest.approx(2.2, rel=1e-14)
        assert ms["g_at_half_n"] == pytest.approx(2.2, rel=1e-14)


class TestGammaStar:
    def test_finite_value(self):
        p = mk_params(a1=1.0, a2=1.0, b1=1.0, b2=1.0, chi1=2.0, chi2=0.0, k=1.0, l=0.25)
        assert gamma_star(p) == 2.0

    def test_infinite_when_no_ratio_binds(self):
        assert gamma_star(coexistence_params(0.1)) == math.inf

    def test_requires_positive_interactions(self):
        with pytest.raises(PreconditionError):
            gamma_star(mk_params(a1=2.0, b2=2.0))


class TestCoexistenceRoutes:
    def test_general_route_margins(self):
        rep = check_coexistence(coexistence_params(0.1))
        assert rep.holds
        ms = by_label(rep)
        assert ms["a1_chemotaxis_slack"] == pytest.approx(1.8, rel=1e-14)
        assert ms["b2_chemotaxis_slack"] == pytest.approx(1.8, rel=1e-14)
        assert ms["ratio_lower"] == pytest.approx(0.5, rel=1e-14)
        assert ms["ratio_upper"] == pytest.approx(1.0, rel=1e-14)
        assert ms["interaction_product"] == pytest.approx(3.24 - 1.21, rel=1e-13)
        assert ms["h1_a1_side"] == pytest.approx(1.8, rel=1e-14)

    def test_competitive_route_margins(self):
        rep = check_coexistence_competitive(coexistence_params(0.1))
        assert rep.holds
        ms = by_label(rep)
        assert ms["cross_competition_min"] == pytest.approx(0.9, rel=1e-14)
        assert ms["interaction_product_signed"] == pytest.approx(2.24, rel=1e-13)
        assert any("sign pattern" in note for note in rep.notes)

    def test_degenerate_ratio_denominator(self):
        rep = check_coexistence(mk_params(a1=2.0, b2=1.0, b4=-1.0))
        ms = by_label(rep)
        assert ms["ratio_lower"] == -math.inf
        assert not rep.holds
        assert any("degenerate" in note for note in rep.notes)

    @pytest.mark.parametrize("b0", [0.0, -0.0])
    @pytest.mark.parametrize("route", [check_coexistence, check_coexistence_competitive])
    def test_zero_b0_leaves_the_growth_ratio_undefined(self, route, b0):
        rep = route(coexistence_params(0.1, b0=b0))
        ms = by_label(rep)
        assert (ms["ratio_lower"], ms["ratio_upper"]) == (-math.inf, -math.inf)
        assert ms["a1_chemotaxis_slack"] == pytest.approx(1.8, rel=1e-14)
        assert not rep.holds
        assert f"growth ratio a0/b0 undefined: b0 = {b0!r}" in rep.notes

    @pytest.mark.parametrize("b0", [0.0, -0.0])
    def test_check_all_reports_zero_b0(self, b0):
        reports = check_all(coexistence_params(0.1, b0=b0))
        for name in ("coexistence", "coexistence_competitive"):
            assert not reports[name].holds
            assert by_label(reports[name])["ratio_upper"] == -math.inf
        assert reports["h1"].holds

    def test_route_fails_for_exclusion_parameters(self):
        rep = check_coexistence(exclusion_params(0.05))
        assert not rep.holds
        assert by_label(rep)["ratio_lower"] < 0.0


class TestExclusionRoute:
    def test_reference_margins(self):
        rep = check_exclusion(exclusion_params(0.05))
        assert rep.holds
        ms = by_label(rep)
        assert ms["b2_chemotaxis_slack"] == pytest.approx(0.9, rel=1e-14)
        assert ms["a4_sign"] == 0.0
        assert ms["a2_vs_chi1_l"] == pytest.approx(1.45, rel=1e-14)
        assert ms["a1_vs_chi1_k"] == pytest.approx(0.95, rel=1e-14)
        assert ms["b0_threshold"] == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert ms["dominance"] == pytest.approx(1.71 - 0.475, rel=1e-13)
        assert rep.notes == ("dominance branch: b1_large",)

    def test_branch_selection(self):
        small = check_exclusion(exclusion_params(0.05, b1=0.01))
        assert small.notes == ("dominance branch: b1_small",)
        tie = check_exclusion(exclusion_params(0.05, b1=0.05))
        assert tie.notes == ("dominance branch: b1_small",)

    def test_branches_agree_at_crossover_for_nonnegative_b3(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = mk_params(
                a0=1.0, b0=2.0, a1=1.0, a2=1.5, b2=1.0,
                chi2=1.0, k=1.0, d3=1.0, b1=1.0,
                b3=float(rng.uniform(0.0, 2.0)),
                b4=float(rng.uniform(-0.3, 0.3)),
                omega_measure=float(rng.uniform(0.5, 2.0)),
            )
            big = exclusion_dominance_margin(p, "b1_large")
            small = exclusion_dominance_margin(p, "b1_small")
            assert big == pytest.approx(small, rel=1e-12, abs=1e-12)

    def test_dominance_is_built_from_the_reported_b2_slack(self):
        # The margin is u_factor * slack * b0 - rhs with rhs free of b0, so
        # the margin at b0 = 0 is -rhs exactly and the slack factor can be
        # checked bit for bit.
        rng = np.random.default_rng(20)
        names = ("chi1", "chi2", "a0", "a1", "a2", "a3", "a4", "b0", "b1", "b2", "b3", "b4",
                 "k", "l", "d3", "omega_measure")
        for _ in range(200):
            p = mk_params(**{name: float(rng.uniform(0.1, 3.0)) for name in names})
            rep = check_exclusion(p)
            branch = rep.notes[0].removeprefix("dominance branch: ")
            w = p.omega_measure
            u_factor = p.a1 - p.chi1 * p.k / p.d3 - w * negative_part(p.a3)
            lhs = u_factor * by_label(rep)["b2_chemotaxis_slack"] * p.b0
            rhs = -exclusion_dominance_margin(replace(p, b0=0.0), branch)
            assert by_label(rep)["dominance"] == lhs - rhs

    def test_dominance_is_built_from_the_reported_a1_margin(self):
        # As above, with coefficients of both signs: where a3 < 0,
        # a1 - chi1*k/d3 - |Omega|(a3)_- and the reported
        # a1 - (chi1*k/d3 + |Omega|(a3)_-) can differ in the last bits.
        rng = np.random.default_rng(21)
        names = ("chi1", "chi2", "a0", "a1", "a2", "a3", "a4", "b0", "b1", "b2", "b3", "b4", "k", "l")
        for _ in range(400):
            p = mk_params(
                **{name: float(rng.uniform(-3.0, 3.0)) for name in names},
                d3=float(rng.uniform(0.1, 3.0)), omega_measure=float(rng.uniform(0.1, 3.0)),
            )
            rep = check_exclusion(p)
            ms = by_label(rep)
            branch = rep.notes[0].removeprefix("dominance branch: ")
            lhs = ms["a1_vs_chi1_k"] * ms["b2_chemotaxis_slack"] * p.b0
            rhs = -exclusion_dominance_margin(replace(p, b0=0.0), branch)
            assert ms["dominance"] == lhs - rhs

    def test_unknown_branch(self):
        with pytest.raises(PreconditionError):
            exclusion_dominance_margin(mk_params(), "sideways")

    def test_degenerate_threshold(self):
        # a2 + a4*|Omega| = 0: the b0 threshold is undefined, so its margin
        # is -inf and fails, and every other margin is reported as usual.
        rep = check_exclusion(mk_params(b0=2.0))
        assert rep.margins == (
            Margin("b2_chemotaxis_slack", 1.0),
            Margin("a4_sign", 0.0, strict=False),
            Margin("a2_vs_chi1_l", 0.0, strict=False),
            Margin("a1_vs_chi1_k", 1.0),
            Margin("b0_threshold", -math.inf, strict=False),
            Margin("dominance", 2.0),
            Margin("h1_a1_side", 1.0),
            Margin("h1_b2_side", 1.0),
        )
        assert not rep.margins[4].satisfied
        assert not rep.holds
        assert rep.notes == (
            "dominance branch: b1_small",
            "exclusion threshold is undefined: a2 + a4*|Omega| = 0",
        )


class TestClassifyRegime:
    def test_coexistence_scenario(self):
        cls = classify_regime(check_all(coexistence_params(0.1)))
        assert cls.asymptotics == "coexistence"
        assert cls.global_existence == ("h1", "h2+h4", "h3+h4", "h3+h5", "h3+h6")

    def test_exclusion_scenario(self):
        cls = classify_regime(check_all(exclusion_params(0.05)))
        assert cls.asymptotics == "exclusion"
        assert "h1" in cls.global_existence

    def test_unclassified_with_no_routes(self):
        cls = classify_regime(check_all(mk_params(a1=0.1, a3=-5.0, chi1=0.1, chi2=0.1)))
        assert cls.asymptotics == "unclassified"
        assert cls.global_existence == ()

    def test_check_all_reports_an_undefined_route(self):
        reports = check_all(mk_params(b0=2.0), n_dim=3)
        assert list(reports) == [
            "h1", "h2", "h3", "h4", "h5", "h6",
            "coexistence", "coexistence_competitive", "exclusion",
        ]
        assert reports["exclusion"] == check_exclusion(mk_params(b0=2.0))
        assert reports["h4"] == check_h4(mk_params(b0=2.0), 3)
