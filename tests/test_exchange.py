"""The species exchange: u and v trade places, and with them d1, chi1, a0,
a1, a2, a3, a4, k and d2, chi2, b0, b2, b1, b4, b3, l.

The system maps to itself under the exchange, so each v-side formula is its
u-side partner evaluated on ``p.exchanged()``.  The oracle below keeps both
sides of every such pair written out by hand; the derived formulas must give
its results bit for bit.  The dynamics (the PDE run, the rectangle ODE and
the constant states) must map to their mirror images as well.
"""
import math
import random
from dataclasses import fields

import numpy as np
import pytest

from chemotaxis_lab import hypotheses, steady_states
from chemotaxis_lab.model import (
    Grid1D, ModelParams, PreconditionError, StepperConfig, negative_part, positive_part,
)
from chemotaxis_lab.ode_bounds import RectangleState, integrate_rectangles, rectangle_rhs
from chemotaxis_lab.pde_stepper import run_simulation
from chemotaxis_lab.steady_states import ConstantState

from helpers import bits, coexistence_params, draw_params

# u-side field -> v-side field
PARTNER = {
    "d1": "d2", "chi1": "chi2", "a0": "b0", "a1": "b2", "a2": "b1",
    "a3": "b4", "a4": "b3", "k": "l",
}
PARTNER.update({v: u for u, v in PARTNER.items()})

# A mixed-sign parameter set with every mirrored coefficient unequal to its partner.
MIXED = ModelParams(
    d1=1.0, d2=0.7, d3=1.1, chi1=0.3, chi2=0.12,
    a0=1.0, a1=2.2, a2=-0.4, a3=0.2, a4=-0.1,
    b0=0.8, b1=0.5, b2=1.7, b3=-0.2, b4=0.3,
    k=1.2, l=0.6, lam=0.9, omega_measure=1.0,
)


# ---------------------------------------------------------------------------
# the oracle: both sides of each mirror pair written out by hand

def oracle_h1(p):
    w = p.omega_measure
    return (
        p.a1 - (negative_part(p.b1) + w * (negative_part(p.a3) + negative_part(p.b3))
                + p.k * (p.chi1 + p.chi2) / p.d3),
        p.b2 - (negative_part(p.a2) + w * (negative_part(p.a4) + negative_part(p.b4))
                + p.l * (p.chi1 + p.chi2) / p.d3),
    )


def oracle_h2(p):
    w = p.omega_measure
    return (
        p.a1 - w * (negative_part(p.a3) + negative_part(p.b3)),
        p.b2 - w * (negative_part(p.a4) + negative_part(p.b4)),
    )


def oracle_alpha_beta(p):
    w = p.omega_measure
    shared = 0.5 * (
        negative_part(p.a2) + negative_part(p.b1) + w * (negative_part(p.a4) + negative_part(p.b3))
    )
    return (p.a1 - shared - w * negative_part(p.a3), p.b2 - shared - w * negative_part(p.b4))


def oracle_sup_roots(p, m00):
    w = p.omega_measure
    a1c = p.a1 - p.k * p.chi1 / p.d3 - w * negative_part(p.a3)
    a2c = negative_part(p.a2) + w * negative_part(p.a4) + p.l * p.chi1 / p.d3
    b1c = negative_part(p.b1) + w * negative_part(p.b3) + p.k * p.chi2 / p.d3
    b2c = p.b2 - p.l * p.chi2 / p.d3 - w * negative_part(p.b4)
    root = steady_states._logistic_root
    return (root(p.a0, a1c, a2c, m00), root(p.b0, b2c, b1c, m00))


def oracle_mass_roots(p, m_l1):
    w = p.omega_measure
    a1t = (p.a1 - w * negative_part(p.a3)) / w
    b2t = (p.b2 - w * negative_part(p.b4)) / w
    root = steady_states._logistic_root
    return (root(p.a0, a1t, negative_part(p.a4), m_l1), root(p.b0, b2t, negative_part(p.b3), m_l1))


def oracle_h4(p, n_dim):
    factor = (n_dim - 2) / n_dim
    return {
        "a1": p.a1 - max(0.0, p.chi1 * p.k * factor / p.d3),
        "a2": p.a2 - max(0.0, p.chi1 * p.l * factor / p.d3),
        "b2": p.b2 - max(0.0, p.chi2 * p.l * factor / p.d3),
        "b1": p.b1 - max(0.0, p.chi2 * p.k * factor / p.d3),
    }


def oracle_h5(p):
    return {
        "f_limit": p.a1 - (negative_part(p.a2) + (p.l + p.k) * p.chi1 / p.d3),
        "g_limit": p.b2 - (negative_part(p.b1) + (p.l + p.k) * p.chi2 / p.d3),
    }


def oracle_g(p, gamma):
    gp1 = gamma + 1.0
    gm1 = gamma - 1.0
    return (
        p.b2
        - gamma * negative_part(p.b1) / gp1
        - negative_part(p.a2) / gp1
        - p.chi2 * p.l * gm1 / (p.d3 * gamma)
        - p.chi2 * p.k * gm1 / (p.d3 * gp1)
        - p.chi1 * p.l * gm1 / (p.d3 * gamma * gp1)
    )


def oracle_gamma_star(p):
    def ratio(num, coef):
        gap = positive_part(num - coef)
        return math.inf if gap == 0.0 else num / gap

    return min(
        ratio(p.chi1 * p.k / p.d3, p.a1), ratio(p.chi2 * p.l / p.d3, p.b2),
        ratio(p.chi1 * p.l / p.d3, p.a2), ratio(p.chi2 * p.k / p.d3, p.b1),
    )


def oracle_coexistence(p):
    w = p.omega_measure
    slack_a1 = p.a1 - (2.0 * p.chi1 * p.k / p.d3 + w * abs(p.a3))
    slack_b2 = p.b2 - (2.0 * p.chi2 * p.l / p.d3 + w * abs(p.b4))
    return {
        "a1_chemotaxis_slack": slack_a1,
        "b2_chemotaxis_slack": slack_b2,
        "interaction_product": slack_a1 * slack_b2 - (
            (abs(p.a2) + w * abs(p.a4) + p.l * p.chi1 / p.d3)
            * (abs(p.b1) + w * abs(p.b3) + p.k * p.chi2 / p.d3)
        ),
    }


def oracle_competitive(p):
    w = p.omega_measure
    slacks = oracle_coexistence(p)
    return {
        "a1_chemotaxis_slack": slacks["a1_chemotaxis_slack"],
        "b2_chemotaxis_slack": slacks["b2_chemotaxis_slack"],
        "cross_competition_min": min(p.a2 - p.chi1 * p.l / p.d3, p.b1 - p.chi2 * p.k / p.d3),
        "interaction_product_signed": (p.a1 - 2.0 * p.chi1 * p.k / p.d3 - w * p.a3)
        * (p.b2 - 2.0 * p.chi2 * p.l / p.d3 - w * p.b4)
        - (p.a2 + w * p.a4) * (p.b1 + w * p.b3),
    }


def oracle_rectangle_rhs(p, u_hi, u_lo, v_hi, v_lo):
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


def margin_bits(report, labels):
    values = {m.label: m.value for m in report.margins}
    return bits(*(values[label] for label in labels))


def bounds_or_none(family, p, *initial):
    try:
        return family(p, *initial)
    except PreconditionError:  # the hypothesis the family needs fails
        return None


class TestOracle:
    def test_every_derived_formula_matches_the_hand_written_pair(self):
        rng = random.Random(20121)
        for _ in range(2000):
            p = draw_params(rng)
            assert bits(*steady_states.h1_margins(p)) == bits(*oracle_h1(p)), p
            assert bits(*steady_states.h2_margins(p)) == bits(*oracle_h2(p)), p
            assert bits(*steady_states.alpha_beta(p)) == bits(*oracle_alpha_beta(p)), p

            sup0 = (rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0))
            got = bounds_or_none(steady_states.linf_bounds, p, *sup0)
            if got is not None:
                m01, m02 = oracle_sup_roots(p, got["m00"])
                assert bits(got["m01"], got["m02"], got["sup_cap_u"], got["sup_cap_v"]) == bits(
                    m01, m02, max(sup0[0], m01), max(sup0[1], m02)
                ), p
            mass0 = (rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0))
            got = bounds_or_none(steady_states.l1_bounds, p, *mass0)
            if got is not None:
                root_u, root_v = oracle_mass_roots(p, got["m_l1"])
                assert bits(got["mass_u_cap"], got["mass_v_cap"]) == bits(
                    max(mass0[0], root_u), max(mass0[1], root_v)
                ), p

            n_dim = rng.randint(1, 4)
            expected = oracle_h4(p, n_dim)
            report = hypotheses.check_h4(p, n_dim)
            assert [m.label for m in report.margins] == list(expected)
            assert margin_bits(report, expected) == bits(*expected.values()), p
            expected = oracle_h5(p)
            assert margin_bits(hypotheses.check_h5(p), expected) == bits(*expected.values()), p
            gamma = rng.choice((0.5, 1.0, 1.5, 2.0, rng.uniform(-3.0, 3.0)))
            assert bits(hypotheses.eval_g(p, gamma)) == bits(oracle_g(p, gamma)), p
            if min(p.a1, p.b1, p.a2, p.b2) > 0.0:
                assert bits(hypotheses.gamma_star(p)) == bits(oracle_gamma_star(p)), p
            if p.b0 != 0.0:  # the routes' growth ratio is a0/b0
                for route, oracle in ((hypotheses.check_coexistence, oracle_coexistence),
                                      (hypotheses.check_coexistence_competitive, oracle_competitive)):
                    expected = oracle(p)
                    assert margin_bits(route(p), expected) == bits(*expected.values()), p

            box = sorted(10.0 ** rng.uniform(-2.0, 1.0) for _ in range(2))
            box += sorted(10.0 ** rng.uniform(-2.0, 1.0) for _ in range(2))
            u_lo, u_hi, v_lo, v_hi = box
            assert bits(*rectangle_rhs(p)(u_hi, u_lo, v_hi, v_lo)) == bits(
                *oracle_rectangle_rhs(p, u_hi, u_lo, v_hi, v_lo)
            ), p


# ---------------------------------------------------------------------------
# the exchange itself and the dynamics under it

class TestExchangedParams:
    def test_each_field_takes_its_partners_value(self):
        p = ModelParams(*(float(i) for i in range(1, 20)))
        q = p.exchanged()
        for f in fields(ModelParams):
            assert getattr(q, f.name) == getattr(p, PARTNER.get(f.name, f.name)), f.name

    def test_exchanging_twice_gives_the_params_back(self):
        assert MIXED.exchanged().exchanged() == MIXED
        assert MIXED.exchanged() != MIXED

    def test_symmetric_params_are_their_own_exchange(self):
        p = coexistence_params(a3=0.1, b4=0.1, a4=-0.2, b3=-0.2)
        assert p.exchanged() == p


def swapped_state(s: ConstantState) -> ConstantState:
    return ConstantState(u_star=s.v_star, v_star=s.u_star, w_star=s.w_star)


class TestConstantStates:
    @pytest.mark.parametrize("seed", range(3))
    def test_coexistence_state_of_the_exchange_is_the_swapped_state(self, seed):
        rng = random.Random(seed)
        for _ in range(200):
            p = draw_params(rng)
            try:
                state = steady_states.coexistence_state(p)
            except steady_states.PreconditionError:
                continue
            assert steady_states.coexistence_state(p.exchanged()) == swapped_state(state), p

    def test_u_only_state_of_the_exchange_is_the_exclusion_state(self):
        first, exclusion = steady_states.semi_trivial_states(MIXED.exchanged())
        assert first == swapped_state(steady_states.exclusion_state(MIXED))
        assert steady_states.exclusion_state(MIXED.exchanged()) == swapped_state(
            steady_states.semi_trivial_states(MIXED)[0]
        )


def assert_rel(a, b, rel=1e-12):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    np.testing.assert_allclose(a, b, rtol=rel, atol=0.0)


class TestDynamics:
    def test_run_of_the_exchange_is_the_swapped_run(self):
        grid = Grid1D(1.0, 64)
        x = grid.cell_centers()
        u0 = 0.5 + 0.2 * np.cos(np.pi * x)
        v0 = 0.4 + 0.1 * np.cos(2.0 * np.pi * x)
        cfg = StepperConfig(dt=1e-3, t_end=0.5, record_every=10)
        state = steady_states.coexistence_state(MIXED)
        swapped = swapped_state(state)
        rec = run_simulation(u0, v0, MIXED, grid, cfg)
        mirror = run_simulation(v0, u0, MIXED.exchanged(), grid, cfg)
        assert rec.guard_tripped is None and mirror.guard_tripped is None
        assert rec.t == mirror.t and rec.n_samples == mirror.n_samples > 2
        for a, b in (("u_min", "v_min"), ("u_max", "v_max"), ("u_mean", "v_mean"),
                     ("mass_u", "mass_v"), ("w_min", "w_min"), ("w_max", "w_max")):
            assert_rel(getattr(rec, a), getattr(mirror, b))
        du, dv, dw = rec.distances((state.u_star, state.v_star, state.w_star))
        mdu, mdv, mdw = mirror.distances((swapped.u_star, swapped.v_star, swapped.w_star))
        assert_rel(du, mdv)
        assert_rel(dv, mdu)
        assert_rel(dw, mdw)
        assert_rel(rec.final_state.u, mirror.final_state.v)
        assert_rel(rec.final_state.w, mirror.final_state.w)

    def test_rectangles_of_the_exchange_are_the_swapped_rectangles(self):
        s0 = RectangleState(t=0.0, u_hi=0.9, u_lo=0.2, v_hi=0.7, v_lo=0.35)
        swapped = RectangleState(t=0.0, u_hi=0.7, u_lo=0.35, v_hi=0.9, v_lo=0.2)
        trace = integrate_rectangles(s0, MIXED, (s0.t, 2.0), 0.05)
        mirror = integrate_rectangles(swapped, MIXED.exchanged(), (swapped.t, 2.0), 0.05)
        assert trace.guard_tripped is None and mirror.guard_tripped is None
        assert trace.t == mirror.t and len(trace.t) > 2
        for a, b in (("u_hi", "v_hi"), ("u_lo", "v_lo"), ("v_hi", "u_hi"), ("v_lo", "u_lo")):
            assert_rel(getattr(trace, a), getattr(mirror, b))
