"""Exact changes of unit.

The system keeps its form when the densities are doubled, time is halved or
lengths are doubled, each with its coefficients rescaled to match.  Doubling
and halving are exact in binary floating point, so every quantity that a
formula with consistent dimensions computes maps to itself times an exact
power of two, bit for bit.  A formula that adds terms of different
dimensions fails this on almost every parameter set: a missing |Omega| or d3
factor stays invisible at |Omega| = 1 and d3 = 1 and shows here.
"""
import math
import random
from dataclasses import fields, replace

import numpy as np
import pytest

from chemotaxis_lab import hypotheses, steady_states
from chemotaxis_lab.diagnostics import TRAJECTORY_COLUMNS
from chemotaxis_lab.model import Grid1D, ModelParams, PreconditionError, StepperConfig
from chemotaxis_lab.ode_bounds import rectangle_rhs
from chemotaxis_lab.pde_stepper import run_simulation

from helpers import bits, draw_params

# Per change of unit, the exponent of two that multiplies each coefficient
# (0 where absent), and the exponents of the units of density, time and length.
COEFFICIENTS = {
    "density": dict.fromkeys(("a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4", "k", "l"), -1),
    "time": dict.fromkeys(
        ("d1", "d2", "chi1", "chi2", "a0", "a1", "a2", "a3", "a4", "b0", "b1", "b2", "b3", "b4"), 1
    ),
    "length": {
        **dict.fromkeys(("d1", "d2", "d3", "chi1", "chi2"), 2),
        **dict.fromkeys(("a3", "a4", "b3", "b4"), -1),
        "omega_measure": 1,
    },
}
UNITS = {"density": (1, 0, 0), "time": (0, -1, 0), "length": (0, 0, 1)}
CHANGES = tuple(UNITS)


def change_unit(name, p, grid=None, cfg=None, uv=None):
    """The image of a system under one change of unit: the params, and the
    grid, the run schedule (one without a steady rule) and the (2, n)
    densities where given, None where not."""
    exponents = COEFFICIENTS[name]
    density, time, length = UNITS[name]
    p = ModelParams(**{f.name: math.ldexp(getattr(p, f.name), exponents.get(f.name, 0)) for f in fields(p)})
    if grid is not None:
        grid = Grid1D(length=math.ldexp(grid.length, length), n_cells=grid.n_cells)
    if cfg is not None:
        cfg = replace(cfg, dt=math.ldexp(cfg.dt, time), t_end=math.ldexp(cfg.t_end, time))
    if uv is not None:
        uv = np.ldexp(uv, density)
    return p, grid, cfg, uv


def scaled(values, exponent):
    return [math.ldexp(x, exponent) for x in values]


def outcome(call, *args):
    """call(*args), or None where it raises PreconditionError."""
    try:
        return call(*args)
    except PreconditionError:
        return None


# The case in which the exclusion dominance margin once changed sign with the
# unit of length (d1 = d2 = 1, lambda = 1), at |Omega| = 1 and lengths doubled.
ROADMAP_CASE = ModelParams(
    d1=1.0, d2=1.0, d3=0.79, chi1=0.36, chi2=0.16,
    a0=1.1, a1=1.23, a2=2.58, a3=0.33, a4=0.29,
    b0=2.9, b1=0.35, b2=1.38, b3=-0.17, b4=0.98,
    k=1.21, l=0.44, lam=1.0, omega_measure=1.0,
)
LONG_CASE = change_unit("length", ROADMAP_CASE)[0]


def parameter_sets():
    """The two cases above and 300 derandomized draws with mixed signs and
    magnitudes from 1e-8 to 1e8, among them |Omega| and d3 far from 1."""
    rng = random.Random(1905)
    return [ROADMAP_CASE, LONG_CASE, *(draw_params(rng) for _ in range(300))]


SETS = parameter_sets()


def test_some_sets_have_a_domain_and_a_signal_diffusivity_other_than_one():
    assert LONG_CASE.omega_measure == 2.0 and LONG_CASE.d3 == 4 * 0.79
    assert sum(p.omega_measure != 1.0 and p.d3 != 1.0 for p in SETS) > 250


class TestRoadmapCase:
    def test_exclusion_verdict_does_not_depend_on_the_unit_of_length(self):
        # Before b4 entered the dominance tail as |Omega|*b4, the long case
        # held with dominance +0.0725 while the unit case failed with -0.0191.
        for p in (ROADMAP_CASE, LONG_CASE):
            report = hypotheses.check_exclusion(p)
            margins = {m.label: m.value for m in report.margins}
            assert bits(margins["dominance"]) == bits(-0.01908057362602167)
            assert not report.holds
            assert [m.label for m in report.margins if not m.satisfied] == ["dominance"]

    def test_gamma_star_does_not_depend_on_the_unit_of_length(self):
        # Each chi*k/d3 (and the like) is below its coefficient, so no ratio
        # binds; without /d3 the long case read 1.82.
        assert hypotheses.gamma_star(ROADMAP_CASE) == hypotheses.gamma_star(LONG_CASE) == math.inf


class TestFormulas:
    @pytest.mark.parametrize("name", CHANGES)
    def test_each_margin_scales_by_one_power_of_two(self, name):
        # Per report and label, one exponent e maps every finite nonzero
        # margin m to ldexp(m, e); zeros and infinities map to themselves.
        # The verdict of every margin, and so of every report, is unchanged.
        exponents = {}
        for i, p in enumerate(SETS):
            n_dim = 1 + i % 4
            image = change_unit(name, p)[0]
            pairs = zip(hypotheses.check_all(p, n_dim).items(), hypotheses.check_all(image, n_dim).values())
            for (report, before), after in pairs:
                assert len(before.margins) == len(after.margins)
                for m, got in zip(before.margins, after.margins):
                    assert (got.label, got.strict, got.satisfied) == (m.label, m.strict, m.satisfied), p
                    if m.value == 0.0 or math.isinf(m.value):
                        assert bits(got.value) == bits(m.value), (report, m.label, p)
                        continue
                    e = math.frexp(got.value)[1] - math.frexp(m.value)[1]
                    assert bits(got.value) == bits(math.ldexp(m.value, e)), (report, m.label, p)
                    assert exponents.setdefault((report, m.label), e) == e, (report, m.label, p)
            gamma = outcome(hypotheses.gamma_star, p)
            got = outcome(hypotheses.gamma_star, image)
            assert (got is None, got) == (gamma is None, gamma), p
        assert len(exponents) == 35  # every margin of every report, compared

    @pytest.mark.parametrize("name", CHANGES)
    def test_constant_states_map_bit_for_bit(self, name):
        density = UNITS[name][0]
        computed = 0
        for p in SETS:
            image = change_unit(name, p)[0]
            for family in steady_states.CONSTANT_FAMILIES.values():
                states = outcome(family, p)
                got = outcome(family, image)
                assert (got is None) == (states is None), p
                for (label, s), (got_label, t) in zip(states or (), got or ()):
                    assert got_label == label
                    want = (*scaled((s.u_star, s.v_star), density), s.w_star)
                    assert bits(t.u_star, t.v_star, t.w_star) == bits(*want), (label, p)
                    computed += 1
        assert computed > 300

    @pytest.mark.parametrize("name", CHANGES)
    def test_bound_caps_map_bit_for_bit(self, name):
        # Sup caps carry the unit of density, mass caps that times length.
        density, _, length = UNITS[name]
        caps = {
            "sup_norm": (("sup_cap_u", "sup_cap_v"), density),
            "mass_per_species": (("mass_u_cap", "mass_v_cap"), density + length),
            "mass_sum": (("mass_sum_cap",), density + length),
        }
        rng = random.Random(7)
        available = 0
        for p in SETS:
            image = change_unit(name, p)[0]
            sup0 = (rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0))
            mass0 = (rng.uniform(0.0, 2.0), rng.uniform(0.0, 2.0))
            image_initial = (tuple(scaled(sup0, density)), tuple(scaled(mass0, density + length)))
            for family_name, family in steady_states.BOUND_FAMILIES.items():
                constants = outcome(family, p, sup0, mass0)
                got = outcome(family, image, *image_initial)
                assert (got is None) == (constants is None), (family_name, p)
                if constants is None:
                    continue
                keys, exponent = caps[family_name]
                want = scaled([constants[key] for key in keys], exponent)
                assert bits(*(got[key] for key in keys)) == bits(*want), (family_name, p)
                available += 1
        assert available > 150

    @pytest.mark.parametrize("name", CHANGES)
    def test_rectangle_rhs_maps_bit_for_bit(self, name):
        # A component is a density per unit of time.
        density, time, _ = UNITS[name]
        rng = random.Random(11)
        for p in SETS:
            box = sorted(10.0 ** rng.uniform(-2.0, 1.0) for _ in range(2))
            box += sorted(10.0 ** rng.uniform(-2.0, 1.0) for _ in range(2))
            u_lo, u_hi, v_lo, v_hi = box
            rates = rectangle_rhs(p)(u_hi, u_lo, v_hi, v_lo)
            got = rectangle_rhs(change_unit(name, p)[0])(*scaled((u_hi, u_lo, v_hi, v_lo), density))
            assert bits(*got) == bits(*scaled(rates, density - time)), p


class TestStepper:
    @pytest.mark.parametrize("name", CHANGES)
    def test_recorded_columns_map_bit_for_bit(self, name):
        # A mixed-sign system on a domain of length 1.5 with d3 = 1.1.
        grid = Grid1D(length=1.5, n_cells=32)
        p = ModelParams(
            d1=0.02, d2=0.05, d3=1.1, chi1=0.4, chi2=0.3,
            a0=1.0, a1=1.5, a2=0.5, a3=0.3, a4=-0.2,
            b0=0.8, b1=0.4, b2=1.2, b3=-0.1, b4=0.25,
            k=1.2, l=0.6, lam=0.9, omega_measure=1.5,
        )
        wave = 0.1 * np.cos(np.pi * grid.cell_centers() / grid.length)
        uv = np.array([0.5 + wave, 0.5 - wave])
        cfg = StepperConfig(dt=5e-3, t_end=4.0, record_every=10)
        before = run_simulation(*uv, p, grid, cfg)
        image, image_grid, image_cfg, image_uv = change_unit(name, p, grid, cfg, uv)
        after = run_simulation(*image_uv, image, image_grid, image_cfg)
        for rec in (before, after):
            assert (rec.guard_tripped, rec.steps, rec.n_samples) == (None, 800, 81)
        density, time, length = UNITS[name]
        exponent = {"t": time, "u": density, "v": density, "w": 0, "m": density + length}
        for column in TRAJECTORY_COLUMNS:
            want = scaled(getattr(before, column), exponent[column[0]])
            assert bits(*getattr(after, column)) == bits(*want), column
