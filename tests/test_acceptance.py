"""End-to-end checks that the solver reproduces its predicted limits,
envelopes, and formula identities within stated tolerances and runtimes.

Each test prints one pass/fail line under pytest -v and owns one claim:
signal-solve exactness, reduction to the interaction ODE, the two
long-time limits, the three bound envelopes, margin formula identities,
and the cross-cutting property suites.
"""
import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from chemotaxis_lab.elliptic import assemble, solve_w
from chemotaxis_lab.hypotheses import (
    check_coexistence,
    check_exclusion,
    check_h3,
    check_h6,
    exclusion_dominance_margin,
)
from chemotaxis_lab.model import Grid1D, StepperConfig, negative_part, positive_part
from chemotaxis_lab.ode_bounds import RectangleState, check_enclosure, integrate_rectangles
from chemotaxis_lab.pde_stepper import run_simulation
from chemotaxis_lab.steady_states import (
    alpha_beta,
    coexistence_state,
    exclusion_state,
    linf_bounds,
    mass_sum_cap,
)
from chemotaxis_lab.cli import main as cli_main
from helpers import coexistence_params, cooperative_params, exclusion_params, mk_params


@pytest.fixture(scope="module")
def coexistence_run():
    """Shared chemotaxis run toward the interior equilibrium.

    Perturbed-constant data on a 128-cell grid, integrated to t = 200.
    Reused by the limit, envelope, and enclosure tests below.
    """
    p = coexistence_params(0.1)
    grid = Grid1D(length=1.0, n_cells=128)
    x = grid.cell_centers()
    u0 = 0.5 + 0.1 * np.cos(np.pi * x)
    v0 = 0.5 - 0.1 * np.cos(np.pi * x)
    reference = coexistence_state(p)
    start = time.perf_counter()
    rec = run_simulation(
        u0,
        v0,
        p,
        grid,
        StepperConfig(dt=5e-3, t_end=200.0, record_every=40),
    )
    elapsed = time.perf_counter() - start
    return {
        "params": p,
        "grid": grid,
        "u0": u0,
        "v0": v0,
        "rec": rec,
        "reference": reference,
        "elapsed": elapsed,
    }


def test_signal_solve_is_exact_and_second_order():
    start = time.perf_counter()

    p = mk_params(k=2.0, l=3.0, lam=4.0)
    grid = Grid1D(length=1.0, n_cells=64)
    op = assemble(p, grid)
    u = np.full(64, 0.3)
    v = np.full(64, 0.7)
    w = solve_w(op, u, v, p)
    exact = (2.0 * 0.3 + 3.0 * 0.7) / 4.0
    assert np.max(np.abs(w - exact)) <= 1e-12

    pm = mk_params()
    errors = []
    for n in (32, 64, 128):
        g = Grid1D(length=1.0, n_cells=n)
        x = g.cell_centers()
        target = np.cos(np.pi * x)
        source = (pm.d3 * math.pi**2 + pm.lam) * target
        wn = solve_w(assemble(pm, g), source, np.zeros(n), pm)
        errors.append(float(np.max(np.abs(wn - target))))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert all(1.9 <= order <= 2.1 for order in orders), orders

    assert time.perf_counter() - start < 1.0


def test_homogeneous_data_reduces_to_interaction_ode():
    start = time.perf_counter()
    p = mk_params(
        a0=1.0, a1=2.0, a2=0.5, a3=0.2, b0=1.0, b1=0.5, b2=2.0, b4=0.3,
        chi1=0.1, chi2=0.1,
    )
    grid = Grid1D(length=1.0, n_cells=128)
    dt = 1e-3
    rec = run_simulation(
        np.full(128, 0.5), np.full(128, 0.4), p, grid, StepperConfig(dt=dt, t_end=20.0, record_every=20)
    )

    def deriv(_t, y):
        u, v = y
        mass_u, mass_v = u * 1.0, v * 1.0
        return [
            u * (1.0 - 2.0 * u - 0.5 * v - 0.2 * mass_u),
            v * (1.0 - 0.5 * u - 2.0 * v - 0.3 * mass_v),
        ]

    sol = solve_ivp(
        deriv, (0.0, 20.0), [0.5, 0.4], rtol=1e-12, atol=1e-12, dense_output=True
    )
    times = np.asarray(rec.t)
    ref_u, ref_v = sol.sol(times)
    err_u = float(np.max(np.abs(np.asarray(rec.u_max) - ref_u)))
    err_v = float(np.max(np.abs(np.asarray(rec.v_max) - ref_v)))
    spread = max(
        float(np.max(np.asarray(rec.u_max) - np.asarray(rec.u_min))),
        float(np.max(np.asarray(rec.v_max) - np.asarray(rec.v_min))),
    )
    assert err_u <= 5.0 * dt, err_u
    assert err_v <= 5.0 * dt, err_v
    assert spread <= 1e-10
    assert time.perf_counter() - start < 5.0


def test_coexistence_limit_is_reached(coexistence_run):
    p = coexistence_run["params"]
    route = check_coexistence(p)
    assert route.holds, [m for m in route.margins if not m.satisfied]

    reference = coexistence_run["reference"]
    assert reference.u_star == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert reference.v_star == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert reference.w_star == pytest.approx(2.0 / 3.0, rel=1e-14)

    rec = coexistence_run["rec"]
    assert rec.guard_tripped is None
    level = (reference.u_star, reference.v_star, reference.w_star)
    du, dv, dw = (series[-1] for series in rec.distances(level))
    assert du < 1e-3 and dv < 1e-3 and dw < 1e-3, (du, dv, dw)
    assert coexistence_run["elapsed"] < 60.0


def test_exclusion_limit_is_reached():
    start = time.perf_counter()
    p = exclusion_params(0.05)
    route = check_exclusion(p)
    assert route.holds, [m for m in route.margins if not m.satisfied]

    reference = exclusion_state(p)
    v_limit = p.b0 / (p.b2 + p.omega_measure * p.b4)
    w_limit = p.l * p.b0 / (p.lam * (p.b2 + p.omega_measure * p.b4))
    assert reference.v_star == pytest.approx(v_limit, rel=1e-14)
    assert reference.w_star == pytest.approx(w_limit, rel=1e-14)

    grid = Grid1D(length=1.0, n_cells=128)
    rec = run_simulation(
        np.full(128, 0.5),
        np.full(128, 0.5),
        p,
        grid,
        StepperConfig(dt=5e-3, t_end=400.0, record_every=80),
    )
    assert rec.guard_tripped is None
    assert rec.u_max[-1] < 1e-3
    assert abs(rec.v_max[-1] - v_limit) < 1e-3
    assert abs(rec.v_min[-1] - v_limit) < 1e-3
    assert abs(rec.w_max[-1] - w_limit) < 1e-3
    assert abs(rec.w_min[-1] - w_limit) < 1e-3
    assert time.perf_counter() - start < 120.0


def test_sup_norm_envelope_holds(coexistence_run):
    p = coexistence_run["params"]
    u0 = coexistence_run["u0"]
    v0 = coexistence_run["v0"]
    rec = coexistence_run["rec"]
    bc = linf_bounds(p, float(u0.max()), float(v0.max()))
    rel = 1e-6
    over_u = [m for m in rec.u_max if m > bc["sup_cap_u"] * (1.0 + rel)]
    over_v = [m for m in rec.v_max if m > bc["sup_cap_v"] * (1.0 + rel)]
    assert not over_u, over_u[:3]
    assert not over_v, over_v[:3]


def test_mass_sum_envelope_holds():
    p = cooperative_params(0.1)
    alpha, beta = alpha_beta(p)
    assert min(alpha, beta) > 0.0

    grid = Grid1D(length=1.0, n_cells=128)
    x = grid.cell_centers()
    u0 = 0.5 + 0.1 * np.cos(np.pi * x)
    v0 = 0.5 - 0.1 * np.cos(np.pi * x)
    rec = run_simulation(
        u0, v0, p, grid, StepperConfig(dt=5e-3, t_end=100.0, record_every=20)
    )
    assert rec.guard_tripped is None
    initial_mass = grid.integrate(u0) + grid.integrate(v0)
    cap = mass_sum_cap(p, initial_mass)
    assert cap == pytest.approx(4.0 / 3.0, rel=1e-14)
    total = np.asarray(rec.mass_u) + np.asarray(rec.mass_v)
    assert float(total.max()) <= cap * (1.0 + 1e-6)


def test_rectangle_enclosure_holds(coexistence_run):
    p = coexistence_run["params"]
    rec = coexistence_run["rec"]
    # the initial rectangle at the first sample's extrema, as the rectangles subcommand builds it
    rect0 = RectangleState(
        t=rec.t[0], u_hi=rec.u_max[0], u_lo=rec.u_min[0], v_hi=rec.v_max[0], v_lo=rec.v_min[0]
    )
    trace = integrate_rectangles(rect0, p, rec.t[-1], 1e-2)
    assert trace.guard_tripped is None
    report = check_enclosure(rec, trace, tol=1e-3)
    assert report.passed, report
    assert report.n_times == rec.n_samples


def test_margin_formula_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(20260819)

    def draw_params():
        return mk_params(
            a0=float(rng.uniform(0.1, 3.0)),
            b0=float(rng.uniform(0.1, 3.0)),
            a1=float(rng.uniform(0.2, 4.0)),
            b2=float(rng.uniform(0.2, 4.0)),
            a2=float(rng.uniform(-2.0, 2.0)),
            b1=float(rng.uniform(-2.0, 2.0)),
            a3=float(rng.uniform(-1.0, 1.0)),
            a4=float(rng.uniform(-1.0, 1.0)),
            b3=float(rng.uniform(-1.0, 1.0)),
            b4=float(rng.uniform(-1.0, 1.0)),
            chi1=float(rng.uniform(0.01, 1.0)),
            chi2=float(rng.uniform(0.01, 1.0)),
            k=float(rng.uniform(0.2, 2.0)),
            l=float(rng.uniform(0.2, 2.0)),
            d3=float(rng.uniform(0.5, 2.0)),
            omega_measure=float(rng.uniform(0.5, 2.0)),
        )

    def close(a, b):
        return abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))

    for _ in range(50):
        p = draw_params()
        w = p.omega_measure

        shared = 0.5 * (
            negative_part(p.a2)
            + negative_part(p.b1)
            + w * (negative_part(p.a4) + negative_part(p.b3))
        )
        alpha_ref = p.a1 - shared - w * negative_part(p.a3)
        beta_ref = p.b2 - shared - w * negative_part(p.b4)
        m_alpha, m_beta = check_h3(p).margins
        assert close(m_alpha.value, alpha_ref)
        assert close(m_beta.value, beta_ref)
        ab = alpha_beta(p)
        assert close(ab[0], alpha_ref) and close(ab[1], beta_ref)

        for n_dim in (1, 2, 3, 4):
            gamma = n_dim / 2.0
            gp1, gm1 = gamma + 1.0, gamma - 1.0
            f_ref = (
                p.a1
                - gamma * negative_part(p.a2) / gp1
                - negative_part(p.b1) / gp1
                - p.chi1 * p.k * gm1 / (p.d3 * gamma)
                - p.chi1 * p.l * gm1 / (p.d3 * gp1)
                - p.chi2 * p.k * gm1 / (p.d3 * gamma * gp1)
            )
            g_ref = (
                p.b2
                - gamma * negative_part(p.b1) / gp1
                - negative_part(p.a2) / gp1
                - p.chi2 * p.l * gm1 / (p.d3 * gamma)
                - p.chi2 * p.k * gm1 / (p.d3 * gp1)
                - p.chi1 * p.l * gm1 / (p.d3 * gamma * gp1)
            )
            m_f, m_g = check_h6(p, n_dim).margins
            assert close(m_f.value, f_ref)
            assert close(m_g.value, g_ref)

    for _ in range(50):
        p = draw_params()
        p = mk_params(
            **{
                **{f: getattr(p, f) for f in (
                    "a0", "b0", "a1", "a2", "b2", "b4", "chi1", "chi2",
                    "k", "l", "d3", "omega_measure",
                )},
                "b1": p.chi2 * p.k / p.d3,
                "b3": float(rng.uniform(0.0, 2.0)),
            }
        )
        big = exclusion_dominance_margin(p, "b1_large")
        small = exclusion_dominance_margin(p, "b1_small")
        assert close(big, small), (big, small)

    assert time.perf_counter() - start < 5.0


def test_property_suites(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(7777)

    # signed-part algebra on 200 random coefficients
    for _ in range(200):
        a = float(rng.standard_normal() * 10.0 ** rng.uniform(-3, 3))
        pos, neg = positive_part(a), negative_part(a)
        assert pos >= 0.0 and neg >= 0.0
        assert pos - neg == a
        assert pos + neg == abs(a)
        assert pos * neg == 0.0

    # signal solve: mass identity and maximum principle on 200 random fields
    grid = Grid1D(length=1.0, n_cells=32)
    p = mk_params(k=1.5, l=0.5, lam=2.0, d3=0.8)
    op = assemble(p, grid)
    for _ in range(200):
        u = rng.uniform(0.0, 2.0, 32)
        v = rng.uniform(0.0, 2.0, 32)
        w = solve_w(op, u, v, p)
        rhs_mass = grid.integrate(p.k * u + p.l * v)
        assert abs(p.lam * grid.integrate(w) - rhs_mass) <= 1e-12 * max(1.0, rhs_mass)
        source = p.k * u + p.l * v
        assert w.min() >= source.min() / p.lam - 1e-12
        assert w.max() <= source.max() / p.lam + 1e-12

    # advection moves mass around without creating or destroying it
    gridc = Grid1D(length=1.0, n_cells=48)
    pc = mk_params(
        chi1=0.4, chi2=0.3, a0=0.0, b0=0.0, a1=0.0, b2=0.0, d1=0.01, d2=0.02
    )
    x = gridc.cell_centers()
    u0 = 1.0 + 0.5 * np.cos(np.pi * x)
    v0 = 1.0 + 0.25 * np.cos(2.0 * np.pi * x)
    rec = run_simulation(
        u0,
        v0,
        pc,
        gridc,
        StepperConfig(dt=5e-3, t_end=2.0),
    )
    assert rec.mass_u[-1] == pytest.approx(gridc.integrate(u0), rel=1e-10)
    assert rec.mass_v[-1] == pytest.approx(gridc.integrate(v0), rel=1e-10)

    # diagonal rectangle data stays diagonal under integration
    pd = coexistence_params(0.1)
    s0 = RectangleState(t=0.0, u_hi=0.7, u_lo=0.7, v_hi=0.2, v_lo=0.2)
    trace = integrate_rectangles(s0, pd, 20.0, 0.1)
    gap_u = np.abs(np.array(trace.u_hi) - np.array(trace.u_lo)).max()
    gap_v = np.abs(np.array(trace.v_hi) - np.array(trace.v_lo)).max()
    assert gap_u <= 1e-12 and gap_v <= 1e-12

    # identical configs must give byte-identical CSV output
    config = {
        "params": {
            "d1": 1.0, "d2": 1.0, "d3": 1.0, "chi1": 0.1, "chi2": 0.1,
            "a0": 1.0, "a1": 2.0, "a2": 1.0, "a3": 0.0, "a4": 0.0,
            "b0": 1.0, "b1": 1.0, "b2": 2.0, "b3": 0.0, "b4": 0.0,
            "k": 1.0, "l": 1.0, "lambda": 1.0, "omega_measure": 1.0,
        },
        "grid": {"length": 1.0, "n_cells": 32},
        "stepper": {"dt": 0.01, "t_end": 1.0},
        "initial_data": {"perturbed_constant": [0.5, 0.5, 0.1]},
        "references": ["coexistence"],
    }
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(config))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    assert time.perf_counter() - start < 30.0
