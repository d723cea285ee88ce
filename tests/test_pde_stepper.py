import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpttrs

from chemotaxis_lab import pde_stepper
from chemotaxis_lab.diagnostics import (
    TRAJECTORY_COLUMNS,
    TrajectoryRecord,
    detect_steady,
    may_be_steady,
    sup_distance,
)
from chemotaxis_lab.elliptic import assemble, neumann_factor, solve_w
from chemotaxis_lab.model import (
    BLOWUP_GUARD,
    FieldState,
    Grid1D,
    ModelParams,
    PreconditionError,
    StepperConfig,
    validate_params,
)
from chemotaxis_lab.pde_stepper import (
    CFL_SAFETY,
    CflViolationError,
    chemotaxis_flux,
    run_simulation,
)
from chemotaxis_lab.steady_states import (
    ConstantState,
    coexistence_state,
    exclusion_state,
    semi_trivial_states,
)
from helpers import coexistence_params, exclusion_params, mk_params


class TestStepperConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dt=0.0, t_end=1.0),
            dict(dt=-0.1, t_end=1.0),
            dict(dt=0.1, t_end=-1.0),
            dict(dt=0.1, t_end=1.0, cfl_safety=0.9),  # a module constant, not an option
            dict(dt=math.inf, t_end=1.0),
            dict(dt=0.1, t_end=1.0, record_every=0),
            dict(dt=0.1, t_end=1.0, record_every=2.5),
            dict(dt=0.1, t_end=1.0, blowup_guard=1e8),  # likewise
            dict(dt=0.1, t_end=math.nan),
            dict(dt=0.1, t_end=1.0, steady_tol=1e-6),
            dict(dt=0.1, t_end=1.0, steady_window=0.5),
            dict(dt=0.1, t_end=1.0, steady_tol=0.0, steady_window=0.5),
            dict(dt=0.1, t_end=1.0, steady_tol=-1.0, steady_window=0.5),
            dict(dt=0.1, t_end=1.0, steady_tol=1e-6, steady_window=0.0),
            dict(dt=0.1, t_end=1.0, steady_tol=1e-6, steady_window=-1.0),
            dict(dt=0.1, t_end=1.0, record_every=True),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            StepperConfig(**kwargs)

    def test_zero_horizon_is_allowed(self):
        assert StepperConfig(dt=0.1, t_end=0.0).t_end == 0.0


def face_differences(w):
    """The signal differences w[i+1] - w[i] across the interior faces."""
    w = np.asarray(w, dtype=float)
    return w[1:] - w[:-1]


def face_fluxes(uv, dw, chi, dx):
    """chemotaxis_flux of the (m, n) densities uv as (m, n + 1) face
    fluxes, the boundary faces zero."""
    flux = np.zeros((uv.shape[0], uv.shape[1] + 1))
    chemotaxis_flux(uv[:, :-1], uv[:, 1:], dw, chi, dx, np.empty(len(dw), bool), flux[:, 1:-1])
    return flux


class TestLocalTerms:
    def test_flux_boundary_faces_are_zero(self):
        # chemotaxis_flux writes the interior faces alone, so the stepper's
        # flux buffer keeps the zero-flux boundary faces it was made with.
        p = mk_params(chi1=2.0, chi2=1.0)
        grid = Grid1D(length=1.0, n_cells=4)
        ws = pde_stepper._Workspace(p, grid)
        pde_stepper._advance(ws, *ws.start(np.array([[1.0, 2.0, 3.0, 4.0], [0.5, 0.0, 2.0, 1.0]])), 1e-3)
        assert (ws.flux[:, 1:-1] != 0.0).any()
        assert (ws.flux[:, [0, -1]] == 0.0).all()

    def test_flux_donor_cell_values(self):
        grid = Grid1D(length=1.0, n_cells=4)
        u = np.array([[1.0, 2.0, 3.0, 4.0]])
        dw = face_differences([0.0, 1.0, 1.0, 0.0])
        flux = face_fluxes(u, dw, np.array([[2.0]]), grid.dx)
        np.testing.assert_array_equal(flux, [[0.0, 8.0, 0.0, -32.0, 0.0]])

    def test_flux_of_stacked_densities_matches_each_row(self):
        grid = Grid1D(length=1.0, n_cells=4)
        uv = np.array([[1.0, 2.0, 3.0, 4.0], [0.5, 0.0, 2.0, 1.0]])
        dw = face_differences([0.0, 1.0, 1.0, 0.0])
        chi = np.array([[2.0], [0.5]])
        flux = face_fluxes(uv, dw, chi, grid.dx)
        for i in range(2):
            np.testing.assert_array_equal(flux[i:i + 1], face_fluxes(uv[i:i + 1], dw, chi[i:i + 1], grid.dx))

    def test_reaction_terms_hand_value(self):
        # On constant data the fluxes vanish and implicit diffusion returns
        # the constant, so one step is explicit Euler on the reaction terms.
        grid = Grid1D(length=1.0, n_cells=4)
        p = mk_params(a0=1.0, a1=2.0, a2=0.5, a3=0.25, b0=2.0, b1=0.1, b2=1.0, b4=0.5)
        u0, v0 = np.full(4, 0.5), np.full(4, 1.0)
        dt = 0.01
        rec = run_simulation(u0, v0, p, grid, StepperConfig(dt=dt, t_end=dt))
        ru = 0.5 * (1.0 - 2.0 * 0.5 - 0.5 * 1.0 - 0.25 * 0.5)
        rv = 1.0 * (2.0 - 0.1 * 0.5 - 1.0 * 1.0 - 0.5 * 1.0)
        np.testing.assert_allclose(rec.final_state.u, 0.5 + dt * ru, rtol=1e-14)
        np.testing.assert_allclose(rec.final_state.v, 1.0 + dt * rv, rtol=1e-14)


class TestConservationAndReduction:
    def test_pure_transport_conserves_mass(self):
        grid = Grid1D(length=1.0, n_cells=48)
        p = mk_params(
            chi1=0.4, chi2=0.3, a0=0.0, b0=0.0, a1=0.0, b2=0.0, d1=0.01, d2=0.02
        )
        x = grid.cell_centers()
        u0 = 1.0 + 0.5 * np.cos(np.pi * x)
        v0 = 1.0 + 0.5 * np.sin(np.pi * x / 2.0)
        m_u0, m_v0 = grid.integrate(u0), grid.integrate(v0)
        rec = run_simulation(u0, v0, p, grid, StepperConfig(dt=5e-3, t_end=2.0))
        assert rec.guard_tripped is None
        assert rec.mass_u[-1] == pytest.approx(m_u0, rel=1e-10)
        assert rec.mass_v[-1] == pytest.approx(m_v0, rel=1e-10)

    def test_one_step_mass_balance_is_exact(self):
        # Zero-boundary upwinding and Neumann backward Euler both conserve
        # dx*sum, so each step changes a mass by dt*dx*sum(density*bracket).
        grid = Grid1D(length=1.0, n_cells=64)
        p = mk_params(
            d1=0.02, d2=0.05, chi1=0.4, chi2=0.3,
            a0=1.0, a1=1.5, a2=0.5, a3=0.3, a4=-0.2,
            b0=0.8, b1=0.4, b2=1.2, b3=-0.1, b4=0.25,
        )
        x = grid.cell_centers()
        u0 = np.exp(-0.5 * ((x - 0.3) / 0.08) ** 2)
        v0 = 0.8 * np.exp(-0.5 * ((x - 0.7) / 0.12) ** 2)
        dt = 2e-3
        u, v = u0, v0
        for _ in range(5):
            mass_u, mass_v = grid.integrate(u), grid.integrate(v)
            bracket_u = p.a0 - p.a1 * u - p.a2 * v - p.a3 * mass_u - p.a4 * mass_v
            bracket_v = p.b0 - p.b1 * u - p.b2 * v - p.b3 * mass_u - p.b4 * mass_v
            rec = run_simulation(u, v, p, grid, StepperConfig(dt=dt, t_end=dt))
            assert rec.guard_tripped is None
            new_u, new_v = rec.final_state.u, rec.final_state.v
            res_u = grid.integrate(new_u) - mass_u - dt * grid.dx * np.sum(u * bracket_u)
            res_v = grid.integrate(new_v) - mass_v - dt * grid.dx * np.sum(v * bracket_v)
            assert abs(res_u) <= 1e-12 * mass_u
            assert abs(res_v) <= 1e-12 * mass_v
            u, v = new_u, new_v

    @pytest.mark.parametrize("d2_over_d1", [1.0, 2.0])
    def test_one_step_matches_dense_solve(self, d2_over_d1):
        # d2 == d1 gives both species one cached factor; d2 != d1 gives
        # each species its own.
        n = 24
        grid = Grid1D(length=1.0, n_cells=n)
        dx = grid.dx
        p = mk_params(d1=0.03, d2=0.03 * d2_over_d1, chi1=0.5, chi2=0.2, a2=0.4, b1=0.3, a3=0.1)
        x = grid.cell_centers()
        u, v = 1.0 + 0.5 * np.cos(np.pi * x), 1.0 + 0.4 * np.sin(2.0 * np.pi * x)
        dt = 1e-3
        rec = run_simulation(u, v, p, grid, StepperConfig(dt=dt, t_end=dt))

        w = solve_w(assemble(p, grid), u, v, p)
        mass_u, mass_v = grid.integrate(u), grid.integrate(v)
        second_diff = np.eye(n, k=1) + np.eye(n, k=-1) - 2.0 * np.eye(n)
        second_diff[0, 0] = second_diff[-1, -1] = -1.0
        for f, chi, d, bracket, got in (
            (u, p.chi1, p.d1, p.a0 - p.a1 * u - p.a2 * v - p.a3 * mass_u - p.a4 * mass_v,
             rec.final_state.u),
            (v, p.chi2, p.d2, p.b0 - p.b1 * u - p.b2 * v - p.b3 * mass_u - p.b4 * mass_v,
             rec.final_state.v),
        ):
            face = np.zeros(n + 1)
            for i in range(n - 1):
                dw = w[i + 1] - w[i]
                face[i + 1] = chi * (f[i] if dw > 0.0 else f[i + 1]) * dw / dx
            explicit = f + dt * (f * bracket - (face[1:] - face[:-1]) / dx)
            dense = np.eye(n) - dt * d / (dx * dx) * second_diff
            np.testing.assert_allclose(got, np.linalg.solve(dense, explicit), rtol=1e-12)

    def test_constant_equilibrium_is_a_fixed_point(self):
        p = coexistence_params(0.1)
        grid = Grid1D(length=1.0, n_cells=32)
        eq = coexistence_state(p)
        u0, v0 = np.full(32, eq.u_star), np.full(32, eq.v_star)
        rec = run_simulation(u0, v0, p, grid, StepperConfig(dt=1e-2, t_end=10.0))
        fs = rec.final_state
        assert np.max(np.abs(fs.u - eq.u_star)) <= 1e-12
        assert np.max(np.abs(fs.v - eq.v_star)) <= 1e-12
        assert np.max(np.abs(fs.w - eq.w_star)) <= 1e-12

    def test_homogeneous_run_matches_scalar_euler(self):
        p = mk_params(
            a0=1.0, a1=2.0, a2=0.5, b0=0.8, b1=0.3, b2=1.5,
            a3=0.1, b4=0.2, chi1=0.3, chi2=0.2,
        )
        grid = Grid1D(length=1.0, n_cells=32)
        u0, v0 = np.full(32, 0.7), np.full(32, 0.3)
        rec = run_simulation(u0, v0, p, grid, StepperConfig(dt=1e-3, t_end=0.2))
        u, v = 0.7, 0.3
        for _ in range(200):
            iu, iv = u * 1.0, v * 1.0
            ru = u * (1.0 - 2.0 * u - 0.5 * v - 0.1 * iu)
            rv = v * (0.8 - 0.3 * u - 1.5 * v - 0.2 * iv)
            u, v = u + 1e-3 * ru, v + 1e-3 * rv
        fs = rec.final_state
        assert np.max(np.abs(fs.u - u)) <= 1e-12
        assert np.max(np.abs(fs.v - v)) <= 1e-12
        assert fs.u.max() - fs.u.min() <= 1e-13


def first_step(p, grid, u0, v0, cfg):
    """_advance on a fresh _Workspace from u0, v0 with the step cfg.dt."""
    ws = pde_stepper._Workspace(p, grid)
    pde_stepper._advance(ws, *ws.start(np.array([u0, v0], dtype=float)), cfg.dt)


class TestStabilityGuards:
    def test_first_step_cfl_raises(self):
        p = coexistence_params(0.1)
        grid = Grid1D(length=1.0, n_cells=16)
        with pytest.raises(CflViolationError) as exc_info:
            first_step(p, grid, np.full(16, 0.5), np.full(16, 0.5), StepperConfig(dt=10.0, t_end=10.0))
        err = exc_info.value
        assert err.binding == "positivity and reaction"
        assert 0.0 < err.suggested_dt < 10.0
        assert "largest admissible" in str(err)

    def test_first_step_cfl_becomes_guard_flag(self):
        # A dt rejected on the first step ends the run like a later one: the
        # initial sample alone, no step, and the limit in the notes.
        p = coexistence_params(0.1)
        grid = Grid1D(length=1.0, n_cells=16)
        u0, v0 = np.full(16, 0.5), np.full(16, 0.5)
        cfg = StepperConfig(dt=10.0, t_end=20.0)
        with pytest.raises(CflViolationError) as exc_info:
            first_step(p, grid, u0, v0, cfg)
        rec = run_simulation(u0, v0, p, grid, cfg)
        assert rec.guard_tripped == "cfl_violation"
        assert (rec.t.tolist(), rec.steps, rec.final_state.t) == ([0.0], 0, 0.0)
        assert rec.notes == [str(exc_info.value)]
        np.testing.assert_array_equal(rec.final_state.u, u0)

    def test_reaction_limit_is_inverse_jacobian_diagonal(self):
        # Constant state: no signal gradient, so the positivity limit is
        # CFL_SAFETY/max(-bracket) = 0.9/1.28, above dt = 0.5, and only the
        # reaction limit 1/2.36 binds.
        p = mk_params(
            a0=1.5, a1=2.0, a2=0.5, a3=0.25, a4=-0.3,
            b0=1.0, b1=0.7, b2=1.2, b3=0.4, b4=0.6, chi1=0.2, chi2=0.1,
        )
        grid = Grid1D(length=1.0, n_cells=16)
        u, v = 0.6, 0.9
        with pytest.raises(CflViolationError) as exc_info:
            first_step(p, grid, np.full(16, u), np.full(16, v), StepperConfig(dt=0.5, t_end=0.5))
        mass_u, mass_v = u * grid.length, v * grid.length
        ju = abs(p.a0 - 2 * p.a1 * u - p.a2 * v - p.a3 * mass_u - p.a4 * mass_v)
        jv = abs(p.b0 - p.b1 * u - 2 * p.b2 * v - p.b3 * mass_u - p.b4 * mass_v)
        err = exc_info.value
        assert err.binding == "reaction"
        assert err.suggested_dt == pytest.approx(1.0 / max(ju, jv), rel=1e-12)

    def test_mid_run_cfl_becomes_guard_flag(self):
        grid = Grid1D(length=1.0, n_cells=64)
        p = mk_params(chi1=5.0, chi2=0.0, a0=2.0, a1=0.0, b0=0.0, b2=1.0)
        x = grid.cell_centers()
        u0, v0 = 1.0 + 0.01 * np.cos(np.pi * x), np.zeros(64)
        rec = run_simulation(u0, v0, p, grid, StepperConfig(dt=0.05, t_end=10.0, record_every=5))
        assert rec.guard_tripped == "cfl_violation"
        assert rec.t[-1] < 10.0
        assert rec.n_samples >= 2
        assert any("positivity" in note for note in rec.notes)

    def test_blowup_guard_keeps_partial_trace(self):
        grid = Grid1D(length=1.0, n_cells=16)
        p = mk_params(a0=5.0, a1=0.0, b0=0.0)
        u0, v0 = np.full(16, 0.5), np.zeros(16)
        # u grows by 1.05 a step and passes 1e8 at t = 3.92
        rec = run_simulation(u0, v0, p, grid, StepperConfig(dt=0.01, t_end=5.0))
        assert rec.guard_tripped == "blow_up"
        assert 3.0 < rec.t[-1] < 5.0
        assert rec.u_max[-2] <= BLOWUP_GUARD < rec.u_max[-1]
        assert rec.final_state.t == rec.t[-1]
        assert rec.notes == [f"field maximum exceeded the blow-up guard 100000000.0 at t={rec.t[-1]!r}"]

    def test_non_finite_field_trips_guard(self):
        grid = Grid1D(length=1.0, n_cells=16)
        p = coexistence_params(0.1)
        u0 = np.full(16, 0.5)
        u0[5] = np.nan
        v0 = np.full(16, 0.5)
        rec = run_simulation(u0, v0, p, grid, StepperConfig(dt=0.01, t_end=1.0))
        assert rec.guard_tripped == "non_finite"
        assert rec.t == pytest.approx([0.0, 0.01])
        assert rec.final_state.t == rec.t[-1]
        assert any("non-finite" in note for note in rec.notes)

    def test_positivity_limit_admits_no_negative_step(self):
        # A cell at a minimum of w loses mass through both faces.  The
        # max-gradient limit 0.9*dx/(chi*max|dw|/dx) admitted dt =
        # 0.89*dx/(chi*max|dw|/dx), which drove that cell negative in one
        # step; the positivity limit must reject it.
        n = 8
        grid = Grid1D(length=1.0, n_cells=n)
        p = mk_params(
            chi1=1.0, chi2=0.0, d1=1e-6, d2=1e-6, k=0.0, l=1.0,
            a0=0.0, b0=0.0, a1=0.0, b2=0.0,
        )
        u0 = np.full(n, 0.2)
        u0[1] = 1.0
        v0 = np.ones(n)
        v0[1] = 0.0
        w0 = solve_w(assemble(p, grid), u0, v0, p)
        speed = np.abs(np.diff(w0)).max() / grid.dx
        dt = 0.89 * grid.dx / speed
        with pytest.raises(CflViolationError) as exc_info:
            first_step(p, grid, u0, v0, StepperConfig(dt=dt, t_end=dt))
        assert exc_info.value.binding == "positivity"
        limit = exc_info.value.suggested_dt
        assert limit < dt
        rec = run_simulation(u0, v0, p, grid, StepperConfig(dt=limit, t_end=limit))
        assert rec.guard_tripped is None
        assert rec.final_state.u.min() >= 0.0
        assert min(rec.u_min) >= 0.0 and min(rec.v_min) >= 0.0


class TestRunSimulation:
    def test_zero_horizon_records_single_sample(self):
        p = coexistence_params(0.1)
        grid = Grid1D(length=1.0, n_cells=8)
        u0, v0 = np.full(8, 0.5), np.full(8, 0.5)
        rec = run_simulation(u0, v0, p, grid, StepperConfig(dt=0.1, t_end=0.0))
        assert rec.t.tolist() == [0.0]
        assert rec.final_state.t == 0.0
        assert rec.stopped_early is False

    def test_domain_size_mismatch(self):
        p = coexistence_params(0.1)
        grid = Grid1D(length=2.0, n_cells=8)
        u0, v0 = np.full(8, 0.5), np.full(8, 0.5)
        with pytest.raises(PreconditionError, match="omega_measure"):
            run_simulation(u0, v0, p, grid, StepperConfig(dt=0.1, t_end=1.0))

    def test_record_stride_keeps_initial_and_final(self):
        p = coexistence_params(0.1)
        grid = Grid1D(length=1.0, n_cells=8)
        u0, v0 = np.full(8, 0.4), np.full(8, 0.4)
        rec = run_simulation(u0, v0, p, grid, StepperConfig(dt=0.1, t_end=1.0, record_every=7))
        assert rec.t == pytest.approx([0.0, 0.7, 1.0])

    def test_steady_detection_stops_early(self):
        p = coexistence_params(0.1)
        grid = Grid1D(length=1.0, n_cells=16)
        eq = coexistence_state(p)
        u0, v0 = np.full(16, eq.u_star), np.full(16, eq.v_star)
        rec = run_simulation(
            u0, v0, p, grid,
            StepperConfig(dt=0.1, t_end=100.0, steady_tol=1e-8, steady_window=0.5),
        )
        assert rec.stopped_early is True
        assert rec.t[-1] == pytest.approx(0.5)

    def test_final_state_signal_is_consistent(self):
        p = coexistence_params(0.1)
        grid = Grid1D(length=1.0, n_cells=32)
        x = grid.cell_centers()
        u0, v0 = 0.5 + 0.1 * np.cos(np.pi * x), np.full(32, 0.5)
        rec = run_simulation(u0, v0, p, grid, StepperConfig(dt=1e-2, t_end=1.0))
        fs = rec.final_state
        expected_w = solve_w(assemble(p, grid), fs.u, fs.v, p)
        assert np.array_equal(fs.w, expected_w)

    def test_short_run_stays_nonnegative(self):
        p = coexistence_params(0.1)
        grid = Grid1D(length=1.0, n_cells=64)
        x = grid.cell_centers()
        u0, v0 = 0.5 + 0.45 * np.cos(np.pi * x), 0.5 - 0.45 * np.cos(np.pi * x)
        rec = run_simulation(u0, v0, p, grid, StepperConfig(dt=2e-3, t_end=5.0))
        assert rec.guard_tripped is None
        assert min(rec.u_min) >= -1e-10
        assert min(rec.v_min) >= -1e-10

    def test_negative_initial_density_is_rejected(self):
        p = coexistence_params(0.1)
        grid = Grid1D(length=1.0, n_cells=8)
        v0 = np.full(8, 0.5)
        v0[3] = -1e-300
        u0 = np.full(8, 0.5)
        with pytest.raises(PreconditionError, match="nonnegative"):
            run_simulation(u0, v0, p, grid, StepperConfig(dt=0.1, t_end=1.0))

    @pytest.mark.parametrize("n", [1, 7, 9])
    def test_densities_of_the_wrong_length_are_rejected(self, n):
        # A single cell would broadcast over the grid's 8 without the check.
        p = coexistence_params(0.1)
        grid = Grid1D(length=1.0, n_cells=8)
        u0, v0 = np.full(n, 0.5), np.full(n, 0.5)
        with pytest.raises(PreconditionError, match=rf"densities of shape \({n},\) do not fit n_cells=8"):
            run_simulation(u0, v0, p, grid, StepperConfig(dt=0.1, t_end=1.0))

    def test_densities_of_different_lengths_are_rejected(self):
        # NumPy refuses to stack them into one (2, n) array
        p = coexistence_params(0.1)
        grid = Grid1D(length=1.0, n_cells=8)
        with pytest.raises(ValueError):
            run_simulation(np.full(8, 0.5), np.full(7, 0.5), p, grid, StepperConfig(dt=0.1, t_end=1.0))

    def test_references_produce_distance_series(self):
        p = coexistence_params(0.1)
        grid = Grid1D(length=1.0, n_cells=16)
        eq = coexistence_state(p)
        u0, v0 = np.full(16, 0.5), np.full(16, 0.5)
        rec = run_simulation(u0, v0, p, grid, StepperConfig(dt=1e-2, t_end=2.0))
        columns = rec.distances((eq.u_star, eq.v_star, eq.w_star))
        series_u, _, _ = columns
        assert all(len(series) == rec.n_samples for series in columns)
        assert series_u[-1] < series_u[0]


def prefix(rec, n):
    """The record of rec's first n samples (no distances)."""
    return TrajectoryRecord(**{name: getattr(rec, name)[:n] for name in (*TRAJECTORY_COLUMNS, "w_mean")})


class TestSteadyStop:
    """run_simulation asks may_be_steady before detect_steady scans the window."""

    def test_stops_at_the_first_certified_sample(self):
        # Oracle: the unstopped run's first sample whose trailing window
        # detect_steady certifies.  The stopped run ends there, sample for sample.
        p = coexistence_params(0.1)
        grid = Grid1D(length=1.0, n_cells=16)
        wave = 0.1 * np.cos(np.pi * grid.cell_centers())
        u0, v0 = 0.5 + wave, 0.5 - wave
        tol, window = 1e-6, 0.5
        stopped = run_simulation(
            u0, v0, p, grid, StepperConfig(dt=0.05, t_end=40.0, steady_tol=tol, steady_window=window)
        )
        full = run_simulation(u0, v0, p, grid, StepperConfig(dt=0.05, t_end=40.0))
        first = next(
            i for i in range(full.n_samples)
            if full.t[i] - full.t[0] >= window and detect_steady(prefix(full, i + 1), tol, window).steady
        )
        assert stopped.stopped_early
        assert 1.0 < stopped.t[-1] < 39.0
        for name in (*TRAJECTORY_COLUMNS, "w_mean"):
            assert getattr(stopped, name) == getattr(full, name)[: first + 1], name

    def test_drifting_means_skip_the_window_scan(self, monkeypatch):
        # The record-dense seed-1 scenario at t_end = 40 with steady_tol =
        # 1e-12: the fields are flat to 1e-12 from t = 2.77 on, but the means
        # drift by more than that over every window, so no sample passes
        # may_be_steady and detect_steady is never called.
        calls = []
        monkeypatch.setattr(
            pde_stepper, "detect_steady", lambda *args: calls.append(args[1:]) or detect_steady(*args)
        )
        p = coexistence_params(0.1)
        grid = Grid1D(length=1.0, n_cells=128)
        x = grid.cell_centers()
        u0 = 1.0 * np.exp(-0.5 * ((x - 0.23279650330470053) / 0.12475544880969197) ** 2)
        v0 = 0.8 * np.exp(-0.5 * ((x - 0.6949000812598557) / 0.08222768335098536) ** 2)
        rec = run_simulation(
            u0, v0, p, grid,
            StepperConfig(dt=5e-3, t_end=40.0, steady_tol=1e-12, steady_window=1.0),
        )
        assert calls == []
        assert not rec.stopped_early and rec.t[-1] == 40.0
        spreads = zip(
            *(np.subtract(hi, lo) for hi, lo in
              ((rec.u_max, rec.u_min), (rec.v_max, rec.v_min), (rec.w_max, rec.w_min)))
        )
        assert sum(max(sample) < 1e-12 for sample in spreads) > 7000


def reference_bracket(p, uv, mass):
    """The reaction bracket of both species, each coupling an elementwise
    product and the mass terms plain floats, so that no BLAS kernel, whose
    bits depend on the CPU, takes part."""
    mass_u, mass_v = mass
    growth = np.array([[p.a0 - (p.a3 * mass_u + p.a4 * mass_v)], [p.b0 - (p.b3 * mass_u + p.b4 * mass_v)]])
    return growth - (np.array([[p.a1], [p.b1]]) * uv[0] + np.array([[p.a2], [p.b2]]) * uv[1])


def reference_limits(p, grid, uv, w, mass):
    """The positivity and reaction limits on dt, the positivity rate always
    taken exactly: CFL_SAFETY / max(out - bracket), out the upwind outflow
    rate chi*(max(dw_right, 0) + max(-dw_left, 0))/dx² of each cell."""
    dx = grid.dx
    bracket = reference_bracket(p, uv, mass)
    dw = w[1:] - w[:-1]
    zero = np.zeros(1)
    out = np.concatenate([np.maximum(dw, 0.0), zero]) + np.concatenate([zero, np.maximum(-dw, 0.0)])
    rate = float((np.array([[p.chi1], [p.chi2]]) * out / (dx * dx) - bracket).max())
    pos_limit = math.inf if rate <= 0.0 else CFL_SAFETY / rate
    jmax = float(np.abs(bracket - np.array([[p.a1], [p.b2]]) * uv).max())
    rx_limit = math.inf if jmax == 0.0 else 1.0 / jmax
    return pos_limit, rx_limit


def reference_advance(p, grid, uv, w, mass, dt):
    """One split step written as whole-array expressions in the stepper's
    operation order: a new array per operation, the masses as a list, the
    maxima by ndarray.max, no screen before the exact positivity rate.
    Returns the new densities, signal and masses, or raises
    CflViolationError as the stepper does."""
    n, dx = grid.n_cells, grid.dx
    bracket = reference_bracket(p, uv, mass)
    pos_limit, rx_limit = reference_limits(p, grid, uv, w, mass)
    if dt > pos_limit or dt > rx_limit:
        if dt > pos_limit and dt > rx_limit:
            binding = "positivity and reaction"
        elif dt > pos_limit:
            binding = "positivity"
        else:
            binding = "reaction"
        raise CflViolationError(binding, dt, min(pos_limit, rx_limit))

    flux = np.zeros((2, n + 1))
    dw = w[1:] - w[:-1]
    donor = np.where(dw > 0.0, uv[:, :-1], uv[:, 1:])
    flux[:, 1:-1] = np.array([[p.chi1], [p.chi2]]) * donor * dw / dx
    uv_star = uv + dt * (uv * bracket - (flux[:, 1:] - flux[:, :-1]) / dx)
    uv_new = np.array([
        dpttrs(*neumann_factor(1.0, dt * d / (dx * dx), n), row)[0]
        for d, row in zip((p.d1, p.d2), uv_star)
    ])
    signal = neumann_factor(p.lam, p.d3 / (dx * dx), n)
    w_new = dpttrs(*signal, p.k * uv_new[0] + p.l * uv_new[1])[0]
    return uv_new, w_new, (dx * np.add.reduce(uv_new, axis=-1)).tolist()


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def bumps(grid, rng, floor=0.0):
    """Two Gaussian bumps per density at random centres, plus a floor."""
    x = grid.cell_centers()
    return np.array([
        floor + h * np.exp(-0.5 * ((x - c) / s) ** 2)
        for h, c, s in zip(rng.uniform(0.5, 1.5, 2), rng.uniform(0.2, 0.8, 2), rng.uniform(0.05, 0.2, 2))
    ])


MIXED = dict(
    d1=0.02, d2=0.05, chi1=0.4, chi2=0.3,
    a0=1.0, a1=1.5, a2=0.5, a3=0.3, a4=-0.2,
    b0=0.8, b1=0.4, b2=1.2, b3=-0.1, b4=0.25,
)


class TestStepBitIdentity:
    """_advance, with its in-place stages, gives the bits of reference_advance."""

    @staticmethod
    def steps(p, grid, uv, dts):
        """Step uv over the widths dts, comparing each step's outputs with
        the reference's for the same inputs, bit for bit, and checking
        that the state read is left untouched; returns the last densities."""
        ws = pde_stepper._Workspace(p, grid)
        src, dst = ws.start(uv)
        for dt in dts:
            before = [a.copy() for a in (src.fields, src.mass)]
            want = reference_advance(p, grid, src.uv, src.w, src.mass.tolist(), dt)
            pde_stepper._advance(ws, src, dst, dt)
            for a, b in zip(before, (src.fields, src.mass)):
                assert np.array_equal(bits(a), bits(b))
            for a, b in zip((dst.uv, dst.w, dst.mass), want):
                assert np.array_equal(bits(a), bits(b))
            src, dst = dst, src
        return src.uv

    @pytest.mark.parametrize("n", [16, 128, 1024, 8192])
    @pytest.mark.parametrize("params", [coexistence_params(0.1), mk_params(**MIXED)], ids=["coexistence", "mixed"])
    def test_steps_match_reference(self, n, params):
        grid = Grid1D(length=1.7, n_cells=n)
        uv = bumps(grid, np.random.default_rng(n), floor=0.05)
        # the last width is a shorter final step, with its own factors
        self.steps(params, grid, uv, [1e-3] * 4 + [3.7e-4])

    @staticmethod
    def screened_case(monkeypatch):
        """A case whose positivity limit lies between the screen's limit
        CFL_SAFETY/(2*chi_max*max|dw|/dx² + jmax) and the reaction limit: the
        screen counts both faces of a cell at the steepest gradient, while on
        smooth bumps a cell loses mass through about one face.  Returns the
        case, its two limits, and the list of exact-rate evaluations."""
        n = 64
        grid = Grid1D(length=1.7, n_cells=n)
        p = mk_params(**{**MIXED, "chi1": 50.0, "chi2": 25.0})
        uv = bumps(grid, np.random.default_rng(3), floor=0.1)
        w = solve_w(assemble(p, grid), *uv, p)
        pos_limit, rx_limit = reference_limits(p, grid, uv, w, grid.integrate(uv))
        max_dw = float(np.abs(np.diff(w)).max())
        bound = 2.0 * p.chi1 * max_dw / (grid.dx * grid.dx) + 1.0 / rx_limit
        screen_limit = CFL_SAFETY / bound
        assert screen_limit < pos_limit < rx_limit
        calls = []
        exact = pde_stepper._outflow_rate
        monkeypatch.setattr(
            pde_stepper, "_outflow_rate", lambda *args: calls.append(1) or exact(*args)
        )
        return (p, grid, uv), screen_limit, pos_limit, calls

    def test_exact_rate_admits_what_the_screen_does_not(self, monkeypatch):
        case, screen_limit, pos_limit, calls = self.screened_case(monkeypatch)
        dt = math.sqrt(screen_limit * pos_limit)
        assert screen_limit < dt < pos_limit
        uv = self.steps(*case, [dt])
        assert calls == [1]
        assert uv.min() >= 0.0

    def test_exact_rate_rejects_names_positivity(self, monkeypatch):
        case, _, pos_limit, calls = self.screened_case(monkeypatch)
        p, grid, uv = case
        dt = 1.5 * pos_limit
        ws = pde_stepper._Workspace(p, grid)
        src, dst = ws.start(uv)
        with pytest.raises(CflViolationError) as got:
            pde_stepper._advance(ws, src, dst, dt)
        assert calls == [1]
        with pytest.raises(CflViolationError) as want:
            reference_advance(p, grid, uv, src.w, src.mass.tolist(), dt)
        assert got.value.binding == want.value.binding == "positivity"
        assert bits(got.value.suggested_dt) == bits(want.value.suggested_dt) == bits(pos_limit)

    @pytest.mark.parametrize(
        "binding, chi, dt",
        [("positivity", 50.0, 1e-2), ("reaction", 1e-3, 1.0), ("positivity and reaction", 50.0, 10.0)],
    )
    def test_stability_errors_match_reference(self, binding, chi, dt):
        n = 64
        grid = Grid1D(length=1.7, n_cells=n)
        p = mk_params(**{**MIXED, "chi1": chi, "chi2": 0.5 * chi})
        uv = bumps(grid, np.random.default_rng(3), floor=0.1)
        ws = pde_stepper._Workspace(p, grid)
        src, dst = ws.start(uv)
        with pytest.raises(CflViolationError) as got:
            pde_stepper._advance(ws, src, dst, dt)
        with pytest.raises(CflViolationError) as want:
            reference_advance(p, grid, uv, src.w, src.mass.tolist(), dt)
        assert got.value.binding == want.value.binding == binding
        assert bits(got.value.suggested_dt) == bits(want.value.suggested_dt)
        assert str(got.value) == str(want.value)


class TestStepAllocation:
    def test_steps_allocate_no_full_size_arrays(self):
        # A step writes into the workspace's buffers, also when it computes
        # the exact positivity rate, as every step here does; only np.where's
        # donor cells, two rows of n - 1 floats, are made per step.
        n = 8192
        grid = Grid1D(length=1.7, n_cells=n)
        p = mk_params(**MIXED)
        ws = pde_stepper._Workspace(p, grid)
        src, dst = ws.start(bumps(grid, np.random.default_rng(n), floor=0.05))
        pde_stepper._advance(ws, src, dst, 1e-3)  # the first step factors the diffusion matrices
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            for _ in range(10):
                src, dst = dst, src
                pde_stepper._advance(ws, src, dst, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - start) / (8 * n) < 3.0


POSITIVE_FIELDS = ("d1", "d2", "d3", "chi1", "chi2", "a0", "b0", "a1", "b2", "k", "l", "lam")
SIGNED_FIELDS = ("a2", "a3", "a4", "b1", "b3", "b4")


@st.composite
def step_cases(draw):
    """Admissible params (log-uniform over 1e-3..1e2 where positive),
    nonnegative (2, n) densities, a safety factor in (0, 0.99] (0.99 often) and
    a multiple in (0, 2] of the largest admissible dt.  The densities often
    take a few fixed levels, which gives the steep minima of w where a
    cell drains through both faces.  Each is 0 or at least 1e-3, so no
    product in the stage falls to the subnormal range, where rounding is
    no longer relative."""
    n = draw(st.integers(4, 16))
    grid = Grid1D(length=draw(st.floats(0.1, 10.0)), n_cells=n)
    p = ModelParams(
        **{name: 10.0 ** draw(st.floats(-3.0, 2.0)) for name in POSITIVE_FIELDS},
        **{name: draw(st.floats(-5.0, 5.0)) for name in SIGNED_FIELDS},
        omega_measure=grid.length,
    )
    level = st.one_of(
        st.sampled_from([1e-3, 0.1, 1.0, 10.0]), st.floats(-3.0, 1.0).map(lambda e: 10.0 ** e)
    )
    density = st.one_of(st.just(0.0), level)
    uv = np.array(draw(st.lists(st.lists(density, min_size=n, max_size=n), min_size=2, max_size=2)))
    cfl = draw(st.one_of(st.just(0.99), st.floats(0.0, 0.99, exclude_min=True)))
    return p, grid, uv, cfl, draw(st.floats(0.0, 2.0, exclude_min=True))


class TestNonnegativity:
    @settings(max_examples=200, deadline=None)
    @given(step_cases())
    def test_admitted_steps_stay_nonnegative(self, case):
        # The step is admitted exactly up to the limit that a step far
        # above it reports, and every admitted step leaves u, v, w >= 0.
        p, grid, uv, cfl, multiple = case
        assert validate_params(p) == []
        ws = pde_stepper._Workspace(p, grid)
        src, dst = ws.start(uv)
        # the step's share of the positivity limit, for this example only
        with mock.patch.object(pde_stepper, "CFL_SAFETY", cfl):
            try:
                pde_stepper._advance(ws, src, dst, 1e6)
                limit = 1e6
            except CflViolationError as exc:
                limit = exc.suggested_dt
            for dt in (limit, multiple * limit):  # each a step from src into dst
                try:
                    pde_stepper._advance(ws, src, dst, dt)
                except CflViolationError:
                    assert dt > limit
                    continue
                assert dt <= limit
                assert dst.uv.min() >= 0.0
                assert dst.w.min() >= 0.0


def reference_run(uv, p, grid, cfg, references=()):
    """run_simulation's schedule from the (2, n) densities uv at t = 0 and guards with one append_sample call per
    recorded sample, the record path the sample blocks replace, and an
    _advance call for every step, the steps the stationary state skips.
    Returns the record and, per reference label, the distance columns
    (du, dv, dw) of each sample computed from that sample's own extrema."""
    ws = pde_stepper._Workspace(p, grid)
    t = 0.0
    src, dst = ws.start(np.array(uv, dtype=float))
    rec = TrajectoryRecord()
    distances = {label: ([], [], []) for label, _ in references}

    def record():
        if not rec.t or t > rec.t[-1]:
            fields = src.fields
            rec.append_sample(t, fields, *src.mass.tolist())
            for label, r in references:
                level = np.array([r.u_star, r.v_star, r.w_star])
                for column, d in zip(distances[label], sup_distance(fields.min(1), fields.max(1), level)):
                    column.append(float(d))

    record()
    # The stop tolerance, at most half a step and half the run.
    t_stop = cfg.t_end - min(1e-12 * max(cfg.t_end, 1.0), 0.5 * cfg.dt, 0.5 * (cfg.t_end - t))
    steps_done = 0
    while t < t_stop:
        rest = cfg.t_end - t
        dt = rest if rest < cfg.dt + (cfg.t_end - t_stop) else cfg.dt
        try:
            pde_stepper._advance(ws, src, dst, dt)
        except CflViolationError as exc:
            rec.guard_tripped = "cfl_violation"
            rec.notes.append(str(exc))
            break
        if rec.stationary_from_t is None and dt == cfg.dt and unchanged(dst, src):
            rec.stationary_from_t = t
        src, dst = dst, src
        t += dt
        steps_done += 1
        peak = float(src.uv.max())
        if not math.isfinite(peak):
            rec.guard_tripped = "non_finite"
            rec.notes.append(f"a density became non-finite (maximum {peak!r}) at t={t!r}")
        elif peak > BLOWUP_GUARD:
            rec.guard_tripped = "blow_up"
            rec.notes.append(f"field maximum exceeded the blow-up guard {BLOWUP_GUARD!r} at t={t!r}")
        if rec.guard_tripped:
            record()
            break
        if steps_done % cfg.record_every == 0 or t >= t_stop:
            record()
            tol, window = cfg.steady_tol, cfg.steady_window
            if tol is not None and rec.span >= window and may_be_steady(rec, tol, window):
                if detect_steady(rec, tol, window).steady:
                    rec.stopped_early = True
                    rec.notes.append(f"stationary at tol={tol!r} over window={window!r}; stopped at t={t!r}")
                    break
    record()
    rec.steps = steps_done
    rec.final_state = FieldState(t=t, u=src.u, v=src.v, w=src.w)
    return rec, distances


def record_distances(rec, references):
    """rec.distances of every reference, by label."""
    return {label: rec.distances((r.u_star, r.v_star, r.w_star)) for label, r in references}


def unchanged(new, old):
    """Whether two states' fields and masses are equal bit for bit."""
    return all(np.array_equal(bits(a), bits(b)) for a, b in ((new.fields, old.fields), (new.mass, old.mass)))


def four_references(p):
    first, second = semi_trivial_states(p)
    return (
        ("coexistence", coexistence_state(p)), ("exclusion", exclusion_state(p)),
        ("semi_trivial_u", first), ("semi_trivial_v", second),
    )


# A custom reference with signed zeros: a distance of zero must be +0.0.
SIGNED_ZERO_REFERENCE = ("custom", ConstantState(-0.0, 0.0, -0.0))


def block_case(name):
    """((u0, v0), params, grid, config, references) of one record scenario."""
    grid = Grid1D(length=1.0, n_cells=24)
    wave = 0.1 * np.cos(np.pi * grid.cell_centers())
    if name == "many-blocks":
        p = coexistence_params(0.1)
        return (0.5 + wave, 0.5 - wave), p, grid, StepperConfig(dt=0.01, t_end=12.0), four_references(p)
    if name == "stride":
        p = coexistence_params(0.1)
        return (0.5 + wave, 0.5 - wave), p, grid, StepperConfig(dt=0.01, t_end=3.0, record_every=7), ()
    if name == "blow-up":
        # v, the second row, crosses the guard at t = 3.93; chemotaxis would
        # gather it, and the positivity limit would end the run first
        p = mk_params(a0=1e-9, b0=5.0, b2=1e-9)
        cfg = StepperConfig(dt=0.01, t_end=5.0, record_every=2)
        return (np.full(24, 0.01), 0.5 + wave), p, grid, cfg, four_references(coexistence_params())
    if name == "non-finite":
        # u's mass, 24 cells of width 1 at 1e307, overflows to inf, which
        # turns the bracket into NaN on the first step: no guard trips before.
        grid = Grid1D(length=24.0, n_cells=24)
        p = mk_params(a1=5e-324, b3=-1e-320, chi1=5e-324, chi2=5e-324, omega_measure=24.0)
        cfg = StepperConfig(dt=0.1, t_end=100.0, record_every=7)
        references = (*four_references(coexistence_params()), SIGNED_ZERO_REFERENCE)
        return (np.full(24, 1e307), np.full(24, 0.5)), p, grid, cfg, references
    if name == "cfl":
        grid = Grid1D(length=1.0, n_cells=60)
        p = mk_params(chi1=5.0, chi2=0.0, a0=2.0, a1=0.0, b0=0.0, b2=1.0)
        u0 = 1.0 + 0.01 * np.cos(np.pi * grid.cell_centers())
        cfg = StepperConfig(dt=0.05, t_end=10.0, record_every=5)
        return (u0, np.zeros(60)), p, grid, cfg, four_references(coexistence_params())
    p = coexistence_params(0.1)
    cfg = StepperConfig(dt=0.05, t_end=40.0, steady_tol=1e-6, steady_window=0.5, record_every=3)
    return (0.5 + wave, 0.5 - wave), p, grid, cfg, four_references(p)


def reprs(rec, distances):
    """Every recorded series, the distance columns by label and the run
    outcome, floats as repr (NaN and -0.0 included)."""
    series = {name: list(map(repr, getattr(rec, name))) for name in (*TRAJECTORY_COLUMNS, "w_mean")}
    for label, columns in distances.items():
        series.update({f"{f}_{label}": list(map(repr, col)) for f, col in zip("uvw", columns)})
    fs = rec.final_state
    outcome = (
        rec.guard_tripped, rec.notes, rec.stopped_early, repr(fs.t), rec.steps,
        repr(rec.stationary_from_t),
    )
    return series, outcome, [bits(f).tolist() for f in (fs.u, fs.v, fs.w)]


class TestSampleBlocks:
    """run_simulation's block-reduced record equals the per-sample one."""

    @pytest.mark.parametrize("block_stacks", [None, 1, 4])
    @pytest.mark.parametrize(
        "name", ["many-blocks", "stride", "blow-up", "non-finite", "cfl", "steady"]
    )
    def test_record_matches_per_sample_reference(self, name, block_stacks, monkeypatch):
        uv, p, grid, cfg, references = block_case(name)
        if block_stacks is not None:
            monkeypatch.setattr(pde_stepper, "BLOCK_VALUES", 3 * grid.n_cells * block_stacks)
        got = run_simulation(*uv, p, grid, cfg)
        with np.errstate(over="ignore", invalid="ignore"):  # _advance steps outside run_simulation
            want, want_distances = reference_run(uv, p, grid, cfg, references)
        assert reprs(got, record_distances(got, references)) == reprs(want, want_distances)
        block = pde_stepper.BLOCK_VALUES // (3 * grid.n_cells)
        expected = {
            "many-blocks": (None, False), "stride": (None, False), "blow-up": ("blow_up", False),
            "non-finite": ("non_finite", False), "cfl": ("cfl_violation", False), "steady": (None, True),
        }[name]
        assert (got.guard_tripped, got.stopped_early) == expected
        if name == "many-blocks":
            assert got.n_samples > block
        elif block > 1 and name in ("blow-up", "non-finite", "cfl"):
            # the trip ends the run in the middle of a block
            assert got.n_samples % block != 0
        if name == "non-finite":
            # the last sample, and so its distances, holds NaN (u) and inf (v)
            assert math.isnan(got.u_max[-1]) and math.isinf(got.v_max[-1])


def fixed_densities(p, grid, uv, dt):
    """The first densities that a full step of width dt maps to themselves,
    with their signal and masses, bit for bit, stepping from uv."""
    ws = pde_stepper._Workspace(p, grid)
    src, dst = ws.start(uv)
    for _ in range(5000):
        pde_stepper._advance(ws, src, dst, dt)
        if unchanged(dst, src):
            return src.uv
        src, dst = dst, src
    raise AssertionError("no fixed point within 5000 steps")


def stationary_case(name, record_every=1):
    """((u0, v0), params, grid, config) of one scenario of the stationary skip."""
    grid = Grid1D(length=1.0, n_cells=24)
    wave = 0.1 * np.cos(np.pi * grid.cell_centers())
    p = coexistence_params(0.1)
    cfg = StepperConfig(dt=0.05, t_end=40.013, record_every=record_every)
    if name == "mid-run":
        # fixed from t = 31.4; t_end off the dt grid ends on a short step
        return (0.5 + wave, 0.5 - wave), p, grid, cfg
    if name == "steady":
        # the window certifies at t = 32.55
        cfg = replace(cfg, steady_tol=3e-15, steady_window=2.0)
        return (0.5 + wave, 0.5 - wave), p, grid, cfg
    if name == "exclusion":
        # u decays geometrically and reaches no fixed point by t_end
        p = exclusion_params(0.05)
        return (np.full(24, 0.5), np.full(24, 0.5)), p, grid, cfg
    cfg = replace(cfg, t_end=2.013)
    if name == "fixed-start":
        uv = fixed_densities(p, grid, np.array([0.5 + wave, 0.5 - wave]), cfg.dt)
    else:
        # "signed-zero": u extinct, v at its level; the first step turns
        # u's -0.0 into 0.0, which == alone would miss
        uv = fixed_densities(p, grid, np.array([np.zeros(24), 0.5 - wave]), cfg.dt)
        uv[0] = -0.0
    return uv, p, grid, cfg


class TestStationarySkip:
    """Once a full step leaves u, v, w and the masses as they were, bit for
    bit, run_simulation stops calling _advance; the reference calls it on
    every step."""

    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("name", ["mid-run", "steady", "fixed-start", "signed-zero", "exclusion"])
    def test_matches_reference(self, name, record_every):
        uv, p, grid, cfg = stationary_case(name, record_every)
        references = (*four_references(p), SIGNED_ZERO_REFERENCE)
        got = run_simulation(*uv, p, grid, cfg)
        want, want_distances = reference_run(uv, p, grid, cfg, references)
        got_distances = record_distances(got, references)
        assert reprs(got, got_distances) == reprs(want, want_distances)
        if name == "signed-zero":
            # u is -0.0, then 0.0: its distance to u* = -0.0 is +0.0 throughout
            assert got_distances["custom"][0].tolist() == [0.0] * got.n_samples
            assert not any(math.copysign(1.0, d) < 0 for d in got_distances["custom"][0])
        since = got.stationary_from_t
        if name == "exclusion":
            assert since is None
        elif name == "fixed-start":
            assert since == 0.0
        elif name == "signed-zero":
            assert since == cfg.dt
        else:
            assert 30.0 < since < got.t[-1]
        assert got.stopped_early == (name == "steady")

    def test_signed_zero_start_is_not_fixed(self):
        uv, p, grid, cfg = stationary_case("signed-zero")
        ws = pde_stepper._Workspace(p, grid)
        first, second = ws.start(uv)
        assert np.array_equal(bits(first.w), bits(solve_w(assemble(p, grid), *uv, p)))
        pde_stepper._advance(ws, first, second, cfg.dt)
        assert np.array_equal(second.uv, first.uv) and not unchanged(second, first)
        pde_stepper._advance(ws, second, first, cfg.dt)
        assert unchanged(first, second)

    @pytest.mark.parametrize("name", ["mid-run", "fixed-start", "exclusion"])
    def test_stationary_steps_make_no_advance_call(self, name, monkeypatch):
        uv, p, grid, cfg = stationary_case(name)
        advance = pde_stepper._advance
        widths = []

        def counted(ws, src, dst, dt):
            widths.append(dt)
            advance(ws, src, dst, dt)

        monkeypatch.setattr(pde_stepper, "_advance", counted)
        rec = run_simulation(*uv, p, grid, cfg)
        if rec.stationary_from_t is None:
            assert len(widths) == rec.steps
        else:
            # the full steps up to the first unchanging one, then the short last step
            t, full = 0.0, 1
            while t < rec.stationary_from_t:
                t += cfg.dt
                full += 1
            assert widths == [cfg.dt] * full + [widths[-1]]
            assert widths[-1] < cfg.dt


class TestEndsOnTEnd:
    @pytest.mark.parametrize(
        "dt, t_end, steps",
        [
            # 3,499 steps of 2e-3 leave a remainder just above dt; a full
            # last step would end at 6.999999999999451
            (2e-3, 7.0, 3500),
            # a shorter last step of 0.01
            (0.03, 1.0, 34),
            (0.1, 1.0, 10),
        ],
    )
    def test_run_ends_on_t_end(self, dt, t_end, steps):
        p = coexistence_params(0.1)
        grid = Grid1D(length=1.0, n_cells=8)
        u0, v0 = np.full(8, 0.4), np.full(8, 0.6)
        rec = run_simulation(u0, v0, p, grid, StepperConfig(dt=dt, t_end=t_end))
        assert rec.t[-1] == t_end and rec.final_state.t == t_end
        assert rec.n_samples == steps + 1
        assert rec.t[-2] == pytest.approx((steps - 1) * dt)
