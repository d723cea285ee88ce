from dataclasses import replace

import numpy as np
import pytest

from chemotaxis_lab import (
    CflViolationError,
    FieldState,
    Grid1D,
    PreconditionError,
    StepperConfig,
    TrajectoryRecord,
    assemble,
    chemotaxis_flux,
    coexistence_state,
    detect_steady,
    exclusion_state,
    initial_state,
    pde_stepper,
    run_simulation,
    semi_trivial_states,
    solve_w,
)
from chemotaxis_lab.diagnostics import TRAJECTORY_COLUMNS
from helpers import coexistence_params, mk_params


class TestStepperConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dt=0.0, t_end=1.0),
            dict(dt=-0.1, t_end=1.0),
            dict(dt=0.1, t_end=-1.0),
            dict(dt=0.1, t_end=1.0, cfl_safety=0.0),
            dict(dt=0.1, t_end=1.0, cfl_safety=1.5),
            dict(dt=0.1, t_end=1.0, record_every=0),
            dict(dt=0.1, t_end=1.0, record_every=2.5),
            dict(dt=0.1, t_end=1.0, blowup_guard=0.0),
            dict(dt=0.1, t_end=1.0, blowup_guard=float("nan")),
            dict(dt=0.1, t_end=1.0, steady_tol=1e-6),
            dict(dt=0.1, t_end=1.0, steady_window=0.5),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            StepperConfig(**kwargs)

    def test_zero_horizon_is_allowed(self):
        assert StepperConfig(dt=0.1, t_end=0.0).t_end == 0.0


class TestLocalTerms:
    def test_flux_boundary_faces_are_zero(self):
        grid = Grid1D(length=1.0, n_cells=4)
        flux = chemotaxis_flux(np.ones(4), np.array([0.0, 1.0, 1.0, 0.0]), 2.0, grid)
        assert flux.shape == (5,)
        assert flux[0] == 0.0 and flux[-1] == 0.0

    def test_flux_donor_cell_values(self):
        grid = Grid1D(length=1.0, n_cells=4)
        u = np.array([1.0, 2.0, 3.0, 4.0])
        w = np.array([0.0, 1.0, 1.0, 0.0])
        flux = chemotaxis_flux(u, w, 2.0, grid)
        np.testing.assert_array_equal(flux, [0.0, 8.0, 0.0, -32.0, 0.0])

    def test_flux_of_stacked_densities_matches_each_row(self):
        grid = Grid1D(length=1.0, n_cells=4)
        uv = np.array([[1.0, 2.0, 3.0, 4.0], [0.5, 0.0, 2.0, 1.0]])
        w = np.array([0.0, 1.0, 1.0, 0.0])
        flux = chemotaxis_flux(uv, w, np.array([[2.0], [0.5]]), grid)
        np.testing.assert_array_equal(flux[0], chemotaxis_flux(uv[0], w, 2.0, grid))
        np.testing.assert_array_equal(flux[1], chemotaxis_flux(uv[1], w, 0.5, grid))

    def test_reaction_terms_hand_value(self):
        # On constant data the fluxes vanish and implicit diffusion returns
        # the constant, so one step is explicit Euler on the reaction terms.
        grid = Grid1D(length=1.0, n_cells=4)
        p = mk_params(a0=1.0, a1=2.0, a2=0.5, a3=0.25, b0=2.0, b1=0.1, b2=1.0, b4=0.5)
        state = initial_state(np.full(4, 0.5), np.full(4, 1.0), p, grid)
        dt = 0.01
        rec = run_simulation(state, p, grid, StepperConfig(dt=dt, t_end=dt))
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
        s0 = initial_state(u0, v0, p, grid)
        m_u0, m_v0 = grid.integrate(u0), grid.integrate(v0)
        rec = run_simulation(s0, p, grid, StepperConfig(dt=5e-3, t_end=2.0))
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
        state = initial_state(u0, v0, p, grid)
        dt = 2e-3
        for _ in range(5):
            u, v = state.u, state.v
            mass_u, mass_v = grid.integrate(u), grid.integrate(v)
            bracket_u = p.a0 - p.a1 * u - p.a2 * v - p.a3 * mass_u - p.a4 * mass_v
            bracket_v = p.b0 - p.b1 * u - p.b2 * v - p.b3 * mass_u - p.b4 * mass_v
            rec = run_simulation(state, p, grid, StepperConfig(dt=dt, t_end=dt))
            assert rec.guard_tripped is None and rec.clipped_mass == 0.0
            state = replace(rec.final_state, t=0.0)
            res_u = grid.integrate(state.u) - mass_u - dt * grid.dx * np.sum(u * bracket_u)
            res_v = grid.integrate(state.v) - mass_v - dt * grid.dx * np.sum(v * bracket_v)
            assert abs(res_u) <= 1e-12 * mass_u
            assert abs(res_v) <= 1e-12 * mass_v

    @pytest.mark.parametrize("d2_over_d1", [1.0, 2.0])
    def test_one_step_matches_dense_solve(self, d2_over_d1):
        # d2 == d1 gives both species one cached factor; d2 != d1 gives
        # each species its own.
        n = 24
        grid = Grid1D(length=1.0, n_cells=n)
        dx = grid.dx
        p = mk_params(d1=0.03, d2=0.03 * d2_over_d1, chi1=0.5, chi2=0.2, a2=0.4, b1=0.3, a3=0.1)
        x = grid.cell_centers()
        s0 = initial_state(1.0 + 0.5 * np.cos(np.pi * x), 1.0 + 0.4 * np.sin(2.0 * np.pi * x), p, grid)
        dt = 1e-3
        rec = run_simulation(s0, p, grid, StepperConfig(dt=dt, t_end=dt))

        u, v, w = s0.u, s0.v, s0.w
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
        s0 = initial_state(np.full(32, eq.u_star), np.full(32, eq.v_star), p, grid)
        rec = run_simulation(s0, p, grid, StepperConfig(dt=1e-2, t_end=10.0))
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
        s0 = initial_state(np.full(32, 0.7), np.full(32, 0.3), p, grid)
        rec = run_simulation(s0, p, grid, StepperConfig(dt=1e-3, t_end=0.2))
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


class TestStabilityGuards:
    def test_first_step_cfl_raises(self):
        p = coexistence_params(0.1)
        grid = Grid1D(length=1.0, n_cells=16)
        s0 = initial_state(np.full(16, 0.5), np.full(16, 0.5), p, grid)
        with pytest.raises(CflViolationError) as exc_info:
            run_simulation(s0, p, grid, StepperConfig(dt=10.0, t_end=10.0))
        err = exc_info.value
        assert err.binding == "reaction"
        assert 0.0 < err.suggested_dt < 10.0
        assert "largest admissible" in str(err)

    def test_reaction_limit_is_inverse_jacobian_diagonal(self):
        # Constant state: no signal gradient, so only the reaction bound binds.
        p = mk_params(
            a0=1.5, a1=2.0, a2=0.5, a3=0.25, a4=-0.3,
            b0=1.0, b1=0.7, b2=1.2, b3=0.4, b4=0.6, chi1=0.2, chi2=0.1,
        )
        grid = Grid1D(length=1.0, n_cells=16)
        u, v = 0.6, 0.9
        s0 = initial_state(np.full(16, u), np.full(16, v), p, grid)
        with pytest.raises(CflViolationError) as exc_info:
            run_simulation(s0, p, grid, StepperConfig(dt=10.0, t_end=10.0))
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
        s0 = initial_state(1.0 + 0.01 * np.cos(np.pi * x), np.zeros(64), p, grid)
        rec = run_simulation(s0, p, grid, StepperConfig(dt=0.05, t_end=10.0, record_every=5))
        assert rec.guard_tripped == "cfl_violation"
        assert rec.t[-1] < 10.0
        assert rec.n_samples >= 2
        assert any("advection" in note for note in rec.notes)

    def test_blowup_guard_keeps_partial_trace(self):
        grid = Grid1D(length=1.0, n_cells=16)
        p = mk_params(a0=5.0, a1=0.0, b0=0.0)
        s0 = initial_state(np.full(16, 0.5), np.zeros(16), p, grid)
        rec = run_simulation(s0, p, grid, StepperConfig(dt=0.01, t_end=3.0, blowup_guard=1e3))
        assert rec.guard_tripped == "blow_up"
        assert 0.0 < rec.t[-1] < 3.0
        assert rec.u_max[-1] >= 1e3
        assert rec.final_state.t == rec.t[-1]

    def test_non_finite_field_trips_guard(self):
        grid = Grid1D(length=1.0, n_cells=16)
        p = coexistence_params(0.1)
        u0 = np.full(16, 0.5)
        u0[5] = np.nan
        s0 = FieldState(t=0.0, u=u0, v=np.full(16, 0.5), w=np.zeros(16))
        rec = run_simulation(s0, p, grid, StepperConfig(dt=0.01, t_end=1.0))
        assert rec.guard_tripped == "non_finite"
        assert rec.t == pytest.approx([0.0, 0.01])
        assert rec.final_state.t == rec.t[-1]
        assert any("non-finite" in note for note in rec.notes)

    def test_positivity_clip_restores_nonnegativity(self):
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
        s0 = initial_state(u0, v0, p, grid)
        plain = run_simulation(s0, p, grid, StepperConfig(dt=dt, t_end=dt))
        assert plain.final_state.u.min() < -1e-3
        assert plain.clipped_mass == 0.0
        clipped = run_simulation(
            s0, p, grid, StepperConfig(dt=dt, t_end=dt, positivity_clip=True)
        )
        assert clipped.final_state.u.min() >= 0.0
        assert clipped.clipped_mass > 0.0
        mass_gain = grid.integrate(clipped.final_state.u) - grid.integrate(
            plain.final_state.u
        )
        assert mass_gain == pytest.approx(clipped.clipped_mass, rel=1e-10)


class TestRunSimulation:
    def test_zero_horizon_records_single_sample(self):
        p = coexistence_params(0.1)
        grid = Grid1D(length=1.0, n_cells=8)
        s0 = initial_state(np.full(8, 0.5), np.full(8, 0.5), p, grid)
        rec = run_simulation(s0, p, grid, StepperConfig(dt=0.1, t_end=0.0))
        assert rec.t == [0.0]
        assert rec.final_state.t == 0.0
        assert rec.stopped_early is False

    def test_domain_size_mismatch(self):
        p = coexistence_params(0.1)
        grid = Grid1D(length=2.0, n_cells=8)
        s0 = FieldState(t=0.0, u=np.full(8, 0.5), v=np.full(8, 0.5), w=np.full(8, 1.0))
        with pytest.raises(PreconditionError, match="omega_measure"):
            run_simulation(s0, p, grid, StepperConfig(dt=0.1, t_end=1.0))

    def test_record_stride_keeps_initial_and_final(self):
        p = coexistence_params(0.1)
        grid = Grid1D(length=1.0, n_cells=8)
        s0 = initial_state(np.full(8, 0.4), np.full(8, 0.4), p, grid)
        rec = run_simulation(s0, p, grid, StepperConfig(dt=0.1, t_end=1.0, record_every=7))
        assert rec.t == pytest.approx([0.0, 0.7, 1.0])

    def test_steady_detection_stops_early(self):
        p = coexistence_params(0.1)
        grid = Grid1D(length=1.0, n_cells=16)
        eq = coexistence_state(p)
        s0 = initial_state(np.full(16, eq.u_star), np.full(16, eq.v_star), p, grid)
        rec = run_simulation(
            s0, p, grid,
            StepperConfig(dt=0.1, t_end=100.0, steady_tol=1e-8, steady_window=0.5),
        )
        assert rec.stopped_early is True
        assert rec.t[-1] == pytest.approx(0.5)

    def test_final_state_signal_is_consistent(self):
        p = coexistence_params(0.1)
        grid = Grid1D(length=1.0, n_cells=32)
        x = grid.cell_centers()
        s0 = initial_state(0.5 + 0.1 * np.cos(np.pi * x), np.full(32, 0.5), p, grid)
        rec = run_simulation(s0, p, grid, StepperConfig(dt=1e-2, t_end=1.0))
        fs = rec.final_state
        expected_w = solve_w(assemble(p, grid), fs.u, fs.v, p)
        assert np.array_equal(fs.w, expected_w)

    def test_short_run_stays_nonnegative(self):
        p = coexistence_params(0.1)
        grid = Grid1D(length=1.0, n_cells=64)
        x = grid.cell_centers()
        s0 = initial_state(
            0.5 + 0.45 * np.cos(np.pi * x), 0.5 - 0.45 * np.cos(np.pi * x), p, grid
        )
        rec = run_simulation(s0, p, grid, StepperConfig(dt=2e-3, t_end=5.0))
        assert rec.guard_tripped is None
        assert min(rec.u_min) >= -1e-10
        assert min(rec.v_min) >= -1e-10

    def test_references_produce_distance_series(self):
        p = coexistence_params(0.1)
        grid = Grid1D(length=1.0, n_cells=16)
        eq = coexistence_state(p)
        s0 = initial_state(np.full(16, 0.5), np.full(16, 0.5), p, grid)
        rec = run_simulation(
            s0, p, grid, StepperConfig(dt=1e-2, t_end=2.0),
            references=(("coexistence", eq),),
        )
        series_u, _, _ = rec.dist["coexistence"]
        assert all(len(series) == rec.n_samples for series in rec.dist["coexistence"])
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
        s0 = initial_state(0.5 + wave, 0.5 - wave, p, grid)
        tol, window = 1e-6, 0.5
        stopped = run_simulation(
            s0, p, grid, StepperConfig(dt=0.05, t_end=40.0, steady_tol=tol, steady_window=window)
        )
        full = run_simulation(s0, p, grid, StepperConfig(dt=0.05, t_end=40.0))
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
        first, second = semi_trivial_states(p)
        references = (
            ("coexistence", coexistence_state(p)), ("exclusion", exclusion_state(p)),
            ("semi_trivial_u", first), ("semi_trivial_v", second),
        )
        rec = run_simulation(
            initial_state(u0, v0, p, grid), p, grid,
            StepperConfig(dt=5e-3, t_end=40.0, steady_tol=1e-12, steady_window=1.0),
            references=references,
        )
        assert calls == []
        assert not rec.stopped_early and rec.t[-1] == 40.0
        spreads = zip(
            *(np.subtract(hi, lo) for hi, lo in
              ((rec.u_max, rec.u_min), (rec.v_max, rec.v_min), (rec.w_max, rec.w_min)))
        )
        assert sum(max(sample) < 1e-12 for sample in spreads) > 7000
