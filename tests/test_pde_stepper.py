import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg.lapack import dpttrs

from chemotaxis_lab import pde_stepper
from chemotaxis_lab.diagnostics import (
    TRAJECTORY_COLUMNS,
    TrajectoryRecord,
    detect_steady,
    may_be_steady,
)
from chemotaxis_lab.elliptic import assemble, neumann_factor, solve_w
from chemotaxis_lab.model import (
    CflViolationError,
    FieldState,
    Grid1D,
    PreconditionError,
    StepperConfig,
)
from chemotaxis_lab.pde_stepper import chemotaxis_flux, initial_state, run_simulation
from chemotaxis_lab.steady_states import coexistence_state, exclusion_state, semi_trivial_states
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


def face_differences(w):
    """The signal differences w[i+1] - w[i] across the interior faces."""
    w = np.asarray(w, dtype=float)
    return w[1:] - w[:-1]


class TestLocalTerms:
    def test_flux_boundary_faces_are_zero(self):
        grid = Grid1D(length=1.0, n_cells=4)
        flux = chemotaxis_flux(np.ones(4), face_differences([0.0, 1.0, 1.0, 0.0]), 2.0, grid.dx)
        assert flux.shape == (5,)
        assert flux[0] == 0.0 and flux[-1] == 0.0

    def test_flux_donor_cell_values(self):
        grid = Grid1D(length=1.0, n_cells=4)
        u = np.array([1.0, 2.0, 3.0, 4.0])
        dw = face_differences([0.0, 1.0, 1.0, 0.0])
        flux = chemotaxis_flux(u, dw, 2.0, grid.dx)
        np.testing.assert_array_equal(flux, [0.0, 8.0, 0.0, -32.0, 0.0])
        out = np.zeros(5)
        assert chemotaxis_flux(u, dw, 2.0, grid.dx, out=out) is out
        np.testing.assert_array_equal(out, flux)

    def test_flux_of_stacked_densities_matches_each_row(self):
        grid = Grid1D(length=1.0, n_cells=4)
        uv = np.array([[1.0, 2.0, 3.0, 4.0], [0.5, 0.0, 2.0, 1.0]])
        dw = face_differences([0.0, 1.0, 1.0, 0.0])
        flux = chemotaxis_flux(uv, dw, np.array([[2.0], [0.5]]), grid.dx)
        np.testing.assert_array_equal(flux[0], chemotaxis_flux(uv[0], dw, 2.0, grid.dx))
        np.testing.assert_array_equal(flux[1], chemotaxis_flux(uv[1], dw, 0.5, grid.dx))

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


def reference_advance(p, grid, cfg, uv, w, mass, dt):
    """One split step written as whole-array expressions in the stepper's
    operation order: a new array per operation, the masses as a list, the
    maxima by ndarray.max.  Returns the new densities, signal and masses and
    the clipped mass, or raises CflViolationError as the stepper does."""
    n, dx = grid.n_cells, grid.dx
    growth = np.array([p.a0, p.b0])
    local_coupling = np.array([[p.a1, p.a2], [p.b1, p.b2]])
    mass_coupling = np.array([[p.a3, p.a4], [p.b3, p.b4]])
    bracket = (growth - mass_coupling @ mass)[:, None] - local_coupling @ uv

    grad_max = float(np.abs(w[1:] - w[:-1]).max()) / dx
    speed = max(p.chi1, p.chi2) * grad_max
    adv_limit = math.inf if speed == 0.0 else cfg.cfl_safety * dx / speed
    jmax = float(np.abs(bracket - np.array([[p.a1], [p.b2]]) * uv).max())
    rx_limit = math.inf if jmax == 0.0 else 1.0 / jmax
    if dt > adv_limit or dt > rx_limit:
        if dt > adv_limit and dt > rx_limit:
            binding = "advection and reaction"
        elif dt > adv_limit:
            binding = "advection"
        else:
            binding = "reaction"
        raise CflViolationError(binding, dt, min(adv_limit, rx_limit))

    flux = np.zeros((2, n + 1))
    dw = w[1:] - w[:-1]
    donor = np.where(dw > 0.0, uv[:, :-1], uv[:, 1:])
    flux[:, 1:-1] = np.array([[p.chi1], [p.chi2]]) * donor * dw / dx
    uv_star = uv + dt * (uv * bracket - (flux[:, 1:] - flux[:, :-1]) / dx)
    uv_new = np.array([
        dpttrs(*neumann_factor(1.0, dt * d / (dx * dx), n), row)[0]
        for d, row in zip((p.d1, p.d2), uv_star)
    ])
    clipped = 0.0
    if cfg.positivity_clip:
        neg = float(np.minimum(uv_new, 0.0).sum())
        if neg < 0.0:
            clipped = -dx * neg
            uv_new = np.maximum(uv_new, 0.0)
    signal = neumann_factor(p.lam, p.d3 / (dx * dx), n)
    w_new = dpttrs(*signal, p.k * uv_new[0] + p.l * uv_new[1])[0]
    return uv_new, w_new, (dx * np.add.reduce(uv_new, axis=-1)).tolist(), clipped


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
    def steps(p, grid, cfg, uv, dts):
        """Step uv over the widths dts, comparing each step's outputs with
        the reference's for the same inputs, bit for bit, and checking
        that the inputs are left untouched; returns the clipped masses."""
        ws = pde_stepper._Workspace(p, grid, cfg)
        w = solve_w(ws.op, *uv, p)
        mass = np.array(grid.integrate(uv))
        clipped = []
        for dt in dts:
            before = [a.copy() for a in (uv, w, mass)]
            want = reference_advance(p, grid, cfg, uv, w, mass.tolist(), dt)
            got = pde_stepper._advance(ws, uv, w, mass, dt)
            for a, b in zip(before, (uv, w, mass)):
                assert np.array_equal(bits(a), bits(b))
            for a, b in zip(got, want):
                assert np.array_equal(bits(a), bits(b))
            uv, w, mass, clip = got
            clipped.append(clip)
        return clipped

    @pytest.mark.parametrize("n", [16, 128, 1024])
    @pytest.mark.parametrize("params", [coexistence_params(0.1), mk_params(**MIXED)], ids=["coexistence", "mixed"])
    def test_steps_match_reference(self, n, params):
        grid = Grid1D(length=1.7, n_cells=n)
        cfg = StepperConfig(dt=1e-3, t_end=1.0)
        uv = bumps(grid, np.random.default_rng(n), floor=0.05)
        # the last width is a shorter final step, with its own factors
        self.steps(params, grid, cfg, uv, [1e-3] * 4 + [3.7e-4])

    def test_positivity_clip_matches_reference(self):
        n = 32
        grid = Grid1D(length=1.7, n_cells=n)
        p = mk_params(chi1=1.0, chi2=0.5, d1=1e-6, d2=2e-6, k=0.0, l=1.0, a0=0.0, b0=0.0, a1=1e-3, b2=1e-3)
        uv = np.vstack([np.full(n, 0.2), np.ones(n)])
        uv[0, 1::4] = 1.0
        uv[1, 1::4] = 0.0
        w = solve_w(assemble(p, grid), *uv, p)
        dt = 0.89 * grid.dx / (np.abs(np.diff(w)).max() / grid.dx)
        cfg = StepperConfig(dt=dt, t_end=1.0, positivity_clip=True)
        clipped = self.steps(p, grid, cfg, uv, [dt, dt])
        assert clipped[0] > 0.0

    @pytest.mark.parametrize(
        "binding, chi, dt",
        [("advection", 50.0, 1e-2), ("reaction", 1e-3, 10.0), ("advection and reaction", 50.0, 10.0)],
    )
    def test_stability_errors_match_reference(self, binding, chi, dt):
        n = 64
        grid = Grid1D(length=1.7, n_cells=n)
        p = mk_params(**{**MIXED, "chi1": chi, "chi2": 0.5 * chi})
        cfg = StepperConfig(dt=dt, t_end=10.0)
        uv = bumps(grid, np.random.default_rng(3), floor=0.1)
        ws = pde_stepper._Workspace(p, grid, cfg)
        w = solve_w(ws.op, *uv, p)
        mass = grid.integrate(uv)
        with pytest.raises(CflViolationError) as got:
            pde_stepper._advance(ws, uv, w, np.array(mass), dt)
        with pytest.raises(CflViolationError) as want:
            reference_advance(p, grid, cfg, uv, w, mass, dt)
        assert got.value.binding == want.value.binding == binding
        assert bits(got.value.suggested_dt) == bits(want.value.suggested_dt)
        assert str(got.value) == str(want.value)


def reference_run(state0, p, grid, cfg, references=()):
    """run_simulation's schedule and guards with one append_sample call per
    recorded sample, the record path the sample blocks replace."""
    ws = pde_stepper._Workspace(p, grid, cfg)
    t = state0.t
    uv = np.array([state0.u, state0.v], dtype=float)
    w = solve_w(ws.op, *uv, p)
    mass = np.array(grid.integrate(uv))
    rec = TrajectoryRecord(ref_labels=tuple(label for label, _ in references))
    levels = np.array([(r.u_star, r.v_star, r.w_star) for _, r in references], dtype=float).reshape(-1, 3)

    def record():
        if not rec.t or t > rec.t[-1]:
            rec.append_sample(t, np.vstack([uv, w]), *mass.tolist(), levels)

    record()
    t_stop = cfg.t_end - 1e-12 * max(cfg.t_end, 1.0)
    steps_done = 0
    while t < t_stop:
        rest = cfg.t_end - t
        dt = rest if rest < cfg.dt + (cfg.t_end - t_stop) else cfg.dt
        try:
            uv, w, mass, clipped = pde_stepper._advance(ws, uv, w, mass, dt)
        except CflViolationError as exc:
            if steps_done == 0:
                raise
            rec.guard_tripped = "cfl_violation"
            rec.notes.append(str(exc))
            break
        t += dt
        steps_done += 1
        rec.clipped_mass += clipped
        peak = float(uv.max())
        if not math.isfinite(peak):
            rec.guard_tripped = "non_finite"
            rec.notes.append(f"a density became non-finite (maximum {peak!r}) at t={t!r}")
        elif peak > cfg.blowup_guard:
            rec.guard_tripped = "blow_up"
            rec.notes.append(f"field maximum exceeded the blow-up guard {cfg.blowup_guard!r} at t={t!r}")
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
    rec.final_state = FieldState(t=t, u=uv[0], v=uv[1], w=w)
    return rec


def four_references(p):
    first, second = semi_trivial_states(p)
    return (
        ("coexistence", coexistence_state(p)), ("exclusion", exclusion_state(p)),
        ("semi_trivial_u", first), ("semi_trivial_v", second),
    )


def block_case(name):
    """(state0, params, grid, config, references) of one record scenario."""
    grid = Grid1D(length=1.0, n_cells=24)
    wave = 0.1 * np.cos(np.pi * grid.cell_centers())
    if name == "many-blocks":
        p = coexistence_params(0.1)
        return initial_state(0.5 + wave, 0.5 - wave, p, grid), p, grid, StepperConfig(dt=0.01, t_end=12.0), four_references(p)
    if name == "stride":
        p = coexistence_params(0.1)
        return initial_state(0.5 + wave, 0.5 - wave, p, grid), p, grid, StepperConfig(dt=0.01, t_end=3.0, record_every=7), ()
    if name == "blow-up":
        # v, the second row, crosses the guard
        p = mk_params(a0=1e-9, b0=5.0, b2=1e-9, chi1=0.1, chi2=0.1)
        cfg = StepperConfig(dt=0.01, t_end=3.0, blowup_guard=1e3, record_every=3)
        return initial_state(np.full(24, 0.01), 0.5 + wave, p, grid), p, grid, cfg, four_references(coexistence_params())
    if name == "non-finite":
        # u doubles every ten steps until the mass overflows to inf, which
        # turns the bracket into NaN: no stability bound trips before it.
        p = mk_params(a1=5e-324, b3=-1e-320, chi1=5e-324, chi2=5e-324)
        cfg = StepperConfig(dt=0.1, t_end=100.0, blowup_guard=1.7976931348623157e308, record_every=7)
        return initial_state(np.full(24, 5e304), np.full(24, 0.5), p, grid), p, grid, cfg, ()
    if name == "cfl":
        grid = Grid1D(length=1.0, n_cells=60)
        p = mk_params(chi1=5.0, chi2=0.0, a0=2.0, a1=0.0, b0=0.0, b2=1.0)
        u0 = 1.0 + 0.01 * np.cos(np.pi * grid.cell_centers())
        cfg = StepperConfig(dt=0.05, t_end=10.0, record_every=5)
        return initial_state(u0, np.zeros(60), p, grid), p, grid, cfg, four_references(coexistence_params())
    p = coexistence_params(0.1)
    cfg = StepperConfig(dt=0.05, t_end=40.0, steady_tol=1e-6, steady_window=0.5, record_every=3)
    return initial_state(0.5 + wave, 0.5 - wave, p, grid), p, grid, cfg, four_references(p)


def reprs(rec):
    """Every recorded series and run outcome, floats as repr (NaN and -0.0 included)."""
    series = {name: list(map(repr, getattr(rec, name))) for name in (*TRAJECTORY_COLUMNS, "w_mean")}
    for label in rec.ref_labels:
        series.update({f"{f}_{label}": list(map(repr, col)) for f, col in zip("uvw", rec.dist[label])})
    fs = rec.final_state
    outcome = (rec.guard_tripped, rec.notes, repr(rec.clipped_mass), rec.stopped_early, repr(fs.t))
    return series, outcome, [bits(f).tolist() for f in (fs.u, fs.v, fs.w)]


class TestSampleBlocks:
    """run_simulation's block-reduced record equals the per-sample one."""

    @pytest.mark.parametrize("block_stacks", [None, 1, 4])
    @pytest.mark.parametrize(
        "name", ["many-blocks", "stride", "blow-up", "non-finite", "cfl", "steady"]
    )
    def test_record_matches_per_sample_reference(self, name, block_stacks, monkeypatch):
        state0, p, grid, cfg, references = block_case(name)
        if block_stacks is not None:
            monkeypatch.setattr(pde_stepper, "BLOCK_VALUES", 3 * grid.n_cells * block_stacks)
        got = run_simulation(state0, p, grid, cfg, references=references)
        with np.errstate(over="ignore", invalid="ignore"):  # _advance steps outside run_simulation
            want = reference_run(state0, p, grid, cfg, references)
        assert reprs(got) == reprs(want)
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
        s0 = initial_state(np.full(8, 0.4), np.full(8, 0.6), p, grid)
        rec = run_simulation(s0, p, grid, StepperConfig(dt=dt, t_end=t_end))
        assert rec.t[-1] == t_end and rec.final_state.t == t_end
        assert rec.n_samples == steps + 1
        assert rec.t[-2] == pytest.approx((steps - 1) * dt)
