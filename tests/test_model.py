import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chemotaxis_lab.model import (
    FieldState,
    Grid1D,
    PreconditionError,
    check_time_resolution,
    negative_part,
    positive_part,
    validate_params,
)
from helpers import mk_params

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestSignedParts:
    def test_negative_number(self):
        assert positive_part(-3.0) == 0.0
        assert negative_part(-3.0) == 3.0

    def test_positive_number(self):
        assert positive_part(2.5) == 2.5
        assert negative_part(2.5) == 0.0

    def test_zero(self):
        assert positive_part(0.0) == 0.0
        assert negative_part(0.0) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(finite_floats)
    def test_algebra(self, a):
        pos, neg = positive_part(a), negative_part(a)
        assert pos >= 0.0
        assert neg >= 0.0
        assert pos - neg == a
        assert pos + neg == abs(a)
        assert pos * neg == 0.0


class TestValidateParams:
    def test_base_valid_with_positive_chi(self):
        assert validate_params(mk_params(chi1=0.1, chi2=0.1)) == []

    def test_zero_chi_reported(self):
        problems = validate_params(mk_params())
        assert any("chi1" in msg for msg in problems)
        assert any("chi2" in msg for msg in problems)

    @pytest.mark.parametrize("name", ["d1", "d2", "d3", "a0", "b0", "a1", "b2", "k", "l", "lam", "omega_measure"])
    def test_nonpositive_rejected(self, name):
        problems = validate_params(mk_params(chi1=0.1, chi2=0.1, **{name: 0.0}))
        assert any(name in msg and "positive" in msg for msg in problems)

    def test_signed_fields_allowed_negative(self):
        p = mk_params(chi1=0.1, chi2=0.1, a2=-1.0, a3=-2.0, a4=-3.0, b1=-1.0, b3=-2.0, b4=-3.0)
        assert validate_params(p) == []

    def test_non_finite_reported(self):
        problems = validate_params(mk_params(chi1=0.1, chi2=0.1, a3=math.inf))
        assert any("a3" in msg and "finite" in msg for msg in problems)

    def test_nan_reported(self):
        problems = validate_params(mk_params(chi1=0.1, chi2=0.1, b4=math.nan))
        assert any("b4" in msg for msg in problems)


class TestCheckTimeResolution:
    # Direct calls: a missing check in a stepper would hang its loop, so the
    # steppers' own wiring is tested in subprocesses (tests/test_cli.py).
    def test_dt_below_half_spacing_raises(self):
        # At t = 1e10 the float spacing is 2**-19 (1.9e-6): t + 1e-7 == t.
        with pytest.raises(PreconditionError, match="float resolution"):
            check_time_resolution(1e10, 1e10 + 1.0, 1e-7)
        with pytest.raises(PreconditionError, match="float resolution"):
            check_time_resolution(-1e10 - 1.0, -1e10, 1e-7)

    def test_boundary_is_half_spacing_of_largest_time(self):
        half = 0.5 * math.ulp(1e10 + 1.0)
        with pytest.raises(PreconditionError):
            check_time_resolution(0.0, 1e10 + 1.0, half)  # ties round to even: may stall
        check_time_resolution(0.0, 1e10 + 1.0, math.nextafter(half, 1.0))
        assert 1e10 + math.nextafter(half, 1.0) > 1e10

    def test_empty_run_never_raises(self):
        check_time_resolution(1e10, 1e10, 1e-7)
        check_time_resolution(1e10 + 1.0, 1e10, 1e-7)

    @pytest.mark.parametrize(
        "t0, t_end, dt", [(0.0, 1e-13, 1e-14), (0.0, 1e-13, 1.0), (5.0, 5.0 + 4e-12, 1e-3)]
    )
    def test_short_run_takes_a_step_and_ends_on_t_end(self, t0, t_end, dt):
        # Each run is shorter than the plain tolerance 1e-12*max(|t_end|, 1).
        t_stop, last_step = check_time_resolution(t0, t_end, dt)
        t, steps = t0, 0
        while t < t_stop:
            rest = t_end - t
            t += rest if rest < last_step else dt
            steps += 1
        assert steps >= 1 and t == t_end

    def test_tolerance_is_relative_where_its_bounds_do_not_bind(self):
        t_stop, last_step = check_time_resolution(0.0, 200.0, 5e-3)
        assert t_stop == 200.0 - 2e-10
        assert last_step == 5e-3 + (200.0 - t_stop)


class TestGrid1D:
    def test_dx(self):
        assert Grid1D(length=2.0, n_cells=8).dx == 0.25

    def test_cell_centers(self):
        g = Grid1D(length=1.0, n_cells=4)
        assert np.allclose(g.cell_centers(), [0.125, 0.375, 0.625, 0.875])

    def test_integrate_constant_exact(self):
        g = Grid1D(length=3.0, n_cells=16)
        assert g.integrate(np.full(16, 2.0)) == pytest.approx(6.0, rel=1e-15)

    def test_integrate_stack_matches_per_row_sum(self):
        # The midpoint rule on an (m, n) stack carries the bits of the
        # per-field dx * float(np.sum(row)) it replaced in the stepper.
        rng = np.random.default_rng(17)
        for n in (4, 7, 8, 9, 127, 128, 129, 1000, 8192, 10007):
            g = Grid1D(length=float(rng.uniform(0.5, 3.0)), n_cells=n)
            for m in (1, 2, 3):
                stack = rng.uniform(0.0, 2.0, (m, n)) * 10.0 ** rng.uniform(-8, 8, (m, 1))
                masses = g.integrate(stack)
                assert masses == [g.dx * float(np.sum(row)) for row in stack]
                assert all(type(mass) is float for mass in masses)
            one = g.integrate(stack[0])
            assert type(one) is float and one == g.dx * float(np.sum(stack[0]))

    def test_too_few_cells(self):
        with pytest.raises(ValueError, match="n_cells"):
            Grid1D(length=1.0, n_cells=3)

    def test_non_integer_cells(self):
        with pytest.raises(ValueError, match="integer"):
            Grid1D(length=1.0, n_cells=8.0)

    def test_bool_cells_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            Grid1D(length=1.0, n_cells=True)

    def test_cell_width_whose_square_underflows(self):
        # The signal and diffusion operators divide by dx * dx.
        with pytest.raises(ValueError, match="squares to 0.0"):
            Grid1D(length=1e-160, n_cells=128)
        assert Grid1D(length=1e-155, n_cells=128).dx ** 2 > 0.0  # subnormal

    def test_nonpositive_length(self):
        with pytest.raises(ValueError, match="length"):
            Grid1D(length=0.0, n_cells=8)
        with pytest.raises(ValueError, match="length"):
            Grid1D(length=-1.0, n_cells=8)


class TestFieldState:
    def test_coerces_to_float_arrays(self):
        s = FieldState(t=0.0, u=[1, 2, 3], v=[0, 0, 0], w=[1, 1, 1])
        assert s.u.dtype == np.float64
        assert s.u.shape[0] == 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="share one grid"):
            FieldState(t=0.0, u=[1, 2, 3], v=[0, 0], w=[1, 1, 1])

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="1-D"):
            FieldState(t=0.0, u=np.zeros((2, 2)), v=np.zeros(4), w=np.zeros(4))
