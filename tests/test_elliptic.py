import numpy as np
import pytest

from chemotaxis_lab.elliptic import assemble, neumann_factor, solve_w
from chemotaxis_lab.model import Grid1D, PreconditionError
from helpers import mk_params


def dense_operator(p, grid):
    """lam*I - d3*D2 as a dense matrix, D2 the second difference with
    mirrored ghost cells: each boundary row loses one neighbour."""
    n = grid.n_cells
    d2 = (np.eye(n, k=1) + np.eye(n, k=-1) - 2.0 * np.eye(n)) / (grid.dx * grid.dx)
    d2[0, 0] = d2[-1, -1] = -1.0 / (grid.dx * grid.dx)
    return p.lam * np.eye(n) - p.d3 * d2


def unfactor(op):
    """L*D*L^T from the dpttrf factor (d, e): L is unit lower bidiagonal
    with subdiagonal e."""
    d, e = op.factor
    lower = np.eye(d.size) + np.diag(e, k=-1)
    return lower @ np.diag(d) @ lower.T


class TestAssembly:
    def test_stencil_entries(self):
        grid = Grid1D(length=1.0, n_cells=4)
        p = mk_params()
        expected = np.diag([17.0, 33.0, 33.0, 17.0]) - 16.0 * (np.eye(4, k=1) + np.eye(4, k=-1))
        np.testing.assert_array_equal(dense_operator(p, grid), expected)
        np.testing.assert_allclose(unfactor(assemble(p, grid)), expected, rtol=1e-14, atol=1e-14)

    def test_row_sums_equal_lam(self):
        grid = Grid1D(length=2.0, n_cells=37)
        p = mk_params(d3=0.7, lam=1.3)
        np.testing.assert_allclose(dense_operator(p, grid).sum(axis=1), p.lam, rtol=1e-14)

    def test_factor_matches_dense_matrix(self):
        grid = Grid1D(length=1.0, n_cells=16)
        p = mk_params(d3=0.5, lam=2.0)
        dense = dense_operator(p, grid)
        np.testing.assert_allclose(unfactor(assemble(p, grid)), dense, rtol=1e-13, atol=1e-13 * dense.max())

    def test_indefinite_matrix_is_rejected(self):
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            neumann_factor(-1.0, 0.25, 8)


class TestSolve:
    def test_constant_sources(self):
        grid = Grid1D(length=1.0, n_cells=64)
        p = mk_params(k=2.0, l=3.0, lam=4.0)
        op = assemble(p, grid)
        u = np.full(64, 0.5)
        v = np.full(64, 1.5)
        w = solve_w(op, u, v, p)
        expected = (2.0 * 0.5 + 3.0 * 1.5) / 4.0
        assert np.max(np.abs(w - expected)) < 1e-12

    def test_solve_then_apply_roundtrip(self):
        grid = Grid1D(length=1.0, n_cells=50)
        p = mk_params(k=1.5, l=0.5, d3=2.0, lam=0.8)
        op = assemble(p, grid)
        rng = np.random.default_rng(11)
        u = rng.uniform(0.0, 2.0, 50)
        v = rng.uniform(0.0, 2.0, 50)
        w = solve_w(op, u, v, p)
        dense = dense_operator(p, grid)
        residual = dense @ w - (1.5 * u + 0.5 * v)
        assert np.max(np.abs(residual)) <= 100.0 * np.finfo(float).eps * np.max(np.diag(dense))

    def test_second_order_convergence(self):
        p = mk_params(d3=1.0, k=1.0, l=0.0, lam=1.0)
        length = 1.0
        errors = {}
        for n in (32, 64, 128):
            grid = Grid1D(length=length, n_cells=n)
            x = grid.cell_centers()
            exact = np.cos(np.pi * x / length)
            source = (p.d3 * (np.pi / length) ** 2 + p.lam) * exact
            op = assemble(p, grid)
            w = solve_w(op, source, np.zeros(n), p)
            errors[n] = float(np.max(np.abs(w - exact)))
        order1 = np.log2(errors[32] / errors[64])
        order2 = np.log2(errors[64] / errors[128])
        assert 1.9 <= order1 <= 2.1
        assert 1.9 <= order2 <= 2.1

    def test_mass_identity(self):
        grid = Grid1D(length=3.0, n_cells=48)
        p = mk_params(k=2.0, l=0.5, lam=1.5, d3=0.3)
        op = assemble(p, grid)
        rng = np.random.default_rng(5)
        for _ in range(20):
            u = rng.uniform(0.0, 3.0, 48)
            v = rng.uniform(0.0, 3.0, 48)
            w = solve_w(op, u, v, p)
            lhs = p.lam * grid.integrate(w)
            rhs = grid.integrate(p.k * u + p.l * v)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_max_principle(self):
        grid = Grid1D(length=1.0, n_cells=32)
        p = mk_params(k=1.0, l=2.0, lam=0.7, d3=1.4)
        op = assemble(p, grid)
        rng = np.random.default_rng(17)
        for _ in range(50):
            u = rng.uniform(0.0, 1.0, 32)
            v = rng.uniform(0.0, 1.0, 32)
            w = solve_w(op, u, v, p)
            source = p.k * u + p.l * v
            assert w.min() >= source.min() / p.lam - 1e-12
            assert w.max() <= source.max() / p.lam + 1e-12

    def test_smoothing_reduces_oscillation(self):
        grid = Grid1D(length=1.0, n_cells=64)
        p = mk_params()
        op = assemble(p, grid)
        u = 1.0 + 0.5 * np.cos(20.0 * np.pi * grid.cell_centers())
        w = solve_w(op, u, np.zeros(64), p)
        assert w.max() - w.min() < 0.1 * (u.max() - u.min())

    @pytest.mark.parametrize("m", [6, 10])
    def test_densities_off_the_grid_are_rejected(self, m):
        p = mk_params()
        op = assemble(p, Grid1D(length=1.0, n_cells=8))
        with pytest.raises(PreconditionError, match="n_cells=8"):
            solve_w(op, np.ones(m), np.ones(m), p)
