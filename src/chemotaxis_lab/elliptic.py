"""Quasi-static signal equation on the 1-D grid.

Discretizes 0 = d3 * w'' + k*u + l*v - lam*w with zero-flux boundaries as
(lam*I - d3*D2) w = k*u + l*v, where D2 is the standard second difference
with mirrored ghost cells.  The matrix is symmetric positive definite and
tridiagonal; LAPACK dpttrf factors it once per (params, grid) as L*D*L^T
and dpttrs solves directly, so there is no iteration tolerance anywhere in
the signal solve.  The stepper's implicit diffusion uses the same routines.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .model import Grid1D, ModelParams, PreconditionError


@dataclass(frozen=True)
class EllipticOperator:
    """The operator lam*I - d3*D2 on grid, held as its dpttrf factor (d, e)."""

    grid: Grid1D
    factor: tuple[np.ndarray, np.ndarray]


def neumann_factor(shift: float, r: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The dpttrf factor d, e of shift*I - r*dx^2*D2 on n cells.

    The zero-flux operator has boundary diagonal shift + r, interior
    diagonal shift + 2r and off-diagonal -r.  The signal solve uses it with
    (lam, d3/dx^2), the implicit diffusion with (1, dt*d/dx^2).
    """
    diag = np.full(n, shift + 2.0 * r)
    diag[0] = shift + r
    diag[-1] = shift + r
    d, e, info = dpttrf(diag, np.full(n - 1, -r))
    if info != 0:
        raise np.linalg.LinAlgError(f"{shift!r}*I - {r!r}*dx^2*D2 is not positive definite")
    return d, e


def assemble(p: ModelParams, grid: Grid1D) -> EllipticOperator:
    r = p.d3 / (grid.dx * grid.dx)
    return EllipticOperator(grid=grid, factor=neumann_factor(p.lam, r, grid.n_cells))


def solve_w(op: EllipticOperator, u: np.ndarray, v: np.ndarray, p: ModelParams) -> np.ndarray:
    """Solve (lam*I - d3*D2) w = k*u + l*v by the prefactored direct solve.

    For nonnegative u, v the result is nonnegative and squeezed between
    min(k*u + l*v)/lam and max(k*u + l*v)/lam (discrete comparison), up to
    solver roundoff.
    """
    rhs = np.multiply(p.k, u, dtype=float)
    rhs += np.multiply(p.l, v, dtype=float)
    if rhs.shape != (op.grid.n_cells,):
        raise PreconditionError(f"densities of shape {rhs.shape} do not fit {op.grid!r}")
    return dpttrs(*op.factor, rhs, overwrite_b=True)[0]
