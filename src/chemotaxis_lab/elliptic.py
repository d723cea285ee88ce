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
    """Assembled operator lam*I - d3*D2 with its dpttrf factor (d, e).

    diag holds the per-row diagonal (boundary rows lam + d3/dx^2, interior
    rows lam + 2*d3/dx^2); off the constant off-diagonal -d3/dx^2.  Row
    sums all equal lam, so constants map to lam * constant.
    """

    grid: Grid1D
    d3: float
    lam: float
    diag: np.ndarray
    off: float
    factor: tuple[np.ndarray, np.ndarray]

    def apply(self, f: np.ndarray) -> np.ndarray:
        """Matrix-vector product (lam*I - d3*D2) f."""
        out = self.diag * f
        out[:-1] += self.off * f[1:]
        out[1:] += self.off * f[:-1]
        return out


def neumann_factor(shift: float, r: float, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal and dpttrf factor d, e of shift*I - r*dx^2*D2 on n cells.

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
    return diag, d, e


def assemble(p: ModelParams, grid: Grid1D) -> EllipticOperator:
    r = p.d3 / (grid.dx * grid.dx)
    diag, d, e = neumann_factor(p.lam, r, grid.n_cells)
    return EllipticOperator(grid=grid, d3=p.d3, lam=p.lam, diag=diag, off=-r, factor=(d, e))


def solve_w(op: EllipticOperator, u: np.ndarray, v: np.ndarray, p: ModelParams) -> np.ndarray:
    """Solve (lam*I - d3*D2) w = k*u + l*v by the prefactored direct solve.

    For nonnegative u, v the result is nonnegative and squeezed between
    min(k*u + l*v)/lam and max(k*u + l*v)/lam (discrete comparison), up to
    solver roundoff.
    """
    rhs = np.multiply(p.k, u, dtype=float)
    rhs += np.multiply(p.l, v, dtype=float)
    if rhs.shape != op.diag.shape:
        raise PreconditionError(f"densities of shape {rhs.shape} do not fit {op.grid!r}")
    return dpttrs(*op.factor, rhs, overwrite_b=True)[0]
