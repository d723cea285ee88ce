"""Quasi-static signal equation on the 1-D grid.

Discretizes 0 = d3 * w'' + k*u + l*v - lam*w with zero-flux boundaries as
(lam*I - d3*D2) w = k*u + l*v, where D2 is the standard second difference
with mirrored ghost cells.  The matrix is symmetric positive definite and
tridiagonal; LAPACK dpttrf factors it once per (params, grid) as L*D*L^T
and dpttrs solves directly, so there is no iteration tolerance anywhere in
the signal solve.  The stepper's implicit diffusion uses the same routines.
Both come from SciPy's LAPACK extension, loaded by file in ``_lapack``
without importing scipy.linalg.
"""
from __future__ import annotations

import numpy as np

from ._lapack import dpttrf, dpttrs
from .model import Grid1D, ModelParams, PreconditionError


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
        raise PreconditionError(
            f"the zero-flux operator {shift!r}*I - {r!r}*dx^2*D2 on {n} cells "
            f"is not positive definite in floating point"
        )
    return d, e


def assemble(p: ModelParams, grid: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    """The dpttrf factor (d, e) of the signal operator lam*I - d3*D2 on grid."""
    r = p.d3 / (grid.dx * grid.dx)
    return neumann_factor(p.lam, r, grid.n_cells)


def solve_w(factor: tuple[np.ndarray, np.ndarray], u: np.ndarray, v: np.ndarray, p: ModelParams,
            out: np.ndarray | None = None, term: np.ndarray | None = None) -> np.ndarray:
    """Solve (lam*I - d3*D2) w = k*u + l*v with the operator's factor from assemble.

    For nonnegative u, v the result is nonnegative and squeezed between
    min(k*u + l*v)/lam and max(k*u + l*v)/lam (discrete comparison), up to
    solver roundoff.  Given (n,) float buffers out and term (for l*v), the
    right-hand side is built in out and solved in place, and the result is out.
    """
    rhs = np.multiply(p.k, u, out, dtype=float)
    rhs += np.multiply(p.l, v, term, dtype=float)
    if rhs.shape != (len(factor[0]),):
        raise PreconditionError(f"densities of shape {rhs.shape} do not fit n_cells={len(factor[0])}")
    return dpttrs(*factor, rhs, overwrite_b=True)[0]
