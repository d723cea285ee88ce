"""Core data types: model coefficients, the 1-D grid, the stepper's run
schedule, field snapshots, recorded series, positive/negative parts.

Everything downstream (hypothesis checks, bound constants, the PDE stepper,
the comparison ODE system) consumes these types.  All values are 64-bit
floats; types are immutable after construction.  Nothing here needs SciPy,
and only the functions that build arrays import NumPy, so the CLI can build
and validate a whole config without importing either.
"""
from __future__ import annotations

import math
from array import array
from collections.abc import Callable
from dataclasses import dataclass, fields


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


def float_column() -> array:
    """An empty recorded series, as the trajectory and rectangle records
    hold them: packed float64, 8 bytes a value where a list of Python
    floats takes about 32.  bisect, slicing, min/max, indexing and
    iteration work on it as on a list, and np.asarray views it in place."""
    return array("d")


def negative_part(a: float) -> float:
    """Return max{0, -a}."""
    return max(0.0, -a)


def positive_part(a: float) -> float:
    """Return max{0, a}."""
    return max(0.0, a)


# Fields that must be strictly positive; the remaining interaction
# coefficients (a2, a3, a4, b1, b3, b4) may take any finite sign.
_POSITIVE_FIELDS = (
    "d1", "d2", "d3", "chi1", "chi2",
    "a0", "b0", "a1", "b2",
    "k", "l", "lam", "omega_measure",
)


@dataclass(frozen=True)
class ModelParams:
    """All scalar coefficients of the two-species chemotaxis system.

    d1, d2 diffuse the species, d3 the signal; chi1, chi2 are the
    chemotactic sensitivities; a0/b0 growth, a1/b2 self-limitation,
    a2/b1 local cross-interaction, a3/a4/b3/b4 couple to the total
    masses; k, l produce the signal, lam degrades it.  omega_measure
    is the measure |Omega| of the spatial domain, which enters every
    mass-coupled formula.

    The constructor performs no validation: ``validate_params`` reports
    violations as data so that deliberately out-of-range parameters
    (e.g. reaction-free test configurations) remain constructible.
    """

    d1: float
    d2: float
    d3: float
    chi1: float
    chi2: float
    a0: float
    b0: float
    a1: float
    a2: float
    a3: float
    a4: float
    b1: float
    b2: float
    b3: float
    b4: float
    k: float
    l: float
    lam: float
    omega_measure: float

    def exchanged(self) -> ModelParams:
        """The same system with the species trading places: u's coefficients
        d1, chi1, a0, a1, a2, a3, a4, k become v's d2, chi2, b0, b2, b1, b4,
        b3, l, and the other way round."""
        return ModelParams(
            d1=self.d2, d2=self.d1, d3=self.d3, chi1=self.chi2, chi2=self.chi1,
            a0=self.b0, a1=self.b2, a2=self.b1, a3=self.b4, a4=self.b3,
            b0=self.a0, b1=self.a2, b2=self.a1, b3=self.a4, b4=self.a3,
            k=self.l, l=self.k, lam=self.lam, omega_measure=self.omega_measure,
        )


def per_species(formula: Callable[[ModelParams], object], p: ModelParams) -> tuple:
    """(formula(p), formula(p.exchanged())): a formula written for u, and
    its mirror image for v."""
    return formula(p), formula(p.exchanged())


def validate_params(p: ModelParams) -> list[str]:
    """Check the parameter invariants, returning one message per violation.

    An empty list means the parameters are admissible.  Violations are
    data, not errors: callers that require validity enforce it themselves.
    The report is produced in a fixed field order so repeated calls agree.
    """
    problems: list[str] = []
    for f in fields(ModelParams):
        value = getattr(p, f.name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{f.name} must be a finite real, got {value!r}")
    for name in _POSITIVE_FIELDS:
        value = getattr(p, name)
        if isinstance(value, (int, float)) and math.isfinite(value) and value <= 0:
            problems.append(f"{name} must be strictly positive, got {value!r}")
    return problems


@dataclass(frozen=True)
class Grid1D:
    """Uniform cell-centered mesh on the interval (0, length).

    Cell i occupies ((i)*dx, (i+1)*dx) with center (i + 0.5)*dx.
    Discrete integrals use the midpoint rule dx * sum(f), which is exact
    for constants.
    """

    length: float
    n_cells: int

    def __post_init__(self) -> None:
        if not isinstance(self.n_cells, int) or isinstance(self.n_cells, bool):
            raise ValueError(f"n_cells must be an integer, got {self.n_cells!r}")
        if self.n_cells < 4:
            raise ValueError(f"n_cells must be >= 4, got {self.n_cells}")
        if not (isinstance(self.length, (int, float)) and math.isfinite(self.length)
                and self.length > 0):
            raise ValueError(f"length must be a positive finite real, got {self.length!r}")
        if self.dx * self.dx == 0.0:  # the operators divide by it
            raise ValueError(f"the cell width {self.dx!r} squares to 0.0: length is too small")

    @property
    def dx(self) -> float:
        return self.length / self.n_cells

    def cell_centers(self) -> np.ndarray:
        import numpy as np

        return (np.arange(self.n_cells, dtype=float) + 0.5) * self.dx

    def integrate(self, f: np.ndarray) -> float | list[float]:
        """Midpoint-rule integral dx * sum(f) over the domain: a float for
        one field (n,), a list of floats, one per row, for a stack (m, n)."""
        import numpy as np

        with np.errstate(over="ignore"):  # an integral beyond the float range is inf
            return (self.dx * np.add.reduce(f, axis=-1)).tolist()


def check_time_resolution(t0: float, t_end: float, dt: float) -> tuple[float, float]:
    """The stop rule of a fixed-step run from t0 to t_end: (t_stop, last_step).

    The run steps while t < t_stop and takes a remainder t_end - t below
    last_step whole: t is a sum of steps and drifts off the dt grid, so a
    remainder within the stop tolerance of dt ends the run on t_end
    (t + (t_end - t) == t_end near t_end) rather than short of it.  The
    tolerance, 1e-12 relative to t_end, is at most half a step and half the
    run, so t0 < t_stop < t_end unless t_end is one float spacing past t0.

    Raises when the run could stall: dt is at most half the float spacing
    at the run's largest |t|, so somewhere on the way t + dt rounds back to
    t and a `t += dt` loop never ends.
    """
    if t0 < t_end and dt <= 0.5 * math.ulp(max(abs(t0), abs(t_end))):
        raise PreconditionError(
            f"dt={dt!r} is below the float resolution of t between {t0!r} and {t_end!r}: "
            f"t + dt would round back to t"
        )
    t_stop = t_end - min(1e-12 * max(abs(t_end), 1.0), 0.5 * dt, 0.5 * (t_end - t0))
    return t_stop, dt + (t_end - t_stop)


@dataclass(frozen=True)
class StepperConfig:
    """The run schedule and its stopping rules: a density above blowup_guard
    ends the run, and steady_tol with steady_window (given together, both
    positive) stop it once the trailing window is stationary."""

    dt: float
    t_end: float
    cfl_safety: float = 0.9
    record_every: int = 1
    blowup_guard: float = 1e8
    steady_tol: float | None = None
    steady_window: float | None = None

    def __post_init__(self) -> None:
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ValueError(f"cfl_safety must lie in (0, 1], got {self.cfl_safety!r}")
        if not (self.t_end >= 0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be nonnegative and finite, got {self.t_end!r}")
        if type(self.record_every) is not int or self.record_every < 1:  # a bool is no int
            raise ValueError(f"record_every must be an integer >= 1, got {self.record_every!r}")
        if not self.blowup_guard > 0:
            raise ValueError(f"blowup_guard must be positive, got {self.blowup_guard!r}")
        if (self.steady_tol is None) != (self.steady_window is None):
            raise ValueError("steady_tol and steady_window must be given together")
        for name in ("steady_tol", "steady_window"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive, got {value!r}")


@dataclass(frozen=True)
class FieldState:
    """Snapshot of the discrete solution triple (u, v, w) at time t: the
    species densities u, v and the quasi-static signal w solved from them,
    (n,) float arrays on one grid.  A plain record: it checks nothing."""

    t: float
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
