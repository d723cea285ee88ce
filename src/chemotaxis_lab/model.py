"""Core data types: model coefficients, the 1-D grid, the stepper's run
schedule and its stability error, field snapshots, positive/negative parts.

Everything downstream (hypothesis checks, bound constants, the PDE stepper,
the comparison ODE system) consumes these types.  All values are 64-bit
floats; types are immutable after construction.  Nothing here needs SciPy,
so the CLI can build and validate a whole config without importing it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


class DegenerateStateError(PreconditionError):
    """A closed-form state or condition hit a zero/nonpositive denominator."""


class HypothesisViolationError(PreconditionError):
    """A bound formula was requested for parameters outside its hypothesis."""


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
_SIGNED_FIELDS = ("a2", "a3", "a4", "b1", "b3", "b4")


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

    @property
    def dx(self) -> float:
        return self.length / self.n_cells

    def cell_centers(self) -> np.ndarray:
        return (np.arange(self.n_cells, dtype=float) + 0.5) * self.dx

    def integrate(self, f: np.ndarray) -> float | list[float]:
        """Midpoint-rule integral dx * sum(f) over the domain: a float for
        one field (n,), a list of floats, one per row, for a stack (m, n)."""
        return (self.dx * np.add.reduce(f, axis=-1)).tolist()


def check_time_resolution(t0: float, t_end: float, dt: float) -> tuple[float, float]:
    """The stop rule of a fixed-step run from t0 to t_end: (t_stop, last_step).

    The run steps while t < t_stop and takes a remainder t_end - t below
    last_step whole: t is a sum of steps and drifts off the dt grid, so a
    remainder within the stop tolerance of dt ends the run on t_end
    (t + (t_end - t) == t_end near t_end) rather than short of it.

    Raises when the run could stall: dt is at most half the float spacing
    at the run's largest |t|, so somewhere on the way t + dt rounds back to
    t and a `t += dt` loop never ends.
    """
    if t0 < t_end and dt <= 0.5 * math.ulp(max(abs(t0), abs(t_end))):
        raise PreconditionError(
            f"dt={dt!r} is below the float resolution of t between {t0!r} and {t_end!r}: "
            f"t + dt would round back to t"
        )
    t_stop = t_end - 1e-12 * max(abs(t_end), 1.0)
    return t_stop, dt + (t_end - t_stop)


class CflViolationError(RuntimeError):
    """The configured dt violates an explicit stability constraint."""

    def __init__(self, binding: str, dt: float, suggested_dt: float):
        self.binding = binding
        self.dt = dt
        self.suggested_dt = suggested_dt
        super().__init__(
            f"dt={dt!r} violates the {binding} constraint; "
            f"largest admissible dt here is {suggested_dt!r}"
        )


@dataclass(frozen=True)
class StepperConfig:
    """The run schedule and its stopping rules: a density above blowup_guard
    ends the run, and steady_tol with steady_window (given together) stop it
    once the trailing window is stationary."""

    dt: float
    t_end: float
    cfl_safety: float = 0.9
    positivity_clip: bool = False
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
        if not isinstance(self.record_every, int) or self.record_every < 1:
            raise ValueError(f"record_every must be an integer >= 1, got {self.record_every!r}")
        if not self.blowup_guard > 0:
            raise ValueError(f"blowup_guard must be positive, got {self.blowup_guard!r}")
        if (self.steady_tol is None) != (self.steady_window is None):
            raise ValueError("steady_tol and steady_window must be given together")


def _as_field(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class FieldState:
    """Snapshot of the discrete solution triple (u, v, w) at time t.

    u and v are the species densities, w the quasi-static signal solved
    from them.
    """

    t: float
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", _as_field(self.u, "u"))
        object.__setattr__(self, "v", _as_field(self.v, "v"))
        object.__setattr__(self, "w", _as_field(self.w, "w"))
        n = self.u.shape[0]
        if self.v.shape[0] != n or self.w.shape[0] != n:
            raise ValueError(
                f"u, v, w must share one grid: lengths "
                f"{self.u.shape[0]}, {self.v.shape[0]}, {self.w.shape[0]}"
            )

    @property
    def n_cells(self) -> int:
        return self.u.shape[0]
