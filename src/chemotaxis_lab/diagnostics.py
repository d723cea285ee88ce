"""Trajectory records, norms, tail statistics, and steady-state detection.

The long-time quantities of interest (limsup/liminf of the spatial extrema)
are approximated by trailing-window extrema over a recorded trajectory; the
window width is always explicit in results.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .model import FieldState, PreconditionError
from .steady_states import ConstantState

# The per-sample columns of a trajectory CSV, in order; the CSV header and
# rows and the summary's final block follow this tuple.  w_mean is recorded
# too, for the drift test in detect_steady, but is not written: the CSV
# keeps its documented column set, so existing files and readers stay valid.
TRAJECTORY_COLUMNS = (
    "t", "u_min", "u_max", "u_mean", "v_min", "v_max", "v_mean",
    "w_min", "w_max", "mass_u", "mass_v",
)


@dataclass
class TrajectoryRecord:
    """Time series of per-snapshot summaries emitted by a simulation run.

    Holds, per sample: min/max/mean of each field, the two masses, and the
    sup-distance triple to every configured reference state (keyed by the
    reference label).  Times are strictly increasing.  guard_tripped is None
    for a clean run, otherwise names the guard ("blow_up", "non_finite" or
    "cfl_violation") and the record holds the partial trace up to the trip.
    """

    ref_labels: tuple[str, ...] = ()
    t: list[float] = field(default_factory=list)
    u_min: list[float] = field(default_factory=list)
    u_max: list[float] = field(default_factory=list)
    u_mean: list[float] = field(default_factory=list)
    v_min: list[float] = field(default_factory=list)
    v_max: list[float] = field(default_factory=list)
    v_mean: list[float] = field(default_factory=list)
    w_min: list[float] = field(default_factory=list)
    w_max: list[float] = field(default_factory=list)
    w_mean: list[float] = field(default_factory=list)
    mass_u: list[float] = field(default_factory=list)
    mass_v: list[float] = field(default_factory=list)
    dist: dict[str, list[tuple[float, float, float]]] = field(default_factory=dict)
    guard_tripped: str | None = None
    notes: list[str] = field(default_factory=list)
    clipped_mass: float = 0.0
    stopped_early: bool = False
    final_state: FieldState | None = None

    def __post_init__(self) -> None:
        for label in self.ref_labels:
            self.dist.setdefault(label, [])

    def append_sample(
        self,
        state: FieldState,
        mass_u: float,
        mass_v: float,
        references: tuple[tuple[str, ConstantState], ...] = (),
    ) -> None:
        if self.t and state.t <= self.t[-1]:
            raise ValueError(
                f"sample times must be strictly increasing: {state.t!r} after {self.t[-1]!r}"
            )
        fields = np.array((state.u, state.v, state.w))
        lo, hi, mean = (s.tolist() for s in (fields.min(1), fields.max(1), fields.mean(1)))
        self.t.append(state.t)
        self.u_min.append(lo[0])
        self.u_max.append(hi[0])
        self.u_mean.append(mean[0])
        self.v_min.append(lo[1])
        self.v_max.append(hi[1])
        self.v_mean.append(mean[1])
        self.w_min.append(lo[2])
        self.w_max.append(hi[2])
        self.w_mean.append(mean[2])
        self.mass_u.append(mass_u)
        self.mass_v.append(mass_v)
        if references:
            labels, refs = zip(*references)
            for label, triple in zip(labels, sup_distance(fields, refs)):
                self.dist[label].append(triple)

    @property
    def n_samples(self) -> int:
        return len(self.t)

    @property
    def span(self) -> float:
        return self.t[-1] - self.t[0] if self.t else 0.0


@dataclass(frozen=True)
class TailStats:
    """Trailing-window surrogates for the asymptotic spatial extrema.

    u_hi_tail is the largest recorded spatial max of u over the window (a
    finite-horizon stand-in for limsup_t max_x u), u_lo_tail the smallest
    recorded spatial min (liminf of the min), and likewise for v.
    """

    window: float
    u_hi_tail: float
    u_lo_tail: float
    v_hi_tail: float
    v_lo_tail: float


def sup_distance(
    fields: np.ndarray, refs: Sequence[ConstantState]
) -> list[tuple[float, float, float]]:
    """Per-field sup-norm distances of a snapshot to constant states.

    fields is the snapshot's (3, n) stack with rows u, v, w.  Returns one
    (u, v, w) triple per state, from one array expression.
    """
    levels = np.array([[r.u_star, r.v_star, r.w_star] for r in refs]).reshape(-1, 3, 1)
    return [tuple(d) for d in np.abs(fields - levels).max(axis=2).tolist()]


def _tail_slice(rec: TrajectoryRecord, window: float) -> slice:
    if rec.n_samples == 0:
        raise PreconditionError("record is empty")
    if window <= 0:
        raise PreconditionError(f"window must be positive, got {window!r}")
    if window > rec.span:
        raise PreconditionError(
            f"window {window!r} exceeds the recorded span {rec.span!r}"
        )
    cutoff = rec.t[-1] - window
    times = np.asarray(rec.t)
    start = int(np.searchsorted(times, cutoff, side="left"))
    return slice(start, None)


def tail_stats(rec: TrajectoryRecord, window: float) -> TailStats:
    """Extrema of the recorded per-sample max/min over the trailing window."""
    sl = _tail_slice(rec, window)
    return TailStats(
        window=window,
        u_hi_tail=max(rec.u_max[sl]),
        u_lo_tail=min(rec.u_min[sl]),
        v_hi_tail=max(rec.v_max[sl]),
        v_lo_tail=min(rec.v_min[sl]),
    )


@dataclass(frozen=True)
class SteadyReport:
    steady: bool
    tol: float
    window: float
    certificate: dict[str, float]


def detect_steady(rec: TrajectoryRecord, tol: float, window: float) -> SteadyReport:
    """Decide whether the trailing window looks stationary.

    Steady means: over the window, every field's spatial spread (max - min)
    stays below tol at every sample, and the temporal drift (max - min over
    the window) of every field's spatial mean is below tol.  The
    certificate lists the attained values so a failed check says why.
    """
    sl = _tail_slice(rec, window)

    def spread(hi: list[float], lo: list[float]) -> float:
        return max(h - low for h, low in zip(hi[sl], lo[sl]))

    def drift(mean: list[float]) -> float:
        values = mean[sl]
        return max(values) - min(values)

    certificate = {
        "u_spatial_spread": spread(rec.u_max, rec.u_min),
        "v_spatial_spread": spread(rec.v_max, rec.v_min),
        "w_spatial_spread": spread(rec.w_max, rec.w_min),
        "u_mean_drift": drift(rec.u_mean),
        "v_mean_drift": drift(rec.v_mean),
        "w_mean_drift": drift(rec.w_mean),
    }
    steady = all(value < tol for value in certificate.values())
    return SteadyReport(steady=steady, tol=tol, window=window, certificate=certificate)
