"""Trajectory records, norms, tail statistics, and steady-state detection.

The long-time quantities of interest (limsup/liminf of the spatial extrema)
are approximated by trailing-window extrema over a recorded trajectory; the
window width is always explicit in results.
"""
from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass, field

from .model import FieldState, PreconditionError, float_column

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

    Holds, per sample: min/max/mean of each field and the two masses; the
    sup-distances to a constant state follow from the extrema (distances).
    Every column is a packed float64 array('d') (see float_column), 8 bytes
    a sample.  Times are strictly increasing.  guard_tripped is None for a
    clean run, otherwise names the guard ("blow_up", "non_finite" or
    "cfl_violation") and the record holds the partial trace up to the trip.
    steps counts the steps the run took; stationary_from_t is the time from
    which a full step left u, v and w unchanged bit for bit, None if none
    did.
    """

    t: array = field(default_factory=float_column)
    u_min: array = field(default_factory=float_column)
    u_max: array = field(default_factory=float_column)
    u_mean: array = field(default_factory=float_column)
    v_min: array = field(default_factory=float_column)
    v_max: array = field(default_factory=float_column)
    v_mean: array = field(default_factory=float_column)
    w_min: array = field(default_factory=float_column)
    w_max: array = field(default_factory=float_column)
    w_mean: array = field(default_factory=float_column)
    mass_u: array = field(default_factory=float_column)
    mass_v: array = field(default_factory=float_column)
    guard_tripped: str | None = None
    notes: list[str] = field(default_factory=list)
    stopped_early: bool = False
    steps: int = 0
    stationary_from_t: float | None = None
    final_state: FieldState | None = None

    def append_sample(self, t: float, fields: np.ndarray, mass_u: float, mass_v: float) -> None:
        """Record the (3, n) stack fields (rows u, v, w) at time t: a block
        of one sample (see append_block)."""
        import numpy as np

        self.append_block([t], np.asarray(fields)[None], [(mass_u, mass_v)])

    def append_block(self, t: list[float], fields: np.ndarray, mass: np.ndarray) -> None:
        """Record k samples: their k times t, the (k, 3, n) stack fields
        (rows u, v, w of each sample) and the (k, 2) masses (mass_u, mass_v).

        Each statistic is one reduction over the block, so a block gives
        every sample the bits it would get alone.
        """
        import numpy as np

        last = self.t[-1] if self.t else None
        for s in t:
            if last is not None and s <= last:
                raise ValueError(
                    f"sample times must be strictly increasing: {s!r} after {last!r}"
                )
            last = s
        lo = np.minimum.reduce(fields, axis=2)
        hi = np.maximum.reduce(fields, axis=2)
        # ndarray.mean is this sum over the count, without its Python wrapper.
        mean = np.add.reduce(fields, axis=2) / fields.shape[2]
        self.t.extend(t)
        columns = [
            self.u_min, self.v_min, self.w_min, self.u_max, self.v_max, self.w_max,
            self.u_mean, self.v_mean, self.w_mean, self.mass_u, self.mass_v,
        ]
        series = [lo, hi, mean, np.asarray(mass, dtype=float)]
        # The columns of the (k, C) block, each copied as raw doubles: no
        # Python float is made per value.
        for column, values in zip(columns, np.concatenate(series, axis=1).T):
            column.frombytes(values.tobytes())

    def distances(self, level: tuple[float, float, float]) -> tuple[array, array, array]:
        """The columns (du, dv, dw) of every sample's sup-distance to the
        constant state level = (u*, v*, w*), from the recorded extrema: one
        sup_distance call per field over the whole column, its result copied
        in as raw doubles into a packed column like the record's own."""
        import numpy as np

        extrema = zip((self.u_min, self.v_min, self.w_min), (self.u_max, self.v_max, self.w_max))
        return tuple(
            array("d", sup_distance(np.frombuffer(lo), np.frombuffer(hi), c).tobytes())
            for (lo, hi), c in zip(extrema, level)
        )

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


def sup_distance(lo: np.ndarray, hi: np.ndarray, levels: np.ndarray | float) -> np.ndarray:
    """Sup-norm distances of fields to constant levels.

    lo and hi are the fields' minima and maxima, and levels the constants c,
    broadcast against them: one field's extrema over k samples and a scalar
    give k distances, (3,) extrema and (R, 3) levels give (R, 3).  Returns
    max_i |f_i - c| without a pass over the cells: fl(x - c) is monotone in
    x and fl(c - x) = -fl(x - c), so the largest |f_i - c| is hi - c or
    c - lo, bit for bit.  NaN propagates as in a cellwise maximum, and the
    abs keeps a zero distance +0.0.
    """
    import numpy as np

    return np.abs(np.maximum(hi - levels, levels - lo))


def _tail_slice(rec: TrajectoryRecord, window: float) -> slice:
    if rec.n_samples == 0:
        raise PreconditionError("record is empty")
    if window <= 0:
        raise PreconditionError(f"window must be positive, got {window!r}")
    if window > rec.span:
        raise PreconditionError(
            f"window {window!r} exceeds the recorded span {rec.span!r}"
        )
    # rec.t is sorted (append_block enforces it), so bisect finds the
    # window's first sample without converting the list to an array.
    return slice(bisect.bisect_left(rec.t, rec.t[-1] - window), None)


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

    def spread(hi: array, lo: array) -> float:
        return max(h - low for h, low in zip(hi[sl], lo[sl]))

    def drift(mean: array) -> float:
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


def may_be_steady(rec: TrajectoryRecord, tol: float, window: float) -> bool:
    """False when detect_steady(rec, tol, window) cannot be steady, found
    without a pass over the window: the newest sample's three spatial
    spreads and each spatial mean's change from the window's first sample
    to its last must all be below tol.  Float subtraction is monotone in
    each operand, so each of these is at most the certificate value it
    stands for (a maximum over the window, or max - min of values that
    include both ends), bit for bit."""
    first = _tail_slice(rec, window).start
    return (
        rec.u_max[-1] - rec.u_min[-1] < tol
        and rec.v_max[-1] - rec.v_min[-1] < tol
        and rec.w_max[-1] - rec.w_min[-1] < tol
        and abs(rec.u_mean[-1] - rec.u_mean[first]) < tol
        and abs(rec.v_mean[-1] - rec.v_mean[first]) < tol
        and abs(rec.w_mean[-1] - rec.w_mean[first]) < tol
    )
