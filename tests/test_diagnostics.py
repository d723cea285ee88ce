import math

import numpy as np
import pytest

from chemotaxis_lab.diagnostics import (
    TrajectoryRecord,
    _tail_slice,
    detect_steady,
    may_be_steady,
    sup_distance,
    tail_stats,
)
from chemotaxis_lab.model import FieldState, PreconditionError
from chemotaxis_lab.steady_states import ConstantState


def stack(state):
    """The (3, n) stack of a snapshot's u, v, w rows that append_sample takes."""
    return np.array((state.u, state.v, state.w))


def levels_of(refs):
    """The (R, 3) reference levels that sup_distance and append_sample take."""
    return np.array([(r.u_star, r.v_star, r.w_star) for r in refs], dtype=float).reshape(-1, 3)


def distances(state, refs):
    """sup_distance of a snapshot to refs, one (u, v, w) tuple per state."""
    fields = stack(state)
    return [tuple(d) for d in sup_distance(fields.min(1), fields.max(1), levels_of(refs)).tolist()]


def record_from_rows(rows):
    """Build a record from (t, u_center, u_halfspread, v_center, v_halfspread)."""
    rec = TrajectoryRecord()
    for t, uc, us, vc, vs in rows:
        fields = np.array([[uc - us, uc + us], [vc - vs, vc + vs], [uc, uc]])
        rec.append_sample(t, fields, mass_u=uc, mass_v=vc)
    return rec


class TestSupDistance:
    def test_zero_at_reference(self):
        ref = ConstantState(u_star=1.0 / 3.0, v_star=1.0 / 3.0, w_star=2.0 / 3.0)
        state = FieldState(
            t=0.0,
            u=np.full(4, 1.0 / 3.0),
            v=np.full(4, 1.0 / 3.0),
            w=np.full(4, 2.0 / 3.0),
        )
        assert distances(state, [ref]) == [(0.0, 0.0, 0.0)]

    def test_constant_offset(self):
        ref = ConstantState(u_star=1.0, v_star=2.0, w_star=3.0)
        state = FieldState(
            t=0.0,
            u=np.full(4, 1.0 + 1.0 / 3.0),
            v=np.full(4, 2.0),
            w=np.full(4, 2.5),
        )
        (d,) = distances(state, [ref])
        assert d == pytest.approx((1.0 / 3.0, 0.0, 0.5), rel=1e-15)

    def test_takes_worst_cell(self):
        ref = ConstantState(u_star=1.0 / 3.0, v_star=0.0, w_star=0.0)
        state = FieldState(
            t=0.0,
            u=np.array([0.0, 1.0]),
            v=np.zeros(2),
            w=np.zeros(2),
        )
        assert distances(state, [ref])[0][0] == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_triangle_inequality_against_second_reference(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            state = FieldState(
                t=0.0,
                u=rng.uniform(0.0, 2.0, 8),
                v=rng.uniform(0.0, 2.0, 8),
                w=rng.uniform(0.0, 2.0, 8),
            )
            r1 = ConstantState(*rng.uniform(0.0, 2.0, 3))
            r2 = ConstantState(*rng.uniform(0.0, 2.0, 3))
            d1, d2 = distances(state, [r1, r2])
            gaps = (
                abs(r1.u_star - r2.u_star),
                abs(r1.v_star - r2.v_star),
                abs(r1.w_star - r2.w_star),
            )
            for a, b, g in zip(d1, d2, gaps):
                assert a <= b + g + 1e-14

    def test_several_references_at_once(self):
        rng = np.random.default_rng(7)
        state = FieldState(
            t=0.0, u=rng.uniform(0.0, 2.0, 8), v=rng.uniform(0.0, 2.0, 8), w=rng.uniform(0.0, 2.0, 8)
        )
        refs = [ConstantState(*rng.uniform(0.0, 2.0, 3)) for _ in range(4)]
        one_at_a_time = [
            tuple(
                float(np.abs(f - level).max())
                for f, level in zip(stack(state), (ref.u_star, ref.v_star, ref.w_star))
            )
            for ref in refs
        ]
        assert distances(state, refs) == one_at_a_time
        assert distances(state, []) == []


class TestTrajectoryRecord:
    def test_rejects_non_increasing_times(self):
        rec = record_from_rows([(0.0, 1.0, 0.0, 1.0, 0.0)])
        with pytest.raises(ValueError, match="strictly increasing"):
            rec.append_sample(0.0, np.ones((3, 2)), 1.0, 1.0)

    def test_sample_statistics_match_each_field(self):
        rng = np.random.default_rng(5)
        state = FieldState(
            t=0.0, u=rng.uniform(0.0, 2.0, 8), v=rng.uniform(0.0, 2.0, 8), w=rng.uniform(0.0, 2.0, 8)
        )
        ref = ConstantState(*rng.uniform(0.0, 2.0, 3))
        rec = TrajectoryRecord(ref_labels=("ref",))
        rec.append_sample(state.t, stack(state), 0.5, 0.25, levels_of([ref]))
        for name in ("u", "v", "w"):
            f = getattr(state, name)
            assert getattr(rec, f"{name}_min") == [float(f.min())]
            assert getattr(rec, f"{name}_max") == [float(f.max())]
            assert getattr(rec, f"{name}_mean") == [float(f.mean())]
        assert (rec.mass_u, rec.mass_v) == ([0.5], [0.25])
        assert rec.dist["ref"] == tuple([d] for d in distances(state, [ref])[0])

    def test_reference_labels_preallocate_series(self):
        rec = TrajectoryRecord(ref_labels=("coexistence",))
        assert rec.dist == {"coexistence": ([], [], [])}

    def test_span_and_n_samples(self):
        rec = record_from_rows(
            [(0.0, 1.0, 0.0, 1.0, 0.0), (2.5, 1.0, 0.0, 1.0, 0.0)]
        )
        assert rec.n_samples == 2
        assert rec.span == 2.5


class TestTailStats:
    def test_constant_series(self):
        rec = record_from_rows([(float(t), 0.5, 0.1, 0.25, 0.05) for t in range(11)])
        ts = tail_stats(rec, window=4.0)
        assert ts.u_hi_tail == pytest.approx(0.6, rel=1e-15)
        assert ts.u_lo_tail == pytest.approx(0.4, rel=1e-15)
        assert ts.v_hi_tail == pytest.approx(0.3, rel=1e-15)
        assert ts.v_lo_tail == pytest.approx(0.2, rel=1e-15)

    def test_decaying_oscillation_converges_to_limit(self):
        third = 1.0 / 3.0
        rows = [
            (float(t), third, math.exp(-float(t)), third, math.exp(-float(t)))
            for t in range(21)
        ]
        ts = tail_stats(record_from_rows(rows), window=5.0)
        assert ts.u_hi_tail == third + math.exp(-15.0)
        assert ts.u_lo_tail == third - math.exp(-15.0)
        assert abs(ts.u_hi_tail - third) < 1e-3

    def test_window_validation(self):
        rec = record_from_rows([(0.0, 1.0, 0.0, 1.0, 0.0), (1.0, 1.0, 0.0, 1.0, 0.0)])
        with pytest.raises(PreconditionError, match="exceeds"):
            tail_stats(rec, window=2.0)
        with pytest.raises(PreconditionError, match="positive"):
            tail_stats(rec, window=0.0)
        with pytest.raises(PreconditionError, match="empty"):
            tail_stats(TrajectoryRecord(), window=1.0)


class TestDetectSteady:
    def test_constant_record_certifies(self):
        rec = record_from_rows([(float(t), 0.5, 0.0, 0.25, 0.0) for t in range(6)])
        report = detect_steady(rec, tol=1e-8, window=3.0)
        assert report.steady
        assert set(report.certificate) == {
            "u_spatial_spread", "v_spatial_spread", "w_spatial_spread",
            "u_mean_drift", "v_mean_drift", "w_mean_drift",
        }
        assert all(value == 0.0 for value in report.certificate.values())

    def test_mean_drift_blocks_certificate(self):
        rec = record_from_rows([(float(t), 0.5 + 0.1 * t, 0.0, 0.25, 0.0) for t in range(6)])
        report = detect_steady(rec, tol=0.05, window=3.0)
        assert not report.steady
        assert report.certificate["u_mean_drift"] == pytest.approx(0.3, rel=1e-12)

    def test_spatial_spread_blocks_certificate(self):
        rec = record_from_rows([(float(t), 0.5, 0.05, 0.25, 0.0) for t in range(6)])
        report = detect_steady(rec, tol=0.01, window=3.0)
        assert not report.steady
        assert report.certificate["u_spatial_spread"] == pytest.approx(0.1, rel=1e-12)

    def test_certificate_bounds_tail_width(self):
        rng = np.random.default_rng(47)
        tol = 1e-2
        certified = 0
        for trial in range(40):
            scale = 1e-4 if trial % 2 == 0 else 0.1
            base_u = float(rng.uniform(0.2, 0.8))
            base_v = float(rng.uniform(0.2, 0.8))
            rows = []
            for t in range(11):
                rows.append(
                    (
                        float(t),
                        base_u + scale * float(rng.uniform(-1.0, 1.0)),
                        scale * float(rng.uniform(0.0, 1.0)),
                        base_v + scale * float(rng.uniform(-1.0, 1.0)),
                        scale * float(rng.uniform(0.0, 1.0)),
                    )
                )
            rec = record_from_rows(rows)
            report = detect_steady(rec, tol=tol, window=5.0)
            if not report.steady:
                continue
            certified += 1
            ts = tail_stats(rec, window=5.0)
            assert ts.u_hi_tail - ts.u_lo_tail <= 3.0 * tol
            assert ts.v_hi_tail - ts.v_lo_tail <= 3.0 * tol
        assert certified >= 10


class TestMayBeSteady:
    """may_be_steady is a necessary condition: False only where
    detect_steady cannot certify, so a stepper that asks it first stops at
    the same sample."""

    def test_never_false_where_detect_steady_certifies(self):
        rng = np.random.default_rng(61)
        tol = 1e-3
        outcomes = set()
        for trial in range(300):
            # Spreads and drifts straddle tol, so both verdicts occur.
            scale = tol * (0.3, 0.6, 1.2)[trial % 3]
            rows = [
                (
                    0.5 * t,
                    0.4 + scale * float(rng.uniform(-1.0, 1.0)),
                    0.5 * scale * float(rng.uniform(0.0, 1.0)),
                    0.3 + scale * float(rng.uniform(-1.0, 1.0)),
                    0.5 * scale * float(rng.uniform(0.0, 1.0)),
                )
                for t in range(12)
            ]
            rec = record_from_rows(rows)
            window = float(rng.choice([0.5, 2.0, 5.5]))
            steady = detect_steady(rec, tol, window).steady
            may = may_be_steady(rec, tol, window)
            assert may or not steady
            outcomes.add((may, steady))
        assert outcomes == {(False, False), (True, False), (True, True)}

    def test_equal_to_tol_at_either_end_rules_out(self):
        # Certificate values must be strictly below tol, and a value equal
        # to tol at the newest sample or across the window's ends is one.
        rec = record_from_rows([(float(t), 0.5, 0.0, 0.25, 0.0) for t in range(4)])
        rec.u_max[-1] += 0.25
        assert not may_be_steady(rec, 0.25, 2.0)
        assert not detect_steady(rec, 0.25, 2.0).steady
        rec = record_from_rows([(float(t), 0.5 + 0.25 * (t == 3), 0.0, 0.25, 0.0) for t in range(4)])
        assert not may_be_steady(rec, 0.25, 2.0)
        assert not detect_steady(rec, 0.25, 2.0).steady
        assert may_be_steady(rec, 0.25 + 1e-12, 2.0)


def cellwise_sup_distance(fields, levels):
    """The cellwise formula sup_distance replaced: max_i |f_i - c| per field."""
    return np.abs(fields - levels.reshape(-1, 3, 1)).max(axis=2)


def same_bits(a, b):
    """Equal arrays, NaN at the same places, and the same sign on every zero."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (
        a.shape == b.shape
        and np.array_equal(nan, np.isnan(b))
        and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64))
    )


class TestExtremaOracles:
    """The sample statistics from the extrema and from one reduction carry
    the bits of the formulas they replaced."""

    def test_sup_distance_matches_cellwise_formula(self):
        rng = np.random.default_rng(2024)
        for trial in range(500):
            n = int(rng.integers(1, 300))
            scale = 10.0 ** rng.uniform(-12, 6)
            fields = rng.uniform(-1.0, 1.0, (3, n)) * scale + rng.uniform(-scale, scale)
            levels = rng.uniform(-2.0, 2.0, (int(rng.integers(1, 5)), 3)) * scale
            # references sitting exactly on a field's minimum or maximum
            levels[0] = fields.min(1) if trial % 2 else fields.max(1)
            if trial % 3 == 0:
                levels = np.vstack([levels, np.zeros(3), np.full(3, fields[0, 0])])
            got = sup_distance(fields.min(1), fields.max(1), levels)
            assert same_bits(got, cellwise_sup_distance(fields, levels))

    def test_sup_distance_zero_is_positive_zero(self):
        fields = np.array([[-0.0, -0.0], [0.0, 0.0], [-0.0, 0.0]])
        for level in (0.0, -0.0):
            levels = np.full((1, 3), level)
            got = sup_distance(fields.min(1), fields.max(1), levels)
            assert same_bits(got, cellwise_sup_distance(fields, levels))
            assert not np.signbit(got).any()

    def test_sup_distance_nan_and_inf_rows(self):
        rng = np.random.default_rng(99)
        specials = (np.nan, np.inf, -np.inf)
        for _ in range(200):
            fields = rng.uniform(0.0, 2.0, (3, 16))
            for _ in range(int(rng.integers(1, 4))):
                fields[rng.integers(0, 3), rng.integers(0, 16)] = specials[rng.integers(0, 3)]
            levels = rng.uniform(0.0, 2.0, (3, 3))
            got = sup_distance(fields.min(1), fields.max(1), levels)
            want = cellwise_sup_distance(fields, levels)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            assert same_bits(got, want)

    def test_sample_means_match_ndarray_mean(self):
        rng = np.random.default_rng(8)
        for n in (2, 7, 8, 9, 127, 128, 129, 1000, 8192, 10007):
            fields = rng.uniform(0.0, 2.0, (3, n)) * 10.0 ** rng.uniform(-8, 8, (3, 1))
            rec = TrajectoryRecord()
            rec.append_sample(0.0, fields, 0.0, 0.0)
            want = fields.mean(1).tolist()
            assert [rec.u_mean[0], rec.v_mean[0], rec.w_mean[0]] == want
            assert [rec.u_min[0], rec.v_min[0], rec.w_min[0]] == fields.min(1).tolist()
            assert [rec.u_max[0], rec.v_max[0], rec.w_max[0]] == fields.max(1).tolist()

    def test_distance_columns_follow_reference_order(self):
        rng = np.random.default_rng(12)
        rec = TrajectoryRecord(ref_labels=("a", "b"))
        levels = rng.uniform(0.0, 2.0, (2, 3))
        stacks = [rng.uniform(0.0, 2.0, (3, 8)) for _ in range(4)]
        for t, fields in enumerate(stacks):
            rec.append_sample(float(t), fields, 0.0, 0.0, levels)
        for i, label in enumerate(("a", "b")):
            for f, column in enumerate(rec.dist[label]):
                assert column == [float(cellwise_sup_distance(s, levels)[i, f]) for s in stacks]


class TestTailSliceStart:
    """The trailing window starts where searchsorted(side="left") puts it."""

    def test_matches_searchsorted_on_ties_and_ends(self):
        rec = record_from_rows([(0.25 * t, 1.0, 0.0, 1.0, 0.0) for t in range(41)])
        times = np.asarray(rec.t)
        windows = [rec.span, rec.span / 2, 0.25, 1e-9, 2.5 + 1e-12, 2.5 - 1e-12, 9.75]
        windows += [rec.t[-1] - c for c in rec.t[:-1]]  # every cutoff a recorded time
        for window in windows:
            cutoff = rec.t[-1] - window
            want = int(np.searchsorted(times, cutoff, side="left"))
            assert _tail_slice(rec, window).start == want
        assert _tail_slice(rec, rec.span).start == 0
        assert _tail_slice(rec, 1e-9).start == rec.n_samples - 1
