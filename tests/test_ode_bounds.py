import hashlib
import itertools
import math
import random
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from chemotaxis_lab import ode_bounds
from chemotaxis_lab.diagnostics import TrajectoryRecord
from chemotaxis_lab.model import BLOWUP_GUARD, Grid1D, PreconditionError, negative_part, positive_part
from chemotaxis_lab.ode_bounds import (
    EnclosureReport,
    RectangleState,
    RectangleTrace,
    check_enclosure,
    integrate_rectangles,
    rectangle_rhs,
)
from chemotaxis_lab.steady_states import linf_bounds
from helpers import coexistence_params, exclusion_params, mk_params, traced_peak


def make_pde_trace(samples):
    """Synthetic trajectory record from (t, u_lo, u_hi, v_lo, v_hi) rows."""
    rec = TrajectoryRecord()
    for t, u_lo, u_hi, v_lo, v_hi in samples:
        fields = np.array([[u_lo, u_hi], [v_lo, v_hi], [0.0, 0.0]])
        rec.append_sample(t, fields, mass_u=0.0, mass_v=0.0)
    return rec


def box_trace(n):
    """Rectangle trace holding the box [0, 1] x [0, 1] at n sample times."""
    return RectangleTrace(boxes=[1.0, 0.0, 1.0, 0.0] * n)


class TestRectangleRhs:
    def test_signal_term_hand_value(self):
        assert rectangle_rhs(mk_params(chi1=1.0))(1.0, 1.0, 1.0, 0.0) == (1.0, -1.0, 0.0, 0.0)

    def test_signed_part_hand_value(self):
        p = mk_params(a0=1.0, a1=3.0, a2=-2.0, a3=1.0, a4=1.0, omega_measure=2.0)
        assert rectangle_rhs(p)(2.0, 1.0, 3.0, 0.5) == (-4.0, -11.0, -6.0, 0.25)

    def test_diagonal_recombines_to_interaction_ode(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            p = mk_params(
                a0=float(rng.uniform(0.1, 2.0)),
                b0=float(rng.uniform(0.1, 2.0)),
                a1=float(rng.uniform(0.5, 3.0)),
                b2=float(rng.uniform(0.5, 3.0)),
                a2=float(rng.uniform(-1.0, 1.0)),
                b1=float(rng.uniform(-1.0, 1.0)),
                a3=float(rng.uniform(-0.5, 0.5)),
                a4=float(rng.uniform(-0.5, 0.5)),
                b3=float(rng.uniform(-0.5, 0.5)),
                b4=float(rng.uniform(-0.5, 0.5)),
                chi1=float(rng.uniform(0.0, 1.0)),
                chi2=float(rng.uniform(0.0, 1.0)),
                omega_measure=float(rng.uniform(0.5, 2.0)),
            )
            u = float(rng.uniform(0.0, 2.0))
            v = float(rng.uniform(0.0, 2.0))
            d_uhi, d_ulo, d_vhi, d_vlo = rectangle_rhs(p)(u, u, v, v)
            assert d_uhi == d_ulo
            assert d_vhi == d_vlo
            w = p.omega_measure
            ru = u * (p.a0 - (p.a1 + w * p.a3) * u - (p.a2 + w * p.a4) * v)
            rv = v * (p.b0 - (p.b1 + w * p.b3) * u - (p.b2 + w * p.b4) * v)
            assert d_uhi == pytest.approx(ru, rel=1e-13, abs=1e-13)
            assert d_vhi == pytest.approx(rv, rel=1e-13, abs=1e-13)


class TestIntegrateRectangles:
    def test_input_validation(self):
        s = RectangleState(t=0.0, u_hi=1.0, u_lo=0.5, v_hi=1.0, v_lo=0.5)
        for spacing in (0.0, -1e-3, math.nan):
            with pytest.raises(ValueError, match="spacing"):
                integrate_rectangles(s, mk_params(), (s.t, 1.0), spacing)
        bad_order = RectangleState(t=0.0, u_hi=0.5, u_lo=1.0, v_hi=1.0, v_lo=0.5)
        with pytest.raises(PreconditionError, match="ordered"):
            integrate_rectangles(bad_order, mk_params(), (bad_order.t, 1.0), 1e-3)
        negative = RectangleState(t=0.0, u_hi=1.0, u_lo=-0.1, v_hi=1.0, v_lo=0.5)
        with pytest.raises(PreconditionError, match="nonnegative"):
            integrate_rectangles(negative, mk_params(), (negative.t, 1.0), 1e-3)
        with pytest.raises(ValueError, match="times must start at s0.t"):
            integrate_rectangles(s, mk_params(), (0.5, 1.0), 1e-3)

    def test_columns_take_about_eight_bytes_a_value(self):
        # The README run: perturbed_constant [0.5, 0.5, 0.1] on 128 cells,
        # rectangles to t = 200 at a row spacing of 1e-2.  A packed double
        # is 8 bytes; a list of Python floats took about 34.
        wave = 0.1 * np.cos(math.pi * Grid1D(length=1.0, n_cells=128).cell_centers())
        u0, v0 = 0.5 + wave, 0.5 - wave
        s0 = RectangleState(0.0, float(u0.max()), float(u0.min()), float(v0.max()), float(v0.min()))

        def run():
            return integrate_rectangles(s0, coexistence_params(0.1), (s0.t, 200.0), 1e-2)

        run()
        trace, peak = traced_peak(run)
        assert len(trace.t) == 20_001 and trace.guard_tripped is None
        assert peak <= 1.25 * 8 * 5 * len(trace.t)

    def test_dt_just_above_half_spacing_advances(self):
        # Rows about 500 float spacings apart over a span of 8192: the run
        # ends, and its row times increase strictly.
        s0 = RectangleState(t=1.0, u_hi=0.6, u_lo=0.4, v_hi=0.6, v_lo=0.4)
        t_end = 1.0 + 8192 * math.ulp(1.0)
        dt = math.nextafter(0.5 * math.ulp(1.0), 1.0)
        trace = integrate_rectangles(s0, mk_params(), (s0.t, t_end), dt * 1000)
        assert trace.t[-1] > 1.0
        assert trace.t.tolist() == sorted(set(trace.t))

    def test_spacing_below_the_minimum_step_raises(self):
        # The first step is the row spacing, so a spacing below the guard's
        # MIN_STEP_ULPS float spacings of the run's largest |t| is refused;
        # at exactly that many the first step passes the guard.
        s0 = RectangleState(t=1.0, u_hi=0.6, u_lo=0.4, v_hi=0.6, v_lo=0.4)
        t_end = 1.0 + 64 * math.ulp(1.0)
        smallest = ode_bounds.MIN_STEP_ULPS * math.ulp(t_end)
        with pytest.raises(PreconditionError, match="float resolution"):
            integrate_rectangles(s0, mk_params(), (s0.t, t_end), math.nextafter(smallest, 0.0))
        trace = integrate_rectangles(s0, mk_params(), (s0.t, t_end), smallest)
        assert trace.guard_tripped is None and trace.steps >= 1
        assert trace.t[1] == 1.0 + smallest and trace.t[-1] == t_end

    def test_diagonal_stays_diagonal(self):
        p = coexistence_params(0.1)
        s0 = RectangleState(t=0.0, u_hi=0.6, u_lo=0.6, v_hi=0.4, v_lo=0.4)
        trace = integrate_rectangles(s0, p, (s0.t, 20.0), 0.1)
        gaps_u = np.array(trace.u_hi) - np.array(trace.u_lo)
        gaps_v = np.array(trace.v_hi) - np.array(trace.v_lo)
        assert np.max(np.abs(gaps_u)) <= 1e-12
        assert np.max(np.abs(gaps_v)) <= 1e-12

    def test_ordering_is_preserved(self):
        p = coexistence_params(0.1)
        s0 = RectangleState(t=0.0, u_hi=1.5, u_lo=0.2, v_hi=1.2, v_lo=0.1)
        trace = integrate_rectangles(s0, p, (s0.t, 50.0), 0.05)
        for u_hi, u_lo, v_hi, v_lo in zip(trace.u_hi, trace.u_lo, trace.v_hi, trace.v_lo):
            assert u_lo <= u_hi + 1e-9
            assert v_lo <= v_hi + 1e-9

    def test_diagonal_matches_reference_integrator(self):
        p = coexistence_params(0.0)

        def deriv(_t, y):
            u, v = y
            return [u * (1.0 - 2.0 * u - v), v * (1.0 - u - 2.0 * v)]

        sol = solve_ivp(
            deriv, (0.0, 10.0), [0.2, 0.6],
            rtol=1e-12, atol=1e-14, dense_output=True,
        )
        s0 = RectangleState(t=0.0, u_hi=0.2, u_lo=0.2, v_hi=0.6, v_lo=0.6)
        trace = integrate_rectangles(s0, p, (s0.t, 10.0), 0.1)
        for t, u_hi, v_hi in zip(trace.t, trace.u_hi, trace.v_hi):
            u_ref, v_ref = sol.sol(t)
            assert abs(u_hi - u_ref) <= 1e-9
            assert abs(v_hi - v_ref) <= 1e-9

    def test_components_respect_sup_caps(self):
        p = coexistence_params(0.1)
        s0 = RectangleState(t=0.0, u_hi=2.0, u_lo=1.0, v_hi=2.0, v_lo=1.0)
        trace = integrate_rectangles(s0, p, (s0.t, 100.0), 0.1)
        bc = linf_bounds(p, s0.u_hi, s0.v_hi)
        assert max(trace.u_hi) <= bc["sup_cap_u"] * (1.0 + 1e-6)
        assert max(trace.v_hi) <= bc["sup_cap_v"] * (1.0 + 1e-6)
        assert trace.guard_tripped is None

    def test_contracts_to_coexistence_point(self):
        p = coexistence_params(0.1)
        s0 = RectangleState(t=0.0, u_hi=2.0, u_lo=1.0, v_hi=2.0, v_lo=1.0)
        trace = integrate_rectangles(s0, p, (s0.t, 100.0), 0.1)
        third = 1.0 / 3.0
        assert abs(trace.u_hi[-1] - third) < 1e-8
        assert abs(trace.u_lo[-1] - third) < 1e-8
        assert abs(trace.v_hi[-1] - third) < 1e-8

    def test_divergence_guard_keeps_partial_trace(self):
        p = mk_params(chi1=10.0)
        s0 = RectangleState(t=0.0, u_hi=2.0, u_lo=0.0, v_hi=1.0, v_lo=1.0)
        trace = integrate_rectangles(s0, p, (s0.t, 1.0), 1e-3)
        assert trace.guard_tripped == "blow_up"
        assert trace.t[-1] < 1.0
        assert any("divergence guard" in note for note in trace.notes)


class TestCheckEnclosure:
    def test_containment_with_slack(self):
        pde = make_pde_trace([(0.0, 0.2, 0.8, 0.2, 0.8), (1.0, 0.3, 0.7, 0.3, 0.7)])
        report = check_enclosure(pde, box_trace(2), tol=1e-3)
        assert report.passed
        assert report.worst_violation == pytest.approx(-0.2 - 1e-3, rel=1e-12)
        assert report.n_times == 2

    def test_violation_is_located(self):
        pde = make_pde_trace([(0.0, 0.2, 0.8, 0.2, 0.8), (1.0, 0.2, 1.2, 0.2, 0.8)])
        report = check_enclosure(pde, box_trace(2), tol=1e-3)
        assert not report.passed
        assert report.worst_time == 1.0
        assert report.worst_violation == pytest.approx(0.2 - 1e-3, rel=1e-12)

    def test_uncovered_samples_are_flagged(self):
        # A trace with fewer boxes than samples, as one that ended early,
        # compares the samples it reached; the sample after them is not
        # compared, whatever it holds.
        pde = make_pde_trace([(0.0, 0.2, 0.8, 0.2, 0.8), (2.0, 0.0, 5.0, 0.0, 5.0)])
        report = check_enclosure(pde, box_trace(1), tol=1e-3)
        # inside where compared, but the claim is an enclosure for all time
        assert not report.passed and report.worst_violation < 0.0
        assert (report.n_times, report.n_samples) == (1, 2)

    def test_nan_sample_is_the_worst(self):
        # A NaN density wins over a later, finite violation, and is reported
        # at its own time.
        pde = make_pde_trace([(0.0, 0.2, 0.8, 0.2, 0.8), (1.0, math.nan, 0.8, 0.2, 0.8),
                              (2.0, 0.2, 1.5, 0.2, 0.8)])
        report = check_enclosure(pde, box_trace(3), tol=1e-3)
        assert math.isnan(report.worst_violation)
        assert report.worst_time == 1.0
        assert not report.passed

    def test_input_validation(self):
        pde = make_pde_trace([(0.0, 0.2, 0.8, 0.2, 0.8)])
        for tol in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="tol"):
                check_enclosure(pde, box_trace(1), tol=tol)


def numpy_check_enclosure(pde_trace, rect_trace, tol):
    """check_enclosure as written with NumPy: np.maximum.reduce over the
    four excesses of each sample over its box, np.argmax over the samples
    the boxes reach.  The oracle of TestEnclosureMatchesNumpy."""
    if not (tol >= 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be nonnegative and finite, got {tol!r}")
    notes = []
    if rect_trace.guard_tripped is not None:
        notes.append(f"rectangle trace ended early: guard_tripped={rect_trace.guard_tripped!r}")
        notes.extend(rect_trace.notes)
    u_hi, u_lo, v_hi, v_lo = np.asarray(rect_trace.boxes, dtype=float).reshape(-1, 4).T
    n = u_hi.size
    u_min, u_max, v_min, v_max = (
        np.asarray(getattr(pde_trace, c), dtype=float)[:n] for c in ("u_min", "u_max", "v_min", "v_max")
    )
    with np.errstate(all="ignore"):  # inf - inf in a blown-up trace
        excess = np.maximum.reduce(
            [(u_lo - u_min) - tol, (u_max - u_hi) - tol, (v_lo - v_min) - tol, (v_max - v_hi) - tol]
        )
    worst_idx = int(np.argmax(excess))
    worst = float(excess[worst_idx])
    n_samples = len(pde_trace.t)
    return EnclosureReport(
        passed=n == n_samples and worst <= 0.0, tol=tol, worst_violation=worst,
        worst_time=float(pde_trace.t[worst_idx]), n_times=n, n_samples=n_samples, notes=tuple(notes),
    )


def columns_trace(rows):
    """A trajectory record holding only the columns check_enclosure reads,
    from (t, u_min, u_max, v_min, v_max) rows."""
    rec = TrajectoryRecord()
    for row in rows:
        for name, value in zip(("t", "u_min", "u_max", "v_min", "v_max"), row):
            getattr(rec, name).append(value)
    return rec


def box_at(trace, i):
    """The box (u_hi, u_lo, v_hi, v_lo) at the trace's i-th sample time."""
    return tuple(trace.boxes[4 * i:4 * i + 4])


class TestEnclosureMatchesNumpy:
    """check_enclosure gives the NumPy oracle's report, compared by repr,
    which tells -0.0 from 0.0 and writes NaN as nan."""

    def assert_same(self, pde, rect, tol):
        report = check_enclosure(pde, rect, tol)
        assert repr(report) == repr(numpy_check_enclosure(pde, rect, tol))
        return report

    @pytest.mark.parametrize("seed", range(12))
    def test_random_traces(self, seed):
        rng = random.Random(seed)
        n = rng.choice((1, 2, 3, 17, 200))
        times = [rng.uniform(-1.0, 1.0)]
        for _ in range(n - 1):
            times.append(times[-1] + rng.choice((1e-3, 0.1, rng.uniform(1e-6, 1.0))))
        special = (math.inf, -math.inf, math.nan, 0.0, -0.0, 1e308)

        def value():
            return rng.choice(special) if rng.random() < 0.05 else rng.uniform(-2.0, 2.0)

        pde = columns_trace([(t, value(), value(), value(), value()) for t in times])
        guard = rng.choice((None, "blow_up"))
        # a trace that ended early reaches a prefix of the samples
        reached = rng.randint(1, n) if guard else n
        rect = RectangleTrace(boxes=[value() for _ in range(4 * reached)], guard_tripped=guard,
                              notes=[f"seed {seed}"] if guard else [])
        for tol in (0.0, 1e-3, rng.uniform(0.0, 0.5)):
            self.assert_same(pde, rect, tol)

    def test_blown_up_rectangle(self):
        # the rectangle trips near t = 1e-200, before the second sample
        # time: only the box at t = 0 is reached
        times = (0.0, 2.5e-4, 5e-4, 1e-3, 2e-3)
        rect = integrate_rectangles(RectangleState(0.0, 1.0, 0.0, 0.0, 0.0), mk_params(chi1=1e200), times, 1e-3)
        assert rect.guard_tripped == "blow_up"
        assert box_at(rect, 0) == (1.0, 0.0, 0.0, 0.0) and len(rect.boxes) == 4
        rows = [(t, 0.1, 0.9, 0.0, 0.5) for t in times]
        assert self.assert_same(columns_trace(rows), rect, 1e-3).n_times == 1
        # Boxes holding inf, against a PDE at inf too: at t = 0.25 an
        # infinite u_max over a finite box is an excess of inf, at t = 0.5
        # inf - inf is a NaN excess, which wins over it.
        inf = math.inf
        rect = RectangleTrace(boxes=[1.0, 0.0, 1.0, 0.0, 2.0, 0.0, inf, 0.0, inf, -inf, inf, 0.0,
                                     inf, -inf, inf, 0.0], guard_tripped="blow_up")
        rows = [(0.0, 0.1, 0.9, 0.1, 0.9), (0.25, 0.1, inf, 0.1, 0.9), (0.5, 0.1, 0.9, 0.1, inf),
                (1.0, inf, inf, 0.1, 0.9), (1.25, 0.1, 0.9, 0.1, 0.9)]
        report = self.assert_same(columns_trace(rows), rect, 1e-3)
        assert report.n_times == 4 and math.isnan(report.worst_violation) and report.worst_time == 0.5

    @staticmethod
    def trip_time(rect):
        """The time of the step past the guard, from the trace's note."""
        return float(re.search(r"at t=(\S+) with", rect.notes[0])[1])

    def test_tripping_interval_is_left_out(self):
        # The rectangle's last accepted state lies near t = 0.276; the step
        # past the guard ends about 1e-11 later, at the time its note gives.
        # A PDE sample in that interval with u_max = 1e3 lies past the last
        # accepted time and is not compared; a sample at that time is.
        s0, p = RectangleState(0.0, 0.6, 0.4, 0.6, 0.4), coexistence_params(5.0)
        first = integrate_rectangles(s0, p, (0.0, 0.5), 1e-2)
        t_last, t_trip = first.t[-1], self.trip_time(first)
        assert first.guard_tripped == "blow_up" and 0.27 < t_last < t_trip < 0.28
        inside = 0.5 * (t_last + t_trip)
        times = (0.0, 0.25, t_last, inside, 0.3)
        rect = integrate_rectangles(s0, p, times, 1e-2)
        assert (rect.t, rect.u_hi, rect.notes) == (first.t, first.u_hi, first.notes)
        assert len(rect.boxes) == 3 * 4
        assert 25.0 < box_at(rect, 2)[0] <= BLOWUP_GUARD
        pde = columns_trace([(0.0, 0.45, 0.55, 0.45, 0.55), (0.25, 0.45, 0.55, 0.45, 0.55),
                             (t_last, 0.45, 0.55, 0.45, 0.55), (inside, 0.45, 1e3, 0.45, 0.55),
                             (0.3, 0.45, 0.55, 0.45, 0.55)])
        report = self.assert_same(pde, rect, 1e-3)
        assert not report.passed and report.worst_violation < 0.0 and report.n_times == 3
        assert report.notes == ("rectangle trace ended early: guard_tripped='blow_up'", *rect.notes)

    def test_collapsed_run_compares_its_last_row(self):
        # From t = 1 the rectangle blows up about 1e-11 later.  The step
        # size falls below four float spacings of t with u_hi near 98, well
        # inside the guard, at the last accepted time; a PDE sample at that
        # time with u_max = 2 * u_hi fails there, and a later one is not
        # compared.
        s0, p = RectangleState(1.0, 1.0, 0.0, 0.0, 0.0), mk_params(chi1=1e11)
        t_last = integrate_rectangles(s0, p, (1.0, 2.0), 1e-3).t[-1]
        rect = integrate_rectangles(s0, p, (1.0, t_last, 1.5), 1e-3)
        assert rect.guard_tripped == "blow_up"
        assert rect.notes[0].startswith("rectangle step size ")
        u_last = box_at(rect, 1)[0]
        assert 1.0 < t_last < 1.0 + 1e-11 and 50.0 < u_last < BLOWUP_GUARD
        pde = columns_trace([(1.0, 0.0, 1.0, 0.0, 0.0), (t_last, 0.0, 2.0 * u_last, 0.0, 0.0),
                             (1.5, 0.0, 1.0, 0.0, 0.0)])
        report = self.assert_same(pde, rect, 1e-3)
        assert not report.passed and report.n_times == 2
        assert (report.worst_time, report.worst_violation) == (t_last, u_last - 1e-3)

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_ties_and_signed_zeros(self, order):
        # With tol = 0 each excess is -0.0 (rectangle -0.0 against density
        # 0.0), 0.0, or negative, per slot and per sample; three samples
        # cover every pattern of zero ties within and between samples.
        rect = RectangleTrace(boxes=[0.0, -0.0, 0.0, -0.0] * 3)
        patterns = list(itertools.product((-0.0, 0.0, -1.0), repeat=4))
        worst = set()
        for start in range(0, len(patterns) - 2, 7):
            picked = [patterns[start + i] for i in order]
            # The lower slots read -0.0 - (-x) and the upper ones x - 0.0.
            rows = [(t, -a, b, -c, d) for t, (a, b, c, d) in zip((0.0, 1.0, 2.0), picked)]
            worst.add(repr(self.assert_same(columns_trace(rows), rect, 0.0).worst_violation))
        assert worst == {"-0.0", "0.0"}


def reference_rk4(s0, p, t_end, dt, record_every):
    """Textbook fixed-step RK4 for the rectangle system, the right-hand
    side written out, recording every record_every-th step and the last
    one, and stopping on the state before a step past the divergence
    guard, whose time and state go into the note.  Returns the recorded
    (t, u_hi, u_lo, v_hi, v_lo) rows, the guard status and the notes."""
    w = p.omega_measure
    c1, c2, k, l, a0, b0 = p.chi1 / p.d3, p.chi2 / p.d3, p.k, p.l, p.a0, p.b0
    a_self = p.a1 - w * negative_part(p.a3)
    a_self_opp = w * positive_part(p.a3)
    a_cross_up = negative_part(p.a2) + w * negative_part(p.a4)
    a_cross_down = positive_part(p.a2) + w * positive_part(p.a4)
    b_self = p.b2 - w * negative_part(p.b4)
    b_self_opp = w * positive_part(p.b4)
    b_cross_up = negative_part(p.b1) + w * negative_part(p.b3)
    b_cross_down = positive_part(p.b1) + w * positive_part(p.b3)

    def f(y):
        u_hi, u_lo, v_hi, v_lo = y
        signal_hi = k * u_hi + l * v_hi - k * u_lo - l * v_lo
        signal_lo = k * u_lo + l * v_lo - k * u_hi - l * v_hi
        return (
            c1 * u_hi * signal_hi
            + u_hi * (a0 - a_self * u_hi - a_self_opp * u_lo)
            + u_hi * (a_cross_up * v_hi - a_cross_down * v_lo),
            c1 * u_lo * signal_lo
            + u_lo * (a0 - a_self * u_lo - a_self_opp * u_hi)
            + u_lo * (a_cross_up * v_lo - a_cross_down * v_hi),
            c2 * v_hi * signal_hi
            + v_hi * (b0 - b_self * v_hi - b_self_opp * v_lo)
            + v_hi * (b_cross_up * u_hi - b_cross_down * u_lo),
            c2 * v_lo * signal_lo
            + v_lo * (b0 - b_self * v_lo - b_self_opp * v_hi)
            + v_lo * (b_cross_up * u_lo - b_cross_down * u_hi),
        )

    t, y = s0.t, (s0.u_hi, s0.u_lo, s0.v_hi, s0.v_lo)
    rows = [(t, *y)]
    guard, notes = None, []
    # The stop tolerance, at most half a step and half the run.
    t_stop = t_end - min(1e-12 * max(abs(t_end), 1.0), 0.5 * dt, 0.5 * (t_end - t))
    steps = 0
    while t < t_stop:
        # A remainder within the stop tolerance of dt is taken whole.
        h = t_end - t if t_end - t < dt + (t_end - t_stop) else dt
        k1 = f(y)
        k2 = f(tuple(y[i] + 0.5 * h * k1[i] for i in range(4)))
        k3 = f(tuple(y[i] + 0.5 * h * k2[i] for i in range(4)))
        k4 = f(tuple(y[i] + h * k3[i] for i in range(4)))
        y_new = tuple(y[i] + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(4))
        steps += 1
        if not all(math.isfinite(x) for x in y_new) or max(y_new) > BLOWUP_GUARD:
            guard = "blow_up"
            notes.append(
                f"rectangle component exceeded the divergence guard {BLOWUP_GUARD!r} "
                f"at t={t + h!r} with (u_hi, u_lo, v_hi, v_lo) = {y_new!r} "
                f"(finite-time blow-up of the bounding system)"
            )
            break
        t, y = t + h, y_new
        if (steps % record_every == 0 or t >= t_stop) and rows[-1][0] < t:
            rows.append((t, *y))
    if rows[-1][0] < t:
        rows.append((t, *y))
    return rows, guard, notes


def reprs(rows):
    """The rows with every float as its repr, so -0.0 is not 0.0 and a NaN is a NaN."""
    return [tuple(map(repr, row)) for row in rows]


def assert_close_to_reference(s0, p, t_end, dt, record_every, ref_dt, t_max=None):
    """integrate_rectangles' rows lie within 1e-9 (relative above 1) of
    reference_rk4's at the step ref_dt, which divides dt, on the same
    output times, up to t_max when given; returns the trace and the
    reference's guard status."""
    trace = integrate_rectangles(s0, p, (s0.t, t_end), dt * record_every)
    rows, guard, _ = reference_rk4(s0, p, t_end, ref_dt, round(dt / ref_dt) * record_every)
    got = list(zip(trace.t, trace.u_hi, trace.u_lo, trace.v_hi, trace.v_lo))
    if t_max is None:
        assert len(got) == len(rows)
    else:
        got = [row for row in got if row[0] <= t_max]
        assert len(rows) > len(got)
    for row, ref in zip(got, rows):
        assert row[0] == pytest.approx(ref[0], rel=1e-12, abs=1e-12)
        for value, want in zip(row[1:], ref[1:]):
            assert abs(value - want) <= 1e-9 * max(1.0, abs(want)), (row, ref)
    return trace, guard


SIGNED_NONLOCAL = dict(
    a2=-0.3, b1=-0.2, a3=0.15, a4=-0.1, b3=-0.05, b4=0.2,
    chi1=0.3, chi2=0.2, omega_measure=1.5,
)


class TestBitIdentity:
    """The rows agree with textbook RK4 at a step whose own error is below
    the tolerance: 1e-3 on the smooth cases, 1e-5 on the blow-up up to
    t = 0.05.  Closer to the singularity at t = 0.0541 every error grows
    past 1e-9, RK4's at 1e-5 too."""

    @pytest.mark.parametrize("record_every", [1, 3])
    @pytest.mark.parametrize(
        "params, s0, t_end, dt, guard, ref_dt, t_max",
        [
            # signed local and nonlocal coefficients, t_end off the dt grid
            (
                mk_params(**SIGNED_NONLOCAL), RectangleState(0.0, 1.2, 0.1, 0.9, 0.05),
                3.3337, 1e-2, None, 1e-3, None,
            ),
            # coexistence regime from a nonzero start time
            (
                coexistence_params(0.1), RectangleState(0.25, 1.5, 0.2, 1.2, 0.1),
                5.07, 2e-3, None, 1e-3, None,
            ),
            # strong chemotaxis: the bounding system blows up
            (
                mk_params(chi1=10.0), RectangleState(0.0, 2.0, 0.0, 1.0, 1.0),
                1.0, 1e-3, "blow_up", 1e-5, 0.05,
            ),
        ],
        ids=["signed-nonlocal", "coexistence", "blow-up"],
    )
    def test_matches_textbook_rk4(self, params, s0, t_end, dt, guard, ref_dt, t_max, record_every):
        trace, ref_guard = assert_close_to_reference(s0, params, t_end, dt, record_every, ref_dt, t_max)
        assert trace.guard_tripped == ref_guard == guard


def compensated_sum(items, start=0):
    """The builtin sum of CPython 3.12 and later (Neumaier's compensated
    summation): it starts from the int 0, switches to floats at the first
    float and adds the compensation at the end when it is finite and
    non-zero."""
    items = iter(items)
    total = start
    for x in items:
        total = total + x
        if isinstance(total, float):
            break
    compensation = 0.0
    for x in items:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


# The README box to t = 200 and a box of mixed-sign coefficients, which
# takes the negative-part branches, to t = 20; rows every 0.01.
VERSION_RUNS = {
    "readme": (RectangleState(0.0, 0.6, 0.4, 0.6, 0.4), coexistence_params(0.1), (0.0, 200.0), 1e-2),
    "mixed-sign": (
        RectangleState(0.0, 1.0, 0.05, 0.8, 0.05), coexistence_params(0.1, a2=-0.3, a3=-0.1, b4=0.2),
        (0.0, 20.0), 1e-2,
    ),
}
COLUMNS = ("t", "u_hi", "u_lo", "v_hi", "v_lo")
# sha256 of repr(column.tolist()) per column, as written by the integrator
# that summed with the builtin sum on Python 3.11.
COLUMN_DIGESTS = {
    "readme": (
        "ab9f4a62a3a37703c122f92bd13347e5eac9c78c0b292a60e37b104c8ad3daa3",
        "ba2b84d43a7b5d7b2e537eeb50ce34cabdfd74649921b11c44c9887183b18871",
        "84b2f68af558cec60f2a49bbcacb2154b52630f1d64545c694e19f651eb9a937",
        "ba2b84d43a7b5d7b2e537eeb50ce34cabdfd74649921b11c44c9887183b18871",
        "84b2f68af558cec60f2a49bbcacb2154b52630f1d64545c694e19f651eb9a937",
    ),
    "mixed-sign": (
        "2dffe07d2b535af84e2ecfc58cceecf56960b4984cb2708c0b95a623f446f196",
        "42c1a5a6eab8d45b8abc4103a0d1ced9739a310f1932b7e96887d7ed4aa6ddaf",
        "c92fb8302b15566c7dee1345e96cce1bef818ee2899f0a545ec20e48a331acdb",
        "546e5ace69890caff0e6904920f46bfc9b02582d07ba4bac78256a0a10faa70c",
        "e0f7dafd513e25f63e77a9addfae83f73c8e4a7b6951c55dde379552cd26d097",
    ),
}


class TestPythonVersionIndependence:
    """The rows do not depend on how the interpreter's builtin sum adds
    floats: Python 3.12 made it compensated."""

    def test_compensated_sum_is_the_interpreters_from_3_12(self):
        rng = random.Random(7)
        cases = [[1e100, 1.0, -1e100], [0.1] * 10, [-0.0], [-0.0, -0.0], [math.inf, 1.0], [1e308, 1e308, -1e308]]
        cases += [[rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-20, 20) for _ in range(7)] for _ in range(200)]
        assert compensated_sum(cases[0]) == 1.0 and compensated_sum([-0.0]) == 0.0
        if sys.version_info >= (3, 12):
            assert [repr(compensated_sum(c)) for c in cases] == [repr(sum(c)) for c in cases]

    @pytest.mark.parametrize("name", VERSION_RUNS)
    def test_compensated_sum_gives_the_same_trace(self, name, monkeypatch):
        plain = integrate_rectangles(*VERSION_RUNS[name])
        monkeypatch.setattr(ode_bounds, "sum", compensated_sum, raising=False)
        compensated = integrate_rectangles(*VERSION_RUNS[name])
        assert (compensated.steps, compensated.rejected) == (plain.steps, plain.rejected)
        for c in COLUMNS:
            assert repr(getattr(compensated, c)) == repr(getattr(plain, c)), c

    @pytest.mark.parametrize("name", VERSION_RUNS)
    def test_columns_match_the_recorded_digests(self, name):
        trace = integrate_rectangles(*VERSION_RUNS[name])
        digests = tuple(hashlib.sha256(repr(getattr(trace, c).tolist()).encode()).hexdigest() for c in COLUMNS)
        assert digests == COLUMN_DIGESTS[name]


class TestConvergence:
    def test_error_falls_with_the_target(self, monkeypatch):
        # The error against the run at the tightest target, rtol 1e-12,
        # follows the target down by three decades at a time.
        s0, p = RectangleState(0.0, 1.2, 0.1, 0.9, 0.05), mk_params(**SIGNED_NONLOCAL)
        runs = {}
        for rtol in (1e-6, 1e-9, 1e-12):
            monkeypatch.setattr(ode_bounds, "RTOL", rtol)
            runs[rtol] = integrate_rectangles(s0, p, (s0.t, 3.3337), 1e-2)
        best = runs[1e-12]
        errors = {}
        for rtol in (1e-6, 1e-9):
            run = runs[rtol]
            assert run.t == best.t and run.steps < best.steps
            errors[rtol] = max(
                abs(a - b) for c in ("u_hi", "u_lo", "v_hi", "v_lo")
                for a, b in zip(getattr(run, c), getattr(best, c))
            )
            assert rtol / 1e3 < errors[rtol] <= 10.0 * rtol
        assert errors[1e-9] <= errors[1e-6] / 100.0


def counting_rhs(monkeypatch):
    """Count the calls of the right-hand sides integrate_rectangles builds."""
    calls = []

    def counted(params):
        rhs = rectangle_rhs(params)

        def f(*y):
            calls.append(None)
            return rhs(*y)

        return f

    monkeypatch.setattr(ode_bounds, "rectangle_rhs", counted)
    return calls


def first_fixed_row(s0, p, t_end, dt):
    """The index i of the first row the reference maps to itself, bit for
    bit, in the step from row i to row i + 1 (rows recorded every step)."""
    rows = reprs(reference_rk4(s0, p, t_end, dt, 1)[0])
    return next(i for i, (a, b) in enumerate(zip(rows, rows[1:])) if a[1:] == b[1:])


def fixed_state(s0, p, dt, t_end):
    """The first state that a full reference step from s0 maps to itself."""
    rows = reference_rk4(s0, p, t_end, dt, 1)[0]
    return RectangleState(*rows[first_fixed_row(s0, p, t_end, dt)])


# u extinct and v at its level 1/2: a fixed point of the coexistence
# rectangle with two zero components, first reached at t = 37.25.
SEMI_TRIVIAL = (RectangleState(0.0, 0.0, 0.0, 0.7, 0.3), 5e-2, 60.0)


class TestFixedPoint:
    """Near a fixed point the controlled step grows by itself, and the rows
    still match the reference."""

    @staticmethod
    def case(name):
        """(s0, params, t_end, dt) of one scenario."""
        p = coexistence_params(0.1)
        if name == "mid-run":
            # the rectangle contracts onto the coexistence point; t_end off
            # the dt grid
            return RectangleState(0.0, 1.5, 0.2, 1.2, 0.1), p, 200.013, 5e-2
        if name == "exclusion":
            # u decays geometrically and reaches no fixed point
            return RectangleState(0.0, 0.6, 0.4, 0.6, 0.4), exclusion_params(0.05), 100.0, 5e-2
        s0 = fixed_state(SEMI_TRIVIAL[0], p, *SEMI_TRIVIAL[1:])
        if name == "signed-zero":
            # a -0.0 component of the fixed point
            s0 = replace(s0, u_lo=-0.0)
        return s0, p, s0.t + 5.013, 5e-2

    @pytest.mark.parametrize("record_every", [1, 7])
    @pytest.mark.parametrize("name", ["mid-run", "fixed-start", "signed-zero", "exclusion"])
    def test_matches_reference(self, name, record_every):
        s0, p, t_end, dt = self.case(name)
        trace, _ = assert_close_to_reference(s0, p, t_end, dt, record_every, ref_dt=5e-3)
        assert trace.guard_tripped is None
        if name in ("fixed-start", "signed-zero"):
            # from the row spacing, each step ten times the last, to the end of the run
            assert trace.steps <= 10 and trace.rejected == 0


class TestSampleBoxes:
    """The boxes at the given times come from the continuous extension
    that places the rows."""

    @pytest.mark.parametrize("s0, p, t_end, spacing", [
        *((s0, p, times[-1], spacing) for s0, p, times, spacing in VERSION_RUNS.values()),
        # from a nonzero start, t_end off the row grid
        (RectangleState(0.25, 1.5, 0.2, 1.2, 0.1), coexistence_params(0.1), 5.07, 6e-3),
    ], ids=[*VERSION_RUNS, "offset-start"])
    def test_a_sample_at_a_row_time_gets_the_row_bits(self, s0, p, t_end, spacing):
        # Every row time as a sample time, the first and the last included:
        # the boxes are the rows, and the rows are those of the run that
        # was given the two ends only.
        rows = integrate_rectangles(s0, p, (s0.t, t_end), spacing)
        trace = integrate_rectangles(s0, p, rows.t, spacing)
        for c in COLUMNS:
            assert repr(getattr(trace, c)) == repr(getattr(rows, c)), c
        assert repr(trace.boxes.tolist()) == repr(
            [x for row in zip(rows.u_hi, rows.u_lo, rows.v_hi, rows.v_lo) for x in row])
        assert rows.boxes.tolist() == [*box_at(rows, 0), rows.u_hi[-1], rows.u_lo[-1], rows.v_hi[-1], rows.v_lo[-1]]

    def test_boxes_between_the_rows_follow_the_solution(self):
        # On the diagonal the rectangle is the interaction ODE; its boxes at
        # times off the row grid match an independent integrator's.
        p = coexistence_params(0.0)
        sol = solve_ivp(lambda _t, y: [y[0] * (1.0 - 2.0 * y[0] - y[1]), y[1] * (1.0 - y[0] - 2.0 * y[1])],
                        (0.0, 10.0), [0.2, 0.6], rtol=1e-12, atol=1e-14, dense_output=True)
        rng = random.Random(3)
        times = [0.0, *sorted(rng.uniform(0.0, 10.0) for _ in range(50)), 10.0]
        trace = integrate_rectangles(RectangleState(0.0, 0.2, 0.2, 0.6, 0.6), p, times, 1.0)
        assert len(trace.boxes) == 4 * len(times)
        for i, t in enumerate(times):
            u_hi, u_lo, v_hi, v_lo = box_at(trace, i)
            u_ref, v_ref = sol.sol(t)
            assert u_hi == u_lo and v_hi == v_lo
            assert abs(u_hi - u_ref) <= 1e-9 and abs(v_hi - v_ref) <= 1e-9

    def test_a_box_that_trips_reaches_the_samples_up_to_its_last_accepted_time(self):
        s0, p = RectangleState(0.0, 2.0, 0.0, 1.0, 1.0), mk_params(chi1=10.0)
        times = [i / 100 for i in range(101)]
        trace = integrate_rectangles(s0, p, times, 1e-3)
        assert trace.guard_tripped == "blow_up"
        reached = len(trace.boxes) // 4
        assert 1 < reached < len(times)
        assert times[reached - 1] <= trace.t[-1] < times[reached]
        assert max(trace.boxes) <= BLOWUP_GUARD


class TestOutputGrid:
    @pytest.mark.parametrize("t0, t_end, dt, record_every", [
        (0.25, 5.07, 2e-3, 3), (0.0, 50.0, 1e-3, 10), (-1.0, 2.5, 0.1, 1), (3.0, 3.0 + 1e-9, 1e-11, 7),
    ])
    def test_stride_times_are_products_and_the_last_row_is_t_end(self, t0, t_end, dt, record_every):
        s0 = RectangleState(t0, 0.6, 0.4, 0.6, 0.4)
        spacing = dt * record_every
        trace = integrate_rectangles(s0, coexistence_params(0.1), (s0.t, t_end), spacing)
        assert trace.t[:-1].tolist() == [t0 + i * spacing for i in range(len(trace.t) - 1)]
        assert trace.t[-1] == t_end
        assert all(a < b for a, b in zip(trace.t, trace.t[1:]))
        t_stop = t_end - min(1e-12 * max(abs(t_end), 1.0), 0.5 * spacing, 0.5 * (t_end - t0))
        assert trace.t[-2] < t_stop <= t0 + (len(trace.t) - 1) * spacing

    def test_zero_length_run_makes_no_rhs_call(self, monkeypatch):
        calls = counting_rhs(monkeypatch)
        s0 = RectangleState(0.0, 0.6, 0.4, 0.6, 0.4)
        trace = integrate_rectangles(s0, coexistence_params(0.1), (0.0,), 1e-2)
        assert calls == []
        assert trace.t.tolist() == [0.0] and trace.u_hi.tolist() == [0.6]
        assert trace.steps == trace.rejected == 0 and trace.guard_tripped is None


class TestEndsOnTEnd:
    def test_drifted_step_sum_ends_on_t_end(self):
        # A running sum of the row spacing drifts off its grid; the row
        # times are products, and the last row is t_end.
        trace = integrate_rectangles(
            RectangleState(0.0, 0.6, 0.4, 0.6, 0.4), coexistence_params(0.1), (0.0, 50.0), 1e-2
        )
        assert trace.t[-1] == 50.0
        assert len(trace.t) == 5001
        assert trace.t[-2] == pytest.approx(49.99)

    @pytest.mark.parametrize("dt, rows", [(1e-14, 11), (1.0, 2)])
    def test_run_shorter_than_the_stop_tolerance_ends_on_t_end(self, dt, rows):
        # t_end = 1e-13 is below the plain tolerance 1e-12, which took no step.
        s0 = RectangleState(0.0, 0.6, 0.4, 0.6, 0.4)
        for record_every in (1, 100):
            trace = integrate_rectangles(s0, coexistence_params(0.1), (s0.t, 1e-13), dt * record_every)
            assert trace.t[-1] == 1e-13
            assert len(trace.t) == (rows if record_every == 1 else 2)
        assert_close_to_reference(s0, coexistence_params(0.1), 1e-13, dt, 1, ref_dt=dt)

    @pytest.mark.parametrize("t0", [0.0, 1.0])
    def test_last_step_below_the_minimum_step_is_taken(self, t0):
        # t_end, one float spacing past t0, lies within MIN_STEP_ULPS float
        # spacings of it, so the one step of the run is shorter than the
        # guard's minimum; a step of the whole remainder passes whatever its
        # size.  From 1.0 the stop tolerance rounds t_stop down to t0.
        s0 = RectangleState(t0, 0.6, 0.4, 0.6, 0.4)
        t_end = t0 + math.ulp(t0)
        trace = integrate_rectangles(s0, coexistence_params(0.1), (s0.t, t_end), 1e-2)
        assert trace.guard_tripped is None and trace.notes == []
        assert trace.t.tolist() == [t0, t_end]
        assert trace.steps == 1 and trace.rejected == 0

    def test_rejected_last_step_is_not_retried_forever(self, monkeypatch):
        # Two float spacings remain and every step is rejected: the cut
        # retry lies below both the minimum step and the remainder, so the
        # guard ends the run instead of stretching it back to the remainder.
        errors = []

        def rejecting(*args):
            errors.append(None)
            assert len(errors) < 100, "the same rejected last step is retried"
            return 2.0

        monkeypatch.setattr(ode_bounds, "_error_norm", rejecting)
        s0 = RectangleState(1.0, 0.6, 0.4, 0.6, 0.4)
        trace = integrate_rectangles(s0, coexistence_params(0.1), (s0.t, 1.0 + 2 * math.ulp(1.0)), 1e-2)
        assert trace.guard_tripped == "blow_up" and trace.steps == 0
        assert trace.t.tolist() == [1.0] and len(errors) <= 1
        assert any("fell below 4 float spacings of t=1.0" in note for note in trace.notes)


def tripping_step(trace):
    """The time and u_hi of the step past the divergence guard, from the
    trace's one note; the other three components are 0.0."""
    note, = trace.notes
    match = re.fullmatch(
        rf"rectangle component exceeded the divergence guard {BLOWUP_GUARD!r} at t=(\S+) "
        r"with \(u_hi, u_lo, v_hi, v_lo\) = \((\S+), 0\.0, 0\.0, 0\.0\) "
        r"\(finite-time blow-up of the bounding system\)",
        note,
    )
    return float(match[1]), float(match[2])


class TestDivergenceGuard:
    def test_overflow_to_non_finite(self):
        # Every stage of a step from t = 0 with h near 1e-2 overflows; the
        # controller rejects those steps, follows the blow-up at t = 1e-200
        # and stops when a step ends on a finite state past the guard.  The
        # last row is the accepted state before that step; the note holds
        # the step's end time and state.
        p = mk_params(chi1=1e200)
        s0 = RectangleState(0.0, 1.0, 0.0, 0.0, 0.0)
        trace = integrate_rectangles(s0, p, (s0.t, 1.0), 1e-2)
        assert trace.guard_tripped == "blow_up"
        assert len(trace.t) == 2 and 0.0 < trace.t[-1] < 1e-199
        assert math.isfinite(trace.u_hi[-1]) and trace.u_hi[-1] <= BLOWUP_GUARD
        t_trip, u_trip = tripping_step(trace)
        assert trace.t[-1] < t_trip < 1e-199 and BLOWUP_GUARD < u_trip < math.inf

    def test_finite_crossing_of_the_guard(self):
        # Near-exponential growth carries u_hi past the guard in one step
        # while every component stays finite.
        p = mk_params(a1=1e-12)
        s0 = RectangleState(0.0, 0.999e8, 0.0, 0.0, 0.0)
        trace = integrate_rectangles(s0, p, (s0.t, 1.0), 0.1)
        assert trace.guard_tripped == "blow_up"
        # the first step crosses: the initial state is the last row
        assert trace.t.tolist() == [0.0] and trace.u_hi.tolist() == [0.999e8]
        t_trip, u_trip = tripping_step(trace)
        assert 0.0 < t_trip < 0.1 and BLOWUP_GUARD < u_trip < math.inf

    @pytest.mark.parametrize("p, s0, t_end", [
        (mk_params(chi1=10.0), RectangleState(0.0, 2.0, 0.0, 1.0, 1.0), 1.0),
        (coexistence_params(5.0), RectangleState(0.0, 0.6, 0.4, 0.6, 0.4), 0.5),
    ], ids=["chi1-10", "coexistence-chi-5"])
    def test_blow_up_trips_in_bounded_work(self, p, s0, t_end, monkeypatch):
        calls = counting_rhs(monkeypatch)
        trace = integrate_rectangles(s0, p, (s0.t, t_end), 1e-2)
        assert trace.guard_tripped == "blow_up"
        # the first rhs, then six per attempted step
        assert len(calls) == 1 + 6 * (trace.steps + trace.rejected)
        assert len(calls) < 20_000

    def test_step_budget_ends_on_the_last_accepted_state(self, monkeypatch):
        # Cut to 50 attempted steps, the run to t = 200 ends early; its rows
        # before the last are the full run's, bit for bit.
        s0, p = RectangleState(0.0, 0.6, 0.4, 0.6, 0.4), coexistence_params(0.1)
        full = integrate_rectangles(s0, p, (s0.t, 200.0), 1e-2)
        monkeypatch.setattr(ode_bounds, "MAX_STEPS", 50)
        trace = integrate_rectangles(s0, p, (s0.t, 200.0), 1e-2)
        assert trace.guard_tripped == "step_budget" and trace.steps + trace.rejected == 50
        assert 0.0 < trace.t[-1] < 200.0 and trace.t[-2] < trace.t[-1] < trace.t[-2] + 1e-2
        for name in ("t", "u_hi", "u_lo", "v_hi", "v_lo"):
            n = len(getattr(trace, name)) - 1
            assert getattr(trace, name)[:n] == getattr(full, name)[:n]
        assert trace.notes == [f"rectangle run used up its 50 steps at t={trace.t[-1]!r} (stiff system)"]

    @pytest.mark.parametrize("u_hi", [1e300, math.inf])
    def test_non_finite_start_ends_the_run_at_once(self, u_hi, monkeypatch):
        # 1e300 is finite, but its right-hand side is inf - inf = nan: no
        # step size can be accepted from it.
        calls = counting_rhs(monkeypatch)
        s0 = RectangleState(0.0, u_hi, 0.4, 0.6, 0.4)
        trace = integrate_rectangles(s0, coexistence_params(0.1), (s0.t, 200.0), 1e-2)
        assert trace.guard_tripped == "blow_up"
        assert trace.t.tolist() == [0.0] and trace.u_hi.tolist() == [u_hi]
        assert trace.steps == trace.rejected == 0
        assert any("not finite at the initial state t=0.0" in note for note in trace.notes)
        assert len(calls) == 1

    def test_collapsing_step_ends_the_run(self, monkeypatch):
        # From t = 1 the blow-up at t = 1 + 1e-200 lies within one float
        # spacing of t: the step size collapses instead of t advancing.
        calls = counting_rhs(monkeypatch)
        trace = integrate_rectangles(RectangleState(1.0, 1.0, 0.0, 0.0, 0.0), mk_params(chi1=1e200), (1.0, 2.0), 1e-3)
        assert trace.guard_tripped == "blow_up"
        assert trace.t.tolist() == [1.0] and trace.steps == 0
        assert any("fell below 4 float spacings of t=1.0" in note for note in trace.notes)
        assert len(calls) < 1000
