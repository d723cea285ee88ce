"""Traced run of the chemotaxis-lab CLI, and the per-layer numbers from it.

Run as a script, it wraps the package's callables at the sites where the
package looks them up (module globals and class attributes), runs
`chemotaxis_lab.cli.main` on the given arguments, and writes the spans once
at exit:

    PYTHONPATH=src python3 perfbench/tracer.py --spans spans.npz --run-id r1 \
        -- simulate --config scenario.json --out out/

Nothing under src/ is edited.  Every span has a name, start and end (ns),
a parent span (-1 for the root) and the file's run id; a call counter per
name is kept at the same boundaries.  `derive` turns a spans file into
self times: a span's duration minus the part of it its child spans cover.
"""
from __future__ import annotations

import argparse
import functools
import re
import sys
import time

import numpy as np

ROOT = "cli"

# Boundaries traced, as (module, attribute, span name).  The attribute is
# the name the caller looks up, so a call made through that name is
# recorded whatever module defines the function.
CALL_SITES = (
    ("cli", "run_simulation", "pde_stepper.run_simulation"),
    ("cli", "initial_state", "pde_stepper.initial_state"),
    ("cli", "read_trajectory_csv", "cli.read_trajectory_csv"),
    ("cli", "integrate_rectangles", "ode_bounds.integrate_rectangles"),
    ("cli", "check_enclosure", "ode_bounds.check_enclosure"),
    ("cli", "detect_steady", "diagnostics.detect_steady"),
    ("pde_stepper", "detect_steady", "diagnostics.detect_steady"),
    ("pde_stepper", "chemotaxis_flux", "pde_stepper.chemotaxis_flux"),
    ("pde_stepper", "solve_w", "elliptic.solve_w"),
    ("pde_stepper", "assemble", "elliptic.assemble"),
    ("diagnostics", "sup_distance", "diagnostics.sup_distance"),
    ("model.Grid1D", "integrate", "model.Grid1D.integrate"),
    ("diagnostics.TrajectoryRecord", "append_sample", "diagnostics.append_sample"),
)

STEADY_STATE_FUNCTIONS = (
    "h1_margins", "h2_margins", "alpha_beta", "coexistence_state", "exclusion_state",
    "semi_trivial_states", "linf_bounds", "l1_bounds", "mass_sum_cap",
)

# The linalg layer is the scipy/LAPACK boundary, found by role rather than
# by function name so that a swap of solver routine is still traced:
# any foreign callable in these modules whose name reads as a solve or a
# factorisation.  The solve is split by caller.
LINALG_CALLERS = (("pde_stepper", "diffusion"), ("elliptic", "signal"))
SOLVE_NAME = re.compile(r"solve|trs$")
FACTOR_NAME = re.compile(r"cholesky|factor|trf$")


class Recorder:
    """In-memory spans and call counters, written once by `save`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.calls: list[int] = []
        self.name_ix: list[int] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self._stack = [-1]

    def _index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        ix = self._index(name)
        calls, name_ix, parent, start, end, stack = (
            self.calls, self.name_ix, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            calls[ix] += 1
            name_ix.append(ix)
            parent.append(stack[-1])
            end.append(0)
            stack.append(span)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[span] = clock()
                stack.pop()

        return traced

    def save(self, path: str) -> None:
        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            calls=np.array(self.calls, dtype=np.int64),
            name=np.array(self.name_ix, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            start=np.array(self.start, dtype=np.int64),
            end=np.array(self.end, dtype=np.int64),
        )


def install(rec: Recorder):
    """Wrap every traced boundary; returns the wrapped cli.main."""
    import importlib

    from chemotaxis_lab import cli

    def resolve(dotted: str):
        module, _, attr = dotted.partition(".")
        obj = importlib.import_module(f"chemotaxis_lab.{module}")
        return getattr(obj, attr) if attr else obj

    for owner, attr, name in CALL_SITES:
        target = resolve(owner)
        setattr(target, attr, rec.wrap(name, getattr(target, attr)))
    steady_states = resolve("steady_states")
    for attr in STEADY_STATE_FUNCTIONS:
        setattr(steady_states, attr, rec.wrap(f"steady_states.{attr}", getattr(steady_states, attr)))
    for owner, role in LINALG_CALLERS:
        module = resolve(owner)
        for attr, obj in list(vars(module).items()):
            if not callable(obj) or isinstance(obj, type):
                continue
            if (getattr(obj, "__module__", None) or "").startswith("chemotaxis_lab"):
                continue
            if SOLVE_NAME.search(attr):
                setattr(module, attr, rec.wrap(f"linalg.banded_solve.{role}", obj))
            elif FACTOR_NAME.search(attr):
                setattr(module, attr, rec.wrap("linalg.factor", obj))
    return rec.wrap(ROOT, cli.main)


# Percentiles tried for the tail, highest first; the one reported is the
# highest with at least TAIL_BEYOND samples above it.
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10


def tail_percentile(n: int) -> float:
    """Highest tried percentile with >= TAIL_BEYOND samples beyond it;
    100 (the maximum) when there are too few samples for any."""
    for q in TAIL_PERCENTILES:
        if n * (100.0 - q) / 100.0 >= TAIL_BEYOND:
            return q
    return 100.0


def derive(path: str) -> dict[str, dict]:
    """Per span name: calls, self seconds, and the inclusive µs per call at
    p50 and at the tail percentile."""
    with np.load(path) as f:
        names = [str(s) for s in f["names"]]
        calls = f["calls"]
        name = f["name"]
        parent = f["parent"]
        dur = (f["end"] - f["start"]).astype(np.float64)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_ns = dur - child
    out = {}
    for ix, label in enumerate(names):
        mask = name == ix
        d = dur[mask]
        q = tail_percentile(d.size)
        out[label] = {
            "calls": int(calls[ix]),
            "self_s": float(self_ns[mask].sum()) * 1e-9,
            "p50_us": float(np.percentile(d, 50)) * 1e-3 if d.size else 0.0,
            "tail_us": float(np.percentile(d, q)) * 1e-3 if d.size else 0.0,
        }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="file the spans are written to (.npz)")
    parser.add_argument("--run-id", required=True, help="identifier shared by this run's spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the chemotaxis-lab arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    rec = Recorder(args.run_id)
    traced_main = install(rec)
    try:
        return traced_main(cli_args)
    finally:
        rec.save(args.spans)


if __name__ == "__main__":
    sys.exit(main())
