"""Output checks for benchmark commands.

A command passes when it exited 0, tripped no guard, and its outputs agree
with the paper's claims and with the step schedule: the final sup-distance
to the predicted limit is under LIMIT_TOL, every envelope section that is
not skipped has zero violations, the rectangle enclosure holds at every
trajectory sample, and CSV row counts match the step count and record
stride.  Each check returns a list of problems; an empty list is a pass.
"""
from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

from workloads import expected_rows

LIMIT_TOL = 1e-3


def csv_rows(path: Path) -> int:
    """Data rows (header excluded) of a CSV file."""
    with path.open(newline="") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def digest(out_dir: Path) -> str:
    """One hash over every output file's name and bytes."""
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def _common(returncode: int, stderr: str) -> list[str]:
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}: {stderr.strip()[-300:]}")
    if "guard" in stderr:
        problems.append(f"guard message on stderr: {stderr.strip()[:200]}")
    return problems


def check_simulate(out_dir: Path, returncode: int, stderr: str, wl: dict, steps: int) -> list[str]:
    problems = _common(returncode, stderr)
    if problems:
        return problems
    summary = json.loads((out_dir / "summary.json").read_text())
    run = summary["run"]
    if run["guard_tripped"] is not None or run["stopped_early"]:
        problems.append(f"guard_tripped={run['guard_tripped']!r} stopped_early={run['stopped_early']!r}")
    rows = csv_rows(out_dir / "trajectory.csv")
    want = expected_rows(steps, wl["record_every"])
    if rows != want or run["samples"] != want:
        problems.append(f"trajectory rows {rows} (summary {run['samples']}), expected {want}")
    if steps:
        dist = summary["measured"]["final_distances"][wl["limit"]]
        worst = max(dist.values())
        if not worst < LIMIT_TOL:
            problems.append(f"final sup-distance to {wl['limit']} is {worst!r}, not under {LIMIT_TOL}")
    for section, doc in summary["envelopes"].items():
        if "skipped" in doc:
            continue
        bad = {k: v for k, v in doc.items() if k.startswith("violations") and v != 0}
        if bad:
            problems.append(f"envelope {section}: {bad}")
    return problems


def check_rectangles(
    out_dir: Path, returncode: int, stderr: str, wl: dict, steps: int, trajectory_rows: int
) -> list[str]:
    problems = _common(returncode, stderr)
    if problems:
        return problems
    report = json.loads((out_dir / "enclosure.json").read_text())
    if not report["passed"]:
        problems.append(f"enclosure failed: worst violation {report['worst_violation']!r}")
    if report["n_times"] != trajectory_rows:
        problems.append(f"enclosure compared {report['n_times']} times, trajectory has {trajectory_rows}")
    if report["rectangle_guard_tripped"] is not None or report["pde_guard_tripped"] is not None:
        problems.append("a guard tripped")
    rows = csv_rows(out_dir / "rectangles.csv")
    want = expected_rows(steps, wl["record_every"])
    if rows != want:
        problems.append(f"rectangles rows {rows}, expected {want}")
    return problems
