"""Benchmark of the chemotaxis-lab CLI.

    python3 perfbench/run.py --workload record-dense --seed 1 --seconds 55 --trace 0

Each timed command is a fresh `python -m chemotaxis_lab <subcommand>`
process with src/ on PYTHONPATH and the BLAS/OpenMP pools capped at the
number of usable cores.  The load is a closed loop: one client, one command
at a time.  Every command's outputs are checked (see checks.py) and repeats
of one seed must be byte-identical.

--trace 0 times the workload with tracing off and reports the end-to-end
metrics; --trace 1 alternates untraced and traced commands (tracer.py) and
reports the per-layer metrics.  Metric names and units are those of
BENCHMARK.json.  The last line of standard output is one JSON object with
"correct", "attempted", "failed" and "metrics"; the lines before it are the
run's metadata, configs and a readable table.  `--workload all` runs every
workload, untraced and traced.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

COMMAND_TIMEOUT_S = 170.0
SETUP_PROBES = 5

# On a shared host the CPU's speed swings by about a third from minute to
# minute, and a run is too short to average that out.  End-to-end times
# are therefore scaled to a nominal host: each command's time is divided
# by the time reference_s() took next to it (see end_to_end) and
# multiplied by the time reference_s() takes on the nominal host.  The
# program under test never runs inside reference_s(), so a change to the
# program moves the scaled times as much as the unscaled ones.
REFERENCE_NOMINAL_S = 0.25
IMPORT_PROBES = 3

IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import chemotaxis_lab.cli; "
    "print(repr(time.perf_counter() - t0))"
)

# The layers that should account for most of each workload's traced wall
# time; their summed self time over it is trace.expected_share.
EXPECTED_LAYERS = {
    "record-dense": (
        "pde_stepper.run_simulation", "pde_stepper.chemotaxis_flux",
        "linalg.banded_solve.diffusion", "linalg.banded_solve.signal",
        "model.Grid1D.integrate", "diagnostics.append_sample", "diagnostics.sup_distance", "cli",
    ),
    "rect-replay": ("ode_bounds.integrate_rectangles",),
}
# Layers reported with calls, self_s, p50_us and tail_us.
FULL_STAT_LAYERS = (
    "pde_stepper.chemotaxis_flux", "elliptic.solve_w",
    "linalg.banded_solve.diffusion", "linalg.banded_solve.signal",
    "model.Grid1D.integrate", "diagnostics.append_sample",
    "diagnostics.sup_distance", "diagnostics.detect_steady",
    "cli.read_trajectory_csv", "ode_bounds.check_enclosure",
)


@dataclass
class Command:
    wall_s: float
    cpu_s: float
    rss_mb: float


def thread_caps() -> dict[str, str]:
    n = str(len(os.sched_getaffinity(0)))
    return {var: n for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(thread_caps())
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv: list[str], log: Path) -> tuple[int, float, float, float, str]:
    """Run argv to completion; returns (exit code, wall s, cpu s, peak RSS
    MiB, stderr).  A command still running after COMMAND_TIMEOUT_S is killed."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = log.with_suffix(".err").read_text(errors="replace")
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, stderr


class Run:
    """One benchmark run of one workload and seed."""

    def __init__(self, wl: dict):
        self.wl = wl
        self.dir = WORK / wl["name"]
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.full_cfg = self._write("config.json", wl["config"])
        self.zero_cfg = self._write("zero_config.json", wl["zero_config"])
        self.trajectory = self.zero_trajectory = None
        if wl["source"] is not None:
            self._make_trajectories()

    def _write(self, name: str, doc: dict) -> Path:
        path = self.dir / name
        path.write_text(json.dumps(doc, indent=1) + "\n")
        return path

    def _make_trajectories(self) -> None:
        """Untimed set-up for rect-replay: the coexistence trajectory of the
        same seed, and its first row alone for the zero-step command."""
        source = self.wl["source"]
        cfg = self._write("source_config.json", source["config"])
        out = self.dir / "source"
        argv = [sys.executable, "-m", "chemotaxis_lab", "simulate", "--config", str(cfg), "--out", str(out)]
        code, _, _, _, err = spawn(argv, self.dir / "source")
        self._record("source", checks.check_simulate(out, code, err, source, source["steps"]), out)
        self.trajectory = out / "trajectory.csv"
        self.trajectory_rows = checks.csv_rows(self.trajectory)
        self.zero_trajectory = self.dir / "zero_trajectory.csv"
        with self.trajectory.open() as fh:
            self.zero_trajectory.write_text(fh.readline() + fh.readline())

    def _record(self, kind: str, problems: list[str], out: Path) -> None:
        self.attempted += 1
        if not problems:
            digest = checks.digest(out)
            first = self.digests.setdefault(kind, digest)
            if digest != first:
                problems = [f"{kind} outputs differ from the first repeat of this seed"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{kind}: {p}" for p in problems)

    def command(self, kind: str, spans: Path | None = None) -> Command:
        """Run one full or zero-step command; `spans` turns tracing on.
        Traced outputs must match the untraced ones byte for byte."""
        zero = kind == "zero"
        out = self.dir / kind
        shutil.rmtree(out, ignore_errors=True)
        cli_args = [self.wl["command"], "--config", str(self.zero_cfg if zero else self.full_cfg), "--out", str(out)]
        if self.trajectory is not None:
            cli_args += ["--trajectory", str(self.zero_trajectory if zero else self.trajectory)]
        if spans is None:
            argv = [sys.executable, "-m", "chemotaxis_lab", *cli_args]
        else:
            run_id = f"{self.wl['name']}-s{self.wl['seed']}-{spans.stem}"
            argv = [sys.executable, str(HERE / "tracer.py"), "--spans", str(spans), "--run-id", run_id, "--", *cli_args]
        code, wall, cpu, rss, err = spawn(argv, self.dir / f"{kind}-{'traced' if spans else 'plain'}")
        steps = 0 if zero else self.wl["steps"]
        try:
            if self.wl["command"] == "simulate":
                problems = checks.check_simulate(out, code, err, self.wl, steps)
            else:
                rows = 1 if zero else self.trajectory_rows
                problems = checks.check_rectangles(out, code, err, self.wl, steps, rows)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            problems = [f"outputs unreadable: {exc!r}"]
        self._record(kind, problems, out)
        return Command(wall, cpu, rss)


def time_is_up(t0: float, round_s: float, seconds: float) -> bool:
    """Stop when one more round would end farther from `seconds` than
    stopping now, so a run measures `seconds` give or take half a round."""
    return time.perf_counter() - t0 + round_s / 2 >= seconds


def reference_s() -> float:
    """Wall time of a fixed loop of the kinds of work the CLI's commands do:
    NumPy operations on 128-cell arrays with a banded Cholesky solve, CSV
    formatting of floats, and a scalar RK4 in plain Python.  It calls
    nothing of chemotaxis_lab, so it times the host, not the program."""
    n = 128
    band = np.zeros((2, n))
    band[0, 1:] = -1.0
    band[1] = 3.0
    factor = cholesky_banded(band)
    u = 1.0 + 0.1 * np.cos(np.pi * np.linspace(0.0, 1.0, n))
    out = io.StringIO()
    t0 = time.perf_counter()
    for i in range(3500):
        grad = np.diff(u) * 0.5
        flux = np.maximum(grad, 0.0) * u[1:] + np.minimum(grad, 0.0) * u[:-1]
        rhs = u.copy()
        rhs[1:-1] += 1e-3 * (flux[1:] - flux[:-1])
        u = 0.5 + cho_solve_banded((factor, False), rhs)
        mean = float(u.sum()) / n
        out.write(f"{i},{mean!r},{float(np.abs(u - mean).max())!r}\n")
    y, z, h = 0.5, 0.5, 1e-3

    def rhs_ode(y: float, z: float) -> tuple[float, float]:
        return y * (1.0 - 2.0 * y - z), z * (1.0 - y - 2.0 * z)

    for _ in range(50000):
        k1 = rhs_ode(y, z)
        k2 = rhs_ode(y + 0.5 * h * k1[0], z + 0.5 * h * k1[1])
        k3 = rhs_ode(y + 0.5 * h * k2[0], z + 0.5 * h * k2[1])
        k4 = rhs_ode(y + h * k3[0], z + h * k3[1])
        y += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        z += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return time.perf_counter() - t0


def end_to_end(run: Run, seconds: float) -> tuple[dict[str, float], dict]:
    """Rounds of zero-step command, reference loop, full command for about
    `seconds`, then zero-step probes up to SETUP_PROBES.  A zero-step time
    is divided by the reference time next to it, a full command's time by
    the mean of the reference times just before and just after it; times
    are multiplied by REFERENCE_NOMINAL_S and the metrics are the medians."""
    run.command("zero")  # untimed warm-up: bytecode caches, file cache
    reference_s()
    zeros, refs, fulls = [], [], []
    t0 = time.perf_counter()
    while True:
        round_t0 = time.perf_counter()
        zeros.append(run.command("zero"))
        refs.append(reference_s())
        fulls.append(run.command("full"))
        if time_is_up(t0, time.perf_counter() - round_t0, seconds):
            break
    refs.append(reference_s())  # the reference after the last full command
    while len(zeros) < SETUP_PROBES:
        zeros.append(run.command("zero"))
        refs.append(reference_s())
    brackets = [(before + after) / 2 for before, after in zip(refs, refs[1:len(fulls) + 1])]

    def scaled(times: list[float], ref_times: list[float]) -> float:
        return statistics.median(t / ref for t, ref in zip(times, ref_times)) * REFERENCE_NOMINAL_S

    wall = scaled([c.wall_s for c in fulls], brackets)
    setup = scaled([c.wall_s for c in zeros], refs)
    metrics = {
        "wall_s": wall,
        "setup_s": setup,
        "steps_per_s": run.wl["steps"] / (wall - setup),
        "cpu_s": scaled([c.cpu_s for c in fulls], brackets),
        "peak_rss_mb": statistics.median(c.rss_mb for c in fulls),
    }
    samples = {
        "full_wall_s": [c.wall_s for c in fulls],
        "zero_wall_s": [c.wall_s for c in zeros],
        "reference_s": refs,
        "unscaled_median_full_wall_s": statistics.median(c.wall_s for c in fulls),
        "unscaled_median_zero_wall_s": statistics.median(c.wall_s for c in zeros),
    }
    return metrics, samples


def import_seconds() -> float:
    """Median time to import chemotaxis_lab.cli in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S, check=True,
        )
        times.append(float(proc.stdout.strip()))
    return statistics.median(times)


def layer_metrics(run: Run, spans: Path, traced_wall: float) -> dict[str, float]:
    layers = tracer.derive(str(spans))
    empty = {"calls": 0, "self_s": 0.0, "p50_us": 0.0, "tail_us": 0.0}

    def get(name: str) -> dict:
        return layers.get(name, empty)

    wl = run.wl
    pde_steps = wl["steps"] if wl["command"] == "simulate" else 0
    rk4_steps = wl["steps"] if wl["command"] == "rectangles" else 0
    out = run.dir / "full"
    m: dict[str, float] = {}
    for name in FULL_STAT_LAYERS:
        stats = get(name)
        for key in ("calls", "self_s", "p50_us", "tail_us"):
            m[f"{name}.{key}"] = stats[key]
    m["pde_stepper.steps"] = pde_steps
    m["pde_stepper.run_simulation.self_s"] = get("pde_stepper.run_simulation")["self_s"]
    m["pde_stepper.self_us_per_step"] = (
        m["pde_stepper.run_simulation.self_s"] / pde_steps * 1e6 if pde_steps else 0.0
    )
    solves = get("linalg.banded_solve.diffusion")["calls"] + get("linalg.banded_solve.signal")["calls"]
    m["linalg.banded_solve.per_step"] = solves / pde_steps if pde_steps else 0.0
    m["diagnostics.samples_per_step"] = (
        get("diagnostics.append_sample")["calls"] / pde_steps if pde_steps else 0.0
    )
    m["cli.self_s"] = get(tracer.ROOT)["self_s"]
    m["cli.rows_written"] = sum(checks.csv_rows(p) for p in out.glob("*.csv"))
    m["cli.bytes_written"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    m["ode_bounds.rk4_steps"] = rk4_steps
    m["ode_bounds.integrate_rectangles.self_s"] = get("ode_bounds.integrate_rectangles")["self_s"]
    m["ode_bounds.us_per_rk4_step"] = (
        m["ode_bounds.integrate_rectangles.self_s"] / rk4_steps * 1e6 if rk4_steps else 0.0
    )
    m["elliptic.assemble.calls"] = get("elliptic.assemble")["calls"]
    m["linalg.factor.calls"] = get("linalg.factor")["calls"]
    for fn in tracer.STEADY_STATE_FUNCTIONS:
        m[f"steady_states.{fn}.self_s"] = get(f"steady_states.{fn}")["self_s"]
    m["trace.expected_share"] = sum(get(n)["self_s"] for n in EXPECTED_LAYERS[wl["name"]]) / traced_wall
    return m


def per_layer(run: Run, seconds: float) -> tuple[dict[str, float], dict]:
    """Import probes, then untraced/traced pairs of the full command for
    about `seconds`; each layer metric is the median over the traced commands."""
    run.command("zero")  # untimed warm-up
    metrics = {"setup.import_s": import_seconds()}
    plain, traced, layer_runs = [], [], []
    t0 = time.perf_counter()
    while True:
        plain.append(run.command("full"))
        spans = run.dir / f"spans-{len(traced) + 1}.npz"
        traced.append(run.command("full", spans=spans))
        layer_runs.append(layer_metrics(run, spans, traced[-1].wall_s))
        if time_is_up(t0, plain[-1].wall_s + traced[-1].wall_s, seconds):
            break
    for name in layer_runs[0]:
        metrics[name] = statistics.median(r[name] for r in layer_runs)
    untraced_wall = statistics.median(c.wall_s for c in plain)
    traced_wall = statistics.median(c.wall_s for c in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    tails = {n: tracer.tail_percentile(int(metrics[f"{n}.calls"])) for n in FULL_STAT_LAYERS}
    return metrics, {"n_traced": len(traced), "tail_percentile": tails}


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_info() -> dict[str, str]:
    info = {"cpu_model": platform.processor() or "unknown"}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                info[f"l{level}_size"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def run_metadata(seed: int) -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        **cpu_info(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "thread_caps": thread_caps(),
        "seed": seed,
        "load": "closed loop, 1 client, 1 command at a time",
    }


def declared_metrics(trace: int) -> list[tuple[str, str]]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in doc["per_layer" if trace else "end_to_end"]]


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    wl = workloads.generate(name, seed)
    print(f"# workload {name} seed {seed}: {wl['why']}")
    print(f"# config {json.dumps(wl['config'], sort_keys=True)}")
    if wl["source"] is not None:
        print(f"# replayed trajectory from {json.dumps(wl['source']['config'], sort_keys=True)}")
    run = Run(wl)
    values, extra = per_layer(run, seconds) if trace else end_to_end(run, seconds)
    metrics = {}
    for metric, unit in declared_metrics(trace):
        metrics[metric] = {"value": values[metric], "unit": unit}
        print(f"{name:16s} {metric:45s} {values[metric]:>16.6g} {unit}")
    print(f"{name:16s} {'failed_frac':45s} {run.failed / run.attempted:>16.6g} "
          f"({run.failed} of {run.attempted} commands)")
    print(f"# samples {json.dumps(extra)}")
    for problem in run.problems:
        print(f"# FAILED {problem}")
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="chemotaxis-lab benchmark")
    parser.add_argument("--workload", default="all", choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer metrics (ignored with --workload all)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chemotaxis_lab" / "cli.py").is_file():
        print(f"no chemotaxis_lab sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    print(f"# meta {json.dumps(run_metadata(args.seed))}")
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    else:
        parts = {(name, trace): run_workload(name, args.seed, args.seconds, trace)
                 for name in workloads.NAMES for trace in (0, 1)}
        result = {
            "correct": all(p["correct"] for p in parts.values()),
            "attempted": sum(p["attempted"] for p in parts.values()),
            "failed": sum(p["failed"] for p in parts.values()),
            "metrics": {f"{name}/{metric}": value for (name, _), p in parts.items()
                        for metric, value in p["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
