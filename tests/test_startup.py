"""Start-up contract: SciPy is imported only when a PDE step runs, and the
benchmark's tracer still reaches every layer it wraps.

Each check runs in a fresh interpreter, since the test session itself has
imported SciPy long before.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chemotaxis_lab
from chemotaxis_lab import model, pde_stepper

REPO_ROOT = Path(__file__).resolve().parents[1]
TRACER = REPO_ROOT / "perfbench" / "tracer.py"

PARAMS = {
    "d1": 1.0, "d2": 1.0, "d3": 1.0, "chi1": 0.1, "chi2": 0.1,
    "a0": 1.0, "a1": 2.0, "a2": 1.0, "a3": 0.0, "a4": 0.0,
    "b0": 1.0, "b1": 1.0, "b2": 2.0, "b3": 0.0, "b4": 0.0,
    "k": 1.0, "l": 1.0, "lambda": 1.0, "omega_measure": 1.0,
}
CONFIG = {
    "params": PARAMS,
    "grid": {"length": 1.0, "n_cells": 16},
    "stepper": {"dt": 0.01, "t_end": 0.05},
    "initial_data": {"perturbed_constant": [0.5, 0.5, 0.1]},
    "references": ["coexistence"],
}
# The first row of a trajectory CSV is all `rectangles --trajectory` needs
# to integrate zero steps and compare one sample.
TRAJECTORY = (
    "t,u_min,u_max,u_mean,v_min,v_max,v_mean,w_min,w_max,mass_u,mass_v\n"
    "0.0,0.4,0.6,0.5,0.4,0.6,0.5,0.9,1.1,0.5,0.5\n"
)

# Runs cli.main on sys.argv[1:] and reports whether SciPy got imported; the
# first argument "block" makes SciPy unimportable beforehand.
MAIN = (
    "import sys\n"
    "block = sys.argv.pop(1) == 'block'\n"
    "if block:\n"
    "    sys.modules['scipy'] = None\n"
    "from chemotaxis_lab.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('scipy imported:', sys.modules.get('scipy') is not None, file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def python(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120, env=env, cwd=cwd,
    )


def write_inputs(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG, indent=1))
    traj = tmp_path / "trajectory.csv"
    traj.write_text(TRAJECTORY)
    return str(cfg), str(traj)


def outputs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())}


class TestImports:
    @pytest.mark.parametrize("module", ["chemotaxis_lab", "chemotaxis_lab.cli"])
    def test_import_leaves_scipy_out(self, module):
        probe = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = python("-c", probe)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_names_are_the_defining_objects(self):
        assert pde_stepper.StepperConfig is model.StepperConfig
        assert pde_stepper.CflViolationError is model.CflViolationError
        with pytest.raises(AttributeError):
            chemotaxis_lab.no_such_name


class TestScipyFreeSubcommands:
    @pytest.mark.parametrize(
        "command", ["check", "steady", "bounds", "rectangles --trajectory"]
    )
    def test_runs_without_scipy_and_writes_the_same_bytes(self, tmp_path, command):
        cfg, traj = write_inputs(tmp_path)
        argv = command.split()[:1] + ["--config", cfg]
        if command.endswith("--trajectory"):
            argv += ["--trajectory", traj]
        runs = {}
        for mode in ("block", "normal"):
            out = tmp_path / mode
            proc = python("-c", MAIN, mode, *argv, "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            assert "scipy imported: False" in proc.stderr
            runs[mode] = (proc.stdout.replace(str(out), "<out>"), outputs(out))
        assert runs["block"] == runs["normal"]

    def test_simulate_imports_scipy(self, tmp_path):
        cfg, _ = write_inputs(tmp_path)
        proc = python("-c", MAIN, "normal", "simulate", "--config", cfg, "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert "scipy imported: True" in proc.stderr


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracerContract:
    """perfbench/tracer.py wraps the package's callables where the package
    looks them up; a lazy import must not hide a layer from it."""

    def traced_and_plain(self, tmp_path, argv):
        spans = tmp_path / "spans.npz"
        traced = python(str(TRACER), "--spans", str(spans), "--run-id", "t", "--",
                        *argv, "--out", str(tmp_path / "traced"), cwd=REPO_ROOT)
        assert traced.returncode == 0, traced.stderr
        plain = python("-m", "chemotaxis_lab", *argv, "--out", str(tmp_path / "plain"))
        assert plain.returncode == 0, plain.stderr
        assert outputs(tmp_path / "traced") == outputs(tmp_path / "plain")
        return load_tracer().derive(str(spans))

    def test_simulate_reaches_every_pde_layer(self, tmp_path):
        cfg, _ = write_inputs(tmp_path)
        layers = self.traced_and_plain(tmp_path, ["simulate", "--config", cfg])
        for name in (
            "pde_stepper.run_simulation", "pde_stepper.initial_state",
            "elliptic.solve_w", "elliptic.assemble",
            "linalg.banded_solve.diffusion", "linalg.banded_solve.signal", "linalg.factor",
        ):
            assert layers.get(name, {}).get("calls", 0) > 0, name

    def test_rectangles_replay_reaches_the_rectangle_layers(self, tmp_path):
        cfg, traj = write_inputs(tmp_path)
        layers = self.traced_and_plain(tmp_path, ["rectangles", "--config", cfg, "--trajectory", traj])
        for name in (
            "cli.read_trajectory_csv", "ode_bounds.integrate_rectangles", "ode_bounds.check_enclosure",
        ):
            assert layers.get(name, {}).get("calls", 0) > 0, name
