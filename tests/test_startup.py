"""Start-up contract: SciPy's LAPACK extension is loaded only when a PDE
step runs, and the scipy package is never imported for it; NumPy is
imported only when a subcommand builds arrays; and the benchmark's tracer
still reaches every layer it wraps.

Each check runs in a fresh interpreter, since the test session itself has
imported SciPy long before.
"""
import importlib.machinery
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg.lapack

import chemotaxis_lab
from chemotaxis_lab import _lapack, model, pde_stepper

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

# Runs cli.main on sys.argv[2:] and reports whether NumPy and SciPy got
# imported; the first argument is a comma-separated list of the modules to
# make unimportable beforehand, empty for none.
MAIN = (
    "import sys\n"
    "for name in filter(None, sys.argv.pop(1).split(',')):\n"
    "    sys.modules[name] = None\n"
    "from chemotaxis_lab.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "for name in ('numpy', 'scipy'):\n"
    "    print(f'{name} imported:', sys.modules.get(name) is not None, file=sys.stderr)\n"
    "sys.exit(code)\n"
)

# Runs cli.main on sys.argv[1:], then reports whether the stepper's and the
# signal solve's LAPACK routines are the _flapack extension's own, and
# whether scipy.linalg got imported.
LAPACK_PROBE = (
    "import sys\n"
    "from chemotaxis_lab.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "from chemotaxis_lab import elliptic, pde_stepper\n"
    "flapack = sys.modules['scipy.linalg._flapack']\n"
    "own = elliptic.dpttrf is flapack.dpttrf and elliptic.dpttrs is pde_stepper.dpttrs is flapack.dpttrs\n"
    "print('routines from _flapack:', own, file=sys.stderr)\n"
    "print('scipy.linalg imported:', 'scipy.linalg' in sys.modules, file=sys.stderr)\n"
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


def run_blocked(tmp_path, command, blocked):
    """Run command on the shared inputs with the modules `blocked` made
    unimportable, and unblocked; returns both stderrs after asserting that
    the two runs exit 0 with the same stdout and the same output bytes."""
    cfg, traj = write_inputs(tmp_path)
    argv = command.split()[:1] + ["--config", cfg]
    if command.endswith("--trajectory"):
        argv += ["--trajectory", traj]
    runs, errs = {}, []
    for mode in (blocked, ""):
        out = tmp_path / (mode.replace(",", "-") or "normal")
        proc = python("-c", MAIN, mode, *argv, "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        runs[mode] = (proc.stdout.replace(str(out), "<out>"), outputs(out))
        errs.append(proc.stderr)
    assert runs[blocked] == runs[""]
    return errs


class TestImports:
    # SciPy cannot be imported without NumPy, so this covers SciPy too.
    @pytest.mark.parametrize("module", ["chemotaxis_lab", "chemotaxis_lab.cli"])
    def test_import_leaves_numpy_out(self, module):
        probe = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
        proc = python("-c", probe)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_names_are_the_defining_objects(self):
        assert pde_stepper.StepperConfig is model.StepperConfig
        with pytest.raises(AttributeError):
            chemotaxis_lab.no_such_name


class TestScipyFreeSubcommands:
    # check, steady and rectangles --trajectory run without NumPy either
    # (TestNumpyFreeSubcommands), and so without SciPy.
    @pytest.mark.parametrize("command", ["bounds"])
    def test_runs_without_scipy_and_writes_the_same_bytes(self, tmp_path, command):
        for err in run_blocked(tmp_path, command, "scipy"):
            assert "scipy imported: False" in err

    def test_simulate_imports_scipy(self, tmp_path):
        # Only SciPy's LAPACK extension, loaded from its file: the routines
        # the solves call are its own, and scipy.linalg is never run.
        cfg, _ = write_inputs(tmp_path)
        proc = python("-c", LAPACK_PROBE, "simulate", "--config", cfg, "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert "routines from _flapack: True" in proc.stderr
        assert "scipy.linalg imported: False" in proc.stderr

    def test_subcommands_without_a_pde_step_leave_lapack_unloaded(self, tmp_path):
        cfg, traj = write_inputs(tmp_path)
        runs = [[command, "--config", cfg, "--out", str(tmp_path / "out")] for command in ("check", "steady", "bounds")]
        runs.append(["rectangles", "--config", cfg, "--trajectory", traj, "--out", str(tmp_path / "out")])
        script = (
            "import sys\n"
            "from chemotaxis_lab.cli import main\n"
            f"codes = [main(argv) for argv in {runs!r}]\n"
            "print(codes, [m for m in ('chemotaxis_lab._lapack', 'scipy.linalg._flapack') if m in sys.modules])\n"
        )
        proc = python("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] []"


class TestNumpyFreeSubcommands:
    @pytest.mark.parametrize("command", ["check", "steady", "rectangles --trajectory"])
    def test_runs_without_numpy_and_writes_the_same_bytes(self, tmp_path, command):
        for err in run_blocked(tmp_path, command, "numpy,scipy"):
            assert "numpy imported: False" in err and "scipy imported: False" in err

    @pytest.mark.parametrize("command", ["bounds", "simulate"])
    def test_array_subcommands_import_numpy(self, tmp_path, command):
        cfg, _ = write_inputs(tmp_path)
        proc = python("-c", MAIN, "", command, "--config", cfg, "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert "numpy imported: True" in proc.stderr


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestLapackLoad:
    """Both ways to the LAPACK routines: the extension file loaded directly,
    and the public scipy.linalg.lapack import it falls back to."""

    # Made in a fresh process before the package is imported, each of these
    # breaks one step of the direct load: finding scipy, finding the file,
    # and loading it (scipy found in a directory JUNK whose _flapack file is
    # not a shared object).
    FIND_SCIPY = (
        "import importlib.util\n"
        "find_spec = importlib.util.find_spec\n"
        "importlib.util.find_spec = lambda name, *a: {spec} if name == 'scipy' else find_spec(name, *a)\n"
    )
    BREAKS = {
        "scipy_unfindable": FIND_SCIPY.format(spec="None"),
        "no_extension_file": "import importlib.machinery\nimportlib.machinery.EXTENSION_SUFFIXES = ['.missing']\n",
        "load_error": FIND_SCIPY.format(
            spec="importlib.util.spec_from_file_location('scipy', 'JUNK/__init__.py', submodule_search_locations=['JUNK'])"
        ),
    }

    def test_direct_routines_give_the_public_bits(self, tmp_path):
        rng = np.random.default_rng(21)
        data = {}
        for n in (2, 128, 8192):
            off = -rng.uniform(0.0, 1.0, n - 1)
            diag = rng.uniform(0.5, 1.5, n)
            diag[:-1] -= off
            diag[1:] -= off
            data |= {f"diag{n}": diag, f"off{n}": off, f"rhs{n}": rng.uniform(-1.0, 1.0, n)}
        np.savez(tmp_path / "in.npz", **data)
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from chemotaxis_lab._lapack import dpttrf, dpttrs\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "f = np.load(sys.argv[1])\n"
            "out = {}\n"
            "for n in (2, 128, 8192):\n"
            "    d, e, info = dpttrf(f[f'diag{n}'], f[f'off{n}'])\n"
            "    out |= {f'd{n}': d, f'e{n}': e, f'x{n}': dpttrs(d, e, f[f'rhs{n}'])[0]}\n"
            "np.savez(sys.argv[2], **out)\n"
        )
        proc = python("-c", script, str(tmp_path / "in.npz"), str(tmp_path / "out.npz"))
        assert proc.returncode == 0, proc.stderr
        public = scipy.linalg.lapack
        with np.load(tmp_path / "out.npz") as direct:
            for n in (2, 128, 8192):
                d, e, info = public.dpttrf(data[f"diag{n}"], data[f"off{n}"])
                assert info == 0
                x = public.dpttrs(d, e, data[f"rhs{n}"])[0]
                for name, bits in ((f"d{n}", d), (f"e{n}", e), (f"x{n}", x)):
                    assert direct[name].tobytes() == bits.tobytes(), name
        # CPython keeps one copy of the extension, whichever way it came.
        assert _lapack.dpttrf is public.dpttrf and _lapack.dpttrs is public.dpttrs

    @pytest.mark.parametrize("break_name", sorted(BREAKS))
    def test_fallback_writes_the_same_bytes(self, tmp_path, break_name):
        cfg, _ = write_inputs(tmp_path)
        direct = python("-m", "chemotaxis_lab", "simulate", "--config", cfg, "--out", str(tmp_path / "direct"))
        assert direct.returncode == 0, direct.stderr
        junk = tmp_path / "scipy" / "linalg" / f"_flapack{importlib.machinery.EXTENSION_SUFFIXES[0]}"
        junk.parent.mkdir(parents=True)
        junk.write_bytes(b"not a shared object")
        script = (
            self.BREAKS[break_name].replace("JUNK", str(tmp_path / "scipy"))
            + "import sys\n"
            "from chemotaxis_lab.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "import scipy.linalg.lapack as public\n"
            "from chemotaxis_lab import elliptic, pde_stepper\n"
            "assert 'scipy.linalg' in sys.modules\n"
            "assert elliptic.dpttrf is public.dpttrf and pde_stepper.dpttrs is public.dpttrs\n"
            "sys.exit(code)\n"
        )
        fallback = python("-c", script, "simulate", "--config", cfg, "--out", str(tmp_path / "fallback"))
        assert fallback.returncode == 0, fallback.stderr
        assert fallback.stdout.replace(str(tmp_path / "fallback"), str(tmp_path / "direct")) == direct.stdout
        assert outputs(tmp_path / "fallback") == outputs(tmp_path / "direct")

    def test_simulate_without_scipy_fails_as_before(self, tmp_path):
        # SciPy made unimportable: the fallback import raises, as the public
        # import in the stepper did before the direct load, and nothing is written.
        cfg, _ = write_inputs(tmp_path)
        proc = python("-c", MAIN, "scipy", "simulate", "--config", cfg, "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1] == (
            "ModuleNotFoundError: No module named 'scipy.linalg'; 'scipy' is not a package"
        )
        assert not (tmp_path / "out").exists()


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
            "pde_stepper.run_simulation",
            "elliptic.solve_w", "elliptic.assemble",
            "linalg.banded_solve.diffusion", "linalg.banded_solve.signal", "linalg.factor",
            # reached through the family tables by module-global name
            "steady_states.linf_bounds", "steady_states.l1_bounds", "steady_states.mass_sum_cap",
            "steady_states.alpha_beta", "steady_states.coexistence_state",
        ):
            assert layers.get(name, {}).get("calls", 0) > 0, name

    def test_rectangles_replay_reaches_the_rectangle_layers(self, tmp_path):
        cfg, traj = write_inputs(tmp_path)
        layers = self.traced_and_plain(tmp_path, ["rectangles", "--config", cfg, "--trajectory", traj])
        for name in (
            "cli.read_trajectory_csv", "ode_bounds.integrate_rectangles", "ode_bounds.check_enclosure",
        ):
            assert layers.get(name, {}).get("calls", 0) > 0, name
