import csv
import importlib.util
import json
import os
import platform
import re
import subprocess
import sys
from collections import Counter
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

from chemotaxis_lab import cli, hypotheses, ode_bounds, steady_states
from chemotaxis_lab.cli import main
from chemotaxis_lab.diagnostics import TRAJECTORY_COLUMNS

REPO_ROOT = Path(__file__).resolve().parents[1]


def base_params():
    return {
        "d1": 1.0, "d2": 1.0, "d3": 1.0, "chi1": 0.1, "chi2": 0.1,
        "a0": 1.0, "a1": 2.0, "a2": 1.0, "a3": 0.0, "a4": 0.0,
        "b0": 1.0, "b1": 1.0, "b2": 2.0, "b3": 0.0, "b4": 0.0,
        "k": 1.0, "l": 1.0, "lambda": 1.0, "omega_measure": 1.0,
    }


def base_config():
    return {
        "params": base_params(),
        "grid": {"length": 1.0, "n_cells": 32},
        "stepper": {"dt": 0.01, "t_end": 1.0},
        "initial_data": {"constant": [0.5, 0.5]},
        "references": ["coexistence"],
    }


def readme_config():
    readme = (REPO_ROOT / "README.md").read_text()
    return json.loads(re.search(r"### Example config\s+```json\n(.*?)```", readme, re.S).group(1))


def run_module(*args, env_updates=()):
    """Run `python -m chemotaxis_lab` on the repo's sources in its own
    process, so that a command that never ends fails the test by timeout.
    env_updates are (name, value) pairs set in its environment; a value of
    None unsets the variable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for name, value in env_updates:
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run(
        [sys.executable, "-m", "chemotaxis_lab", *args],
        capture_output=True, text=True, timeout=60, env=env,
    )


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def read_json(path):
    return json.loads(path.read_text())


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestConfigErrors:
    def test_invalid_json_reports_location(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{ this is not json")
        assert main(["check", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "invalid JSON at line" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["check", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["check", "--config", str(path), "--out", str(tmp_path)]) == 2

    def test_params_section_required(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {})
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "params" in capsys.readouterr().err

    def test_unknown_top_key(self, tmp_path, capsys):
        doc = base_config()
        doc["solvers"] = {}
        cfg = write_config(tmp_path, doc)
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_params_missing_coefficient(self, tmp_path, capsys):
        doc = base_config()
        del doc["params"]["k"]
        cfg = write_config(tmp_path, doc)
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "missing key(s): k" in capsys.readouterr().err

    def test_params_unknown_coefficient(self, tmp_path):
        doc = base_config()
        doc["params"]["zeta"] = 1.0
        cfg = write_config(tmp_path, doc)
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_bool_is_not_a_number(self, tmp_path, capsys):
        doc = base_config()
        doc["params"]["a0"] = True
        cfg = write_config(tmp_path, doc)
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "expected a number" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, section, key, literal",
        [
            ("simulate", "initial_data", "constant", "[NaN, 0.5]"),
            ("simulate", "initial_data", "constant", "[1e400, 0.5]"),
            ("simulate", "stepper", "blowup_guard", "NaN"),
            ("bounds", "initial_data", "constant", "[NaN, 0.5]"),
            ("check", "params", "a0", "1" + "0" * 400),
        ],
        ids=["nan-data", "overflow-data", "nan-guard", "nan-bounds", "huge-int"],
    )
    def test_numbers_must_be_finite(self, tmp_path, capsys, command, section, key, literal):
        # JSON parsing accepts these literals; the config reader must not.
        doc = base_config()
        doc[section][key] = "@literal@"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc).replace('"@literal@"', literal))
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_nonpositive_required_coefficient(self, tmp_path, capsys):
        doc = base_config()
        doc["params"]["chi1"] = 0.0
        cfg = write_config(tmp_path, doc)
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "chi1" in capsys.readouterr().err

    def test_stepper_required_for_simulate(self, tmp_path):
        doc = base_config()
        del doc["stepper"]
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_grid_required_for_bounds(self, tmp_path, capsys):
        doc = base_config()
        del doc["grid"]
        cfg = write_config(tmp_path, doc)
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "grid" in capsys.readouterr().err

    def test_record_every_must_be_integer(self, tmp_path):
        doc = base_config()
        doc["stepper"]["record_every"] = 1.5
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_steady_tol_needs_window(self, tmp_path, capsys):
        doc = base_config()
        doc["stepper"]["steady_tol"] = 1e-6
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "together" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["steady_tol", "steady_window"])
    def test_steady_rule_must_be_positive(self, tmp_path, capsys, key):
        doc = base_config()
        doc["stepper"].update(steady_tol=1e-6, steady_window=0.5)
        doc["stepper"][key] = -1.0
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"config error: stepper: {key} must be positive" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_negative_blowup_guard(self, tmp_path):
        doc = base_config()
        doc["stepper"]["blowup_guard"] = -1.0
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_negative_initial_data(self, tmp_path, capsys):
        doc = base_config()
        doc["initial_data"] = {"constant": [-0.1, 0.5]}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "nonnegative" in capsys.readouterr().err

    def test_perturbation_must_not_dip_negative(self, tmp_path):
        doc = base_config()
        doc["initial_data"] = {"perturbed_constant": [0.2, 0.5, 0.3]}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_mode_count_validation(self, tmp_path):
        doc = base_config()
        doc["initial_data"] = {"perturbed_constant": [0.5, 0.5, 0.1, 1.5]}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        doc["initial_data"] = {"perturbed_constant": [0.5, 0.5, 0.1, 0]}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_exactly_one_initial_kind(self, tmp_path):
        doc = base_config()
        doc["initial_data"] = {"constant": [0.5, 0.5], "two_bumps": {}}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_two_bumps_width_validation(self, tmp_path):
        doc = base_config()
        doc["initial_data"] = {
            "two_bumps": {"centers": [0.3, 0.7], "widths": [0.0, 0.1], "heights": [1.0, 1.0]}
        }
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unknown_reference(self, tmp_path, capsys):
        doc = base_config()
        doc["references"] = ["weird"]
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "references[0]" in capsys.readouterr().err

    def test_custom_reference_needs_three_numbers(self, tmp_path, capsys):
        doc = base_config()
        doc["references"] = [{"custom": [0.5, 0.5]}]
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "references[0].custom: expected a list of 3 numbers" in capsys.readouterr().err

    def test_duplicate_references(self, tmp_path):
        doc = base_config()
        doc["references"] = ["coexistence", "coexistence"]
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_reference_not_computable(self, tmp_path, capsys):
        doc = base_config()
        doc["params"]["a1"] = 1.0
        doc["params"]["b2"] = 1.0
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "not computable" in capsys.readouterr().err

    def test_non_finite_reference_is_not_computable(self, tmp_path, capsys):
        # a2 + |Omega| a4 overflows, so the coexistence state's u* is NaN
        doc = readme_config()
        doc["params"].update(a2=1e308, a4=1e308)
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "references[0]: state not computable" in err
        assert "constant state (u*, v*, w*) = (nan, -0.0, nan) is not finite" in err
        assert not (tmp_path / "trajectory.csv").exists()

    def test_rectangles_tol_validation(self, tmp_path):
        doc = base_config()
        doc["rectangles"] = {"tol": -0.5}
        cfg = write_config(tmp_path, doc)
        assert main(["rectangles", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "key, value", [("dt", 0.0), ("dt", -1e-3), ("record_every", 0), ("record_every", -2)]
    )
    def test_rectangle_schedule_is_checked_before_any_run(
        self, tmp_path, capsys, monkeypatch, key, value
    ):
        def fail(*args, **kwargs):
            raise AssertionError("run_simulation called before the config was checked")

        monkeypatch.setattr(cli, "run_simulation", fail)
        doc = base_config()
        doc["rectangles"] = {key: value}
        cfg = write_config(tmp_path, doc)
        assert main(["rectangles", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"config error: rectangles.{key}: must be " in capsys.readouterr().err

    def test_outputs_unknown_key(self, tmp_path):
        doc = base_config()
        doc["outputs"] = {"movie_mp4": "out.mp4"}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_config_errors_come_before_any_run(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("run_simulation called before the config was checked")

        monkeypatch.setattr(cli, "run_simulation", fail)
        doc = base_config()
        doc["outputs"] = {"movie_mp4": "out.mp4"}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "outputs: unknown key(s): movie_mp4" in capsys.readouterr().err
        assert not (tmp_path / "trajectory.csv").exists()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("grid", "length", "1.0"),
            ("grid", "n_cells", 32.0),
            ("stepper", "dt", "0.01"),
            ("stepper", "t_end", None),
            ("stepper", "cfl_safety", [0.5]),
            ("stepper", "record_every", True),
            ("stepper", "record_every", 2.5),
            ("stepper", "blowup_guard", True),
            ("stepper", "steady_tol", "1e-6"),
            ("stepper", "steady_window", {}),
            ("rectangles", "dt", "0.001"),
            ("rectangles", "record_every", 10.0),
            ("rectangles", "tol", False),
            ("rectangles", "dt", None),
            ("rectangles", "record_every", "10"),
            ("rectangles", "tol", [1e-3]),
            ("rectangles", "record_every", True),
            ("outputs", "trajectory_csv", 1),
            ("outputs", "summary_json", ""),
            ("outputs", "check_json", None),
            ("outputs", "steady_json", ["steady.json"]),
            ("outputs", "bounds_json", True),
            ("outputs", "rectangles_csv", 2.0),
            ("outputs", "enclosure_json", {}),
        ],
    )
    def test_wrong_type_names_the_key(self, tmp_path, capsys, section, key, value):
        # Every section present is checked at load, whatever the subcommand.
        doc = base_config()
        doc.setdefault(section, {})[key] = value
        cfg = write_config(tmp_path, doc)
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"config error: {section}.{key}: expected " in capsys.readouterr().err

    def test_initial_box_is_an_unknown_key(self, tmp_path, capsys):
        # The rectangle starts on the first trajectory sample's extrema.
        doc = base_config()
        doc["rectangles"] = {"u_hi0": 0.46}
        cfg = write_config(tmp_path, doc)
        assert main(["rectangles", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "config error: rectangles: unknown key(s): u_hi0\n" in capsys.readouterr().err
        assert not (tmp_path / "enclosure.json").exists()

    def test_positivity_clip_is_an_unknown_key(self, tmp_path, capsys):
        # The stepper admits no step that makes a density negative, so there
        # is nothing left to clip.
        doc = base_config()
        doc["stepper"]["positivity_clip"] = True
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "stepper: unknown key(s): positivity_clip" in capsys.readouterr().err

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("n_dim", ["0", "-1"])
    def test_dimension_below_one_is_usage_error(self, tmp_path, capsys, n_dim):
        cfg = write_config(tmp_path, base_config())
        assert main(["check", "--config", cfg, "--out", str(tmp_path), f"--n-dim={n_dim}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"--n-dim: must be an integer >= 1, got {n_dim}" in err
        assert not (tmp_path / "check.json").exists()

    def test_non_integer_dimension_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert main(["check", "--config", cfg, "--out", str(tmp_path), "--n-dim", "2.5"]) == 2
        assert "--n-dim: invalid dimension value: '2.5'" in capsys.readouterr().err

    def test_dimension_beyond_the_float_range_is_usage_error(self, tmp_path, capsys):
        # the dimension-dependent margins compute with it as a float
        cfg = write_config(tmp_path, base_config())
        assert main(["check", "--config", cfg, "--out", str(tmp_path), "--n-dim", "1" + "0" * 400]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("usage:")
        assert f"--n-dim: must be at most {sys.float_info.max!r}" in err
        assert not (tmp_path / "check.json").exists()

    def test_largest_float_dimension_is_accepted(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        n_dim = int(sys.float_info.max)
        assert main(["check", "--config", cfg, "--out", str(tmp_path), "--n-dim", str(n_dim)]) == 0
        capsys.readouterr()
        assert read_json(tmp_path / "check.json")["n_dim"] == n_dim


    @staticmethod
    def assert_one_error_line(capsys, prefix):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(prefix) and err.count("\n") == 1, err

    @pytest.mark.parametrize("command", ["bounds", "simulate", "rectangles"])
    def test_nan_initial_data_is_a_config_error(self, tmp_path, capsys, command):
        # mode_count * pi * x overflows to inf, and cos(inf) is NaN; +inf
        # data stays valid, but NaN is no density
        doc = readme_config()
        doc["stepper"]["t_end"] = 0.01
        doc["initial_data"] = {"perturbed_constant": [0.5, 0.5, 0.1, 1e308]}
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        self.assert_one_error_line(capsys, "config error: initial_data: densities must be nonnegative")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize(
        "outputs, keys",
        [
            ({"trajectory_csv": "same.out", "summary_json": "same.out"}, "trajectory_csv and summary_json"),
            ({"trajectory_csv": "runs/a.csv", "summary_json": "runs/../runs/./a.csv"}, "trajectory_csv and summary_json"),
            ({"check_json": "summary.json"}, "summary_json and check_json"),
            ({"steady_json": "x", "bounds_json": "x", "enclosure_json": "x"}, "steady_json and bounds_json and enclosure_json"),
        ],
    )
    def test_outputs_must_name_distinct_files(self, tmp_path, capsys, outputs, keys):
        # a second write to one file would silently replace the first
        doc = base_config()
        doc["outputs"] = outputs
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        self.assert_one_error_line(capsys, f"config error: outputs: {keys} name one file\n")
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    def test_section_must_be_an_object(self, tmp_path, capsys):
        doc = base_config()
        doc["grid"] = 3
        cfg = write_config(tmp_path, doc)
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 2
        self.assert_one_error_line(capsys, "config error: grid: must be an object")

    def test_references_must_be_a_list(self, tmp_path, capsys):
        doc = base_config()
        doc["references"] = "coexistence"
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 2
        self.assert_one_error_line(capsys, "config error: references: must be a list")
        assert not (tmp_path / "trajectory.csv").exists()

    def test_unknown_initial_kind(self, tmp_path, capsys):
        doc = base_config()
        doc["initial_data"] = {"gaussian": [0.5, 0.1]}
        cfg = write_config(tmp_path, doc)
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 2
        self.assert_one_error_line(capsys, "config error: initial_data: unknown kind 'gaussian'")
        assert not (tmp_path / "bounds.json").exists()

    def test_missing_trajectory_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        missing = str(tmp_path / "nowhere.csv")
        args = ["rectangles", "--config", cfg, "--out", str(tmp_path), "--trajectory", missing]
        assert main(args) == 2
        self.assert_one_error_line(capsys, f"config error: cannot read trajectory {missing!r}: ")
        assert not (tmp_path / "rectangles.csv").exists()

    def test_non_numeric_trajectory_cell(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        trajectory = tmp_path / "trajectory.csv"
        trajectory.write_text("t,u_min,u_max,v_min,v_max\n0.0,0.4,0.6,0.4,zero\n")
        args = ["rectangles", "--config", cfg, "--out", str(tmp_path), "--trajectory", str(trajectory)]
        assert main(args) == 2
        self.assert_one_error_line(capsys, f"config error: {trajectory}: non-numeric cell: ")
        assert not (tmp_path / "rectangles.csv").exists()

    @pytest.mark.parametrize(
        "content, detail",
        [
            # JSON is UTF-8: a UTF-16 file is rejected whatever the locale.
            (json.dumps(base_config()).encode("utf-16"), "not UTF-8 text: "),
            (b'{"params": ' + b"[" * 5000 + b"]" * 5000 + b"}", "JSON nested too deeply"),
        ],
        ids=["utf-16", "nested"],
    )
    def test_unreadable_config(self, tmp_path, capsys, content, detail):
        path = tmp_path / "config.json"
        path.write_bytes(content)
        assert main(["check", "--config", str(path), "--out", str(tmp_path)]) == 2
        self.assert_one_error_line(capsys, f"config error: {path}: {detail}")

    @pytest.mark.parametrize(
        "old, new, key",
        [
            ('{"params": ', '{"references": [], "params": ', "references"),
            ('"chi1": ', '"chi1": 50.0, "chi1": ', "chi1"),
            # an equal value given twice is refused too, in any section
            ('{"constant": [0.5, 0.5]}', '{"constant": [0.5, 0.5], "constant": [0.5, 0.5]}', "constant"),
        ],
        ids=["top-level", "params", "initial-data"],
    )
    def test_duplicate_key(self, tmp_path, capsys, old, new, key):
        # json.loads alone keeps the last of two equal keys, so a config
        # that sets chi1 twice would run with the second value, unannounced.
        text = json.dumps(base_config())
        assert text.count(old) == 1
        path = tmp_path / "config.json"
        path.write_text(text.replace(old, new))
        for command in ("check", "simulate"):
            out = tmp_path / command
            assert main([command, "--config", str(path), "--out", str(out)]) == 2
            self.assert_one_error_line(capsys, f"config error: {path}: duplicate key {key!r}\n")
            assert not out.exists()

    @pytest.mark.parametrize(
        "row, detail",
        [
            (b"0.0," + b"4" * 140_000 + b",0.6,0.4,0.6", "field larger than field limit"),
            (b"0.0,0.4,0.6,0.4,0.6\xe9", "'utf-8' codec can't decode byte 0xe9"),
        ],
        ids=["oversized-cell", "not-utf8"],
    )
    def test_unreadable_trajectory_csv(self, tmp_path, capsys, row, detail):
        cfg = write_config(tmp_path, base_config())
        trajectory = tmp_path / "trajectory.csv"
        trajectory.write_bytes(b"t,u_min,u_max,v_min,v_max\n" + row + b"\n")
        args = ["rectangles", "--config", cfg, "--out", str(tmp_path), "--trajectory", str(trajectory)]
        assert main(args) == 2
        self.assert_one_error_line(capsys, f"config error: {trajectory}: not a readable CSV: {detail}")
        assert not (tmp_path / "rectangles.csv").exists()

    def test_output_under_a_regular_file_is_io_error(self, tmp_path, capsys):
        (tmp_path / "blocker").write_text("")
        doc = base_config()
        doc["outputs"] = {"check_json": "blocker/check.json"}
        cfg = write_config(tmp_path, doc)
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 2
        self.assert_one_error_line(capsys, "i/o error: ")


class TestOneVerdictPerConfig:
    # Every flat section a config gives is checked at load: an invalid value
    # fails every subcommand with the same exit code and message, before any
    # of them writes a file or runs anything.
    @pytest.mark.parametrize(
        "section, values, code, message",
        [
            ("stepper", {"dt": -1.0}, 2, "config error: stepper: dt must be positive and finite, got -1.0"),
            ("stepper", {"record_every": 0}, 2, "config error: stepper: record_every must be an integer >= 1, got 0"),
            ("stepper", {"cfl_safety": 1.5}, 2, "config error: stepper: cfl_safety must lie in (0, 1], got 1.5"),
            ("stepper", {"blowup_guard": 0.0}, 2, "config error: stepper: blowup_guard must be positive, got 0.0"),
            ("stepper", {"steady_tol": 1e-6}, 2, "config error: stepper: steady_tol and steady_window must be given together"),
            ("grid", {"n_cells": 3}, 2, "config error: grid: n_cells must be >= 4, got 3"),
            ("grid", {"length": 2.0}, 3, "precondition failure: grid length 2.0 must equal omega_measure 1.0"),
            ("rectangles", {"tol": -1.0}, 2, "config error: rectangles.tol: must be nonnegative, got -1.0"),
        ],
        ids=[
            "dt", "record_every", "cfl_safety", "blowup_guard", "steady_tol_alone",
            "n_cells", "length_not_omega", "rectangles_tol",
        ],
    )
    def test_every_subcommand_gives_the_same_verdict(self, tmp_path, capsys, section, values, code, message):
        doc = base_config()
        doc.setdefault(section, {}).update(values)
        cfg = write_config(tmp_path, doc)
        for command in ("check", "steady", "bounds", "simulate", "rectangles"):
            out = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(out)]) == code, command
            assert capsys.readouterr().err == message + "\n", command
            assert not out.exists(), command


class TestExitCodes:
    def test_domain_mismatch_is_precondition_failure(self, tmp_path, capsys):
        doc = base_config()
        doc["grid"]["length"] = 2.0
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "precondition failure" in capsys.readouterr().err

    def test_every_grid_command_checks_the_domain(self, tmp_path, capsys):
        doc = readme_config()
        doc["grid"]["length"] = 2.0
        cfg = write_config(tmp_path, doc)
        errors = []
        for command in ("bounds", "simulate", "rectangles"):
            assert main([command, "--config", cfg, "--out", str(tmp_path)]) == 3
            errors.append(capsys.readouterr().err)
        assert errors == [
            "precondition failure: grid length 2.0 must equal omega_measure 1.0\n"
        ] * 3
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    def test_oversized_dt_is_numerical_guard(self, tmp_path, capsys):
        # A dt rejected on the first step is a guard trip like any other:
        # both subcommands write their outputs over the one initial sample.
        doc = readme_config()
        doc["stepper"].update({"dt": 10.0, "t_end": 20.0})
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == 4
        assert capsys.readouterr().err == "guard tripped: cfl_violation\n"
        run = read_json(tmp_path / "sim" / "summary.json")["run"]
        assert (run["guard_tripped"], run["steps"], run["samples"], run["final_t"]) == (
            "cfl_violation", 0, 1, 0.0
        )
        assert len(run["notes"]) == 1
        assert "violates the positivity and reaction constraint" in run["notes"][0]
        assert "largest admissible dt" in run["notes"][0]
        assert len(read_csv_rows(tmp_path / "sim" / "trajectory.csv")) == 2
        assert main(["rectangles", "--config", cfg, "--out", str(tmp_path / "rect")]) == 4
        capsys.readouterr()
        enclosure = read_json(tmp_path / "rect" / "enclosure.json")
        assert enclosure["pde_guard_tripped"] == "cfl_violation"
        assert (enclosure["passed"], enclosure["n_times"]) == (True, 1)
        assert len(read_csv_rows(tmp_path / "rect" / "rectangles.csv")) == 2

    @pytest.mark.parametrize("param, value", [("lambda", 1e-300), ("d1", 1e300)])
    def test_operator_not_positive_definite_exits_3(self, tmp_path, capsys, param, value):
        # The signal operator with lambda = 1e-300, and the diffusion of u
        # with d1 = 1e300, lose positive definiteness in floating point.
        doc = readme_config()
        doc["params"][param] = value
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("precondition failure: the zero-flux operator ")
        assert err.endswith("is not positive definite in floating point\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]

    def test_run_shorter_than_the_stop_tolerance_reaches_t_end(self, tmp_path, capsys):
        doc = readme_config()
        doc["stepper"] = {"dt": 1e-14, "t_end": 1e-13}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        run = read_json(tmp_path / "summary.json")["run"]
        assert (run["steps"], run["samples"], run["final_t"]) == (10, 11, 1e-13)

    def test_blowup_guard_returns_4_with_partial_outputs(self, tmp_path, capsys):
        doc = base_config()
        doc["params"].update({"a0": 5.0, "a1": 0.1, "a2": 0.01, "b1": 0.01})
        doc["references"] = []
        doc["initial_data"] = {"constant": [0.5, 0.01]}
        doc["stepper"] = {"dt": 0.05, "t_end": 5.0, "blowup_guard": 30.0}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 4
        capsys.readouterr()
        summary = read_json(tmp_path / "summary.json")
        assert summary["run"]["guard_tripped"] == "blow_up"
        assert summary["run"]["final_t"] < 5.0
        assert summary["run"]["stationary_from_t"] is None
        rows = read_csv_rows(tmp_path / "trajectory.csv")
        assert len(rows) >= 3
        assert summary["run"]["steps"] == len(rows) - 2  # every step recorded, after the t = 0 row
        assert float(rows[-1][2]) > 30.0

    @staticmethod
    def narrow_minimum_config(dt, t_end):
        # Narrow bumps of u and v in cells 15 and 17 of 32, with almost no
        # diffusion: w has a sharp minimum in cell 16, which loses mass
        # through both faces.
        doc = readme_config()
        doc["params"].update({"d1": 1e-6, "d2": 1e-6, "d3": 1e-6, "chi1": 1.0, "chi2": 1.0})
        doc["grid"] = {"length": 1.0, "n_cells": 32}
        bumps = {"centers": [15.5 / 32, 17.5 / 32], "widths": [0.01, 0.01], "heights": [1.0, 1.0]}
        doc["initial_data"] = {"two_bumps": bumps}
        doc["stepper"] = {"dt": dt, "t_end": t_end}
        return doc

    def test_step_that_would_go_negative_exits_4(self, tmp_path, capsys):
        # The max-gradient advection limit cfl_safety*dx/(chi*max|dw|/dx)
        # admitted dt up to 8.883e-4 here, and one step of 8.87e-4 recorded
        # u_min = v_min = -0.0059.  The positivity limit is 4.48e-4.
        cfg = write_config(tmp_path, self.narrow_minimum_config(8.87e-4, 8.87e-4))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 4
        capsys.readouterr()
        run = read_json(tmp_path / "summary.json")["run"]
        assert (run["guard_tripped"], run["steps"]) == ("cfl_violation", 0)
        assert "violates the positivity constraint" in run["notes"][0]
        # One admitted step, after which the limit falls below dt.
        cfg = write_config(tmp_path, self.narrow_minimum_config(4.4e-4, 4.4e-3))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 4
        capsys.readouterr()
        run = read_json(tmp_path / "summary.json")["run"]
        assert run["guard_tripped"] == "cfl_violation"
        assert "violates the positivity constraint" in run["notes"][0]
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(row["t"]) for row in rows] == [0.0, 4.4e-4]
        assert min(float(row[col]) for row in rows for col in ("u_min", "v_min")) >= 0.0

    def test_dt_below_time_resolution_exits_3(self, tmp_path):
        # From t = 0 to 1e10 in steps of 1e-7, t stops advancing once its
        # float spacing passes 2e-7, long before t_end.
        doc = base_config()
        doc["stepper"] = {"dt": 1e-7, "t_end": 1e10}
        cfg = write_config(tmp_path, doc)
        proc = run_module("simulate", "--config", cfg, "--out", str(tmp_path))
        assert proc.returncode == 3, proc.stderr
        assert "float resolution" in proc.stderr
        assert "Traceback" not in proc.stderr

    @staticmethod
    def tiny_margin_config():
        # The H1 and H2 margins are about a1 = 1e-300: positive, but their
        # squares underflow to 0.0.
        doc = base_config()
        doc["params"].update({"a1": 1e-300, "chi1": 1e-320, "chi2": 1e-320})
        doc["references"] = []
        return doc

    def test_bounds_with_underflowing_margins(self, tmp_path):
        cfg = write_config(tmp_path, self.tiny_margin_config())
        proc = run_module("bounds", "--config", cfg, "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        document = read_json(tmp_path / "bounds.json")
        assert not document["sup_norm"]["holds"]
        assert not document["mass_per_species"]["holds"]
        assert document["mass_sum"]["holds"]

    def test_simulate_with_underflowing_margins(self, tmp_path):
        cfg = write_config(tmp_path, self.tiny_margin_config())
        proc = run_module("simulate", "--config", cfg, "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        envelopes = read_json(tmp_path / "summary.json")["envelopes"]
        assert "skipped" in envelopes["sup_norm"]
        assert "skipped" in envelopes["mass_per_species"]
        assert "cap" in envelopes["mass_sum"]

    def test_overflowing_run_warns_nothing(self, tmp_path):
        # u doubles every ten steps until its mass overflows to inf; the
        # non_finite guard reports it, and NumPy stays silent.
        doc = base_config()
        doc["params"].update({"a1": 5e-324, "a2": 0.0, "b1": 0.0, "b3": -1e-320, "chi1": 5e-324, "chi2": 5e-324})
        doc["references"] = []
        doc["grid"]["n_cells"] = 24
        doc["initial_data"] = {"constant": [5e304, 0.5]}
        doc["stepper"] = {"dt": 0.1, "t_end": 100.0, "blowup_guard": 1.7976931348623157e308}
        cfg = write_config(tmp_path, doc)
        proc = run_module("simulate", "--config", cfg, "--out", str(tmp_path))
        assert proc.returncode == 4, proc.stderr
        assert read_json(tmp_path / "summary.json")["run"]["guard_tripped"] == "non_finite"
        assert "Warning" not in proc.stderr

    def test_grid_whose_cell_width_squares_to_zero_is_a_config_error(self, tmp_path, capsys):
        # dx = 7.8e-163, whose square underflows to 0.0: the signal operator
        # and the stability check would divide by it.
        doc = base_config()
        doc["params"]["omega_measure"] = 1e-160
        doc["grid"] = {"length": 1e-160, "n_cells": 128}
        cfg = write_config(tmp_path, doc)
        for command in ("check", "steady", "bounds", "simulate", "rectangles"):
            out = tmp_path / command
            assert main([command, "--config", cfg, "--out", str(out)]) == 2, command
            assert capsys.readouterr().err == (
                "config error: grid: the cell width 7.8125e-163 squares to 0.0: length is too small\n"
            ), command
            assert not out.exists(), command

    @pytest.mark.parametrize("command", ["bounds", "simulate", "rectangles"])
    def test_oversized_grid_is_a_config_error(self, tmp_path, capsys, command):
        # NumPy refuses 2**62 cells of 8 bytes before it allocates anything.
        doc = base_config()
        doc["grid"]["n_cells"] = 2**62
        cfg = write_config(tmp_path, doc)
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: grid.n_cells: {2**62} cells do not fit in memory: ")
        assert err.count("\n") == 1 and "array is too big" in err
        assert not out.exists()

    def test_grid_that_cannot_be_allocated_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # A grid NumPy accepts but the machine cannot hold, with no allocation tried.
        def fail(grid):
            raise MemoryError(f"Unable to allocate an array with shape ({grid.n_cells},)")

        monkeypatch.setattr(cli.Grid1D, "cell_centers", fail)
        cfg = write_config(tmp_path, base_config())
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: grid.n_cells: 32 cells do not fit in memory: "
            "Unable to allocate an array with shape (32,)\n"
        )
        assert not (tmp_path / "out").exists()

    # In-process: the suite turns every RuntimeWarning into an error.
    def test_narrow_bump_warns_nothing(self, tmp_path, capsys):
        # ((x - c) / 1e-300)^2 overflows to inf, so u is 0.0 off its centre.
        doc = base_config()
        doc["initial_data"] = {
            "two_bumps": {"centers": [0.3, 0.7], "widths": [1e-300, 0.1], "heights": [1.0, 0.8]}
        }
        cfg = write_config(tmp_path, doc)
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert read_json(tmp_path / "bounds.json")["initial"]["sup_u0"] == 0.0

    def test_data_at_the_float_limit_warns_nothing(self, tmp_path, capsys):
        # The signal's source k*u + l*v and the masses of constant data at
        # 1e308 overflow to inf; the run ends as the non_finite trip.
        doc = base_config()
        doc["initial_data"] = {"constant": [1e308, 1e308]}
        cfg = write_config(tmp_path, doc)
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert read_json(tmp_path / "bounds.json")["initial"]["mass_u0"] == "inf"
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert read_json(tmp_path / "summary.json")["run"]["guard_tripped"] == "non_finite"
        assert main(["rectangles", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert read_json(tmp_path / "enclosure.json")["pde_guard_tripped"] == "non_finite"
        capsys.readouterr()

    def test_masses_whose_sum_overflows_warn_nothing(self, tmp_path, capsys):
        # Each mass is 1e308, finite, but their sum in the mass-sum envelope
        # is inf.  The first step's reaction limit is far below dt.
        doc = base_config()
        doc["params"]["omega_measure"] = doc["grid"]["length"] = 1e10
        doc["initial_data"] = {"constant": [1e298, 1e298]}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 4
        capsys.readouterr()
        summary = read_json(tmp_path / "summary.json")
        assert summary["run"]["guard_tripped"] == "cfl_violation"
        assert summary["measured"]["final"]["mass_u"] == 1e308
        assert summary["envelopes"]["mass_sum"]["max_recorded"] == "inf"

    def test_bounds_exit_3_when_no_family_applies(self, tmp_path, capsys):
        doc = base_config()
        doc["params"]["a3"] = -5.0
        cfg = write_config(tmp_path, doc)
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "no bound family" in capsys.readouterr().err
        document = read_json(tmp_path / "bounds.json")
        assert not document["sup_norm"]["holds"]
        assert not document["mass_per_species"]["holds"]
        assert not document["mass_sum"]["holds"]

    def test_bounds_with_overflowing_growth_rates(self, tmp_path):
        # (a0 + b0)^2 overflows: the sup-norm caps are inf, not an OverflowError.
        doc = readme_config()
        doc["params"]["a0"] = 1e200
        cfg = write_config(tmp_path, doc)
        proc = run_module("bounds", "--config", cfg, "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        sup_norm = read_json(tmp_path / "bounds.json")["sup_norm"]
        assert sup_norm["holds"] is True
        assert sup_norm["sup_cap_u"] == sup_norm["sup_cap_v"] == "inf"

    def test_simulate_with_overflowing_growth_rates(self, tmp_path):
        doc = readme_config()
        doc["params"]["a0"] = 1e155
        doc["stepper"] = {"dt": 1e-158, "t_end": 2e-158}
        cfg = write_config(tmp_path, doc)
        proc = run_module("simulate", "--config", cfg, "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        sup_norm = read_json(tmp_path / "summary.json")["envelopes"]["sup_norm"]
        assert sup_norm["cap_u"] == sup_norm["cap_v"] == "inf"


class TestDocumentContents:
    def test_check_document(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "H1: holds" in out
        assert "asymptotics: coexistence" in out
        doc = read_json(tmp_path / "check.json")
        assert doc["n_dim"] == 1
        assert doc["hypotheses"]["h1"]["holds"] is True
        labels = [m["label"] for m in doc["hypotheses"]["h1"]["margins"]]
        assert labels == ["a1_side", "b2_side"]
        assert doc["classification"]["asymptotics"] == "coexistence"
        assert doc["classification"]["global_existence"] == [
            "h1", "h2+h4", "h3+h4", "h3+h5", "h3+h6",
        ]
        assert doc["gamma_star"]["value"] == "inf"
        assert doc["asymptotic_routes"]["coexistence"]["holds"] is True

    def test_check_records_dimension(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert main(["check", "--config", cfg, "--out", str(tmp_path), "--n-dim", "3"]) == 0
        capsys.readouterr()
        assert read_json(tmp_path / "check.json")["n_dim"] == 3

    def test_check_evaluates_each_report_once(self, tmp_path, capsys, monkeypatch):
        names = [f"check_h{i}" for i in range(1, 7)]
        names += ["check_coexistence", "check_coexistence_competitive", "check_exclusion"]
        calls = Counter()
        for name in names:
            def counted(*args, _name=name, _real=getattr(hypotheses, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(hypotheses, name, counted)
        cfg = write_config(tmp_path, base_config())
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert calls == Counter(names)

    def test_undefined_exclusion_threshold_is_a_failing_margin(self, tmp_path, capsys):
        # a2 + a4*|Omega| = 0 leaves the exclusion route's b0 threshold
        # undefined: its margin is -inf, with a note, and the route's other
        # margins are reported as usual.  The coexistence route holds first.
        doc = base_config()
        doc["params"]["a2"] = 0.0
        cfg = write_config(tmp_path, doc)
        assert main(["check", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "exclusion: fails (a2_vs_chi1_l=-0.1, b0_threshold=-inf)\n" in out
        document = read_json(tmp_path / "check.json")
        assert document["classification"] == {
            "global_existence": ["h1", "h3+h5", "h3+h6"], "asymptotics": "coexistence"
        }
        exclusion = document["asymptotic_routes"]["exclusion"]
        assert exclusion["holds"] is False
        assert [(m["label"], m["value"], m["satisfied"]) for m in exclusion["margins"]] == [
            ("b2_chemotaxis_slack", 1.8, True),
            ("a4_sign", 0.0, True),
            ("a2_vs_chi1_l", -0.1, False),
            ("a1_vs_chi1_k", 1.9, True),
            ("b0_threshold", "-inf", False),
            ("dominance", 1.52, True),
            ("h1_a1_side", 1.8, True),
            ("h1_b2_side", 1.8, True),
        ]
        assert exclusion["notes"] == [
            "dominance branch: b1_large",
            "exclusion threshold is undefined: a2 + a4*|Omega| = 0",
        ]

    def test_steady_document(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert main(["steady", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        doc = read_json(tmp_path / "steady.json")
        assert doc["coexistence"]["u_star"] == pytest.approx(1.0 / 3.0, rel=1e-14)
        assert doc["coexistence"]["w_star"] == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert doc["exclusion"]["u_star"] == 0.0
        assert isinstance(doc["semi_trivial"], list) and len(doc["semi_trivial"]) == 2

    def test_steady_reports_degenerate_states_as_data(self, tmp_path, capsys):
        doc = base_config()
        doc["params"]["a1"] = 1.0
        doc["params"]["b2"] = 1.0
        cfg = write_config(tmp_path, doc)
        assert main(["steady", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        document = read_json(tmp_path / "steady.json")
        assert "error" in document["coexistence"]
        assert "u_star" in document["exclusion"]

    def test_steady_reports_a_non_finite_state_as_an_error(self, tmp_path, capsys):
        doc = readme_config()
        doc["params"].update(a2=1e308, a4=1e308)
        cfg = write_config(tmp_path, doc)
        assert main(["steady", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "coexistence: not computable" in capsys.readouterr().out
        document = read_json(tmp_path / "steady.json")
        assert document["coexistence"] == {
            "error": "constant state (u*, v*, w*) = (nan, -0.0, nan) is not finite"
        }
        assert document["exclusion"] == {"u_star": 0.0, "v_star": 0.5, "w_star": 0.5}

    @pytest.mark.parametrize(
        "args, written, golden",
        [
            (["check", "--n-dim", "1"], "check.json", "check_n_dim_1.json"),
            (["check", "--n-dim", "3"], "check.json", "check_n_dim_3.json"),
            (["steady"], "steady.json", "steady.json"),
            (["check", "--n-dim", "1"], "check.json", "mixed_sign_check_n_dim_1.json"),
            (["check", "--n-dim", "3"], "check.json", "mixed_sign_check_n_dim_3.json"),
            (["steady"], "steady.json", "mixed_sign_steady.json"),
            (["check", "--n-dim", "1"], "check.json", "undefined_threshold_check_n_dim_1.json"),
            (["check", "--n-dim", "3"], "check.json", "undefined_threshold_check_n_dim_3.json"),
            (["steady"], "steady.json", "undefined_threshold_steady.json"),
        ],
    )
    def test_readme_config_matches_the_golden_file(self, tmp_path, capsys, args, written, golden):
        # check and steady compute in Python floats alone: the same bytes on
        # every platform.  The golden files named mixed_sign_* belong to the
        # mixed-sign config beside them, which takes the negative-part
        # branches; those named undefined_threshold_* to the README config
        # with a2 = 0, whose exclusion threshold is undefined.
        prefix = next((p for p in ("mixed_sign_", "undefined_threshold_") if golden.startswith(p)), "")
        if prefix:
            doc = read_json(REPO_ROOT / "tests" / "golden" / f"{prefix}config.json")
        else:
            doc = readme_config()
        cfg = write_config(tmp_path, doc)
        assert main([*args, "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        expected = (REPO_ROOT / "tests" / "golden" / golden).read_bytes()
        assert (tmp_path / written).read_bytes() == expected

    def test_bounds_document(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        doc = read_json(tmp_path / "bounds.json")
        assert doc["initial"]["sup_u0"] == 0.5
        assert doc["initial"]["mass_u0"] == pytest.approx(0.5, rel=1e-14)
        assert doc["sup_norm"]["holds"] is True
        assert doc["sup_norm"]["l_const"] == pytest.approx(1.8, rel=1e-14)
        assert doc["mass_sum"]["holds"] is True
        assert doc["mass_sum"]["alpha"] == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize(
        "config, bounds_exit, simulate_exit",
        [("readme", 0, 0), ("no_family", 3, 4), ("mixed_sign", 0, 0), ("two_bumps", 0, 0)],
    )
    def test_simulate_envelopes_agree_with_bounds(
        self, tmp_path, capsys, config, bounds_exit, simulate_exit
    ):
        # The caps depend on the params and the initial data only, so a
        # short run checks them.  simulate reads the data's sup norms and
        # masses from the record's first sample, bounds from the data.
        if config == "no_family":
            doc = base_config()
            doc["params"]["a3"] = -5.0
        else:
            if config == "mixed_sign":
                doc = read_json(REPO_ROOT / "tests" / "golden" / "mixed_sign_config.json")
            else:
                doc = readme_config()
            if config == "two_bumps":
                doc["initial_data"] = {
                    "two_bumps": {"centers": [0.3, 0.65], "widths": [0.1, 0.15], "heights": [1.0, 0.7]}
                }
            doc["stepper"]["t_end"] = 1.0
        cfg = write_config(tmp_path, doc)
        assert main(["bounds", "--config", cfg, "--out", str(tmp_path)]) == bounds_exit
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == simulate_exit
        capsys.readouterr()
        bounds = read_json(tmp_path / "bounds.json")
        envelopes = read_json(tmp_path / "summary.json")["envelopes"]
        cap_fields = {
            "sup_norm": {"cap_u": "sup_cap_u", "cap_v": "sup_cap_v"},
            "mass_per_species": {"cap_u": "mass_u_cap", "cap_v": "mass_v_cap"},
            "mass_sum": {"cap": "mass_sum_cap"},
        }
        for family, fields in cap_fields.items():
            bound, envelope = bounds[family], envelopes[family]
            if bound["holds"]:
                assert "skipped" not in envelope
                for cap, field in fields.items():
                    assert envelope[cap] == bound[field]
            else:
                assert envelope == {"skipped": bound["error"]}

    def test_lambda_key_maps_to_signal_decay(self, tmp_path, capsys):
        doc = base_config()
        doc["params"]["lambda"] = 2.0
        cfg = write_config(tmp_path, doc)
        assert main(["steady", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        document = read_json(tmp_path / "steady.json")
        assert document["coexistence"]["w_star"] == pytest.approx(1.0 / 3.0, rel=1e-14)


def write_trajectory_with_csv_writer(path, rec, distances):
    """The csv.writer layout that _write_trajectory_csv replaced."""
    header = list(TRAJECTORY_COLUMNS)
    for label in distances:
        header.extend([f"dist_u_{label}", f"dist_v_{label}", f"dist_w_{label}"])
    columns = [getattr(rec, name) for name in TRAJECTORY_COLUMNS]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(rec.n_samples):
            row = [column[i] for column in columns]
            for triple in distances.values():
                row.extend(series[i] for series in triple)
            writer.writerow([repr(x) for x in row])


class TestSimulateOutputs:
    @pytest.mark.parametrize(
        "references", [[], ["coexistence"], ["coexistence", "semi_trivial"]]
    )
    def test_trajectory_csv_matches_csv_writer_layout(self, tmp_path, references):
        doc = base_config()
        doc["initial_data"] = {"perturbed_constant": [0.5, 0.5, 0.1]}
        doc["references"] = references
        doc = cli.load_config(write_config(tmp_path, doc))
        refs = cli.build_references(doc, doc["params"])
        rec = cli._run_from_config(doc)
        # Cells whose repr is unusual: NaN, infinities, signed zero, subnormal.
        odd = np.array([[np.nan, -0.0, 5e-324], [np.inf, -np.inf, 0.0], [1e300, -1e-300, 2.0]])
        with np.errstate(invalid="ignore"):  # the mean of inf and -inf
            rec.append_sample(rec.t[-1] + 1.0, odd, -0.0, np.nan)
        distances = {label: rec.distances((r.u_star, r.v_star, r.w_star)) for label, r in refs}
        assert len(distances) == {0: 0, 1: 1, 2: 3}[len(references)]
        cli._write_trajectory_csv(tmp_path / "streamed.csv", rec, distances)
        write_trajectory_with_csv_writer(tmp_path / "oracle.csv", rec, distances)
        assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        assert len(read_csv_rows(tmp_path / "streamed.csv")) == rec.n_samples + 1

    def test_zero_horizon_single_row(self, tmp_path, capsys):
        doc = base_config()
        doc["stepper"]["t_end"] = 0.0
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        rows = read_csv_rows(tmp_path / "trajectory.csv")
        assert len(rows) == 2
        assert rows[1][0] == "0.0"
        summary = read_json(tmp_path / "summary.json")
        assert summary["measured"]["tail"] == {"skipped": "record spans zero time"}

    def test_csv_columns_and_float_format(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        rows = read_csv_rows(tmp_path / "trajectory.csv")
        assert rows[0] == [
            "t", "u_min", "u_max", "u_mean", "v_min", "v_max", "v_mean",
            "w_min", "w_max", "mass_u", "mass_v",
            "dist_u_coexistence", "dist_v_coexistence", "dist_w_coexistence",
        ]
        for cell in rows[1]:
            assert repr(float(cell)) == cell

    def test_custom_reference_outputs(self, tmp_path, capsys):
        doc = base_config()
        doc["references"] = ["coexistence", {"custom": [0.5, 0.25, 0.75]}]
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "distance to custom_1: " in capsys.readouterr().out
        rows = read_csv_rows(tmp_path / "trajectory.csv")
        assert rows[0][-3:] == ["dist_u_custom_1", "dist_v_custom_1", "dist_w_custom_1"]
        # The initial data is the constant (0.5, 0.5).
        assert [float(cell) for cell in rows[1][-3:-1]] == [0.0, 0.25]
        summary = read_json(tmp_path / "summary.json")
        assert summary["predicted"]["references"]["custom_1"] == {
            "u_star": 0.5, "v_star": 0.25, "w_star": 0.75,
        }
        assert list(summary["measured"]["final_distances"]) == ["coexistence", "custom_1"]

    def test_summary_agrees_with_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_config())
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        rows = read_csv_rows(tmp_path / "trajectory.csv")
        summary = read_json(tmp_path / "summary.json")
        assert summary["run"]["samples"] == len(rows) - 1
        assert summary["measured"]["final"]["u_max"] == float(rows[-1][2])
        assert summary["envelopes"]["sup_norm"]["violations_u"] == 0
        assert summary["predicted"]["references"]["coexistence"]["u_star"] == pytest.approx(
            1.0 / 3.0, rel=1e-14
        )

    def test_byte_identical_reruns(self, tmp_path, capsys):
        doc = base_config()
        doc["initial_data"] = {"perturbed_constant": [0.5, 0.5, 0.1]}
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
        capsys.readouterr()
        assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    @pytest.mark.skipif(
        platform.machine().lower() not in ("x86_64", "amd64"),
        reason="OPENBLAS_CORETYPE=Prescott names an x86-64 kernel",
    )
    def test_trajectory_does_not_depend_on_the_blas_kernel(self, tmp_path):
        # A step calls no BLAS kernel, so the trajectory's bits do not depend
        # on the kernel OpenBLAS picks for the CPU.  The mixed-sign config's
        # coupling products are inexact, and with the reaction bracket as a
        # matrix product its line 4 differed between these two runs.
        config = str(REPO_ROOT / "tests" / "golden" / "mixed_sign_config.json")
        written = []
        for coretype in (None, "Prescott"):
            out = tmp_path / (coretype or "native")
            proc = run_module(
                "simulate", "--config", config, "--out", str(out),
                env_updates=[("OPENBLAS_CORETYPE", coretype)],
            )
            assert proc.returncode == 0, proc.stderr
            written.append((out / "trajectory.csv").read_bytes())
        assert written[0] == written[1]

    @staticmethod
    def forbid_exact_positivity_rate(monkeypatch):
        from chemotaxis_lab import pde_stepper

        def fail(*args):
            raise AssertionError("the exact positivity rate was computed")

        monkeypatch.setattr(pde_stepper, "_outflow_rate", fail)

    def test_readme_config_ends_on_t_end(self, tmp_path, capsys, monkeypatch):
        # 40,000 steps of 5e-3 leave a remainder just above dt; the run takes
        # it whole and records its 1,001 samples, the last at t = 200.  The
        # bound on the positivity rate admits every step (see below).
        self.forbid_exact_positivity_rate(monkeypatch)
        cfg = write_config(tmp_path, readme_config())
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        run = read_json(tmp_path / "summary.json")["run"]
        assert (run["final_t"], run["samples"], run["steps"]) == (200.0, 1001, 40000)
        # u, v and w stop changing bit for bit from about t = 29.3 on
        assert 25.0 < run["stationary_from_t"] < 35.0
        rows = read_csv_rows(tmp_path / "trajectory.csv")
        assert len(rows) == 1002 and rows[-1][0] == "200.0"

    @pytest.mark.parametrize("name", ["record-dense", "rect-replay"])
    def test_screen_admits_every_step(self, tmp_path, capsys, monkeypatch, name):
        # On the benchmark's configs (seed 1; for rect-replay, the simulate
        # run that writes the trajectory it replays), as on the README
        # config, the bound 2*chi_max*max|dw|/dx² + jmax on the positivity
        # rate admits every step, so the exact rate is never computed.
        self.forbid_exact_positivity_rate(monkeypatch)
        spec = importlib.util.spec_from_file_location(
            "workloads", REPO_ROOT / "perfbench" / "workloads.py"
        )
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        workload = workloads.generate(name, 1)
        doc = (workload["source"] or workload)["config"]
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert read_json(tmp_path / "summary.json")["run"]["final_t"] == doc["stepper"]["t_end"]

    def test_steady_stop_from_config(self, tmp_path, capsys):
        doc = base_config()
        third = 1.0 / 3.0
        doc["initial_data"] = {"constant": [third, third]}
        doc["stepper"] = {
            "dt": 0.05, "t_end": 10.0, "steady_tol": 1e-6, "steady_window": 0.5,
        }
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        summary = read_json(tmp_path / "summary.json")
        assert summary["run"]["stopped_early"] is True
        assert 0.5 - 1e-12 <= summary["run"]["final_t"] <= 0.6
        assert summary["measured"]["steady"]["steady"] is True

    def test_two_bumps_initial_data_runs(self, tmp_path, capsys):
        doc = base_config()
        doc["initial_data"] = {
            "two_bumps": {
                "centers": [0.3, 0.7], "widths": [0.1, 0.1], "heights": [0.5, 0.5],
            }
        }
        doc["stepper"]["t_end"] = 0.2
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        rows = read_csv_rows(tmp_path / "trajectory.csv")
        assert float(rows[1][1]) >= 0.0

    def test_each_reference_is_solved_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        solve = steady_states.coexistence_state
        monkeypatch.setattr(steady_states, "coexistence_state", lambda p: calls.append(p) or solve(p))
        cfg = write_config(tmp_path, base_config())
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_one_assembly_and_one_start_solve_per_run(self, tmp_path, capsys, monkeypatch):
        # the signal operator is assembled once, and w is solved once at the
        # start and once after each step
        from chemotaxis_lab import pde_stepper

        calls = Counter()

        def counted(name):
            real = getattr(pde_stepper, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for name in ("assemble", "solve_w"):
            monkeypatch.setattr(pde_stepper, name, counted(name))
        cfg = write_config(tmp_path, base_config())
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        steps = read_json(tmp_path / "summary.json")["run"]["steps"]
        assert steps == 100
        assert calls == {"assemble": 1, "solve_w": steps + 1}

    def test_output_paths_are_configurable(self, tmp_path, capsys):
        doc = base_config()
        doc["outputs"] = {"trajectory_csv": "runs/traj.csv", "summary_json": "runs/sum.json"}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "runs" / "traj.csv").exists()
        assert (tmp_path / "runs" / "sum.json").exists()


class TestRectangles:
    def make_scenario(self, tmp_path):
        doc = base_config()
        doc["initial_data"] = {"perturbed_constant": [0.5, 0.5, 0.1]}
        doc["stepper"] = {"dt": 0.005, "t_end": 2.0, "record_every": 4}
        doc["references"] = []
        return doc

    def test_subrun_enclosure_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.make_scenario(tmp_path))
        assert main(["rectangles", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "enclosure: pass" in out
        doc = read_json(tmp_path / "enclosure.json")
        assert doc["passed"] is True and doc["n_times"] == doc["n_samples"]
        assert doc["worst_violation"] <= 0.0
        assert doc["rectangle_guard_tripped"] is None
        assert doc["pde_guard_tripped"] is None
        rows = read_csv_rows(tmp_path / "rectangles.csv")
        assert rows[0] == ["t", "u_hi", "u_lo", "v_hi", "v_lo"]

    def test_trajectory_reuse_matches_subrun(self, tmp_path, capsys):
        doc = self.make_scenario(tmp_path)
        out_sub = tmp_path / "sub"
        out_reuse = tmp_path / "reuse"
        cfg = write_config(tmp_path, doc)
        assert main(["rectangles", "--config", cfg, "--out", str(out_sub)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert main([
            "rectangles", "--config", cfg, "--out", str(out_reuse),
            "--trajectory", str(tmp_path / "trajectory.csv"),
        ]) == 0
        capsys.readouterr()
        sub = read_json(out_sub / "enclosure.json")
        reuse = read_json(out_reuse / "enclosure.json")
        assert sub == reuse

    @pytest.mark.parametrize("key", ["rectangles_csv", "enclosure_json"])
    @pytest.mark.parametrize("absolute", [False, True])
    def test_output_over_the_replayed_trajectory_is_a_config_error(self, tmp_path, capsys, key, absolute):
        doc = self.make_scenario(tmp_path)
        assert main(["simulate", "--config", write_config(tmp_path, doc), "--out", str(tmp_path)]) == 0
        traj = tmp_path / "trajectory.csv"
        before = traj.read_bytes()
        doc["outputs"] = {key: str(traj) if absolute else "../trajectory.csv"}
        cfg = write_config(tmp_path, doc, "replay.json")
        out = tmp_path / "replay"
        capsys.readouterr()
        assert main(["rectangles", "--config", cfg, "--out", str(out), "--trajectory", str(traj)]) == 2
        assert capsys.readouterr().err == (
            f"config error: outputs.{key}: would overwrite the replayed trajectory {traj}\n"
        )
        assert traj.read_bytes() == before and not out.exists()

    def test_every_sample_of_a_long_run_is_compared(self, tmp_path, capsys):
        # 10,000 PDE steps to t = 50 replayed at rectangles.dt = 1e-3: the
        # rectangle trace ends on the last sample's t = 50.0, not 2.6e-11
        # before it, so the last sample is compared too.
        doc = self.make_scenario(tmp_path)
        doc["grid"]["n_cells"] = 8
        doc["stepper"] = {"dt": 0.005, "t_end": 50.0}
        cfg = write_config(tmp_path, doc)
        assert main(["rectangles", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        report = read_json(tmp_path / "enclosure.json")
        assert report["n_times"] == 10001
        assert report["notes"] == []
        assert read_csv_rows(tmp_path / "rectangles.csv")[-1][0] == "50.0"

    def test_subrun_does_not_evaluate_references(self, tmp_path, capsys, monkeypatch):
        doc = self.make_scenario(tmp_path)
        doc["references"] = ["coexistence"]
        cfg = write_config(tmp_path, doc)

        def refuse(*_):
            raise AssertionError("rectangles evaluated the references")

        monkeypatch.setattr(cli, "build_references", refuse)
        assert main(["rectangles", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert "enclosure: pass" in capsys.readouterr().out

    def test_initial_rectangle_from_first_row_extrema(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.make_scenario(tmp_path))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert main(["rectangles", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            first = next(csv.DictReader(fh))
        initial = read_json(tmp_path / "enclosure.json")["rectangle_initial"]
        assert initial == {
            "t": float(first["t"]),
            "u_hi": float(first["u_max"]),
            "u_lo": float(first["u_min"]),
            "v_hi": float(first["v_max"]),
            "v_lo": float(first["v_min"]),
        }
        rows = read_csv_rows(tmp_path / "rectangles.csv")
        assert rows[1] == [first["t"], first["u_max"], first["u_min"], first["v_max"], first["v_min"]]

    def test_shrunken_start_fails_enclosure_but_exits_zero(self, tmp_path, capsys):
        # A replayed trajectory whose first u_max is lowered to 0.46 starts
        # the rectangle below the data: the next sample, at t = 0.02, falls
        # outside it.
        cfg = write_config(tmp_path, self.make_scenario(tmp_path))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = read_csv_rows(tmp_path / "trajectory.csv")
        rows[1][rows[0].index("u_max")] = "0.46"
        shrunk = tmp_path / "shrunk.csv"
        with open(shrunk, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        args = ["rectangles", "--config", cfg, "--out", str(tmp_path), "--trajectory", str(shrunk)]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "enclosure: fail" in out
        doc_out = read_json(tmp_path / "enclosure.json")
        assert doc_out["passed"] is False
        assert doc_out["worst_time"] == 0.02
        assert doc_out["rectangle_initial"]["u_hi"] == 0.46

    def test_constant_data_keeps_rectangle_diagonal(self, tmp_path, capsys):
        doc = self.make_scenario(tmp_path)
        doc["initial_data"] = {"constant": [0.5, 0.5]}
        cfg = write_config(tmp_path, doc)
        assert main(["rectangles", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        rows = read_csv_rows(tmp_path / "rectangles.csv")
        for row in rows[1:]:
            assert row[1] == row[2]
            assert row[3] == row[4]

    def test_guard_trip_during_subrun_exits_4(self, tmp_path, capsys):
        doc = self.make_scenario(tmp_path)
        doc["params"].update({"a0": 5.0, "a1": 0.1, "a2": 0.01, "b1": 0.01})
        doc["initial_data"] = {"constant": [0.5, 0.01]}
        doc["stepper"] = {"dt": 0.05, "t_end": 5.0, "blowup_guard": 30.0}
        cfg = write_config(tmp_path, doc)
        assert main(["rectangles", "--config", cfg, "--out", str(tmp_path)]) == 4
        capsys.readouterr()
        doc_out = read_json(tmp_path / "enclosure.json")
        assert doc_out["pde_guard_tripped"] == "blow_up"

    def test_dt_below_time_resolution_exits_3(self, tmp_path):
        # At t = 1e10 the float spacing is 1.9e-6: the row spacing, 1e-6 at
        # the default record_every and 1e-7 at record_every 1, is below the
        # four float spacings of the rectangle's smallest step, so both are
        # refused.  Run in a subprocess so that a regression shows as a
        # timeout, not a hung suite.
        trajectory = tmp_path / "late.csv"
        trajectory.write_text(
            "t,u_min,u_max,v_min,v_max\n"
            "10000000000.0,0.4,0.6,0.4,0.6\n"
            "10000000001.0,0.4,0.6,0.4,0.6\n"
        )
        for rectangles in ({"dt": 1e-7}, {"dt": 1e-7, "record_every": 1}):
            cfg = write_config(tmp_path, {"params": base_params(), "rectangles": rectangles})
            proc = run_module(
                "rectangles", "--config", cfg, "--out", str(tmp_path), "--trajectory", str(trajectory)
            )
            assert proc.returncode == 3, proc.stderr
            assert "float resolution" in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_row_spacing_below_the_minimum_step_exits_3(self, tmp_path, capsys):
        # 3e-16 is above half a float spacing of t = 2.0 but below the four
        # that the rectangle's minimum-step guard asks for: refused before
        # any step, not a false finite-time blow-up with no step taken.
        trajectory = tmp_path / "rows.csv"
        trajectory.write_text("t,u_min,u_max,v_min,v_max\n1.0,0.4,0.6,0.4,0.6\n2.0,0.4,0.6,0.4,0.6\n")
        rectangles = {"dt": 3e-16, "record_every": 1}
        cfg = write_config(tmp_path, {"params": base_params(), "rectangles": rectangles})
        args = ["rectangles", "--config", cfg, "--out", str(tmp_path), "--trajectory", str(trajectory)]
        assert main(args) == 3
        captured = capsys.readouterr()
        assert "float resolution" in captured.err and captured.out == ""
        assert not (tmp_path / "enclosure.json").exists()

    def test_dt_below_half_spacing_runs_on_a_resolved_row_spacing(self, tmp_path, capsys):
        # At t = 1e10 the float spacing is 1.9e-6: dt = 5e-7 alone would
        # stall a fixed-step loop, but the integrator never steps by dt, and
        # the row spacing 100 * dt is above four float spacings.
        trajectory = tmp_path / "late.csv"
        trajectory.write_text(
            "t,u_min,u_max,v_min,v_max\n"
            "10000000000.0,0.4,0.6,0.4,0.6\n"
            "10000000000.01,0.4,0.6,0.4,0.6\n"
        )
        rectangles = {"dt": 5e-7, "record_every": 100}
        cfg = write_config(tmp_path, {"params": base_params(), "rectangles": rectangles})
        args = ["rectangles", "--config", cfg, "--out", str(tmp_path), "--trajectory", str(trajectory)]
        assert main(args) == 0
        capsys.readouterr()
        enclosure = read_json(tmp_path / "enclosure.json")
        assert enclosure["rectangle_guard_tripped"] is None and enclosure["n_times"] == 2
        assert enclosure["rectangle_steps"] >= 1

    @pytest.mark.parametrize("t0, t1", [("0.0", "5e-324"), ("1.0", "1.0000000000000002")])
    def test_span_below_the_minimum_step_passes(self, tmp_path, capsys, t0, t1):
        # The whole span, one float spacing, is one last step, which the
        # minimum-step guard lets through; the rectangle ends on t1, so
        # both samples are compared.
        trajectory = tmp_path / "tiny.csv"
        trajectory.write_text(
            "t,u_min,u_max,v_min,v_max\n"
            f"{t0},0.4,0.6,0.4,0.6\n"
            f"{t1},0.4,0.6,0.4,0.6\n"
        )
        cfg = write_config(tmp_path, {"params": base_params()})
        args = ["rectangles", "--config", cfg, "--out", str(tmp_path), "--trajectory", str(trajectory)]
        assert main(args) == 0
        capsys.readouterr()
        enclosure = read_json(tmp_path / "enclosure.json")
        assert enclosure["passed"] is True and enclosure["n_times"] == 2
        assert enclosure["rectangle_guard_tripped"] is None and enclosure["rectangle_steps"] == 1
        assert enclosure["notes"] == []
        rows = read_csv_rows(tmp_path / "rectangles.csv")
        assert rows[1] == [t0, "0.6", "0.4", "0.6", "0.4"] and [r[0] for r in rows[2:]] == [t1]

    @pytest.mark.parametrize("u_max", ["inf", "1e300"])
    def test_non_finite_rectangle_start_exits_4(self, tmp_path, u_max):
        # The rectangle's right-hand side is nan at either start, so no
        # step can be accepted: the run ends at once, in a subprocess so
        # that a stalled step-size controller fails by timeout.
        trajectory = tmp_path / "start.csv"
        trajectory.write_text(
            "t,u_min,u_max,v_min,v_max\n"
            f"0.0,0.4,{u_max},0.4,0.6\n"
            "1.0,0.4,0.6,0.4,0.6\n"
        )
        cfg = write_config(tmp_path, {"params": base_params()})
        proc = run_module(
            "rectangles", "--config", cfg, "--out", str(tmp_path), "--trajectory", str(trajectory)
        )
        assert proc.returncode == 4, proc.stderr
        enclosure = read_json(tmp_path / "enclosure.json")
        assert enclosure["rectangle_guard_tripped"] == "blow_up"
        assert (enclosure["rectangle_steps"], enclosure["rectangle_rejected"]) == (0, 0)
        assert len(read_csv_rows(tmp_path / "rectangles.csv")) == 2

    def test_stiff_rectangle_ends_on_the_step_budget(self, tmp_path, capsys, monkeypatch):
        # The README parameters scaled by 2e200 keep the fixed point
        # (1/3, 1/3), but the explicit step settles near 1e-200: the run
        # ends after MAX_STEPS attempted steps, on its last accepted state,
        # with its outputs written.
        monkeypatch.setattr(ode_bounds, "MAX_STEPS", 20_000)
        params = base_params()
        params.update(a0=2e200, b0=2e200, a1=4e200, b2=4e200, a2=2e200, b1=2e200)
        rectangles = {"dt": 1e-3, "record_every": 1}
        cfg = write_config(tmp_path, {"params": params, "rectangles": rectangles})
        trajectory = tmp_path / "box.csv"
        trajectory.write_text("t,u_min,u_max,v_min,v_max\n0.0,0.4,0.6,0.4,0.6\n1.0,0.4,0.6,0.4,0.6\n")
        args = ["rectangles", "--config", cfg, "--out", str(tmp_path), "--trajectory", str(trajectory)]
        assert main(args) == 4
        captured = capsys.readouterr()
        assert "a numerical guard tripped" in captured.err
        assert captured.out.startswith("enclosure: incomplete (1 of 2 samples compared, up to t=0)\n")
        enclosure = read_json(tmp_path / "enclosure.json")
        assert enclosure["rectangle_guard_tripped"] == "step_budget"
        assert enclosure["rectangle_steps"] + enclosure["rectangle_rejected"] == 20_000
        rows = read_csv_rows(tmp_path / "rectangles.csv")
        assert rows[1] == ["0.0", "0.6", "0.4", "0.6", "0.4"] and len(rows) == 3
        t_last = rows[2][0]
        assert 0.0 < float(t_last) < 1e-190
        # the sample at t = 1 was never compared, so the verdict is not a pass
        assert enclosure["passed"] is False
        assert (enclosure["worst_violation"], enclosure["n_times"], enclosure["n_samples"]) == (-1e-3, 1, 2)
        assert enclosure["notes"][1:] == [
            "rectangle trace ended early: guard_tripped='step_budget'",
            f"rectangle run used up its 20000 steps at t={t_last} (stiff system)",
        ]

    def test_blown_up_rectangle_is_incomplete(self, tmp_path, capsys):
        # At chi1 = chi2 = 3 the rectangle from [0.4, 0.6]^2 blows up at
        # t = 0.519; the PDE samples every 0.1 to t = 10 sit inside
        # [0.45, 0.55]^2.  The six samples up to t = 0.5 pass, and the 95
        # after the trip are never compared: the verdict is incomplete.
        params = {**base_params(), "chi1": 3.0, "chi2": 3.0}
        cfg = write_config(tmp_path, {"params": params, "rectangles": {"dt": 0.01, "record_every": 10}})
        trajectory = tmp_path / "inside.csv"
        trajectory.write_text("t,u_min,u_max,v_min,v_max\n0.0,0.4,0.6,0.4,0.6\n" + "".join(
            f"{i / 10!r},0.45,0.55,0.45,0.55\n" for i in range(1, 101)
        ))
        args = ["rectangles", "--config", cfg, "--out", str(tmp_path), "--trajectory", str(trajectory)]
        assert main(args) == 4
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "enclosure: incomplete (6 of 101 samples compared, up to t=0.5)"
        enclosure = read_json(tmp_path / "enclosure.json")
        assert enclosure["rectangle_guard_tripped"] == "blow_up"
        assert (enclosure["passed"], enclosure["n_times"], enclosure["n_samples"]) == (False, 6, 101)
        assert list(enclosure)[4:7] == ["n_times", "n_samples", "notes"]

    def test_tripping_interval_is_incomplete(self, tmp_path, capsys):
        # The rectangle at chi = 5 from [0.4, 0.6]^2 trips its guard near
        # t = 0.276.  A sample on its last row is compared; a sample with
        # u_max = 1e3 between that row and the trip, and every later one,
        # is not: no compared sample fails, but the verdict is incomplete.
        params = {**base_params(), "chi1": 5.0, "chi2": 5.0}
        cfg = write_config(tmp_path, {"params": params, "rectangles": {"dt": 1e-3, "record_every": 10}})
        trajectory = tmp_path / "rows.csv"
        header, box = "t,u_min,u_max,v_min,v_max\n", "0.0,0.4,0.6,0.4,0.6\n"
        trajectory.write_text(header + box + "0.5,0.45,0.55,0.45,0.55\n")
        args = ["rectangles", "--config", cfg, "--out", str(tmp_path), "--trajectory", str(trajectory)]
        assert main(args) == 4
        t_last = float(read_csv_rows(tmp_path / "rectangles.csv")[-1][0])
        note = read_json(tmp_path / "enclosure.json")["notes"][-1]
        t_trip = float(re.search(r"at t=(\S+) with", note)[1])
        assert 0.27 < t_last < t_trip < 0.28
        trajectory.write_text(
            header + box + "0.25,0.45,0.55,0.45,0.55\n" + f"{t_last!r},0.45,0.55,0.45,0.55\n"
            + f"{0.5 * (t_last + t_trip)!r},0.45,1000.0,0.45,0.55\n" + "0.5,0.45,0.55,0.45,0.55\n"
        )
        capsys.readouterr()
        assert main(args) == 4
        out = capsys.readouterr().out
        assert out.splitlines()[0] == f"enclosure: incomplete (3 of 5 samples compared, up to t={t_last:.6g})"
        enclosure = read_json(tmp_path / "enclosure.json")
        assert (enclosure["passed"], enclosure["n_times"], enclosure["n_samples"]) == (False, 3, 5)
        assert enclosure["worst_violation"] < 0.0

    def test_reused_trajectory_must_have_columns(self, tmp_path, capsys):
        stub = tmp_path / "stub.csv"
        stub.write_text("t,u_min,u_max,v_min\n0.0,0.1,0.2,0.1\n")
        cfg = write_config(tmp_path, self.make_scenario(tmp_path))
        assert main([
            "rectangles", "--config", cfg, "--out", str(tmp_path),
            "--trajectory", str(stub),
        ]) == 2
        assert f"config error: {stub}: missing column(s): v_max\n" in capsys.readouterr().err

    def test_truncated_trajectory_row_is_config_error(self, tmp_path):
        # csv.DictReader fills the missing cells of a short row with None.
        full = tmp_path / "full"
        cfg = write_config(tmp_path, self.make_scenario(tmp_path))
        assert main(["simulate", "--config", cfg, "--out", str(full)]) == 0
        lines = (full / "trajectory.csv").read_text().splitlines()
        cut = tmp_path / "cut.csv"
        cut.write_text("\n".join(lines[:3] + [",".join(lines[3].split(",")[:3])]) + "\n")
        proc = run_module(
            "rectangles", "--config", cfg, "--out", str(tmp_path), "--trajectory", str(cut)
        )
        assert proc.returncode == 2, proc.stderr
        assert f"config error: {cut}: line 4: too few cells" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("times, line", [((1.0, 0.5, 0.0), 3), ((0.0, 0.5, 0.5), 4)])
    def test_reused_trajectory_times_must_increase(self, tmp_path, capsys, times, line):
        stub = tmp_path / "unordered.csv"
        rows = [f"{t!r},0.5,0.6,0.5,0.6" for t in times]
        rows[-1] = f"{times[-1]!r},0.5,9.6,0.5,0.6"  # far outside any rectangle
        stub.write_text("\n".join(["t,u_min,u_max,v_min,v_max", *rows]) + "\n")
        cfg = write_config(tmp_path, self.make_scenario(tmp_path))
        assert main([
            "rectangles", "--config", cfg, "--out", str(tmp_path),
            "--trajectory", str(stub),
        ]) == 2
        assert f"config error: {stub}: line {line}: t must increase strictly" in capsys.readouterr().err
        assert not (tmp_path / "enclosure.json").exists()

    @pytest.mark.parametrize(
        "times, line",
        [(("nan",), 2), (("0.0", "inf"), 3), (("0.0", "-inf"), 3), (("0.0", "0.5", "nan"), 4)],
    )
    def test_reused_trajectory_times_must_be_finite(self, tmp_path, capsys, times, line):
        # Non-finite densities stay accepted: a non_finite trip writes them.
        stub = tmp_path / "non_finite.csv"
        rows = [f"{t},0.5,nan,0.5,inf" for t in times]
        stub.write_text("\n".join(["t,u_min,u_max,v_min,v_max", *rows]) + "\n")
        cfg = write_config(tmp_path, self.make_scenario(tmp_path))
        assert main([
            "rectangles", "--config", cfg, "--out", str(tmp_path),
            "--trajectory", str(stub),
        ]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {stub}: line {line}: t must be finite\n"
        assert not (tmp_path / "enclosure.json").exists()

    def test_reused_trajectory_must_have_rows(self, tmp_path, capsys):
        stub = tmp_path / "empty.csv"
        stub.write_text("t,u_min,u_max,v_min,v_max\n")
        cfg = write_config(tmp_path, self.make_scenario(tmp_path))
        assert main([
            "rectangles", "--config", cfg, "--out", str(tmp_path),
            "--trajectory", str(stub),
        ]) == 2
        assert "no data rows" in capsys.readouterr().err


def declared_console_script(name):
    """The `[project.scripts]` entry `name` of the repo's pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"][name]
    return EntryPoint(name=name, value=value, group="console_scripts")


class TestInstalledEntryPoint:
    def test_console_script_runs_check(self, tmp_path):
        # Run the declared entry point in its own process the way an
        # installer's console-script wrapper does, from the repo's sources.
        ep = declared_console_script("chemotaxis-lab")
        wrapper = (
            "import sys\n"
            "from importlib.metadata import EntryPoint\n"
            f"sys.argv[0] = {ep.name!r}\n"
            f"sys.exit(EntryPoint(name={ep.name!r}, value={ep.value!r}, group={ep.group!r}).load()())\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        cfg = write_config(tmp_path, base_config())
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "check", "--config", cfg, "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "asymptotics: coexistence" in proc.stdout
        assert (tmp_path / "check.json").exists()

    def test_module_invocation(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        cfg = write_config(tmp_path, base_config())
        proc = subprocess.run(
            [sys.executable, "-m", "chemotaxis_lab", "steady", "--config", cfg, "--out", str(tmp_path)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "steady.json").exists()
