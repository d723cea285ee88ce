import csv
import json
import os
import re
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

from chemotaxis_lab import cli, steady_states
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


def run_module(*args):
    """Run `python -m chemotaxis_lab` on the repo's sources in its own
    process, so that a command that never ends fails the test by timeout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
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

    def test_rectangles_tol_validation(self, tmp_path):
        doc = base_config()
        doc["rectangles"] = {"tol": -0.5}
        cfg = write_config(tmp_path, doc)
        assert main(["rectangles", "--config", cfg, "--out", str(tmp_path)]) == 2

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
            ("stepper", "positivity_clip", 1),
            ("stepper", "record_every", 2.5),
            ("stepper", "blowup_guard", True),
            ("stepper", "steady_tol", "1e-6"),
            ("stepper", "steady_window", {}),
            ("rectangles", "dt", "0.001"),
            ("rectangles", "record_every", 10.0),
            ("rectangles", "tol", False),
            ("rectangles", "u_hi0", None),
            ("rectangles", "u_lo0", "0"),
            ("rectangles", "v_hi0", [1.0]),
            ("rectangles", "v_lo0", True),
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

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()


class TestExitCodes:
    def test_domain_mismatch_is_precondition_failure(self, tmp_path, capsys):
        doc = base_config()
        doc["grid"]["length"] = 2.0
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "precondition failure" in capsys.readouterr().err

    def test_oversized_dt_is_numerical_guard(self, tmp_path, capsys):
        doc = base_config()
        doc["stepper"]["dt"] = 10.0
        doc["stepper"]["t_end"] = 20.0
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert "numerical guard" in capsys.readouterr().err

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
        rows = read_csv_rows(tmp_path / "trajectory.csv")
        assert len(rows) >= 3
        assert float(rows[-1][2]) > 30.0

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

    def test_lambda_key_maps_to_signal_decay(self, tmp_path, capsys):
        doc = base_config()
        doc["params"]["lambda"] = 2.0
        cfg = write_config(tmp_path, doc)
        assert main(["steady", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        document = read_json(tmp_path / "steady.json")
        assert document["coexistence"]["w_star"] == pytest.approx(1.0 / 3.0, rel=1e-14)


def write_trajectory_with_csv_writer(path, rec):
    """The csv.writer layout that _write_trajectory_csv replaced."""
    header = list(TRAJECTORY_COLUMNS)
    for label in rec.ref_labels:
        header.extend([f"dist_u_{label}", f"dist_v_{label}", f"dist_w_{label}"])
    columns = [getattr(rec, name) for name in TRAJECTORY_COLUMNS]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i in range(rec.n_samples):
            row = [column[i] for column in columns]
            for label in rec.ref_labels:
                row.extend(series[i] for series in rec.dist[label])
            writer.writerow([repr(x) for x in row])


class TestSimulateOutputs:
    @pytest.mark.parametrize(
        "references", [[], ["coexistence"], ["coexistence", "semi_trivial"]]
    )
    def test_trajectory_csv_matches_csv_writer_layout(self, tmp_path, references):
        doc = base_config()
        doc["initial_data"] = {"perturbed_constant": [0.5, 0.5, 0.1]}
        doc["references"] = references
        p = cli.build_params(doc)
        grid = cli.build_grid(doc)
        refs = cli.build_references(doc, p)
        rec = cli._run_from_config(doc, p, grid, refs)[0]
        # Cells whose repr is unusual: NaN, infinities, signed zero, subnormal.
        odd = np.array([[np.nan, -0.0, 5e-324], [np.inf, -np.inf, 0.0], [1e300, -1e-300, 2.0]])
        levels = np.array([(r.u_star, r.v_star, r.w_star) for _, r in refs]).reshape(-1, 3)
        with np.errstate(invalid="ignore"):  # the mean of inf and -inf
            rec.append_sample(rec.t[-1] + 1.0, odd, -0.0, np.nan, levels)
        assert len(rec.ref_labels) == {0: 0, 1: 1, 2: 3}[len(references)]
        cli._write_trajectory_csv(tmp_path / "streamed.csv", rec)
        write_trajectory_with_csv_writer(tmp_path / "oracle.csv", rec)
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

    def test_readme_config_ends_on_t_end(self, tmp_path, capsys):
        # 40,000 steps of 5e-3 leave a remainder just above dt; the run takes
        # it whole and records its 1,001 samples, the last at t = 200.
        readme = (REPO_ROOT / "README.md").read_text()
        block = re.search(r"### Example config\s+```json\n(.*?)```", readme, re.S).group(1)
        cfg = write_config(tmp_path, json.loads(block))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        run = read_json(tmp_path / "summary.json")["run"]
        assert (run["final_t"], run["samples"]) == (200.0, 1001)
        rows = read_csv_rows(tmp_path / "trajectory.csv")
        assert len(rows) == 1002 and rows[-1][0] == "200.0"

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
        assert doc["passed"] is True
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
        doc = self.make_scenario(tmp_path)
        doc["rectangles"] = {"u_hi0": 0.46}
        cfg = write_config(tmp_path, doc)
        assert main(["rectangles", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "enclosure: fail" in out
        doc_out = read_json(tmp_path / "enclosure.json")
        assert doc_out["passed"] is False
        assert doc_out["worst_time"] == 0.0
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
        # At t = 1e10 the float spacing is 1.9e-6, so t + 1e-7 == t: the
        # RK4 loop would never advance.  Run in a subprocess so that a
        # regression shows as a timeout, not a hung suite.
        trajectory = tmp_path / "late.csv"
        trajectory.write_text(
            "t,u_min,u_max,v_min,v_max\n"
            "10000000000.0,0.4,0.6,0.4,0.6\n"
            "10000000001.0,0.4,0.6,0.4,0.6\n"
        )
        cfg = write_config(tmp_path, {"params": base_params(), "rectangles": {"dt": 1e-7}})
        proc = run_module(
            "rectangles", "--config", cfg, "--out", str(tmp_path), "--trajectory", str(trajectory)
        )
        assert proc.returncode == 3, proc.stderr
        assert "float resolution" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_reused_trajectory_must_have_columns(self, tmp_path, capsys):
        stub = tmp_path / "stub.csv"
        stub.write_text("t,u_min,u_max,v_min\n0.0,0.1,0.2,0.1\n")
        cfg = write_config(tmp_path, self.make_scenario(tmp_path))
        assert main([
            "rectangles", "--config", cfg, "--out", str(tmp_path),
            "--trajectory", str(stub),
        ]) == 2
        assert "missing column" in capsys.readouterr().err

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
