"""The CLI contract on generated configs: every subcommand ends in exit 0,
2, 3 or 4 without a traceback, exit 0 or 4 writes the subcommand's outputs,
a clean simulate with no steady stop ends on t_end, and a rerun of
simulate or rectangles --trajectory that wrote outputs writes the same
bytes and prints the same stdout.

The configs take both signs and magnitudes from 1e-300 to 1e300, n_cells
in [4, 64], every initial-data kind and references.  t_end/dt is capped at
2,000, so that no run is long; each run goes through cli.main in-process.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from chemotaxis_lab.cli import main

POSITIVE = (
    "d1", "d2", "d3", "chi1", "chi2", "a0", "b0", "a1", "b2",
    "k", "l", "lambda", "omega_measure",
)
SIGNED = ("a2", "a3", "a4", "b1", "b3", "b4")

# The files a subcommand writes when it exits 0 or 4.
OUTPUTS = {
    "check": ("check.json",),
    "steady": ("steady.json",),
    "bounds": ("bounds.json",),
    "simulate": ("trajectory.csv", "summary.json"),
    "rectangles": ("rectangles.csv", "enclosure.json"),
}


MODERATE = st.floats(0.01, 100.0)
# Positive floats: of order one, or anywhere from 1e-300 to about 1e300.
WIDE = st.one_of(
    MODERATE, st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99), st.integers(-300, 299))
)


def steps_per(span: float):
    """A step that divides span into between 0.5 and 2,000 steps."""
    return st.floats(0.5, 2000.0).map(lambda count: span / count)


@st.composite
def configs(draw):
    # One config in two stays of order one, so that runs reach t_end too.
    magnitudes = draw(st.sampled_from([MODERATE, WIDE]))
    signed = st.one_of(st.just(0.0), magnitudes, magnitudes.map(lambda x: -x))
    density = st.one_of(st.just(0.0), magnitudes)
    params = {name: draw(magnitudes) for name in POSITIVE}
    params.update({name: draw(signed) for name in SIGNED})
    length = params["omega_measure"]
    t_end = 10.0 ** draw(st.floats(-14.0, 0.0))
    stepper = {"dt": draw(steps_per(t_end)), "t_end": t_end, "record_every": draw(st.integers(1, 10))}
    if draw(st.booleans()):
        stepper.update(steady_tol=draw(magnitudes), steady_window=draw(magnitudes))
    kind = draw(st.sampled_from(["constant", "perturbed_constant", "two_bumps"]))
    if kind == "constant":
        initial = [draw(density), draw(density)]
    elif kind == "perturbed_constant":
        initial = [draw(density), draw(density), draw(signed)]
        initial += draw(st.lists(st.integers(1, 8), max_size=1))
    else:
        initial = {
            "centers": [draw(st.floats(0.0, 1.0)) * length for _ in range(2)],
            "widths": [draw(magnitudes) for _ in range(2)],
            "heights": [draw(density) for _ in range(2)],
        }
    references: list = draw(
        st.lists(st.sampled_from(["coexistence", "exclusion", "semi_trivial"]), max_size=3, unique=True)
    )
    if draw(st.booleans()):
        references.append({"custom": [draw(density) for _ in range(3)]})
    return {
        "params": params,
        "grid": {"length": length, "n_cells": draw(st.integers(4, 64))},
        "stepper": stepper,
        "rectangles": {"dt": draw(steps_per(t_end)), "record_every": 1},
        "initial_data": {kind: initial},
        "references": references,
    }


def run(args: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(configs(), st.integers(1, 3))
def test_every_subcommand_keeps_the_cli_contract(doc, n_dim):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(doc))
        trajectory = Path(tmp) / "simulate" / "trajectory.csv"
        commands = {
            "check": ["check", "--n-dim", str(n_dim)],
            "steady": ["steady"],
            "bounds": ["bounds"],
            "simulate": ["simulate"],
            "rectangles": ["rectangles"],
            "replay": ["rectangles", "--trajectory", str(trajectory)],
        }
        for name, args in commands.items():
            out = Path(tmp) / name
            argv = [*args, "--config", str(cfg), "--out", str(out)]
            code, stdout, err = run(argv)
            assert code in (0, 2, 3, 4), (args, code, err)
            assert "Traceback" not in err, (args, err)
            if code in (0, 4):
                for output in OUTPUTS[args[0]]:
                    assert (out / output).is_file(), (args, output)
                if name in ("simulate", "replay"):
                    written = {f: (out / f).read_bytes() for f in OUTPUTS[args[0]]}
                    assert run(argv) == (code, stdout, err), args
                    for f, data in written.items():
                        assert (out / f).read_bytes() == data, (args, f)
            if name == "simulate" and code == 0:
                run_doc = json.loads((out / "summary.json").read_text())["run"]
                if not run_doc["stopped_early"]:
                    assert run_doc["final_t"] == doc["stepper"]["t_end"]
