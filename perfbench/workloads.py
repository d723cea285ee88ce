"""Seeded workload generator for the chemotaxis-lab benchmark.

Each workload is one CLI command on a fixed scenario.  The seed varies only
the initial data (cosine mode and amplitude, or bump centres and widths),
always inside the workload's regime, so every seed converges to the same
predicted limit and passes the same output checks.  Step counts do not
depend on the seed, so the work per command is fixed.

There are two workloads, not more, because on a small shared host a run
must last about a minute before its median is steady, and the runs of
every workload must fit one time budget.  Between them they reach every
layer: record-dense runs the stepper, the signal solve, the banded solves,
the grid integrals, the diagnostics, the steady states and the CSV output;
rect-replay runs the rectangle ODE and the trajectory reader, and no PDE
step.
"""
from __future__ import annotations

import random

# README example: both species persist, limit (1/3, 1/3, 2/3).
COEXISTENCE_PARAMS = {
    "d1": 1.0, "d2": 1.0, "d3": 1.0, "chi1": 0.1, "chi2": 0.1,
    "a0": 1.0, "a1": 2.0, "a2": 1.0, "a3": 0.0, "a4": 0.0,
    "b0": 1.0, "b1": 1.0, "b2": 2.0, "b3": 0.0, "b4": 0.0,
    "k": 1.0, "l": 1.0, "lambda": 1.0, "omega_measure": 1.0,
}

# Rectangle settings of the acceptance enclosure test.
RECTANGLE_OPTIONS = {"dt": 1e-3, "record_every": 10, "tol": 1e-3}

WHY = {
    "record-dense": (
        "coexistence run at n=128 recording every step against four references; "
        "stepper and banded solves, plus diagnostics and CSV output"
    ),
    "rect-replay": (
        "rectangle ODE replayed on a stored trajectory; RK4 in ode_bounds does "
        "the work and the PDE layers do none"
    ),
}

NAMES = tuple(WHY)


def _simulate_config(params: dict, n_cells: int, stepper: dict, initial: dict, refs: list) -> dict:
    return {
        "params": dict(params),
        "grid": {"length": 1.0, "n_cells": n_cells},
        "stepper": dict(stepper),
        "initial_data": initial,
        "references": refs,
    }


def _coexist_config(rng: random.Random) -> dict:
    amplitude = rng.uniform(0.05, 0.15)
    mode = rng.choice((1, 2, 3))
    return _simulate_config(
        COEXISTENCE_PARAMS, 128,
        {"dt": 5e-3, "t_end": 200.0, "record_every": 40},
        {"perturbed_constant": [0.5, 0.5, amplitude, mode]},
        ["coexistence"],
    )


def _dense_config(rng: random.Random) -> dict:
    bumps = {
        "centers": [rng.uniform(0.2, 0.4), rng.uniform(0.6, 0.8)],
        "widths": [rng.uniform(0.08, 0.15), rng.uniform(0.08, 0.15)],
        "heights": [1.0, 0.8],
    }
    return _simulate_config(
        COEXISTENCE_PARAMS, 128,
        {"dt": 5e-3, "t_end": 50.0, "record_every": 1},
        {"two_bumps": bumps},
        ["coexistence", "exclusion", "semi_trivial"],
    )


def expected_rows(steps: int, record_every: int) -> int:
    """Rows a run of `steps` steps records: the initial sample, every
    record_every-th step, and the final step when it is off the stride."""
    return 1 + steps // record_every + (1 if steps % record_every else 0)


def _simulate_workload(name: str, seed: int, config: dict) -> dict:
    zero = {**config, "stepper": {**config["stepper"], "t_end": 0.0}}
    return {
        "name": name, "seed": seed, "why": WHY.get(name, ""), "command": "simulate",
        "config": config, "zero_config": zero, "source": None,
        "steps": round(config["stepper"]["t_end"] / config["stepper"]["dt"]),
        "record_every": config["stepper"]["record_every"],
        "limit": "coexistence",
    }


def generate(name: str, seed: int) -> dict:
    """The workload's configs for one seed.

    Returns a dict with the subcommand, the full config and its zero-step
    twin (used to time set-up), the number of steps one full command takes
    and the checks its outputs must pass.  For rect-replay, "source" is the
    README coexistence run (n=128, t_end=200) of the same seed, whose
    trajectory CSV the replay reads; the benchmark produces and checks that
    CSV in untimed set-up.
    """
    if name not in WHY:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if name == "rect-replay":
        source = _simulate_workload("coexist-n128", seed, _coexist_config(random.Random(f"coexist-n128:{seed}")))
        config = {"params": dict(COEXISTENCE_PARAMS), "rectangles": dict(RECTANGLE_OPTIONS)}
        return {
            "name": name, "seed": seed, "why": WHY[name], "command": "rectangles",
            "config": config, "zero_config": config, "source": source,
            "steps": round(source["config"]["stepper"]["t_end"] / RECTANGLE_OPTIONS["dt"]),
            "record_every": RECTANGLE_OPTIONS["record_every"],
            "limit": None,
        }
    return _simulate_workload(name, seed, _dense_config(random.Random(f"{name}:{seed}")))
