"""Command-line entry point: scenario configs, subcommands, structured output.

Subcommands: check (hypothesis regions and regime classification), steady
(constant states), bounds (a-priori bound constants), simulate (PDE run to
CSV plus summary JSON), rectangles (bounding-ODE run plus enclosure check).

Configs are strict JSON: every section has a fixed key set and unknown or
missing keys are hard errors, since silent typos are the dominant failure
mode in a model with this many coefficients.  The flat sections are written
down once, in `_SCHEMA`, and `load_config` checks the keys and value types
of every section a config gives before any subcommand computes anything.  CSV cells use round-trip
float formatting so identical configs produce byte-identical files.

Exit codes: 0 success, 2 config error, 3 hypothesis or precondition
failure, 4 numerical guard trip.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path
from typing import Any

import numpy as np

from . import hypotheses, steady_states
from .diagnostics import TRAJECTORY_COLUMNS, TrajectoryRecord, detect_steady, tail_stats
from .model import (
    CflViolationError,
    DegenerateStateError,
    Grid1D,
    ModelParams,
    PreconditionError,
    StepperConfig,
    validate_params,
)
from .ode_bounds import RectangleState, check_enclosure, integrate_rectangles
from .steady_states import ConstantState

ENVELOPE_REL_TOL = 1e-6
SUMMARY_STEADY_TOL = 1e-4
TAIL_FRACTION = 0.2


class ConfigError(ValueError):
    """A scenario config failed to parse or validate."""


# ---------------------------------------------------------------------------
# config schema, loading and section builders

_PARAM_KEYS = (
    "d1", "d2", "d3", "chi1", "chi2",
    "a0", "a1", "a2", "a3", "a4",
    "b0", "b1", "b2", "b3", "b4",
    "k", "l", "lambda", "omega_measure",
)

_REQUIRED = object()
_OWNED = object()  # optional; the object built from the section has the default

# Every flat section as key -> (type, _REQUIRED, _OWNED or the default).  The
# ranges of grid and stepper values are checked by Grid1D and StepperConfig.
_SCHEMA: dict[str, dict[str, tuple[type, Any]]] = {
    "params": dict.fromkeys(_PARAM_KEYS, (float, _REQUIRED)),
    "grid": {"length": (float, _REQUIRED), "n_cells": (int, _REQUIRED)},
    "stepper": {
        "dt": (float, _REQUIRED), "t_end": (float, _REQUIRED),
        "cfl_safety": (float, _OWNED), "positivity_clip": (bool, _OWNED),
        "record_every": (int, _OWNED), "blowup_guard": (float, _OWNED),
        "steady_tol": (float, _OWNED), "steady_window": (float, _OWNED),
    },
    "rectangles": {
        "dt": (float, 1e-3), "record_every": (int, 10), "tol": (float, 1e-3),
        # None: the extrema of the first trajectory sample
        "u_hi0": (float, None), "u_lo0": (float, None),
        "v_hi0": (float, None), "v_lo0": (float, None),
    },
    "outputs": {
        "trajectory_csv": (str, "trajectory.csv"), "summary_json": (str, "summary.json"),
        "check_json": (str, "check.json"), "steady_json": (str, "steady.json"),
        "bounds_json": (str, "bounds.json"), "rectangles_csv": (str, "rectangles.csv"),
        "enclosure_json": (str, "enclosure.json"),
    },
}

_EXPECTED = {int: "an integer", bool: "true or false", str: "a nonempty path string"}


def load_config(path: str) -> dict:
    """Parse a config and check the keys and value types of every section
    it gives, filling in the defaults of `rectangles` and `outputs`."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _check_keys(doc, "config", required=("params",), optional=(*_SCHEMA, "initial_data", "references"))
    for name in ("rectangles", "outputs"):
        doc.setdefault(name, {})
    for name, table in _SCHEMA.items():
        if name in doc:
            doc[name] = _validate(doc[name], name, table)
    return doc


def _check_keys(section: dict, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: must be an object")
    missing = [k for k in required if k not in section]
    if missing:
        raise ConfigError(f"{where}: missing key(s): {', '.join(missing)}")
    unknown = [k for k in section if k not in required and k not in optional]
    if unknown:
        raise ConfigError(f"{where}: unknown key(s): {', '.join(unknown)}")


def _validate(section: Any, where: str, table: dict[str, tuple[type, Any]]) -> dict:
    """The section's values checked against its table, plus the table's defaults."""
    required = tuple(key for key, (_, default) in table.items() if default is _REQUIRED)
    _check_keys(section, where, required, optional=tuple(table))
    values = {
        key: default for key, (_, default) in table.items() if default not in (_REQUIRED, _OWNED)
    }
    for key, value in section.items():
        kind, _ = table[key]
        values[key] = _typed(value, kind, f"{where}.{key}")
    return values


def _typed(value: Any, kind: type, where: str) -> Any:
    if kind is float:
        return _finite(value, where)
    if type(value) is kind and value != "":  # a bool is no int, an empty path no path
        return value
    raise ConfigError(f"{where}: expected {_EXPECTED[kind]}, got {value!r}")


def _finite(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return number


def _number_list(value: Any, where: str, length: tuple[int, ...]) -> list[float]:
    if not isinstance(value, list) or len(value) not in length:
        wanted = " or ".join(str(n) for n in length)
        raise ConfigError(f"{where}: expected a list of {wanted} numbers, got {value!r}")
    return [_finite(item, f"{where}[{i}]") for i, item in enumerate(value)]


def _section(doc: dict, name: str) -> Any:
    if name not in doc:
        raise ConfigError(f"{name}: section is required for this command")
    return doc[name]


def build_params(doc: dict) -> ModelParams:
    values = dict(doc["params"])
    values["lam"] = values.pop("lambda")
    p = ModelParams(**values)
    violations = validate_params(p)
    if violations:
        raise ConfigError("params: " + "; ".join(violations))
    return p


def build_grid(doc: dict) -> Grid1D:
    try:
        return Grid1D(**_section(doc, "grid"))
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc


def build_stepper(doc: dict) -> StepperConfig:
    try:
        return StepperConfig(**_section(doc, "stepper"))
    except ValueError as exc:
        raise ConfigError(f"stepper: {exc}") from exc


def build_initial(doc: dict, grid: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    section = _section(doc, "initial_data")
    if not isinstance(section, dict) or len(section) != 1:
        raise ConfigError(
            "initial_data: must contain exactly one of constant, perturbed_constant, two_bumps"
        )
    kind, value = next(iter(section.items()))
    x = grid.cell_centers()
    if kind == "constant":
        u0c, v0c = _number_list(value, "initial_data.constant", (2,))
        u = np.full(grid.n_cells, u0c)
        v = np.full(grid.n_cells, v0c)
    elif kind == "perturbed_constant":
        parts = _number_list(value, "initial_data.perturbed_constant", (3, 4))
        u0c, v0c, amplitude = parts[0], parts[1], parts[2]
        mode_count = 1
        if len(parts) == 4:
            mode_count = int(parts[3])
            if mode_count != parts[3] or mode_count < 1:
                raise ConfigError(
                    f"initial_data.perturbed_constant: mode_count must be a positive integer, got {parts[3]!r}"
                )
        wave = amplitude * np.cos(mode_count * math.pi * x / grid.length)
        u = u0c + wave
        v = v0c - wave
    elif kind == "two_bumps":
        _check_keys(value, "initial_data.two_bumps", required=("centers", "widths", "heights"))
        centers = _number_list(value["centers"], "initial_data.two_bumps.centers", (2,))
        widths = _number_list(value["widths"], "initial_data.two_bumps.widths", (2,))
        heights = _number_list(value["heights"], "initial_data.two_bumps.heights", (2,))
        if min(widths) <= 0:
            raise ConfigError("initial_data.two_bumps: widths must be positive")
        u = heights[0] * np.exp(-0.5 * ((x - centers[0]) / widths[0]) ** 2)
        v = heights[1] * np.exp(-0.5 * ((x - centers[1]) / widths[1]) ** 2)
    else:
        raise ConfigError(f"initial_data: unknown kind {kind!r}")
    if float(u.min()) < 0 or float(v.min()) < 0:
        raise ConfigError("initial_data: densities must be nonnegative everywhere")
    return u, v


def build_references(doc: dict, p: ModelParams) -> tuple[tuple[str, ConstantState], ...]:
    entries = doc.get("references", [])
    if not isinstance(entries, list):
        raise ConfigError("references: must be a list")
    refs: list[tuple[str, ConstantState]] = []
    for i, entry in enumerate(entries):
        where = f"references[{i}]"
        try:
            if entry == "coexistence":
                refs.append(("coexistence", steady_states.coexistence_state(p)))
            elif entry == "exclusion":
                refs.append(("exclusion", steady_states.exclusion_state(p)))
            elif entry == "semi_trivial":
                first, second = steady_states.semi_trivial_states(p)
                refs.append(("semi_trivial_u", first))
                refs.append(("semi_trivial_v", second))
            elif isinstance(entry, dict) and set(entry) == {"custom"}:
                triple = _number_list(entry["custom"], f"{where}.custom", (3,))
                refs.append((f"custom_{i}", ConstantState(*triple)))
            else:
                raise ConfigError(
                    f"{where}: expected \"coexistence\", \"exclusion\", \"semi_trivial\", "
                    f"or {{\"custom\": [u, v, w]}}, got {entry!r}"
                )
        except DegenerateStateError as exc:
            raise ConfigError(f"{where}: state not computable for these params: {exc}") from exc
    labels = [label for label, _ in refs]
    if len(set(labels)) != len(labels):
        raise ConfigError("references: duplicate reference labels")
    return tuple(refs)


def resolve_output(doc: dict, out_dir: str, key: str) -> Path:
    path = Path(doc["outputs"][key])
    if not path.is_absolute():
        path = Path(out_dir) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# output helpers

def _jsonable(value: Any) -> Any:
    """Recursively convert to strict JSON; non-finite floats become strings."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    raise TypeError(f"cannot serialize {value!r}")


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(_jsonable(doc), indent=2, allow_nan=False) + "\n")


def _report_doc(rep: hypotheses.HypothesisReport) -> dict:
    return {
        "holds": rep.holds,
        "margins": [
            {"label": m.label, "value": m.value, "strict": m.strict, "satisfied": m.satisfied}
            for m in rep.margins
        ],
        "notes": list(rep.notes),
    }


def _state_doc(state: ConstantState) -> dict:
    return {"u_star": state.u_star, "v_star": state.v_star, "w_star": state.w_star}


def _report_line(name: str, rep: hypotheses.HypothesisReport) -> str:
    if rep.holds:
        return f"{name}: holds"
    bad = [m for m in rep.margins if not m.satisfied]
    detail = ", ".join(f"{m.label}={m.value:.6g}" for m in bad)
    return f"{name}: fails ({detail})" if detail else f"{name}: fails"


# ---------------------------------------------------------------------------
# subcommands

def cmd_check(args: argparse.Namespace) -> int:
    doc = load_config(args.config)
    p = build_params(doc)
    n_dim = args.n_dim
    hyp_reports = {
        "h1": hypotheses.check_h1(p),
        "h2": hypotheses.check_h2(p),
        "h3": hypotheses.check_h3(p),
        "h4": hypotheses.check_h4(p, n_dim),
        "h5": hypotheses.check_h5(p),
        "h6": hypotheses.check_h6(p, n_dim),
    }
    route_reports: dict[str, Any] = {
        "coexistence": hypotheses.check_coexistence(p),
        "coexistence_competitive": hypotheses.check_coexistence_competitive(p),
    }
    route_errors: dict[str, str] = {}
    try:
        route_reports["exclusion"] = hypotheses.check_exclusion(p)
    except DegenerateStateError as exc:
        route_errors["exclusion"] = str(exc)
    try:
        gamma = hypotheses.gamma_star(p)
        gamma_doc: dict[str, Any] = {"value": gamma}
    except PreconditionError as exc:
        gamma_doc = {"error": str(exc)}
    classification = hypotheses.classify_regime(p, n_dim)
    document = {
        "n_dim": n_dim,
        "hypotheses": {name: _report_doc(rep) for name, rep in hyp_reports.items()},
        "asymptotic_routes": {
            **{name: _report_doc(rep) for name, rep in route_reports.items()},
            **{name: {"error": msg} for name, msg in route_errors.items()},
        },
        "gamma_star": gamma_doc,
        "classification": {
            "global_existence": list(classification.global_existence),
            "asymptotics": classification.asymptotics,
            "n_dim": classification.n_dim,
            "notes": list(classification.notes),
        },
    }
    path = resolve_output(doc, args.out, "check_json")
    write_json(path, document)
    for name, rep in hyp_reports.items():
        print(_report_line(name.upper(), rep))
    for name, rep in route_reports.items():
        print(_report_line(name, rep))
    for name, msg in route_errors.items():
        print(f"{name}: not evaluable ({msg})")
    routes = ", ".join(classification.global_existence) or "none"
    print(f"global existence routes: {routes}")
    print(f"asymptotics: {classification.asymptotics}")
    print(f"wrote {path}")
    return 0


def cmd_steady(args: argparse.Namespace) -> int:
    doc = load_config(args.config)
    p = build_params(doc)
    document: dict[str, Any] = {}
    lines: list[str] = []

    def attempt(name: str, producer) -> None:
        try:
            result = producer()
        except DegenerateStateError as exc:
            document[name] = {"error": str(exc)}
            lines.append(f"{name}: not computable ({exc})")
            return
        if isinstance(result, ConstantState):
            document[name] = _state_doc(result)
            lines.append(
                f"{name}: u*={result.u_star:.6g} v*={result.v_star:.6g} w*={result.w_star:.6g}"
            )
        else:
            first, second = result
            document[name] = [_state_doc(first), _state_doc(second)]
            lines.append(
                f"{name}: ({first.u_star:.6g}, 0, {first.w_star:.6g}) and "
                f"(0, {second.v_star:.6g}, {second.w_star:.6g})"
            )

    attempt("coexistence", lambda: steady_states.coexistence_state(p))
    attempt("exclusion", lambda: steady_states.exclusion_state(p))
    attempt("semi_trivial", lambda: steady_states.semi_trivial_states(p))
    path = resolve_output(doc, args.out, "steady_json")
    write_json(path, document)
    for line in lines:
        print(line)
    print(f"wrote {path}")
    return 0


def _bound_constants_doc(bc: steady_states.BoundConstants) -> dict:
    return {k: v for k, v in vars(bc).items() if v is not None}


def cmd_bounds(args: argparse.Namespace) -> int:
    doc = load_config(args.config)
    p = build_params(doc)
    grid = build_grid(doc)
    u0, v0 = build_initial(doc, grid)
    sup_u0, sup_v0 = float(u0.max()), float(v0.max())
    mass_u0, mass_v0 = grid.integrate(u0), grid.integrate(v0)
    document: dict[str, Any] = {
        "initial": {
            "sup_u0": sup_u0,
            "sup_v0": sup_v0,
            "mass_u0": mass_u0,
            "mass_v0": mass_v0,
        }
    }
    lines: list[str] = []
    n_failed = 0

    def attempt(name: str, producer) -> None:
        nonlocal n_failed
        try:
            document[name] = {"holds": True, **producer()}
            lines.append(f"{name}: available")
        except PreconditionError as exc:
            document[name] = {"holds": False, "error": str(exc)}
            lines.append(f"{name}: unavailable ({exc})")
            n_failed += 1

    attempt("sup_norm", lambda: _bound_constants_doc(steady_states.linf_bounds(p, sup_u0, sup_v0)))
    attempt("mass_per_species", lambda: _bound_constants_doc(steady_states.l1_bounds(p, mass_u0, mass_v0)))

    def mass_sum_family() -> dict:
        alpha, beta = steady_states.alpha_beta(p)
        cap = steady_states.mass_sum_cap(p, mass_u0 + mass_v0)
        return {"alpha": alpha, "beta": beta, "mass_sum_cap": cap}

    attempt("mass_sum", mass_sum_family)
    path = resolve_output(doc, args.out, "bounds_json")
    write_json(path, document)
    for line in lines:
        print(line)
    print(f"wrote {path}")
    if n_failed == 3:
        print("no bound family is available for these parameters", file=sys.stderr)
        return 3
    return 0


def _write_csv(path: Path, header: list[str], cols: list) -> None:
    """Write the float columns cols under header.  Rows are streamed, not
    joined into one string of the whole file, which would raise peak
    memory.  repr() cells need no CSV quoting."""
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(r) + "\n" for r in zip(*(map(repr, c) for c in cols)))


def _write_trajectory_csv(path: Path, rec: TrajectoryRecord) -> None:
    header = list(TRAJECTORY_COLUMNS)
    cols = [getattr(rec, name) for name in TRAJECTORY_COLUMNS]
    for label in rec.ref_labels:
        header.extend([f"dist_u_{label}", f"dist_v_{label}", f"dist_w_{label}"])
        cols.extend(rec.dist[label])
    _write_csv(path, header, cols)


def _envelope_sections(
    p: ModelParams,
    rec: TrajectoryRecord,
    sup_u0: float,
    sup_v0: float,
    mass_u0: float,
    mass_v0: float,
) -> dict:
    """Per-family envelope verdicts: predicted caps plus violation counters."""
    doc: dict[str, Any] = {}
    u_max = np.asarray(rec.u_max)
    v_max = np.asarray(rec.v_max)
    mass_u = np.asarray(rec.mass_u)
    mass_v = np.asarray(rec.mass_v)
    try:
        bc = steady_states.linf_bounds(p, sup_u0, sup_v0)
        over_u = int((u_max > bc.sup_cap_u * (1.0 + ENVELOPE_REL_TOL)).sum())
        over_v = int((v_max > bc.sup_cap_v * (1.0 + ENVELOPE_REL_TOL)).sum())
        doc["sup_norm"] = {
            "cap_u": bc.sup_cap_u,
            "cap_v": bc.sup_cap_v,
            "rel_tol": ENVELOPE_REL_TOL,
            "violations_u": over_u,
            "violations_v": over_v,
            "max_u_recorded": float(u_max.max()),
            "max_v_recorded": float(v_max.max()),
        }
    except PreconditionError as exc:
        doc["sup_norm"] = {"skipped": str(exc)}
    try:
        bc = steady_states.l1_bounds(p, mass_u0, mass_v0)
        doc["mass_per_species"] = {
            "cap_u": bc.mass_u_cap,
            "cap_v": bc.mass_v_cap,
            "rel_tol": ENVELOPE_REL_TOL,
            "violations_u": int((mass_u > bc.mass_u_cap * (1.0 + ENVELOPE_REL_TOL)).sum()),
            "violations_v": int((mass_v > bc.mass_v_cap * (1.0 + ENVELOPE_REL_TOL)).sum()),
        }
    except PreconditionError as exc:
        doc["mass_per_species"] = {"skipped": str(exc)}
    try:
        cap = steady_states.mass_sum_cap(p, mass_u0 + mass_v0)
        total = mass_u + mass_v
        doc["mass_sum"] = {
            "cap": cap,
            "rel_tol": ENVELOPE_REL_TOL,
            "violations": int((total > cap * (1.0 + ENVELOPE_REL_TOL)).sum()),
            "max_recorded": float(total.max()),
        }
    except PreconditionError as exc:
        doc["mass_sum"] = {"skipped": str(exc)}
    return doc


# The stepper is the one part of a run that needs SciPy (LAPACK), so it is
# imported when a run first builds one, not with this module: check, steady,
# bounds and rectangles --trajectory never import SciPy.
_STEPPER_NAMES = ("initial_state", "run_simulation")


def __getattr__(name: str) -> Any:
    """Bind initial_state and run_simulation from pde_stepper on first
    access (PEP 562).  Only an unset name is bound: one set from outside,
    say a wrapper around the real function, is kept."""
    if name not in _STEPPER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import pde_stepper

    return globals().setdefault(name, getattr(pde_stepper, name))


def _run_from_config(
    doc: dict, p: ModelParams, grid: Grid1D, references: tuple[tuple[str, ConstantState], ...]
) -> tuple[TrajectoryRecord, StepperConfig, np.ndarray, np.ndarray]:
    cfg = build_stepper(doc)
    u0, v0 = build_initial(doc, grid)
    this = sys.modules[__name__]  # attribute lookups reach __getattr__
    state0 = this.initial_state(u0, v0, p, grid)
    return this.run_simulation(state0, p, grid, cfg, references=references), cfg, u0, v0


def cmd_simulate(args: argparse.Namespace) -> int:
    doc = load_config(args.config)
    p = build_params(doc)
    grid = build_grid(doc)
    references = build_references(doc, p)
    rec, cfg, u0, v0 = _run_from_config(doc, p, grid, references)
    csv_path = resolve_output(doc, args.out, "trajectory_csv")
    _write_trajectory_csv(csv_path, rec)

    summary: dict[str, Any] = {
        "run": {
            "dt": cfg.dt,
            "t_end": cfg.t_end,
            "n_cells": grid.n_cells,
            "length": grid.length,
            "samples": rec.n_samples,
            "final_t": rec.t[-1],
            "guard_tripped": rec.guard_tripped,
            "stopped_early": rec.stopped_early,
            "clipped_mass": rec.clipped_mass,
            "notes": list(rec.notes),
        }
    }
    measured: dict[str, Any] = {
        "final": {name: getattr(rec, name)[-1] for name in TRAJECTORY_COLUMNS},
        "final_distances": {
            label: {f: col[-1] for f, col in zip("uvw", rec.dist[label])}
            for label in rec.ref_labels
        },
    }
    if rec.span > 0.0:
        window = TAIL_FRACTION * rec.span
        tail = tail_stats(rec, window)
        steady = detect_steady(rec, SUMMARY_STEADY_TOL, window)
        measured["tail"] = {
            "window": tail.window,
            "u_hi_tail": tail.u_hi_tail, "u_lo_tail": tail.u_lo_tail,
            "v_hi_tail": tail.v_hi_tail, "v_lo_tail": tail.v_lo_tail,
        }
        measured["steady"] = {
            "steady": steady.steady,
            "tol": steady.tol,
            "window": steady.window,
            "certificate": steady.certificate,
        }
    else:
        measured["tail"] = {"skipped": "record spans zero time"}
        measured["steady"] = {"skipped": "record spans zero time"}
    summary["measured"] = measured

    summary["predicted"] = {
        "references": {label: _state_doc(state) for label, state in references},
    }
    sup_u0, sup_v0 = float(u0.max()), float(v0.max())
    mass_u0, mass_v0 = grid.integrate(u0), grid.integrate(v0)
    summary["envelopes"] = _envelope_sections(p, rec, sup_u0, sup_v0, mass_u0, mass_v0)

    json_path = resolve_output(doc, args.out, "summary_json")
    write_json(json_path, summary)
    print(f"simulated to t={rec.t[-1]:.6g} ({rec.n_samples} samples)")
    for label in rec.ref_labels:
        du, dv, dw = (col[-1] for col in rec.dist[label])
        print(f"distance to {label}: u={du:.3e} v={dv:.3e} w={dw:.3e}")
    if rec.guard_tripped:
        print(f"guard tripped: {rec.guard_tripped}", file=sys.stderr)
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return 4 if rec.guard_tripped else 0


def read_trajectory_csv(path: str) -> TrajectoryRecord:
    """Reload the columns the enclosure check and the initial rectangle read."""
    trace = TrajectoryRecord()
    needed = ("t", "u_min", "u_max", "v_min", "v_max")
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            fields = reader.fieldnames or ()
            missing = [c for c in needed if c not in fields]
            if missing:
                raise ConfigError(f"{path}: missing column(s): {', '.join(missing)}")
            for row in reader:
                for col in needed:
                    getattr(trace, col).append(float(row[col]))
    except OSError as exc:
        raise ConfigError(f"cannot read trajectory {path!r}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: non-numeric cell: {exc}") from exc
    if not trace.t:
        raise ConfigError(f"{path}: no data rows")
    return trace


def cmd_rectangles(args: argparse.Namespace) -> int:
    doc = load_config(args.config)
    p = build_params(doc)
    opts = doc["rectangles"]
    if opts["dt"] <= 0:
        raise ConfigError(f"rectangles.dt: must be positive, got {opts['dt']!r}")
    if opts["record_every"] < 1:
        raise ConfigError(f"rectangles.record_every: must be >= 1, got {opts['record_every']!r}")
    if opts["tol"] < 0:
        raise ConfigError(f"rectangles.tol: must be nonnegative, got {opts['tol']!r}")
    pde_guard: str | None = None
    if args.trajectory:
        pde_trace = read_trajectory_csv(args.trajectory)
    else:
        grid = build_grid(doc)
        pde_trace = _run_from_config(doc, p, grid, ())[0]
        pde_guard = pde_trace.guard_tripped

    s0 = RectangleState(
        t=pde_trace.t[0],
        u_hi=pde_trace.u_max[0] if opts["u_hi0"] is None else opts["u_hi0"],
        u_lo=pde_trace.u_min[0] if opts["u_lo0"] is None else opts["u_lo0"],
        v_hi=pde_trace.v_max[0] if opts["v_hi0"] is None else opts["v_hi0"],
        v_lo=pde_trace.v_min[0] if opts["v_lo0"] is None else opts["v_lo0"],
    )
    rect_trace = integrate_rectangles(
        s0, p, t_end=pde_trace.t[-1], dt=opts["dt"], record_every=opts["record_every"]
    )
    csv_path = resolve_output(doc, args.out, "rectangles_csv")
    columns = ["t", "u_hi", "u_lo", "v_hi", "v_lo"]
    _write_csv(csv_path, columns, [getattr(rect_trace, c) for c in columns])
    report = check_enclosure(pde_trace, rect_trace, opts["tol"])
    document = {
        "passed": report.passed,
        "tol": report.tol,
        "worst_violation": report.worst_violation,
        "worst_time": report.worst_time,
        "n_times": report.n_times,
        "notes": list(report.notes),
        "rectangle_initial": {
            "t": s0.t, "u_hi": s0.u_hi, "u_lo": s0.u_lo, "v_hi": s0.v_hi, "v_lo": s0.v_lo,
        },
        "rectangle_guard_tripped": rect_trace.guard_tripped,
        "pde_guard_tripped": pde_guard,
    }
    json_path = resolve_output(doc, args.out, "enclosure_json")
    write_json(json_path, document)
    verdict = "pass" if report.passed else "fail"
    print(
        f"enclosure: {verdict} (worst violation {report.worst_violation:.3e} "
        f"at t={report.worst_time:.6g}, {report.n_times} times compared)"
    )
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    if pde_guard or rect_trace.guard_tripped:
        print("a numerical guard tripped during integration", file=sys.stderr)
        return 4
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemotaxis-lab",
        description=(
            "Simulate a two-species chemotaxis system with nonlocal interaction "
            "terms and cross-check its explicit hypothesis regions, bounds, and "
            "predicted limits."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="path to a scenario config (JSON)")
        sp.add_argument("--out", default=".", help="directory for outputs (default: current)")
        sp.set_defaults(func=func)
        return sp

    check = add("check", cmd_check, "evaluate hypothesis regions and classify the regime")
    check.add_argument("--n-dim", type=int, default=1, help="space dimension for dimension-dependent hypotheses (default 1)")
    add("steady", cmd_steady, "compute constant steady states")
    add("bounds", cmd_bounds, "compute a-priori bound constants for the configured initial data")
    add("simulate", cmd_simulate, "run the PDE solver; write trajectory CSV and summary JSON")
    rect = add("rectangles", cmd_rectangles, "integrate the bounding ODE system and check enclosure")
    rect.add_argument(
        "--trajectory",
        default=None,
        help="reuse an existing trajectory CSV instead of running the PDE",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 3
    except CflViolationError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
