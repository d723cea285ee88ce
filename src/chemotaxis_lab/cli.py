"""Command-line entry point: scenario configs, subcommands, structured output.

Subcommands: check (hypothesis regions and regime classification), steady
(constant states), bounds (a-priori bound constants), simulate (PDE run to
CSV plus summary JSON), rectangles (bounding-ODE run plus enclosure check).

Configs are strict JSON: every section has a fixed key set and unknown or
missing keys are hard errors, since silent typos are the dominant failure
mode in a model with this many coefficients.  The flat sections are written
down once, in `_SCHEMA`, and `load_config` checks every one a config gives,
whatever the subcommand.  CSV cells use round-trip float formatting so
identical configs produce byte-identical files.

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

from . import hypotheses, steady_states
from .diagnostics import TRAJECTORY_COLUMNS, TrajectoryRecord, detect_steady, tail_stats
from .model import (
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
# config schema and loading

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
        "cfl_safety": (float, _OWNED), "record_every": (int, _OWNED),
        "blowup_guard": (float, _OWNED), "steady_tol": (float, _OWNED),
        "steady_window": (float, _OWNED),
    },
    "rectangles": {
        "dt": (float, 1e-3), "record_every": (int, 10), "tol": (float, 1e-3),
    },
    "outputs": {
        "trajectory_csv": (str, "trajectory.csv"), "summary_json": (str, "summary.json"),
        "check_json": (str, "check.json"), "steady_json": (str, "steady.json"),
        "bounds_json": (str, "bounds.json"), "rectangles_csv": (str, "rectangles.csv"),
        "enclosure_json": (str, "enclosure.json"),
    },
}

_EXPECTED = {int: "an integer", str: "a nonempty path string"}


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, refusing a key given twice: json.loads alone
    keeps the last value, and a config's silent typo is the failure to stop."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_config(path: str) -> dict:
    """Parse a config, check every flat section it gives and build from it
    the ModelParams, Grid1D and StepperConfig a run uses.  `initial_data`
    and `references` are left to the subcommands that use them: building
    the one needs NumPy, and `rectangles` never evaluates the other."""
    try:
        text = Path(path).read_text(encoding="utf-8")  # JSON is UTF-8 whatever the locale
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ConfigError(f"{path}: JSON nested too deeply") from exc
    except ConfigError as exc:  # a duplicate key
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _check_keys(doc, "config", required=("params",), optional=(*_SCHEMA, "initial_data", "references"))
    for name in ("rectangles", "outputs"):
        doc.setdefault(name, {})
    for name, table in _SCHEMA.items():
        if name in doc:
            doc[name] = _validate(doc[name], name, table)
    values = doc["params"]
    values["lam"] = values.pop("lambda")
    p = doc["params"] = ModelParams(**values)
    violations = validate_params(p)
    if violations:
        raise ConfigError("params: " + "; ".join(violations))
    for name, kind in (("grid", Grid1D), ("stepper", StepperConfig)):
        if name in doc:
            try:
                doc[name] = kind(**doc[name])
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from exc
    opts = doc["rectangles"]
    if opts["dt"] <= 0:
        raise ConfigError(f"rectangles.dt: must be positive, got {opts['dt']!r}")
    if opts["record_every"] < 1:
        raise ConfigError(f"rectangles.record_every: must be >= 1, got {opts['record_every']!r}")
    if opts["tol"] < 0:
        raise ConfigError(f"rectangles.tol: must be nonnegative, got {opts['tol']!r}")
    if "grid" in doc and doc["grid"].length != p.omega_measure:
        raise PreconditionError(
            f"grid length {doc['grid'].length!r} must equal omega_measure {p.omega_measure!r}"
        )
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


def build_initial(doc: dict, grid: Grid1D) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    section = _section(doc, "initial_data")
    if not isinstance(section, dict) or len(section) != 1:
        raise ConfigError(
            "initial_data: must contain exactly one of constant, perturbed_constant, two_bumps"
        )
    kind, value = next(iter(section.items()))
    try:
        x = grid.cell_centers()
    except (ValueError, MemoryError) as exc:  # NumPy refuses the array, or cannot allocate it
        raise ConfigError(f"grid.n_cells: {grid.n_cells} cells do not fit in memory: {exc}") from exc
    with np.errstate(over="ignore"):  # an overflow is inf, which a run's guards report
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
            if isinstance(entry, str) and entry in steady_states.CONSTANT_FAMILIES:
                refs.extend(steady_states.CONSTANT_FAMILIES[entry](p))
            elif isinstance(entry, dict) and set(entry) == {"custom"}:
                triple = _number_list(entry["custom"], f"{where}.custom", (3,))
                refs.append((f"custom_{i}", ConstantState(*triple)))
            else:
                raise ConfigError(
                    f"{where}: expected \"coexistence\", \"exclusion\", \"semi_trivial\", "
                    f"or {{\"custom\": [u, v, w]}}, got {entry!r}"
                )
        except PreconditionError as exc:
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


def _report_line(name: str, rep: hypotheses.HypothesisReport) -> str:
    if rep.holds:
        return f"{name}: holds"
    bad = [m for m in rep.margins if not m.satisfied]
    detail = ", ".join(f"{m.label}={m.value:.6g}" for m in bad)
    return f"{name}: fails ({detail})" if detail else f"{name}: fails"


# ---------------------------------------------------------------------------
# subcommands

def cmd_check(args: argparse.Namespace, doc: dict) -> int:
    p = doc["params"]
    n_dim = args.n_dim
    reports = hypotheses.check_all(p, n_dim)
    routes = hypotheses.ASYMPTOTIC_ROUTES
    try:
        gamma = hypotheses.gamma_star(p)
        gamma_doc: dict[str, Any] = {"value": gamma}
    except PreconditionError as exc:
        gamma_doc = {"error": str(exc)}
    classification = hypotheses.classify_regime(reports)
    document = {
        "n_dim": n_dim,
        "hypotheses": {
            name: _report_doc(rep) for name, rep in reports.items() if name not in routes
        },
        "asymptotic_routes": {name: _report_doc(reports[name]) for name in routes},
        "gamma_star": gamma_doc,
        "classification": vars(classification),
    }
    path = resolve_output(doc, args.out, "check_json")
    write_json(path, document)
    for name, rep in reports.items():
        print(_report_line(name if name in routes else name.upper(), rep))
    routes_line = ", ".join(classification.global_existence) or "none"
    print(f"global existence routes: {routes_line}")
    print(f"asymptotics: {classification.asymptotics}")
    print(f"wrote {path}")
    return 0


def cmd_steady(args: argparse.Namespace, doc: dict) -> int:
    document: dict[str, Any] = {}
    lines: list[str] = []
    for name, family in steady_states.CONSTANT_FAMILIES.items():
        try:
            states = [state for _, state in family(doc["params"])]
        except PreconditionError as exc:
            document[name] = {"error": str(exc)}
            lines.append(f"{name}: not computable ({exc})")
            continue
        if len(states) == 1:
            (state,) = states
            document[name] = vars(state)
            lines.append(
                f"{name}: u*={state.u_star:.6g} v*={state.v_star:.6g} w*={state.w_star:.6g}"
            )
        else:
            first, second = states
            document[name] = [vars(first), vars(second)]
            lines.append(
                f"{name}: ({first.u_star:.6g}, 0, {first.w_star:.6g}) and "
                f"(0, {second.v_star:.6g}, {second.w_star:.6g})"
            )
    path = resolve_output(doc, args.out, "steady_json")
    write_json(path, document)
    print("\n".join(lines))
    print(f"wrote {path}")
    return 0


def cmd_bounds(args: argparse.Namespace, doc: dict) -> int:
    grid = _section(doc, "grid")
    u0, v0 = build_initial(doc, grid)
    sup0, mass0 = (float(u0.max()), float(v0.max())), (grid.integrate(u0), grid.integrate(v0))
    initial = dict(zip(("sup_u0", "sup_v0", "mass_u0", "mass_v0"), (*sup0, *mass0)))
    document: dict[str, Any] = {"initial": initial}
    lines: list[str] = []
    for name, family in steady_states.BOUND_FAMILIES.items():
        try:
            constants = family(doc["params"], sup0, mass0)
        except PreconditionError as exc:
            document[name] = {"holds": False, "error": str(exc)}
            lines.append(f"{name}: unavailable ({exc})")
            continue
        document[name] = {"holds": True, **constants}
        lines.append(f"{name}: available")
    path = resolve_output(doc, args.out, "bounds_json")
    write_json(path, document)
    print("\n".join(lines))
    print(f"wrote {path}")
    if not any(document[name]["holds"] for name in steady_states.BOUND_FAMILIES):
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


def _write_trajectory_csv(path: Path, rec: TrajectoryRecord, distances: dict[str, tuple]) -> None:
    header = list(TRAJECTORY_COLUMNS)
    cols = [getattr(rec, name) for name in TRAJECTORY_COLUMNS]
    for label, columns in distances.items():
        header.extend([f"dist_u_{label}", f"dist_v_{label}", f"dist_w_{label}"])
        cols.extend(columns)
    _write_csv(path, header, cols)


# Per bound family, one (key suffix, constant name, recorded series) for each
# cap that _envelope_sections checks.
_ENVELOPE_CAPS = {
    "sup_norm": (("_u", "sup_cap_u", "u_max"), ("_v", "sup_cap_v", "v_max")),
    "mass_per_species": (("_u", "mass_u_cap", "mass_u"), ("_v", "mass_v_cap", "mass_v")),
    "mass_sum": (("", "mass_sum_cap", "mass_sum"),),
}


def _envelope_sections(p: ModelParams, rec: TrajectoryRecord) -> dict:
    """Per-family envelope verdicts: the caps predicted from the first
    sample's sup norms and masses, plus violation counters."""
    import numpy as np

    series = {
        name: np.asarray(getattr(rec, name)) for name in ("u_max", "v_max", "mass_u", "mass_v")
    }
    with np.errstate(over="ignore"):  # a sum beyond the float range is inf
        series["mass_sum"] = series["mass_u"] + series["mass_v"]
    doc: dict[str, Any] = {}
    for name, family in steady_states.BOUND_FAMILIES.items():
        try:
            constants = family(p, (rec.u_max[0], rec.v_max[0]), (rec.mass_u[0], rec.mass_v[0]))
        except PreconditionError as exc:
            doc[name] = {"skipped": str(exc)}
            continue
        caps = [(sfx, constants[key], series[col]) for sfx, key, col in _ENVELOPE_CAPS[name]]
        section: dict[str, Any] = {f"cap{sfx}": cap for sfx, cap, _ in caps}
        section["rel_tol"] = ENVELOPE_REL_TOL
        for sfx, cap, recorded in caps:
            section[f"violations{sfx}"] = int((recorded > cap * (1.0 + ENVELOPE_REL_TOL)).sum())
        if name != "mass_per_species":  # the per-species section records no maxima
            for sfx, _, recorded in caps:
                section[f"max{sfx}_recorded"] = float(recorded.max())
        doc[name] = section
    return doc


# The stepper is the one part of a run that needs SciPy, and only its LAPACK
# extension (loaded by file in _lapack, without scipy.linalg), so it is
# imported when a run first builds one, not with this module: check, steady,
# bounds and rectangles --trajectory never load SciPy, and check, steady and
# rectangles --trajectory call no function that imports NumPy.
_STEPPER_NAMES = ("initial_state", "run_simulation")


def __getattr__(name: str) -> Any:
    """Bind initial_state and run_simulation from pde_stepper on first
    access (PEP 562).  Only an unset name is bound: one set from outside,
    say a wrapper around the real function, is kept."""
    if name not in _STEPPER_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import pde_stepper

    return globals().setdefault(name, getattr(pde_stepper, name))


def _run_from_config(doc: dict) -> TrajectoryRecord:
    p, grid, cfg = doc["params"], _section(doc, "grid"), _section(doc, "stepper")
    u0, v0 = build_initial(doc, grid)
    this = sys.modules[__name__]  # attribute lookups reach __getattr__
    state0 = this.initial_state(u0, v0, p, grid)
    return this.run_simulation(state0, p, grid, cfg)


def cmd_simulate(args: argparse.Namespace, doc: dict) -> int:
    p = doc["params"]
    grid = _section(doc, "grid")
    references = build_references(doc, p)
    rec = _run_from_config(doc)
    distances = {
        label: rec.distances((state.u_star, state.v_star, state.w_star)) for label, state in references
    }
    csv_path = resolve_output(doc, args.out, "trajectory_csv")
    _write_trajectory_csv(csv_path, rec, distances)

    summary: dict[str, Any] = {
        "run": {
            "dt": doc["stepper"].dt,
            "t_end": doc["stepper"].t_end,
            "n_cells": grid.n_cells,
            "length": grid.length,
            "samples": rec.n_samples,
            "steps": rec.steps,
            "final_t": rec.t[-1],
            "stationary_from_t": rec.stationary_from_t,
            "guard_tripped": rec.guard_tripped,
            "stopped_early": rec.stopped_early,
            "notes": list(rec.notes),
        }
    }
    measured: dict[str, Any] = {
        "final": {name: getattr(rec, name)[-1] for name in TRAJECTORY_COLUMNS},
        "final_distances": {
            label: {f: col[-1] for f, col in zip("uvw", columns)}
            for label, columns in distances.items()
        },
    }
    if rec.span > 0.0:
        window = TAIL_FRACTION * rec.span
        measured["tail"] = vars(tail_stats(rec, window))
        measured["steady"] = vars(detect_steady(rec, SUMMARY_STEADY_TOL, window))
    else:
        measured["tail"] = {"skipped": "record spans zero time"}
        measured["steady"] = {"skipped": "record spans zero time"}
    summary["measured"] = measured

    summary["predicted"] = {
        "references": {label: vars(state) for label, state in references},
    }
    summary["envelopes"] = _envelope_sections(p, rec)

    json_path = resolve_output(doc, args.out, "summary_json")
    write_json(json_path, summary)
    print(f"simulated to t={rec.t[-1]:.6g} ({rec.n_samples} samples)")
    for label, columns in distances.items():
        du, dv, dw = (col[-1] for col in columns)
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
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            fields = reader.fieldnames or ()
            missing = [c for c in needed if c not in fields]
            if missing:
                raise ConfigError(f"{path}: missing column(s): {', '.join(missing)}")
            for row in reader:
                for col in needed:
                    getattr(trace, col).append(float(row[col]))
                if not math.isfinite(trace.t[-1]):
                    raise ConfigError(f"{path}: line {reader.line_num}: t must be finite")
                if len(trace.t) > 1 and not trace.t[-1] > trace.t[-2]:
                    raise ConfigError(f"{path}: line {reader.line_num}: t must increase strictly")
    except ConfigError:
        raise
    except OSError as exc:
        raise ConfigError(f"cannot read trajectory {path!r}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, or a cell over the size limit
        raise ConfigError(f"{path}: not a readable CSV: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: non-numeric cell: {exc}") from exc
    except TypeError as exc:  # DictReader fills the missing cells of a short row with None
        raise ConfigError(f"{path}: line {reader.line_num}: too few cells") from exc
    if not trace.t:
        raise ConfigError(f"{path}: no data rows")
    return trace


def cmd_rectangles(args: argparse.Namespace, doc: dict) -> int:
    p, opts = doc["params"], doc["rectangles"]
    pde_guard: str | None = None
    if args.trajectory:
        pde_trace = read_trajectory_csv(args.trajectory)
    else:
        pde_trace = _run_from_config(doc)
        pde_guard = pde_trace.guard_tripped

    # (t, u_hi, u_lo, v_hi, v_lo): the first sample's extrema
    s0 = RectangleState(
        pde_trace.t[0], pde_trace.u_max[0], pde_trace.u_min[0], pde_trace.v_max[0], pde_trace.v_min[0]
    )
    rect_trace = integrate_rectangles(s0, p, pde_trace.t[-1], opts["dt"] * opts["record_every"])
    csv_path = resolve_output(doc, args.out, "rectangles_csv")
    columns = ["t", "u_hi", "u_lo", "v_hi", "v_lo"]
    _write_csv(csv_path, columns, [getattr(rect_trace, c) for c in columns])
    report = check_enclosure(pde_trace, rect_trace, opts["tol"])
    document = {
        **vars(report),
        "rectangle_initial": vars(s0),
        "rectangle_guard_tripped": rect_trace.guard_tripped,
        "rectangle_steps": rect_trace.steps,
        "rectangle_rejected": rect_trace.rejected,
        "pde_guard_tripped": pde_guard,
    }
    json_path = resolve_output(doc, args.out, "enclosure_json")
    write_json(json_path, document)
    if not report.passed and report.worst_violation <= 0.0:  # the compared samples are the first n_times
        last = pde_trace.t[report.n_times - 1]
        print(f"enclosure: incomplete ({report.n_times} of {report.n_samples} samples compared, up to t={last:.6g})")
    else:
        print(
            f"enclosure: {'pass' if report.passed else 'fail'} (worst violation {report.worst_violation:.3e} "
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

def dimension(text: str) -> int:
    """The --n-dim value, a space dimension: an integer >= 1."""
    value = int(text)  # argparse reports a ValueError as an invalid dimension value
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value}")
    return value


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
    check.add_argument("--n-dim", type=dimension, default=1, help="space dimension for dimension-dependent hypotheses (default 1)")
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
        return args.func(args, load_config(args.config))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
