"""Numerical laboratory for a two-species chemotaxis system with nonlocal
Lotka-Volterra coupling: hypothesis regions, constant states, a-priori
bounds, a PDE stepper, bounding-rectangle ODEs, and trajectory diagnostics.

The signal solve and the stepper (`elliptic`, `pde_stepper`) import SciPy's
LAPACK, so their names are resolved on first access; importing the package
does not import SciPy.
"""
import importlib

from .diagnostics import SteadyReport, TailStats, TrajectoryRecord, detect_steady, sup_distance, tail_stats
from .hypotheses import (
    HypothesisReport,
    Margin,
    RegimeClassification,
    check_coexistence,
    check_coexistence_competitive,
    check_exclusion,
    check_h1,
    check_h2,
    check_h3,
    check_h4,
    check_h5,
    check_h6,
    classify_regime,
    eval_f,
    eval_g,
    exclusion_dominance_margin,
    gamma_star,
)
from .model import (
    CflViolationError,
    DegenerateStateError,
    FieldState,
    Grid1D,
    HypothesisViolationError,
    ModelParams,
    PreconditionError,
    StepperConfig,
    negative_part,
    positive_part,
    validate_params,
)
from .ode_bounds import (
    EnclosureReport,
    RectangleState,
    RectangleTrace,
    check_enclosure,
    integrate_rectangles,
    rectangle_rhs,
)
from .steady_states import (
    BoundConstants,
    ConstantState,
    alpha_beta,
    coexistence_state,
    exclusion_state,
    h1_margins,
    h2_margins,
    l1_bounds,
    linf_bounds,
    mass_sum_cap,
    semi_trivial_states,
)

__version__ = "0.1.0"

# Name -> the submodule that defines it, imported on first access (PEP 562).
_LAZY = {
    **dict.fromkeys(("EllipticOperator", "assemble", "solve_w"), "elliptic"),
    **dict.fromkeys(("chemotaxis_flux", "initial_state", "run_simulation"), "pde_stepper"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value
