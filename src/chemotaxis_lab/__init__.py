"""Numerical laboratory for a two-species chemotaxis system with nonlocal
Lotka-Volterra coupling: hypothesis regions, constant states, a-priori
bounds, a PDE stepper, bounding-rectangle ODEs, and trajectory diagnostics.
"""
from .diagnostics import SteadyReport, TailStats, TrajectoryRecord, detect_steady, sup_distance, tail_stats
from .elliptic import EllipticOperator, assemble, solve_w
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
    DegenerateStateError,
    FieldState,
    Grid1D,
    HypothesisViolationError,
    ModelParams,
    PreconditionError,
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
from .pde_stepper import (
    CflViolationError,
    StepperConfig,
    chemotaxis_flux,
    initial_state,
    run_simulation,
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
