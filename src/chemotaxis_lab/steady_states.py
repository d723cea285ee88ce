"""Closed-form constant states and a-priori bound constants.

This module owns the margin arithmetic shared between the bound formulas
and the hypothesis reports (``h1_margins``, ``h2_margins``, ``alpha_beta``):
the sup-norm constant L is by definition the smaller H1 margin and the
caps reuse the identical expressions, so computing them in one place keeps
the cross-module equality checks exact to the last bit.  A formula written
for u gives v's on the exchanged params (``per_species``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    ModelParams,
    PreconditionError,
    negative_part,
    per_species,
)


@dataclass(frozen=True)
class ConstantState:
    """A spatially constant solution triple (u*, v*, w*); raises
    PreconditionError when a component is inf or NaN."""

    u_star: float
    v_star: float
    w_star: float

    def __post_init__(self) -> None:
        triple = (self.u_star, self.v_star, self.w_star)
        if not all(map(math.isfinite, triple)):
            raise PreconditionError(f"constant state (u*, v*, w*) = {triple!r} is not finite")


def h1_margins(p: ModelParams) -> tuple[float, float]:
    """Signed slacks of the two global-existence inequalities (H1).

    First: a1 - [(b1)_- + |Omega|((a3)_- + (b3)_-) + k(chi1+chi2)/d3].
    Second: b2 - [(a2)_- + |Omega|((a4)_- + (b4)_-) + l(chi1+chi2)/d3].
    """
    w = p.omega_measure
    return per_species(lambda q: q.a1 - (
        negative_part(q.b1) + w * (negative_part(q.a3) + negative_part(q.b3))
        + q.k * (q.chi1 + q.chi2) / q.d3
    ), p)


def h2_margins(p: ModelParams) -> tuple[float, float]:
    """Signed slacks of the mass-boundedness inequalities (H2)."""
    w = p.omega_measure
    return per_species(lambda q: q.a1 - w * (negative_part(q.a3) + negative_part(q.b3)), p)


def alpha_beta(p: ModelParams) -> tuple[float, float]:
    """The pair (alpha, beta) controlling the combined-mass envelope.

    alpha = a1 - ((a2)_- + (b1)_- + |Omega|((a4)_- + (b3)_-))/2 - |Omega|(a3)_-
    beta  = b2 - ((a2)_- + (b1)_- + |Omega|((a4)_- + (b3)_-))/2 - |Omega|(b4)_-

    H3 is exactly min{alpha, beta} > 0.
    """
    w = p.omega_measure
    return per_species(lambda q: q.a1 - 0.5 * (
        negative_part(q.a2) + negative_part(q.b1) + w * (negative_part(q.a4) + negative_part(q.b3))
    ) - w * negative_part(q.a3), p)


def coexistence_state(p: ModelParams) -> ConstantState:
    """Constant coexistence state of the mass-coupled interaction system.

    Solves the 2x2 linear system
        a0 = (a1 + |Omega| a3) u + (a2 + |Omega| a4) v
        b0 = (b1 + |Omega| b3) u + (b2 + |Omega| b4) v
    and sets w* = (k u* + l v*) / lam.  Raises on a singular determinant
    (detected by exact comparison: near-singular parameters legitimately
    produce huge states) and on a component that is not finite.
    """
    w = p.omega_measure
    a1t = p.a1 + w * p.a3
    a2t = p.a2 + w * p.a4
    b1t = p.b1 + w * p.b3
    b2t = p.b2 + w * p.b4
    det = b2t * a1t - a2t * b1t
    if det == 0.0:
        raise PreconditionError(
            "coexistence state is undefined: interaction determinant "
            "(b2+|Omega|b4)(a1+|Omega|a3) - (a2+|Omega|a4)(b1+|Omega|b3) is zero"
        )
    u_star = (p.a0 * b2t - p.b0 * a2t) / det
    v_star = (p.b0 * a1t - p.a0 * b1t) / det
    w_star = (p.k * u_star + p.l * v_star) / p.lam
    return ConstantState(u_star=u_star, v_star=v_star, w_star=w_star)


def exclusion_state(p: ModelParams) -> ConstantState:
    """Constant state with the first species extinct.

    (0, b0/(b2+|Omega|b4), l*b0/(lam*(b2+|Omega|b4))).  Independent of k.
    """
    denom = p.b2 + p.omega_measure * p.b4
    if denom <= 0.0:
        raise PreconditionError(
            f"exclusion state needs b2 + |Omega|*b4 > 0, got {denom!r}"
        )
    v_star = p.b0 / denom
    return ConstantState(u_star=0.0, v_star=v_star, w_star=p.l * v_star / p.lam)


def semi_trivial_states(p: ModelParams) -> tuple[ConstantState, ConstantState]:
    """The two single-species constant states.

    First: (a0/(a1+|Omega|a3), 0, k a0/(lam (a1+|Omega|a3))).
    Second: (0, b0/(b2+|Omega|b4), l b0/(lam (b2+|Omega|b4))), i.e. the
    exclusion state.
    """
    denom_u = p.a1 + p.omega_measure * p.a3
    if denom_u <= 0.0:
        raise PreconditionError(
            f"u-only state needs a1 + |Omega|*a3 > 0, got {denom_u!r}"
        )
    u_star = p.a0 / denom_u
    first = ConstantState(u_star=u_star, v_star=0.0, w_star=p.k * u_star / p.lam)
    return (first, exclusion_state(p))


def _logistic_root(r0: float, self_coef: float, coupling: float, m: float) -> float:
    """Positive root of self_coef*x^2 - r0*x - coupling*m = 0.

    The coupling coefficient is >= 0 by construction.  When it vanishes the
    root is exactly r0/self_coef; evaluated directly rather than through the
    radical form.  Raises when self_coef is 0.0, which l1_bounds' a1/|Omega| can underflow to.
    """
    if self_coef == 0.0:
        raise PreconditionError("a logistic root needs a self-limitation coefficient above 0.0")
    if coupling == 0.0:
        return r0 / self_coef
    return (r0 + math.sqrt(r0 * r0 + 4.0 * self_coef * coupling * m)) / (2.0 * self_coef)


def linf_bounds(p: ModelParams, sup_u0: float, sup_v0: float) -> dict[str, float]:
    """Sup-norm envelope constants m00, m01, m02, l_const and the resulting
    caps sup_cap_u, sup_cap_v, by name.

    Requires both H1 margins strictly positive (that is what makes L and
    the quadratic denominators positive) and 4*L*L not to underflow to 0;
    raises otherwise.  The caps are max{sup_u0, M01} and max{sup_v0, M02}:
    the solution's sup norm never exceeds them for admissible dynamics.
    """
    m1, m2 = h1_margins(p)
    l_const = min(m1, m2)
    if l_const <= 0.0:
        raise PreconditionError(
            f"sup-norm bounds need both H1 margins positive, got ({m1!r}, {m2!r})"
        )
    denom = 4.0 * l_const * l_const
    if denom == 0.0:
        raise PreconditionError(
            f"sup-norm bounds need 4*L*L > 0, but L = {l_const!r} squares to 0 in floating point"
        )
    w = p.omega_measure
    m00 = max(sup_u0 * sup_v0, (p.a0 + p.b0) * (p.a0 + p.b0) / denom)
    m01, m02 = per_species(lambda q: _logistic_root(
        q.a0,
        q.a1 - q.k * q.chi1 / q.d3 - w * negative_part(q.a3),
        negative_part(q.a2) + w * negative_part(q.a4) + q.l * q.chi1 / q.d3,
        m00,
    ), p)
    return {
        "m00": m00,
        "m01": m01,
        "m02": m02,
        "l_const": l_const,
        "sup_cap_u": max(sup_u0, m01),
        "sup_cap_v": max(sup_v0, m02),
    }


def l1_bounds(p: ModelParams, mass_u0: float, mass_v0: float) -> dict[str, float]:
    """Per-species mass envelope: the constant m_l1 and the two mass caps
    mass_u_cap, mass_v_cap, by name.

    Requires both H2 margins strictly positive and their squares not to
    underflow to 0.  Intended for parameters with a2 >= 0 and b1 >= 0
    (local competition); the formulas evaluate regardless.
    """
    m1, m2 = h2_margins(p)
    if min(m1, m2) <= 0.0:
        raise PreconditionError(
            f"mass bounds need both H2 margins positive, got ({m1!r}, {m2!r})"
        )
    denom = 4.0 * min(m1 * m1, m2 * m2)
    if denom == 0.0:
        raise PreconditionError(
            f"mass bounds need 4*min(m1*m1, m2*m2) > 0, but the H2 margins "
            f"({m1!r}, {m2!r}) square to 0 in floating point"
        )
    w = p.omega_measure
    m_l1 = max(mass_u0 * mass_v0, (p.a0 + p.b0) * (p.a0 + p.b0) * w * w / denom)
    root_u, root_v = per_species(lambda q: _logistic_root(
        q.a0, (q.a1 - w * negative_part(q.a3)) / w, negative_part(q.a4), m_l1
    ), p)
    return {"m_l1": m_l1, "mass_u_cap": max(mass_u0, root_u), "mass_v_cap": max(mass_v0, root_v)}


def mass_sum_cap(p: ModelParams, mass_sum_0: float) -> float:
    """Cap on mass_u + mass_v: max{initial sum, 2|Omega| max{a0,b0}/min{alpha,beta}}.

    Requires min{alpha, beta} > 0 (H3); raises otherwise.
    """
    alpha, beta = alpha_beta(p)
    floor = min(alpha, beta)
    if floor <= 0.0:
        raise PreconditionError(
            f"combined-mass bound needs min(alpha, beta) > 0, got ({alpha!r}, {beta!r})"
        )
    return max(mass_sum_0, 2.0 * p.omega_measure * max(p.a0, p.b0) / floor)


# The two family tables map a name to its producer.  The lambdas look the
# producers up by module-global name when called, so a wrapper set on this
# module's attributes sees every call.

# name -> the family's labelled states; raises PreconditionError.
CONSTANT_FAMILIES = {
    "coexistence": lambda p: (("coexistence", coexistence_state(p)),),
    "exclusion": lambda p: (("exclusion", exclusion_state(p)),),
    "semi_trivial": lambda p: tuple(
        zip(("semi_trivial_u", "semi_trivial_v"), semi_trivial_states(p))
    ),
}

# name -> the family's constants by name from (p, (sup_u0, sup_v0), (mass_u0,
# mass_v0)); raises PreconditionError when the hypothesis it needs fails.
BOUND_FAMILIES = {
    "sup_norm": lambda p, sup0, mass0: linf_bounds(p, *sup0),
    "mass_per_species": lambda p, sup0, mass0: l1_bounds(p, *mass0),
    "mass_sum": lambda p, sup0, mass0: dict(
        zip(("alpha", "beta"), alpha_beta(p)), mass_sum_cap=mass_sum_cap(p, mass0[0] + mass0[1])
    ),
}
