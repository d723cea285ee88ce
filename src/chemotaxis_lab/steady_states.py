"""Closed-form constant states and a-priori bound constants.

This module owns the margin arithmetic shared between the bound formulas
and the hypothesis reports (``h1_margins``, ``h2_margins``, ``alpha_beta``):
the sup-norm constant L is by definition the smaller H1 margin and the
caps reuse the identical expressions, so computing them in one place keeps
the cross-module equality checks exact to the last bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    DegenerateStateError,
    HypothesisViolationError,
    ModelParams,
    negative_part,
)


@dataclass(frozen=True)
class ConstantState:
    """A spatially constant solution triple (u*, v*, w*)."""

    u_star: float
    v_star: float
    w_star: float


@dataclass(frozen=True)
class BoundConstants:
    """Explicit bound ingredients; each producer fills its own slice.

    m00/m01/m02/l_const and the sup caps come from the sup-norm envelope;
    m_l1 and the mass caps from the per-species mass envelope; alpha, beta
    and mass_sum_cap from the combined-mass envelope.
    """

    m00: float | None = None
    m01: float | None = None
    m02: float | None = None
    l_const: float | None = None
    sup_cap_u: float | None = None
    sup_cap_v: float | None = None
    m_l1: float | None = None
    mass_u_cap: float | None = None
    mass_v_cap: float | None = None
    alpha: float | None = None
    beta: float | None = None
    mass_sum_cap: float | None = None


def h1_margins(p: ModelParams) -> tuple[float, float]:
    """Signed slacks of the two global-existence inequalities (H1).

    First: a1 - [(b1)_- + |Omega|((a3)_- + (b3)_-) + k(chi1+chi2)/d3].
    Second: b2 - [(a2)_- + |Omega|((a4)_- + (b4)_-) + l(chi1+chi2)/d3].
    """
    w = p.omega_measure
    m1 = p.a1 - (
        negative_part(p.b1)
        + w * (negative_part(p.a3) + negative_part(p.b3))
        + p.k * (p.chi1 + p.chi2) / p.d3
    )
    m2 = p.b2 - (
        negative_part(p.a2)
        + w * (negative_part(p.a4) + negative_part(p.b4))
        + p.l * (p.chi1 + p.chi2) / p.d3
    )
    return (m1, m2)


def h2_margins(p: ModelParams) -> tuple[float, float]:
    """Signed slacks of the mass-boundedness inequalities (H2)."""
    w = p.omega_measure
    m1 = p.a1 - w * (negative_part(p.a3) + negative_part(p.b3))
    m2 = p.b2 - w * (negative_part(p.a4) + negative_part(p.b4))
    return (m1, m2)


def alpha_beta(p: ModelParams) -> tuple[float, float]:
    """The pair (alpha, beta) controlling the combined-mass envelope.

    alpha = a1 - ((a2)_- + (b1)_- + |Omega|((a4)_- + (b3)_-))/2 - |Omega|(a3)_-
    beta  = b2 - ((a2)_- + (b1)_- + |Omega|((a4)_- + (b3)_-))/2 - |Omega|(b4)_-

    H3 is exactly min{alpha, beta} > 0.
    """
    w = p.omega_measure
    shared = 0.5 * (
        negative_part(p.a2)
        + negative_part(p.b1)
        + w * (negative_part(p.a4) + negative_part(p.b3))
    )
    alpha = p.a1 - shared - w * negative_part(p.a3)
    beta = p.b2 - shared - w * negative_part(p.b4)
    return (alpha, beta)


def coexistence_state(p: ModelParams) -> ConstantState:
    """Constant coexistence state of the mass-coupled interaction system.

    Solves the 2x2 linear system
        a0 = (a1 + |Omega| a3) u + (a2 + |Omega| a4) v
        b0 = (b1 + |Omega| b3) u + (b2 + |Omega| b4) v
    and sets w* = (k u* + l v*) / lam.  Raises on a singular determinant
    (detected by exact comparison: near-singular parameters legitimately
    produce huge states).
    """
    w = p.omega_measure
    a1t = p.a1 + w * p.a3
    a2t = p.a2 + w * p.a4
    b1t = p.b1 + w * p.b3
    b2t = p.b2 + w * p.b4
    det = b2t * a1t - a2t * b1t
    if det == 0.0:
        raise DegenerateStateError(
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
        raise DegenerateStateError(
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
        raise DegenerateStateError(
            f"u-only state needs a1 + |Omega|*a3 > 0, got {denom_u!r}"
        )
    u_star = p.a0 / denom_u
    first = ConstantState(u_star=u_star, v_star=0.0, w_star=p.k * u_star / p.lam)
    return (first, exclusion_state(p))


def _logistic_root(r0: float, self_coef: float, coupling: float, m: float) -> float:
    """Positive root of self_coef*x^2 - r0*x - coupling*m = 0.

    The coupling coefficient is >= 0 by construction.  When it vanishes the
    root is exactly r0/self_coef; evaluated directly rather than through the
    radical form.
    """
    if coupling == 0.0:
        return r0 / self_coef
    return (r0 + math.sqrt(r0 * r0 + 4.0 * self_coef * coupling * m)) / (2.0 * self_coef)


def linf_bounds(p: ModelParams, sup_u0: float, sup_v0: float) -> BoundConstants:
    """Sup-norm envelope constants M00, M01, M02, L and the resulting caps.

    Requires both H1 margins strictly positive (that is what makes L and
    the quadratic denominators positive) and 4*L*L not to underflow to 0;
    raises otherwise.  The caps are max{sup_u0, M01} and max{sup_v0, M02}:
    the solution's sup norm never exceeds them for admissible dynamics.
    """
    m1, m2 = h1_margins(p)
    l_const = min(m1, m2)
    if l_const <= 0.0:
        raise HypothesisViolationError(
            f"sup-norm bounds need both H1 margins positive, got ({m1!r}, {m2!r})"
        )
    denom = 4.0 * l_const * l_const
    if denom == 0.0:
        raise HypothesisViolationError(
            f"sup-norm bounds need 4*L*L > 0, but L = {l_const!r} squares to 0 in floating point"
        )
    w = p.omega_measure
    a1c = p.a1 - p.k * p.chi1 / p.d3 - w * negative_part(p.a3)
    a2c = negative_part(p.a2) + w * negative_part(p.a4) + p.l * p.chi1 / p.d3
    b1c = negative_part(p.b1) + w * negative_part(p.b3) + p.k * p.chi2 / p.d3
    b2c = p.b2 - p.l * p.chi2 / p.d3 - w * negative_part(p.b4)
    m00 = max(sup_u0 * sup_v0, (p.a0 + p.b0) ** 2 / denom)
    m01 = _logistic_root(p.a0, a1c, a2c, m00)
    m02 = _logistic_root(p.b0, b2c, b1c, m00)
    return BoundConstants(
        m00=m00,
        m01=m01,
        m02=m02,
        l_const=l_const,
        sup_cap_u=max(sup_u0, m01),
        sup_cap_v=max(sup_v0, m02),
    )


def l1_bounds(p: ModelParams, mass_u0: float, mass_v0: float) -> BoundConstants:
    """Per-species mass envelope: the constant M and the two mass caps.

    Requires both H2 margins strictly positive and their squares not to
    underflow to 0.  Intended for parameters with a2 >= 0 and b1 >= 0
    (local competition); the formulas evaluate regardless.
    """
    m1, m2 = h2_margins(p)
    if min(m1, m2) <= 0.0:
        raise HypothesisViolationError(
            f"mass bounds need both H2 margins positive, got ({m1!r}, {m2!r})"
        )
    denom = 4.0 * min(m1 * m1, m2 * m2)
    if denom == 0.0:
        raise HypothesisViolationError(
            f"mass bounds need 4*min(m1*m1, m2*m2) > 0, but the H2 margins "
            f"({m1!r}, {m2!r}) square to 0 in floating point"
        )
    w = p.omega_measure
    a1t = (p.a1 - w * negative_part(p.a3)) / w
    b2t = (p.b2 - w * negative_part(p.b4)) / w
    m_l1 = max(mass_u0 * mass_v0, (p.a0 + p.b0) ** 2 * w * w / denom)
    cap_u = max(mass_u0, _logistic_root(p.a0, a1t, negative_part(p.a4), m_l1))
    cap_v = max(mass_v0, _logistic_root(p.b0, b2t, negative_part(p.b3), m_l1))
    return BoundConstants(m_l1=m_l1, mass_u_cap=cap_u, mass_v_cap=cap_v)


def mass_sum_cap(p: ModelParams, mass_sum_0: float) -> float:
    """Cap on mass_u + mass_v: max{initial sum, 2|Omega| max{a0,b0}/min{alpha,beta}}.

    Requires min{alpha, beta} > 0 (H3); raises otherwise.
    """
    alpha, beta = alpha_beta(p)
    floor = min(alpha, beta)
    if floor <= 0.0:
        raise HypothesisViolationError(
            f"combined-mass bound needs min(alpha, beta) > 0, got ({alpha!r}, {beta!r})"
        )
    return max(mass_sum_0, 2.0 * p.omega_measure * max(p.a0, p.b0) / floor)
