"""Inequality hypotheses: H1-H6, the asymptotic-regime conditions, f, g, gamma*.

Every check returns a :class:`HypothesisReport` carrying one signed margin
per inequality (left minus right, oriented so that positive means
satisfied).  Strict inequalities fail at margin zero; the few non-strict
conditions pass at zero and are marked on their margins.  A margin that is
undefined for the params (a zero or nonpositive denominator) is -inf, so
it fails, and a note says why.

Margin arithmetic shared with the bound constants (H1, H2, H3) is
delegated to :mod:`.steady_states` so the equalities between hypothesis
margins and bound ingredients hold bit-for-bit.  A margin written for u
gives v's on the exchanged params (``per_species``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .model import (
    ModelParams,
    PreconditionError,
    negative_part,
    per_species,
    positive_part,
)
from .steady_states import alpha_beta, h1_margins, h2_margins


@dataclass(frozen=True)
class Margin:
    """One inequality slack.  strict=False means the condition allows equality."""

    label: str
    value: float
    strict: bool = True

    @property
    def satisfied(self) -> bool:
        return self.value > 0.0 if self.strict else self.value >= 0.0


@dataclass(frozen=True)
class HypothesisReport:
    margins: tuple[Margin, ...]
    notes: tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        """Whether every margin is satisfied."""
        return all(m.satisfied for m in self.margins)


def check_h1(p: ModelParams) -> HypothesisReport:
    """Global existence condition: self-limitation dominates the negative
    cross terms, the negative mass couplings, and the chemotactic load."""
    m1, m2 = h1_margins(p)
    return HypothesisReport((Margin("a1_side", m1), Margin("b2_side", m2)))


def check_h2(p: ModelParams) -> HypothesisReport:
    """Self-limitation dominates the negative mass couplings."""
    m1, m2 = h2_margins(p)
    return HypothesisReport((Margin("a1_side", m1), Margin("b2_side", m2)))


def check_h3(p: ModelParams) -> HypothesisReport:
    """Equivalent to min{alpha, beta} > 0; margins are exactly (alpha, beta)."""
    alpha, beta = alpha_beta(p)
    return HypothesisReport((Margin("alpha", alpha), Margin("beta", beta)))


def check_h4(p: ModelParams, n_dim: int = 1) -> HypothesisReport:
    """Dimension-dependent positivity of a1, a2, b2, b1 against the
    chemotactic thresholds chi*k(n-2)/(d3*n) etc.  Trivial in n <= 2."""
    if n_dim < 1:
        raise PreconditionError(f"n_dim must be >= 1, got {n_dim}")
    factor = (n_dim - 2) / n_dim
    (a1, a2), (b2, b1) = per_species(lambda q: (
        q.a1 - max(0.0, q.chi1 * q.k * factor / q.d3), q.a2 - max(0.0, q.chi1 * q.l * factor / q.d3)
    ), p)
    return HypothesisReport((Margin("a1", a1), Margin("a2", a2), Margin("b2", b2), Margin("b1", b1)))


def check_h5(p: ModelParams) -> HypothesisReport:
    """The large-exponent limits of f and g are positive."""
    m1, m2 = per_species(lambda q: q.a1 - (negative_part(q.a2) + (q.l + q.k) * q.chi1 / q.d3), p)
    return HypothesisReport((Margin("f_limit", m1), Margin("g_limit", m2)))


def eval_f(p: ModelParams, gamma: float) -> float:
    """First exponent-weighted coercivity function.

    f(gamma) = a1 - gamma(a2)_-/(gamma+1) - (b1)_-/(gamma+1)
               - chi1*k(gamma-1)/(d3*gamma) - chi1*l(gamma-1)/(d3*(gamma+1))
               - chi2*k(gamma-1)/(d3*gamma*(gamma+1))

    Undefined at gamma in {0, -1}.
    """
    if gamma == 0.0 or gamma == -1.0:
        raise PreconditionError(f"f and g are undefined at gamma={gamma!r}")
    gp1 = gamma + 1.0
    gm1 = gamma - 1.0
    return (
        p.a1
        - gamma * negative_part(p.a2) / gp1
        - negative_part(p.b1) / gp1
        - p.chi1 * p.k * gm1 / (p.d3 * gamma)
        - p.chi1 * p.l * gm1 / (p.d3 * gp1)
        - p.chi2 * p.k * gm1 / (p.d3 * gamma * gp1)
    )


def eval_g(p: ModelParams, gamma: float) -> float:
    """Second coercivity function: f of the exchanged params, b2 leading."""
    return eval_f(p.exchanged(), gamma)


def check_h6(p: ModelParams, n_dim: int = 1) -> HypothesisReport:
    """Positivity of f and g at gamma = n/2.

    The margins are literally (f(n/2), g(n/2)).  A variant phrasing of the
    second inequality with chi2*l in place of chi2*k in its (n+2)-term is
    in circulation; this implementation evaluates g itself, for which the
    equivalence with the n/2 exponent choice is exact.  In n = 2 the
    chi-terms vanish and the margins reduce to (f(1), g(1)).
    """
    if n_dim < 1:
        raise PreconditionError(f"n_dim must be >= 1, got {n_dim}")
    half = n_dim / 2.0
    return HypothesisReport(
        (
            Margin("f_at_half_n", eval_f(p, half)),
            Margin("g_at_half_n", eval_g(p, half)),
        ),
    )


def gamma_star(p: ModelParams) -> float:
    """Supremum of admissible moment exponents for positive interactions.

    min over the four ratios chi1*k/(chi1*k - a1)_+ , chi2*l/(chi2*l - b2)_+ ,
    chi1*l/(chi1*l - a2)_+ , chi2*k/(chi2*k - b1)_+ with x/0 = +inf.
    Requires min{a1, b1, a2, b2} > 0.
    """
    if min(p.a1, p.b1, p.a2, p.b2) <= 0.0:
        raise PreconditionError(
            "gamma_star needs min{a1, b1, a2, b2} > 0, got "
            f"({p.a1!r}, {p.b1!r}, {p.a2!r}, {p.b2!r})"
        )

    def ratio(num: float, coef: float) -> float:
        gap = positive_part(num - coef)
        return math.inf if gap == 0.0 else num / gap

    (u_self, u_cross), (v_self, v_cross) = per_species(
        lambda q: (ratio(q.chi1 * q.k, q.a1), ratio(q.chi1 * q.l, q.a2)), p
    )
    return min(u_self, v_self, u_cross, v_cross)


def _chemotaxis_slack(p: ModelParams) -> float:
    """What is left of a1 after the chemotactic load 2*chi1*k/d3 and |Omega||a3|."""
    return p.a1 - (2.0 * p.chi1 * p.k / p.d3 + p.omega_measure * abs(p.a3))


def _coexistence_core(p: ModelParams) -> tuple[float, float, list[Margin], list[str]]:
    """Shared pieces of the two coexistence routes: the chemotaxis slacks
    of a1 and b2, and the two-sided growth-ratio condition, whose margins
    are -inf, with a note, where b0 is zero or a denominator is not positive."""
    w = p.omega_measure
    slack_a1, slack_b2 = per_species(_chemotaxis_slack, p)
    if p.b0 == 0.0:  # -0.0 too
        undefined = [Margin("ratio_lower", -math.inf), Margin("ratio_upper", -math.inf)]
        return slack_a1, slack_b2, undefined, [f"growth ratio a0/b0 undefined: b0 = {p.b0!r}"]
    notes: list[str] = []
    lower = upper = -math.inf  # the margin of a degenerate bound
    denom_v = p.b2 + w * p.b4
    denom_u = p.b1 + w * p.b3
    growth_ratio = p.a0 / p.b0
    if denom_v > 0.0:
        lower = growth_ratio - (p.a2 + w * p.a4) / denom_v
    else:
        notes.append(f"growth-ratio lower bound degenerate: b2 + |Omega|*b4 = {denom_v!r} <= 0")
    if denom_u > 0.0:
        upper = (p.a1 + w * p.a3) / denom_u - growth_ratio
    else:
        notes.append(f"growth-ratio upper bound degenerate: b1 + |Omega|*b3 = {denom_u!r} <= 0")
    return slack_a1, slack_b2, [Margin("ratio_lower", lower), Margin("ratio_upper", upper)], notes


def check_coexistence(p: ModelParams) -> HypothesisReport:
    """Conditions under which both species persist and converge to the
    constant coexistence state (general sign pattern).

    Margins: the two chemotaxis slacks, the two-sided growth-ratio
    condition, the dominance product (slacks beat the absolute cross
    interactions inflated by the chemotactic load), and the two global
    existence margins, which this route requires.
    """
    w = p.omega_measure
    slack_a1, slack_b2, ratio_margins, notes = _coexistence_core(p)
    load_u, load_v = per_species(lambda q: abs(q.a2) + w * abs(q.a4) + q.l * q.chi1 / q.d3, p)
    product = slack_a1 * slack_b2 - load_u * load_v
    h1a, h1b = h1_margins(p)
    margins = [
        Margin("a1_chemotaxis_slack", slack_a1),
        Margin("b2_chemotaxis_slack", slack_b2),
        *ratio_margins,
        Margin("interaction_product", product),
        Margin("h1_a1_side", h1a),
        Margin("h1_b2_side", h1b),
    ]
    return HypothesisReport(tuple(margins), tuple(notes))


def check_coexistence_competitive(p: ModelParams) -> HypothesisReport:
    """Coexistence route for the competitive sign pattern (all interaction
    coefficients positive).

    Shares the chemotaxis slacks and the growth-ratio condition with
    :func:`check_coexistence`; replaces the dominance product by the signed
    variant (a3, b4 unsigned) and adds the non-strict requirement that the
    local cross interactions clear the chemotactic thresholds.
    """
    w = p.omega_measure
    slack_a1, slack_b2, ratio_margins, notes = _coexistence_core(p)
    cross_min = min(per_species(lambda q: q.a2 - q.chi1 * q.l / q.d3, p))
    (self_u, cross_u), (self_v, cross_v) = per_species(
        lambda q: (q.a1 - 2.0 * q.chi1 * q.k / q.d3 - w * q.a3, q.a2 + w * q.a4), p
    )
    product = self_u * self_v - cross_u * cross_v
    competitive = min(p.a1, p.a2, p.a3, p.a4, p.b1, p.b2, p.b3, p.b4) > 0.0
    notes = list(notes)
    notes.append(
        "competitive sign pattern: "
        + ("yes" if competitive else "no (route is stated for positive interactions)")
    )
    margins = [
        Margin("a1_chemotaxis_slack", slack_a1),
        Margin("b2_chemotaxis_slack", slack_b2),
        *ratio_margins,
        Margin("cross_competition_min", cross_min, strict=False),
        Margin("interaction_product_signed", product),
    ]
    return HypothesisReport(tuple(margins), tuple(notes))


def _exclusion_a1_slack(p: ModelParams) -> float:
    """What is left of a1 after chi1*k/d3 and |Omega|(a3)_-."""
    return p.a1 - (p.chi1 * p.k / p.d3 + p.omega_measure * negative_part(p.a3))


def exclusion_dominance_margin(p: ModelParams, branch: str) -> float:
    """Margin of the dominance inequality deciding competitive exclusion.

    ``branch`` selects which of the two displayed forms is evaluated:
    "b1_large" (stated for b1 > chi2*k/d3) or "b1_small" (for
    b1 <= chi2*k/d3).  Both share the left side
    (a1 - (chi1*k/d3 + |Omega|(a3)_-)) * (b2 - (2*chi2*l/d3 + |Omega||b4|)) * b0,
    whose first two factors are the values check_exclusion reports as
    a1_vs_chi1_k and b2_chemotaxis_slack.  The two forms agree at
    b1 = chi2*k/d3 whenever b3 >= 0.
    """
    w = p.omega_measure
    lhs = _exclusion_a1_slack(p) * _chemotaxis_slack(p.exchanged()) * p.b0
    v_coef = p.b2 - p.chi2 * p.l / p.d3 - w * negative_part(p.b4)
    tail = (p.b4 + p.chi2 * p.l / p.d3) * p.a0
    if branch == "b1_large":
        rhs = v_coef * (p.b1 + p.b3 * w) * p.a0 + w * negative_part(p.b3) * tail
    elif branch == "b1_small":
        rhs = (
            v_coef * (w * positive_part(p.b3) + p.chi2 * p.k / p.d3) * p.a0
            + (p.chi2 * p.k / p.d3 - p.b1 + w * negative_part(p.b3)) * tail
        )
    else:
        raise PreconditionError(f"unknown dominance branch {branch!r}")
    return lhs - rhs


def check_exclusion(p: ModelParams) -> HypothesisReport:
    """Conditions under which the first species dies out and the second
    reaches its mass-coupled carrying capacity.

    Non-strict margins: a4 >= 0, a2 >= chi1*l/d3 and the growth threshold
    on b0.  The dominance inequality is evaluated on the branch selected by
    the sign of b1 - chi2*k/d3 (equality uses the b1_small form), recorded
    in the notes.  The b0 threshold is -inf, with a note, where its
    denominator a2 + a4*|Omega| is zero.
    """
    w = p.omega_measure
    denom = p.a2 + p.a4 * w
    slack_b2 = _chemotaxis_slack(p.exchanged())
    branch = "b1_large" if p.b1 > p.chi2 * p.k / p.d3 else "b1_small"
    h1a, h1b = h1_margins(p)
    margins = [
        Margin("b2_chemotaxis_slack", slack_b2),
        Margin("a4_sign", p.a4, strict=False),
        Margin("a2_vs_chi1_l", p.a2 - p.chi1 * p.l / p.d3, strict=False),
        Margin("a1_vs_chi1_k", _exclusion_a1_slack(p)),
        Margin(
            "b0_threshold",
            p.b0 - p.a0 * (p.b2 + w * p.b4) / denom if denom != 0.0 else -math.inf,
            strict=False,
        ),
        Margin("dominance", exclusion_dominance_margin(p, branch)),
        Margin("h1_a1_side", h1a),
        Margin("h1_b2_side", h1b),
    ]
    notes = [f"dominance branch: {branch}"]
    if denom == 0.0:
        notes.append("exclusion threshold is undefined: a2 + a4*|Omega| = 0")
    return HypothesisReport(tuple(margins), tuple(notes))


# The long-time routes in the priority order of classify_regime.
ASYMPTOTIC_ROUTES = ("coexistence", "coexistence_competitive", "exclusion")

# Each global-existence route holds when every hypothesis it joins with "+" holds.
EXISTENCE_ROUTES = ("h1", "h2+h4", "h3+h4", "h3+h5", "h3+h6")


def check_all(p: ModelParams, n_dim: int = 1) -> dict[str, HypothesisReport]:
    """H1-H6, then the asymptotic routes, each evaluated once, by name."""
    return {
        "h1": check_h1(p),
        "h2": check_h2(p),
        "h3": check_h3(p),
        "h4": check_h4(p, n_dim),
        "h5": check_h5(p),
        "h6": check_h6(p, n_dim),
        "coexistence": check_coexistence(p),
        "coexistence_competitive": check_coexistence_competitive(p),
        "exclusion": check_exclusion(p),
    }


@dataclass(frozen=True)
class RegimeClassification:
    """Which sufficient-condition routes the parameters satisfy.

    global_existence lists every satisfied route; asymptotics names the
    first satisfied long-time route in the fixed priority order
    coexistence, coexistence_competitive, exclusion.
    """

    global_existence: tuple[str, ...]
    asymptotics: str


def classify_regime(reports: dict[str, HypothesisReport]) -> RegimeClassification:
    """Classify from the reports of check_all."""
    routes = tuple(r for r in EXISTENCE_ROUTES if all(reports[h].holds for h in r.split("+")))
    held = (name for name in ASYMPTOTIC_ROUTES if reports[name].holds)
    return RegimeClassification(routes, next(held, "unclassified"))
