"""Shared parameter factories for the test suite.

BASE is a neutral, mostly-decoupled parameter set; tests override the
handful of coefficients they exercise.  The named factories below are the
three dynamical regimes the acceptance scenarios revolve around.
"""
from chemotaxis_lab.model import ModelParams

BASE = dict(
    d1=1.0, d2=1.0, d3=1.0, chi1=0.0, chi2=0.0,
    a0=1.0, a1=1.0, a2=0.0, a3=0.0, a4=0.0,
    b0=1.0, b1=0.0, b2=1.0, b3=0.0, b4=0.0,
    k=1.0, l=1.0, lam=1.0, omega_measure=1.0,
)


def mk_params(**overrides) -> ModelParams:
    return ModelParams(**{**BASE, **overrides})


def coexistence_params(chi: float = 0.1, **overrides) -> ModelParams:
    """Both species persist; predicted limit (1/3, 1/3, 2/3)."""
    base = dict(a1=2.0, b2=2.0, a2=1.0, b1=1.0, chi1=chi, chi2=chi)
    return mk_params(**{**base, **overrides})


def exclusion_params(chi: float = 0.05, **overrides) -> ModelParams:
    """First species dies out; predicted limit (0, 2, 2)."""
    base = dict(a0=1.0, b0=2.0, a1=1.0, a2=1.5, b1=0.5, b2=1.0, chi1=chi, chi2=chi)
    return mk_params(**{**base, **overrides})


def cooperative_params(chi: float = 0.1, **overrides) -> ModelParams:
    """Mutualistic cross terms; combined mass approaches its cap 4/3."""
    base = dict(a1=2.0, b2=2.0, a2=-0.5, b1=-0.5, chi1=chi, chi2=chi)
    return mk_params(**{**base, **overrides})
