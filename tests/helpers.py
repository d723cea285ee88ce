"""Shared parameter factories for the test suite.

BASE is a neutral, mostly-decoupled parameter set; tests override the
handful of coefficients they exercise.  The named factories below are the
three dynamical regimes the acceptance scenarios revolve around.
draw_params draws random parameter sets for the property tests, and bits
gives the bytes of floats for bitwise comparisons.
traced_peak measures what a call allocates.
"""
import random
import struct
import tracemalloc
from dataclasses import fields

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


# The rates, diffusivities and the domain, which every config has positive.
POSITIVE = ("d1", "d2", "d3", "chi1", "chi2", "k", "l", "lam", "omega_measure")


def draw_params(rng: random.Random) -> ModelParams:
    """Magnitudes from 1e-8 to 1e8, or near 1, where more hypotheses hold.
    The interaction coefficients a0..b4 are all positive, or each takes
    either sign or a signed zero."""
    low, high = rng.choice(((-8.0, 8.0), (-1.0, 1.0)))
    mixed = rng.random() < 0.5
    values = {}
    for f in fields(ModelParams):
        value = 10.0 ** rng.uniform(low, high)
        if mixed and f.name not in POSITIVE:
            r = rng.random()
            value = 0.0 if r < 0.05 else -0.0 if r < 0.1 else rng.choice((value, -value))
        values[f.name] = value
    return ModelParams(**values)


def bits(*values):
    """The bytes of the floats, so -0.0 is not 0.0."""
    return struct.pack(f"<{len(values)}d", *values)


def traced_peak(call):
    """call() and the largest number of bytes tracemalloc saw allocated
    during it above what was allocated when it started.  Run the call once
    untraced first: CPython's free lists (a few thousand small tuples and
    floats) then hold untraced memory, so the count is the call's own."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
