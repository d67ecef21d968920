"""Validating scalar or array variate draws: gamma, beta, Poisson and normal.

These are exact samplers; the beta is constructed as a gamma ratio because
that construction *is* the beta-gamma decomposition the thinned processes
rest on: with X ~ Ga(a, c) and Y ~ Ga(b, c) independent, U = X/(X+Y) ~
Be(a, b) independent of X+Y ~ Ga(a+b, c).

Shape 0 is allowed everywhere and means the point mass at 0 (``Ga(0, .)``),
which is exactly what ``numpy`` returns for a zero shape.

The structured transitions (the AR(1) innovation ladder, the exact CIR
transition, the beta thinnings) live in ``processes``, written once for a
vector of lanes in ``_lane_step``.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ParameterError, RandomSource

__all__ = [
    "gamma_draw",
    "beta_draw",
    "poisson_draw",
    "normal_draw",
]


def gamma_draw(rng: RandomSource, shape, rate, size=None):
    """Draw from Ga(shape, rate); ``shape`` may be 0 (point mass at 0) or an array."""
    shape = np.asarray(shape, dtype=float)
    if np.any(shape < 0.0) or not np.all(np.isfinite(shape)):
        raise ParameterError("gamma shape must be finite and >= 0")
    rate = float(rate)
    if not (rate > 0.0) or not math.isfinite(rate):
        raise ParameterError("gamma rate must be finite and > 0")
    return rng.gen.gamma(shape, 1.0 / rate, size=size)


def beta_draw(rng: RandomSource, a, b, size=None):
    """Draw from Be(a, b) via the gamma ratio X/(X+Y).

    If both gamma draws underflow to exactly 0.0 (possible only for very small
    shapes), the draw falls back to the mean a/(a+b) rather than 0/0.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a <= 0.0) or np.any(b <= 0.0):
        raise ParameterError("beta parameters must be > 0")
    x = rng.gen.gamma(a, 1.0, size=size)
    y = rng.gen.gamma(b, 1.0, size=size)
    s = x + y
    with np.errstate(invalid="ignore"):
        u = np.where(s > 0.0, x / np.where(s > 0.0, s, 1.0), a / (a + b))
    return float(u) if np.ndim(u) == 0 else u


def poisson_draw(rng: RandomSource, mean, size=None):
    """Draw from Po(mean); ``mean`` may be 0 or an array."""
    mean = np.asarray(mean, dtype=float)
    if np.any(mean < 0.0) or not np.all(np.isfinite(mean)):
        raise ParameterError("poisson mean must be finite and >= 0")
    return rng.gen.poisson(mean, size=size)


def normal_draw(rng: RandomSource, size=None):
    """Standard normal draw(s)."""
    return rng.gen.standard_normal(size=size)
