"""Parametrized hyperbolic-tangent activation.

The building block of every kernel in this package is

    h(x) = (e^(a x) - q e^(-a x)) / ((1+q) e^(a x) + (1-q) e^(-a x))

with shape parameter q in [0, 1) and slope parameter a = alpha > 0; q = 0
is the classical h = (1 + tanh(alpha x))/2.  On that range the denominator
is strictly positive, h is strictly increasing, and h(x) stays inside the
open interval (-q/(1-q), 1/(1+q)).  Outside it the function degenerates:
q = 1 kills one exponential and q > 1 produces a pole, so parameter
construction rejects both (and q < 0, which is out of scope).

Unlike tanh itself, h is not odd.  Its value at the origin is
h(0) = (1-q)/2, and its graph is a shifted, rescaled tanh:
h(x) = c1 * tanh(alpha x + phi) + c2 with phi = log((1+q)/(1-q))/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["ActivationParams", "h_eval", "h_derivative", "h_limits"]


@dataclass(frozen=True)
class ActivationParams:
    """Validated (q, alpha) pair; q in [0, 1), alpha > 0 and finite."""

    q: float
    alpha: float

    def __post_init__(self):
        if not (0.0 <= self.q < 1.0):
            raise ValueError(f"q must lie in the half-open interval [0, 1), got {self.q!r}")
        if not (0.0 < self.alpha < math.inf):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha!r}")


def _maybe_scalar(out, x):
    if np.isscalar(x) or getattr(x, "ndim", 1) == 0:
        return float(out)
    return out


def h_eval(params: ActivationParams, x):
    """Evaluate h at a float or an ndarray of floats.

    The two exponentials are rescaled by e^(-alpha |x|) before dividing,
    so the evaluation never overflows even for |alpha * x| ~ 700 and the
    saturation limits are reached gracefully.
    """
    q, a = params.q, params.alpha
    xs = np.asarray(x, dtype=float)
    t = np.exp(-2.0 * a * np.abs(xs))
    pos = (1.0 - q * t) / ((1.0 + q) + (1.0 - q) * t)
    neg = (t - q) / ((1.0 + q) * t + (1.0 - q))
    return _maybe_scalar(np.where(xs >= 0.0, pos, neg), x)


def h_derivative(params: ActivationParams, x):
    """First derivative of h.

    Differentiating the quotient directly gives

        h'(x) = 2 alpha (1 + q^2) / D(x)^2,
        D(x)  = (1+q) e^(alpha x) + (1-q) e^(-alpha x).

    Some printed sources carry (1 - q^2) in the numerator instead; that
    variant disagrees with finite differences (at q = 0.5, alpha = 1 it
    would give h'(0) = 0.375 instead of the correct 0.625) and is not
    used here.  The same e^(-alpha |x|) rescaling as in h_eval keeps the
    squared denominator finite.
    """
    q, a = params.q, params.alpha
    xs = np.asarray(x, dtype=float)
    t = np.exp(-2.0 * a * np.abs(xs))
    scale = 2.0 * a * (1.0 + q * q) * t
    pos = scale / ((1.0 + q) + (1.0 - q) * t) ** 2
    neg = scale / ((1.0 + q) * t + (1.0 - q)) ** 2
    return _maybe_scalar(np.where(xs >= 0.0, pos, neg), x)


def h_limits(params: ActivationParams) -> tuple[float, float]:
    """Saturation limits (lower, upper) = (-q/(1-q), 1/(1+q)); the lower one is +0.0 at q = 0."""
    q = params.q
    # 0.0 - q, not -q: the same bits for q > 0, and +0.0 rather than -0.0 at q = 0
    return ((0.0 - q) / (1.0 - q), 1.0 / (1.0 + q))

