"""Riemann-Liouville fractional derivative of order beta in (0, 1).

For beta in (0, 1) the Riemann-Liouville derivative splits into the
Caputo derivative plus an initial-value term:

    D^beta f(x) = D_C^beta f(x) + f(0) x^(-beta) / Gamma(1 - beta).

The Caputo part is discretized with the L1 scheme on a uniform grid
0 = t_0 < ... < t_M = x with step tau = x/M:

    D_C^beta f(x) ~= tau^(-beta)/Gamma(2-beta)
                     * sum_{j=0}^{M-1} b_j (f(t_{M-j}) - f(t_{M-j-1})),
    b_j = (j+1)^(1-beta) - j^(1-beta),

i.e. piecewise-linear reconstruction of f.  The scheme is exact for
affine f and carries an O(tau^(2-beta)) error for f in C^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["FracConfig", "gamma_fn", "rl_derivative", "power_rule_oracle"]

MAX_GRID_POINTS = 10**7


def gamma_fn(x: float) -> float:
    """Gamma function on x > 0 (the C library's, via math.gamma).

    Arguments past the double-precision overflow threshold (~171.6)
    give math.inf; Gamma(n) = (n-1)! for integers.
    """
    if not x > 0.0:
        raise ValueError(f"gamma_fn requires x > 0, got {x!r}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class FracConfig:
    """Order beta in (0, 1) and L1 step bound h in (0, 0.1]."""

    beta: float
    h: float = 1e-3
    scheme: str = field(default="L1-Caputo + initial-value correction", init=False)

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise ValueError(f"beta must lie in the open interval (0, 1), got {self.beta!r}")
        if not (0.0 < self.h <= 0.1):
            raise ValueError(f"step h must lie in (0, 0.1], got {self.h!r}")


def rl_derivative(cfg: FracConfig, f, x: float) -> float:
    """Riemann-Liouville derivative of f at x > 0.

    Parameters
    ----------
    cfg : FracConfig
        Order and step; the uniform grid step tau = x/M is the largest
        value <= cfg.h that divides x evenly.
    f : object
        Anything with a vectorized ``value(t)`` accepting an ndarray;
        function presets qualify.
    x : float
        Evaluation point, strictly positive.
    """
    if not x > 0.0:
        raise ValueError(f"rl_derivative requires x > 0, got {x!r}")
    m = math.ceil(x / cfg.h)
    if m > MAX_GRID_POINTS:
        raise ValueError(
            f"L1 grid would need {m} points (> {MAX_GRID_POINTS}); increase h or reduce x"
        )
    tau = x / m
    t = np.linspace(0.0, x, m + 1)
    fv = np.asarray(f.value(t), dtype=float)
    diffs = fv[1:] - fv[:-1]
    j = np.arange(m, dtype=float)
    b = (j + 1.0) ** (1.0 - cfg.beta) - j ** (1.0 - cfg.beta)
    caputo = tau ** (-cfg.beta) / gamma_fn(2.0 - cfg.beta) * float(b @ diffs[::-1])
    initial = float(f.value(0.0)) * x ** (-cfg.beta) / gamma_fn(1.0 - cfg.beta)
    return caputo + initial


def power_rule_oracle(p: float, beta: float, x):
    """Closed form D^beta t^p = Gamma(p+1)/Gamma(p+1-beta) x^(p-beta).

    x is a float or an ndarray (elementwise).  Valid for p >= 0 and
    beta in (0, 1); then p + 1 - beta > 0 always, but the pole is
    guarded anyway.
    """
    if p < 0.0:
        raise ValueError(f"power rule needs p >= 0, got {p!r}")
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must lie in (0, 1), got {beta!r}")
    if not np.all(np.asarray(x) > 0.0):
        raise ValueError(f"power rule oracle needs x > 0, got {x!r}")
    if p + 1.0 - beta <= 0.0:
        raise ValueError(f"Gamma pole: p + 1 - beta = {p + 1.0 - beta} is not positive")
    return gamma_fn(p + 1.0) / gamma_fn(p + 1.0 - beta) * x ** (p - beta)
