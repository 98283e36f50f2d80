"""Riemann-Liouville fractional derivative of order beta in (0, 1).

For beta in (0, 1) the Riemann-Liouville derivative splits into the
Caputo derivative plus an initial-value term:

    D^beta f(x) = D_C^beta f(x) + f(0) x^(-beta) / Gamma(1 - beta).

The Caputo part is discretized with the L1 scheme on a uniform grid
0 = t_0 < ... < t_M = x with step tau = x/M:

    D_C^beta f(x) ~= tau^(-beta)/Gamma(2-beta)
                     * sum_{j=0}^{M-1} b_j (f(t_{M-j}) - f(t_{M-j-1})),
    b_j = (j+1)^(1-beta) - j^(1-beta),

i.e. piecewise-linear reconstruction of f (Lin & Xu, J. Comput. Phys.
225, 2007).  The scheme is exact for affine f and carries an
O(tau^(2-beta)) error for f in C^2.

``rl_derivative_batch`` takes many nodes x, each on its own grid
(M = ceil(x/h)); they share the b_j up to the largest M, both Gamma
values and f(0), and one f call per chunk of about L1_CHUNK_POINTS grid
points, so a node's value does not depend on the other nodes or on which
call computed it.  A fractional sweep therefore makes one call over the
distinct nodes of all its n (``operators.fractional_table``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["FracConfig", "gamma_fn", "rl_derivative_batch", "power_rule_oracle"]

MAX_GRID_POINTS = 10**7
# grid points per f call, kept at 2^13 apart from kernel.CHUNK_ELEMENTS: at 2^15 the frac
# benchmark's peak RSS rose by 1.1 MB for no gain in time
L1_CHUNK_POINTS = 2**13


def l1_intervals(x: float, h: float) -> int:
    """ceil(x / h), the intervals of node x's L1 grid; more than MAX_GRID_POINTS (or past float
    range) is a ValueError."""
    ratio = x / h
    m = math.ceil(ratio) if math.isfinite(ratio) else math.inf
    if m > MAX_GRID_POINTS:
        raise ValueError(f"L1 grid would need {m} points (> {MAX_GRID_POINTS}) at node t = {x!r}; "
                         "increase the step or shrink the evaluation box")
    return m


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

    def __post_init__(self):
        if not (0.0 < self.beta < 1.0):
            raise ValueError(f"beta must lie in the open interval (0, 1), got {self.beta!r}")
        if not (0.0 < self.h <= 0.1):
            raise ValueError(f"step h must lie in (0, 0.1], got {self.h!r}")


def _chunks(ms, xs):
    """Runs of consecutive (node, offset, m, x) within L1_CHUNK_POINTS points; longer grids alone."""
    run, total = [], 0
    for i, (m, x) in enumerate(zip(ms, xs)):
        if run and total + m + 1 > L1_CHUNK_POINTS:
            yield run, total
            run, total = [], 0
        run.append((i, total, m, x))
        total += m + 1
    yield run, total


def rl_derivative_batch(cfg: FracConfig, f, xs) -> np.ndarray:
    """Riemann-Liouville derivative of f (a vectorized ``value(t)``) at nodes xs > 0, (P,) -> (P,).

    A node's grid is j * tau, tau = x/M, with t_M = x: np.linspace's
    values.  One node is ``rl_derivative_batch(cfg, f, [x])[0]``.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    if not xs.size:
        return np.empty(0)
    if not (xs > 0.0).all():
        raise ValueError(f"rl_derivative_batch requires x > 0, got {float(xs[~(xs > 0.0)][0])!r}")
    m_max = l1_intervals(float(xs.max()), cfg.h)
    out, beta, j = np.empty(xs.size), cfg.beta, np.arange(m_max + 1, dtype=float)
    b = np.diff(j ** (1.0 - beta))
    g2, g1, f0 = gamma_fn(2.0 - beta), gamma_fn(1.0 - beta), float(f.value(0.0))
    for run, points in _chunks(np.ceil(xs / cfg.h).astype(np.int64).tolist(), xs.tolist()):
        t = np.empty(points)
        for _, s, m, x in run:
            np.multiply(j[:m + 1], x / m, out=t[s:s + m + 1])
            t[s + m] = x
        fv = np.asarray(f.value(t), dtype=float)
        diffs = fv[1:] - fv[:-1]
        for i, s, m, x in run:
            out[i] = ((x / m) ** (-beta) / g2 * float(b[:m] @ diffs[s:s + m][::-1])
                      + f0 * x ** (-beta) / g1)
    return out


def power_rule_oracle(p: float, beta: float, x):
    """Closed form D^beta t^p = Gamma(p+1)/Gamma(p+1-beta) x^(p-beta).

    x is a float or an ndarray (elementwise).  Valid for p >= 0 and
    beta in (0, 1), where p + 1 - beta > 0 keeps Gamma off its poles.
    """
    if p < 0.0:
        raise ValueError(f"power rule needs p >= 0, got {p!r}")
    if not (0.0 < beta < 1.0):
        raise ValueError(f"beta must lie in (0, 1), got {beta!r}")
    if not np.all(np.asarray(x) > 0.0):
        raise ValueError(f"power rule oracle needs x > 0, got {x!r}")
    return gamma_fn(p + 1.0) / gamma_fn(p + 1.0 - beta) * x ** (p - beta)
