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
(M = ceil(x/h)); they share the b_j up to the widest row, both Gamma
values and f(0).  Each node's grid is one row from t_M = x down to t_0,
padded with t_0 to a width that depends on M alone, M + 1 rounded up to
a multiple of 64; a pad's difference is exactly 0.  The rows, in order
of M, form blocks of one width and ``kernel.chunk_rows(width)`` rows, so
at most kernel.CHUNK_ELEMENTS points (a wider row is a block alone): the
lattice chunks' rule, which keeps a block's arrays within the C library's
default mmap threshold (128 KiB in glibc), so they reuse heap memory.
Each block takes one f call and one difference, and each row's sum is
one BLAS dot against the b_j.  So a node's value
depends on its own x and M alone, not on the other nodes or on which
call computed it, and each sum is within the dot-product bound
gamma_M sum_j |b_j df_j|, gamma_M = M u/(1 - M u), of the exact sum of
its float terms.  A fractional sweep therefore makes one call over the
distinct nodes of all its n (``analysis.fractional_sweep``'s union table).
The scale that turns the sums into D^beta f is one array expression over
every node, with numpy's vector pow (faithful, as is the C library's).

``l1_work`` is the one check of the L1 budget: at most MAX_GRID_POINTS
points on a node's grid, then at most MAX_L1_WORK over a call's nodes.
A sweep runs it at bind time on the very nodes of its one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import chunk_rows

__all__ = ["FracConfig", "gamma_fn", "rl_derivative_batch", "power_rule_oracle"]

MAX_GRID_POINTS = 10**7
# L1 grid points of one call in all, like kernel.MAX_SUM_WORK
MAX_L1_WORK = 2**31
# a node's L1 row holds M + 1 points rounded up to a multiple of this, so its width, and with it
# the order of its BLAS dot, depends on M alone
_ROW_QUANTUM = 64


def l1_work(xs, h: float) -> int:
    """The grid points sum(M + 1) of nodes xs' L1 grids, M = ceil(x/h): the one check of the L1
    budget.  The largest node's grid past MAX_GRID_POINTS (or past float range) is a ValueError,
    and then so is more than MAX_L1_WORK points in all."""
    xs = np.asarray(xs, dtype=float)
    x = float(np.max(xs, initial=0.0))
    points = math.ceil(x / h) + 1 if math.isfinite(x / h) else math.inf
    if points > MAX_GRID_POINTS:
        raise ValueError(f"L1 grid would need {points} points (> {MAX_GRID_POINTS}) at node "
                         f"t = {x!r}; increase the step or shrink the evaluation box")
    work = int(np.ceil(xs / h).sum()) + xs.size
    if work > MAX_L1_WORK:
        raise ValueError(f"the L1 grids would need {work} points in all (> {MAX_L1_WORK}); "
                         "increase the step, or shrink the evaluation box or the n sweep")
    return work


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


def _blocks(widths: np.ndarray):
    """(lo, hi, width): slices of ascending row widths, one width a block of
    ``chunk_rows(width)`` rows."""
    edges = (np.flatnonzero(np.diff(widths)) + 1).tolist()
    for start, stop in zip([0, *edges], [*edges, widths.size]):
        width = int(widths[start])
        rows = chunk_rows(width)
        for lo in range(start, stop, rows):
            yield lo, min(lo + rows, stop), width


def _l1_sums(f, xs: np.ndarray, ms: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_j b_j (f(t_{M-j}) - f(t_{M-j-1})) at each node x, t_j = j * (x/M), t_M = x: the rows
    of the module docstring, in stable order of M, one block at a time (``_blocks``)."""
    order = np.argsort(ms, kind="stable")
    ms, xs = ms[order], xs[order]
    taus = (xs / ms)[:, None]
    m_max = int(ms[-1])
    # descending counts m_max .. 0, then zeros: M's row of width w is counts[m_max - M:][:w]
    counts = np.zeros(m_max + 1 + _ROW_QUANTUM)
    counts[:m_max + 1] = np.arange(m_max, -1.0, -1.0)
    counts.flags.writeable = False
    sums = np.empty(xs.size)
    window = None
    for lo, hi, width in _blocks((ms + _ROW_QUANTUM) // _ROW_QUANTUM * _ROW_QUANTUM):
        if window is None or window.shape[1] != width:
            # every row of this width, a read-only view (np.ndarray builds it in about a tenth of
            # sliding_window_view's time)
            window = np.ndarray((counts.size - width + 1, width), float, counts, 0,
                                counts.strides * 2)
        m = ms[lo:hi]
        if m[0] == m[-1]:
            t = window[m_max - m[0]] * taus[lo:hi]
        else:
            t = window[m_max - m]
            np.multiply(t, taus[lo:hi], out=t)
        t[:, 0] = xs[lo:hi]
        fv = np.asarray(f.value(t), dtype=float).reshape(-1)
        # one flat difference; each row's last entry straddles two rows and is left out of its dot
        d = np.empty(fv.size)
        np.subtract(fv[:-1], fv[1:], out=d[:-1])
        sums[lo:hi] = np.matmul(d.reshape(-1, 1, width)[:, :, :-1], b[:width - 1, None])[:, 0, 0]
        del t, fv, d  # freed before the next block's arrays are made: at most three live
    out = np.empty(xs.size)
    out[order] = sums
    return out


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
    l1_work(xs, cfg.h)
    ms = np.ceil(xs / cfg.h).astype(np.int64)
    m_max = int(ms.max())
    beta = cfg.beta
    # b_j up to the widest row's last difference, j < m_max + _ROW_QUANTUM - 1
    b = np.diff(np.arange(m_max + _ROW_QUANTUM, dtype=float) ** (1.0 - beta))
    g2, g1, f0 = gamma_fn(2.0 - beta), gamma_fn(1.0 - beta), float(f.value(0.0))
    sums = _l1_sums(f, xs, ms, b)
    return (xs / ms) ** (-beta) / g2 * sums + f0 * xs ** (-beta) / g1


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
