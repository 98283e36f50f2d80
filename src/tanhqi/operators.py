"""Quasi-interpolation operators built on the product kernel.

Three variants share the truncated lattice window |k_i - n x_i| <= W:

* basic          A_n(f; x) = sum_k f(k/n) Z(n x - k)
* Kantorovich    K_n(f; x) = sum_k (n^N integral of f over the cell
                 [k/n, (k+1)/n]) Z(n x - k), cell averages by tensor
                 Gauss-Legendre quadrature
* fractional     Q_n(f; x) = sum_{k >= 0} D^beta f(k/n) psi(n x - k) / S(x),
                 S(x) the half-lattice partition sum

Q_n reproduces the fractional derivative, not f itself: its zeroth-order
term is already D^beta f.  Errors against it should therefore be measured
with a D^beta f oracle.

The Voronovskaya helper assembles the moment correction
sum_{1 <= |alpha| <= m} D^alpha f(x)/alpha! * M_alpha(x, n), which peels
one order of 1/n off the basic operator's error per added term.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fractional import FracConfig, rl_derivative
from .kernel import DensityKernel, moment, multi_indices, window_tensor, window_weights

__all__ = [
    "OperatorConfig",
    "apply_basic",
    "apply_kantorovich",
    "apply_fractional",
    "voronovskaya_correction",
]

OPERATOR_KINDS = ("basic", "kantorovich", "fractional")


@dataclass(frozen=True)
class OperatorConfig:
    """Operator kind, lattice density n, kernel, and variant knobs."""

    kind: str
    n: int
    kernel: DensityKernel
    beta: float | None = None
    quad_nodes: int = 5
    frac_step: float = 1e-3

    def __post_init__(self):
        if self.kind not in OPERATOR_KINDS:
            raise ValueError(f"kind must be one of {OPERATOR_KINDS}, got {self.kind!r}")
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if self.kind == "fractional":
            if self.beta is None:
                raise ValueError("fractional operators need beta")
            FracConfig(self.beta, self.frac_step)  # range checks
        elif self.beta is not None:
            raise ValueError(f"beta only applies to the fractional kind, got kind={self.kind!r}")
        if not (isinstance(self.quad_nodes, (int, np.integer)) and self.quad_nodes >= 2):
            raise ValueError(f"quad_nodes must be an integer >= 2, got {self.quad_nodes!r}")


def _point(x, dim_expected=None):
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("evaluation point must be a scalar or a length-N vector")
    if dim_expected is not None and xs.size != dim_expected:
        raise ValueError(f"evaluation point has {xs.size} coordinates, preset expects {dim_expected}")
    return xs


def _grids(ks, n):
    return np.meshgrid(*[k / n for k in ks], indexing="ij")


def apply_basic(cfg: OperatorConfig, f, x) -> float:
    """A_n(f; x); exact on constants up to the truncated tail mass."""
    if cfg.kind != "basic":
        raise ValueError(f"apply_basic needs kind='basic', got {cfg.kind!r}")
    xs = _point(x, f.dim)
    ks, weights = window_tensor(cfg.kernel, cfg.n, xs)
    vals = np.asarray(f.value(*_grids(ks, cfg.n)), dtype=float)
    return float(np.sum(vals * weights))


def apply_kantorovich(cfg: OperatorConfig, f, x) -> float:
    """K_n(f; x) with tensor Gauss-Legendre cell averages.

    With g nodes per axis the averages are exact for polynomial degree
    2g - 1 per axis (degree 9 at the default g = 5), so K_n inherits the
    basic operator's exactness on constants.
    """
    if cfg.kind != "kantorovich":
        raise ValueError(f"apply_kantorovich needs kind='kantorovich', got {cfg.kind!r}")
    xs = _point(x, f.dim)
    ks, weights = window_tensor(cfg.kernel, cfg.n, xs)
    nodes, wts = np.polynomial.legendre.leggauss(cfg.quad_nodes)
    dim = xs.size
    g = cfg.quad_nodes
    # axis i contributes lattice index i and node index dim + i
    expanded = []
    for i, k in enumerate(ks):
        t = (k[:, None] + (nodes[None, :] + 1.0) / 2.0) / cfg.n
        shape = [1] * (2 * dim)
        shape[i] = k.size
        shape[dim + i] = g
        expanded.append(t.reshape(shape))
    vals = np.asarray(f.value(*expanded), dtype=float)
    node_weights = functools.reduce(np.multiply.outer, [wts / 2.0] * dim)
    averages = np.tensordot(vals, node_weights, axes=dim)
    return float(np.sum(averages * weights))


def _dbeta_at(frac_cfg: FracConfig, f, t: float) -> float:
    if t > 0.0:
        return rl_derivative(frac_cfg, f, t)
    # limit at the origin: the Caputo part vanishes for C^1 functions and
    # the initial-value term vanishes iff f(0) = 0
    if float(f.value(0.0)) == 0.0:
        return 0.0
    raise ValueError(
        "fractional lattice touches t = 0 where D^beta f diverges because f(0) != 0; "
        "evaluate farther from the origin or increase n"
    )


def apply_fractional(cfg: OperatorConfig, f, x: float) -> float:
    """Q_n(f; x) on the half-lattice k >= 0 with renormalized weights."""
    if cfg.kind != "fractional":
        raise ValueError(f"apply_fractional needs kind='fractional', got {cfg.kind!r}")
    xs = _point(x, 1)
    if f.dim != 1:
        raise ValueError("the fractional operator is one-dimensional")
    xv = float(xs[0])
    if xv < 0.0:
        raise ValueError(f"the fractional operator needs x >= 0, got {xv!r}")
    ks, weights = window_weights(cfg.kernel, cfg.n * xv)
    admissible = ks >= 0
    ks, weights = ks[admissible], weights[admissible]
    if ks.size == 0:
        raise ValueError("no admissible lattice points k >= 0 inside the window")
    total = float(np.sum(weights))
    frac_cfg = FracConfig(cfg.beta, cfg.frac_step)
    dvals = np.array([_dbeta_at(frac_cfg, f, k / cfg.n) for k in ks])
    return float(dvals @ weights / total)


def voronovskaya_correction(kernel: DensityKernel, f, x, n: int, m: int) -> float:
    """Moment correction sum_{1 <= |alpha| <= m} D^alpha f(x)/alpha! M_alpha(x, n).

    Multi-indices are visited in lexicographic order.  m must lie in
    1..4 and must not exceed the preset's smoothness grade.
    """
    if not (isinstance(m, (int, np.integer)) and 1 <= m <= 4):
        raise ValueError(f"correction order m must lie in 1..4, got {m!r}")
    if m > f.smoothness:
        raise ValueError(
            f"correction order m = {m} exceeds the smoothness grade {f.smoothness} of {f.name!r}"
        )
    xs = _point(x, f.dim)
    total = 0.0
    for alpha in multi_indices(xs.size, 1, m):
        d = float(f.derivative(alpha.entries, *xs))
        if d != 0.0:
            total += d / alpha.factorial * moment(kernel, alpha, xs, n)
    return total
