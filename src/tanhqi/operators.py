"""Quasi-interpolation operators built on the product kernel.

Three variants share the truncated lattice window |k_i - n x_i| <= W:

* basic          A_n(f; x) = sum_k f(k/n) Z(n x - k)
* Kantorovich    K_n(f; x) = sum_k (n^N integral of f over the cell
                 [k/n, (k+1)/n]) Z(n x - k), cell averages by tensor
                 Gauss-Legendre quadrature
* fractional     Q_n(f; x) = sum_{k >= 0} D^beta f(k/n) psi(n x - k) / S(x),
                 S(x) the half-lattice partition sum; D^beta f from one
                 ``rl_derivative_batch`` call per lattice table

Q_n reproduces the fractional derivative, not f itself: its zeroth-order
term is already D^beta f.  Errors against it should therefore be measured
with a D^beta f oracle.

The Voronovskaya helper assembles the moment correction
sum_{1 <= |alpha| <= m} D^alpha f(x)/alpha! * M_alpha(x, n), which peels
one order of 1/n off the basic operator's error per added term.

Each operator is one function, ``*_batch(..., pts)``, that evaluates
every row of a (P, N) point array (one point x is the array [x]) through
``kernel.lattice_sums``: it samples its site value once per lattice
table site and keeps its own reduction of a chunk's weights and values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fractional import FracConfig, rl_derivative_batch
from .kernel import (
    CHUNK_ELEMENTS,
    MAX_POINT_WORK,
    DensityKernel,
    axis_moments,
    lattice_sums,
    multi_indices,
    row_dot,
    row_sums,
)

__all__ = [
    "OperatorConfig",
    "apply_basic_batch",
    "apply_kantorovich_batch",
    "apply_fractional_batch",
    "voronovskaya_correction_batch",
]

OPERATOR_KINDS = ("basic", "kantorovich", "fractional")
# leggauss(g) builds a g x g matrix, so g^2 must fit the per-point budget too
MAX_QUAD_NODES = math.isqrt(MAX_POINT_WORK)


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
        if self.quad_nodes > MAX_QUAD_NODES:
            raise ValueError(
                f"quad_nodes = {self.quad_nodes} exceeds {MAX_QUAD_NODES}: the Gauss-Legendre "
                f"rule would build a {self.quad_nodes} x {self.quad_nodes} matrix"
            )


def _points(pts, dim_expected: int):
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.size == 0:
        raise ValueError("evaluation points must form a non-empty (P, N) array")
    if pts.shape[1] != dim_expected:
        raise ValueError(
            f"evaluation point has {pts.shape[1]} coordinates, preset expects {dim_expected}"
        )
    return pts


def _check_kind(cfg: OperatorConfig, kind: str) -> None:
    if cfg.kind != kind:
        raise ValueError(f"apply_{kind}_batch needs kind={kind!r}, got {cfg.kind!r}")


def apply_basic_batch(cfg: OperatorConfig, f, pts) -> np.ndarray:
    """A_n(f; x) at every row of pts, (P, N) -> (P,); exact on constants up to the tail mass."""
    _check_kind(cfg, "basic")
    pts = _points(pts, f.dim)
    return lattice_sums(cfg.kernel, cfg.n, pts,
                        lambda sites: [f.value(*(k / cfg.n for k in sites))],
                        lambda weights, vals: row_sums(vals * weights))


def _cell_averages(cfg: OperatorConfig, f, sites) -> np.ndarray:
    # cell averages on the lattice table, in slabs of about CHUNK_ELEMENTS samples
    dim, g = len(sites), cfg.quad_nodes
    nodes, wts = np.polynomial.legendre.leggauss(g)
    offsets = (nodes + 1.0) / 2.0
    node_weights = functools.reduce(np.multiply.outer, [wts / 2.0] * dim)
    shape = tuple(k.size for k in sites)
    averages = np.empty(math.prod(shape))
    slab = max(1, CHUNK_ELEMENTS // g**dim)
    for start in range(0, averages.size, slab):
        cells = np.unravel_index(np.arange(start, min(start + slab, averages.size)), shape)
        # cell axis i samples its nodes along array axis 1 + i
        samples = [np.expand_dims((sites[i].ravel()[c][:, None] + offsets) / cfg.n,
                                  [1 + j for j in range(dim) if j != i]) for i, c in enumerate(cells)]
        vals = np.asarray(f.value(*samples), dtype=float)
        averages[start:start + slab] = np.tensordot(vals, node_weights, axes=dim)
    return averages.reshape(shape)


def apply_kantorovich_batch(cfg: OperatorConfig, f, pts) -> np.ndarray:
    """K_n(f; x) at every row of pts, shape (P, N) -> (P,).

    With g nodes per axis the cell averages are exact for polynomial
    degree 2g - 1 per axis (degree 9 at the default g = 5), so K_n
    inherits the basic operator's exactness on constants.  Each cell
    average of the lattice table is computed once; the Gauss-Legendre
    rule is built once per call.
    """
    _check_kind(cfg, "kantorovich")
    pts = _points(pts, f.dim)
    return lattice_sums(cfg.kernel, cfg.n, pts,
                        lambda sites: [_cell_averages(cfg, f, sites)],
                        lambda weights, averages: row_sums(averages * weights))


def _renormalized(weights, dvals, admissible):
    weights = np.where(admissible, weights, 0.0)
    return row_dot(dvals, weights) / row_sums(weights)


def apply_fractional_batch(cfg: OperatorConfig, f, pts) -> np.ndarray:
    """Q_n(f; x) at every row of pts, shape (P, 1) -> (P,), x >= 0.

    Sites k < 0 get weight zero and the rest are renormalized per point;
    D^beta f at the table's sites k > 0 is one rl_derivative_batch call.
    """
    _check_kind(cfg, "fractional")
    x = _points(pts, 1)[:, 0]
    if f.dim != 1:
        raise ValueError("the fractional operator is one-dimensional")
    if (x < 0.0).any():
        raise ValueError(f"the fractional operator needs x >= 0, got {float(x[x < 0.0][0])!r}")
    frac_cfg = FracConfig(cfg.beta, cfg.frac_step)

    def tables(sites):
        ks = sites[0]
        # at t = 0 the Caputo part vanishes for C^1 functions and the
        # initial-value term vanishes iff f(0) = 0
        if 0.0 in ks and float(f.value(0.0)) != 0.0:
            raise ValueError(
                "fractional lattice touches t = 0 where D^beta f diverges because f(0) != 0; "
                "evaluate farther from the origin or increase n"
            )
        dbeta = np.zeros(ks.shape)
        dbeta[ks > 0.0] = rl_derivative_batch(frac_cfg, f, ks[ks > 0.0] / cfg.n)
        return [dbeta, ks >= 0.0]

    return lattice_sums(cfg.kernel, cfg.n, x[:, None], tables, _renormalized)


def voronovskaya_correction_batch(kernel: DensityKernel, f, pts, n: int, m: int) -> np.ndarray:
    """sum_{1 <= |alpha| <= m} D^alpha f(x)/alpha! M_alpha(x, n) at every row of pts, (P, N) -> (P,).

    alpha runs in lexicographic order; m lies in 1..4 and at most the smoothness grade of f.
    """
    if not (isinstance(m, (int, np.integer)) and 1 <= m <= 4):
        raise ValueError(f"correction order m must lie in 1..4, got {m!r}")
    if m > f.smoothness:
        raise ValueError(
            f"correction order m = {m} exceeds the smoothness grade {f.smoothness} of {f.name!r}"
        )
    pts = _points(pts, f.dim)
    moments = [axis_moments(kernel, pts[:, i], int(n), m) for i in range(pts.shape[1])]
    total = np.zeros(len(pts))
    for alpha in multi_indices(pts.shape[1], 1, m):
        d = np.asarray(f.derivative(alpha.entries, *pts.T), dtype=float)
        mom = 1.0
        for axis, p in enumerate(alpha):
            mom = mom * moments[axis][:, p]
        # a zero derivative adds an exact zero, as skipping the term would
        total = total + d / alpha.factorial * mom
    return total
