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

Each operator has a batched body, ``*_batch(..., pts)``, that evaluates
every row of a (P, N) point array in chunks of kernel.chunk_rows points;
the one-point functions wrap it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fractional import FracConfig, rl_derivative
from .kernel import (
    DensityKernel,
    axis_moments,
    chunk_rows,
    multi_indices,
    row_dot,
    row_sums,
    window_rows,
    window_tensor,
)

__all__ = [
    "OperatorConfig",
    "apply_basic",
    "apply_basic_batch",
    "apply_kantorovich",
    "apply_kantorovich_batch",
    "apply_fractional",
    "apply_fractional_batch",
    "voronovskaya_correction",
    "voronovskaya_correction_batch",
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
    return _points(xs[None, :], dim_expected)


def _points(pts, dim_expected=None):
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.size == 0:
        raise ValueError("evaluation points must form a non-empty (P, N) array")
    if dim_expected is not None and pts.shape[1] != dim_expected:
        raise ValueError(
            f"evaluation point has {pts.shape[1]} coordinates, preset expects {dim_expected}"
        )
    return pts


def _check_kind(cfg: OperatorConfig, kind: str, name: str) -> None:
    if cfg.kind != kind:
        raise ValueError(f"{name} needs kind={kind!r}, got {cfg.kind!r}")


def apply_basic_batch(cfg: OperatorConfig, f, pts) -> np.ndarray:
    """A_n(f; x) at every row of pts, shape (P, N) -> (P,)."""
    _check_kind(cfg, "basic", "apply_basic")
    pts = _points(pts, f.dim)
    out = np.empty(len(pts))
    rows = chunk_rows(cfg.kernel, pts.shape[1])
    for start in range(0, len(pts), rows):
        ks, weights = window_tensor(cfg.kernel, cfg.n, pts[start:start + rows])
        vals = np.asarray(f.value(*(k / cfg.n for k in ks)), dtype=float)
        out[start:start + rows] = row_sums(vals * weights)
    return out


def apply_basic(cfg: OperatorConfig, f, x) -> float:
    """A_n(f; x); exact on constants up to the truncated tail mass."""
    return float(apply_basic_batch(cfg, f, _point(x, f.dim))[0])


def _unique_cells(ks) -> tuple[np.ndarray, np.ndarray]:
    # distinct lattice cells of a chunk's windows and, per window site,
    # the index of its cell; np.unique's row mode is ~7x slower than its
    # flat mode, which 1-D cells can use
    cells = np.stack([k.ravel() for k in np.broadcast_arrays(*ks)], axis=-1)
    if cells.shape[1] == 1:
        _, first, inverse = np.unique(cells[:, 0], return_index=True, return_inverse=True)
    else:
        _, first, inverse = np.unique(cells, axis=0, return_index=True, return_inverse=True)
    return cells[first], inverse.ravel()


def apply_kantorovich_batch(cfg: OperatorConfig, f, pts) -> np.ndarray:
    """K_n(f; x) at every row of pts, shape (P, N) -> (P,).

    Each distinct cell average of a chunk is computed once and gathered
    into the windows; the Gauss-Legendre rule is built once per call.
    """
    _check_kind(cfg, "kantorovich", "apply_kantorovich")
    pts = _points(pts, f.dim)
    dim = pts.shape[1]
    g = cfg.quad_nodes
    rows = chunk_rows(cfg.kernel, dim, g**dim)
    nodes, wts = np.polynomial.legendre.leggauss(g)
    offsets = (nodes + 1.0) / 2.0
    node_weights = functools.reduce(np.multiply.outer, [wts / 2.0] * dim)
    out = np.empty(len(pts))
    for start in range(0, len(pts), rows):
        ks, weights = window_tensor(cfg.kernel, cfg.n, pts[start:start + rows])
        cells, inverse = _unique_cells(ks)
        # cell axis i samples its nodes along array axis 1 + i
        samples = []
        for i in range(dim):
            shape = [len(cells)] + [1] * dim
            shape[1 + i] = g
            samples.append(((cells[:, i][:, None] + offsets) / cfg.n).reshape(shape))
        vals = np.asarray(f.value(*samples), dtype=float)
        averages = np.tensordot(vals, node_weights, axes=dim)
        out[start:start + rows] = row_sums(averages[inverse].reshape(weights.shape) * weights)
    return out


def apply_kantorovich(cfg: OperatorConfig, f, x) -> float:
    """K_n(f; x) with tensor Gauss-Legendre cell averages.

    With g nodes per axis the averages are exact for polynomial degree
    2g - 1 per axis (degree 9 at the default g = 5), so K_n inherits the
    basic operator's exactness on constants.
    """
    return float(apply_kantorovich_batch(cfg, f, _point(x, f.dim))[0])


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


def apply_fractional_batch(cfg: OperatorConfig, f, pts) -> np.ndarray:
    """Q_n(f; x) at every row of pts, shape (P, 1) -> (P,).

    D^beta f is computed once per distinct admissible node k >= 0 of the
    call and gathered into the windows.
    """
    _check_kind(cfg, "fractional", "apply_fractional")
    x = _points(pts, 1)[:, 0]
    if f.dim != 1:
        raise ValueError("the fractional operator is one-dimensional")
    if (x < 0.0).any():
        raise ValueError(f"the fractional operator needs x >= 0, got {float(x[x < 0.0][0])!r}")
    frac_cfg = FracConfig(cfg.beta, cfg.frac_step)
    dbeta = {}
    out = np.empty(len(x))
    rows = chunk_rows(cfg.kernel, 1)
    for start in range(0, len(x), rows):
        ks, weights = window_rows(cfg.kernel, cfg.n * x[start:start + rows])
        admissible = ks >= 0.0
        if not admissible.any(axis=1).all():
            raise ValueError("no admissible lattice points k >= 0 inside the window")
        weights = np.where(admissible, weights, 0.0)
        nodes = np.unique(ks[admissible])
        for k in nodes.tolist():
            if k not in dbeta:
                dbeta[k] = _dbeta_at(frac_cfg, f, k / cfg.n)
        # inadmissible sites (k < 0) gather the first node's value at weight zero
        dvals = np.array([dbeta[k] for k in nodes.tolist()])[np.searchsorted(nodes, ks)]
        out[start:start + rows] = row_dot(dvals, weights) / row_sums(weights)
    return out


def apply_fractional(cfg: OperatorConfig, f, x: float) -> float:
    """Q_n(f; x) on the half-lattice k >= 0 with renormalized weights."""
    return float(apply_fractional_batch(cfg, f, _point(x, 1))[0])


def voronovskaya_correction_batch(kernel: DensityKernel, f, pts, n: int, m: int) -> np.ndarray:
    """The moment correction of voronovskaya_correction at every row of pts, (P, N) -> (P,)."""
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


def voronovskaya_correction(kernel: DensityKernel, f, x, n: int, m: int) -> float:
    """Moment correction sum_{1 <= |alpha| <= m} D^alpha f(x)/alpha! M_alpha(x, n).

    Multi-indices are visited in lexicographic order.  m must lie in
    1..4 and must not exceed the preset's smoothness grade.
    """
    return float(voronovskaya_correction_batch(kernel, f, _point(x, f.dim), n, m)[0])
