"""Density kernel, truncated lattice windows, and discrete moments.

The one-dimensional kernel is the normalized difference

    psi(x) = (h(x + 1) - h(x - 1)) / C(q),      C(q) = 2 (1 + q^2) / (1 - q^2).

Because h is increasing, psi > 0 everywhere, and the sum over integer
shifts telescopes to the total variation of h, which is exactly C(q):
sum_k psi(x - k) = 1 for every real x.  The same telescoping gives unit
integral.  Multiple dimensions use the plain product kernel Z(x) =
prod_i psi(x_i).

psi decays like e^(-2 alpha |x|), so lattice sums can be truncated at a
radius W chosen once per kernel from a tolerance eps_trunc.

Lattice sums are evaluated for many points at once: ``window_rows``
builds one (points, window) matrix of lattice sites and weights per
axis, and callers walk their points in chunks of ``chunk_rows`` rows so
each chunk array holds about CHUNK_ELEMENTS numbers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .activation import ActivationParams, h_eval

__all__ = [
    "DensityKernel",
    "MultiIndex",
    "multi_indices",
    "normalization_constant",
    "truncation_radius",
    "psi_eval",
    "window_rows",
    "window_weights",
    "window_tensor",
    "point_work",
    "chunk_rows",
    "row_sums",
    "row_dot",
    "partition_sum",
    "z_eval",
    "axis_moments",
    "moment",
]

MAX_MOMENT_ORDER = 6
# numbers per chunk array (64 KiB of float64): small enough to stay in cache
CHUNK_ELEMENTS = 2**13
# cap on one evaluation point's working set, checked before any allocation
MAX_POINT_WORK = 2**24


def normalization_constant(params: ActivationParams) -> float:
    """C(q) = 2 (1 + q^2) / (1 - q^2), the exact value of the telescoped sum."""
    q = params.q
    return 2.0 * (1.0 + q * q) / (1.0 - q * q)


def _psi_raw(params: ActivationParams, x, c: float):
    xs = np.asarray(x, dtype=float)
    return (h_eval(params, xs + 1.0) - h_eval(params, xs - 1.0)) / c


def truncation_radius(params: ActivationParams, eps: float) -> float:
    """Smallest W in {2, 4, 8, ...} with psi(+-W) < eps and W >= (atanh(q) + 1)/alpha.

    Both tails must be checked: the kernel is not even, and the left
    tail carries the larger constant (by a factor ((1+q)/(1-q))^2), so
    it usually decides W.  psi is symmetric about its peak at
    -atanh(q)/alpha, and one slope length 1/alpha past the peak its
    tails decay like e^(-2 alpha |x|); the lower bound puts both window
    ends there, so a wide kernel whose peak is already below eps still
    gets a window holding its mass.  An alpha too small for any
    W <= 2^40 is a ValueError.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"truncation tolerance must lie in (0, 1), got {eps!r}")
    c = normalization_constant(params)
    w_min = (math.atanh(params.q) + 1.0) / params.alpha
    w = 2.0
    while w < w_min or not (_psi_raw(params, w, c) < eps and _psi_raw(params, -w, c) < eps):
        w *= 2.0
        if w > 2.0**40:
            raise ValueError(
                f"no truncation radius up to 2^40 for alpha={params.alpha!r}, eps={eps!r}; "
                "increase alpha or eps_trunc"
            )
    return w


@dataclass(frozen=True)
class DensityKernel:
    """Kernel psi with its normalization C and truncation radius W.

    Beyond W the kernel is below eps_trunc and keeps decaying along the
    exponential tail psi(x) <= psi(W) e^(-2 alpha (|x| - W)); summing the
    geometric tails on both sides keeps the neglected partition mass
    under 4 * eps_trunc * W.
    """

    params: ActivationParams
    eps_trunc: float = 1e-12
    normalization: float = field(init=False)
    radius: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "normalization", normalization_constant(self.params))
        object.__setattr__(self, "radius", truncation_radius(self.params, self.eps_trunc))


def psi_eval(kernel: DensityKernel, x):
    """psi(x) = (h(x+1) - h(x-1)) / C; positive everywhere, sums to one."""
    return _psi_raw(kernel.params, x, kernel.normalization)


def window_rows(kernel: DensityKernel, u) -> tuple[np.ndarray, np.ndarray]:
    """Lattice windows and kernel weights for a batch of centres u, shape (P,).

    Row i holds the integers k with |k - u_i| <= W, ascending (as
    integer-valued floats), and the weights psi(u_i - k).  A window has
    2W sites, or 2W + 1 when u_i is a lattice site; when the rows differ,
    each short row is padded by repeating its last site with weight
    zero, so a pad never reaches a site outside its own window.  Every
    lattice sum in the package draws its sites and weights from here;
    u = n x for a sum over k/n near x.
    """
    u = np.asarray(u, dtype=float)
    w = kernel.radius
    lo = np.ceil(u - w)
    hi = np.floor(u + w)
    width = int(np.max(hi - lo)) + 1
    ks = lo[:, None] + np.arange(width)
    short = hi - lo + 1 < width
    ks[short, -1] = hi[short]
    weights = psi_eval(kernel, u[:, None] - ks)
    weights[short, -1] = 0.0
    return ks, weights


def lattice_window(kernel: DensityKernel, u: float) -> np.ndarray:
    """Integers k with |k - u| <= W (integer-valued floats), ascending (fixed summation order)."""
    return window_rows(kernel, [u])[0][0]


def window_weights(kernel: DensityKernel, u: float) -> tuple[np.ndarray, np.ndarray]:
    """One-point window_rows: the window ks around u and the weights psi(u - ks)."""
    ks, weights = window_rows(kernel, [u])
    return ks[0], weights[0]


def window_tensor(kernel: DensityKernel, n: int, pts: np.ndarray) -> tuple[list, np.ndarray]:
    """Per-axis windows around n x for points of shape (P, N), and the product weights.

    Axis i's sites come shaped (P, 1, .., L_i, .., 1) so they broadcast
    against the weight tensor of shape (P, L_1, .., L_N), which holds
    prod_i psi(n x_i - k_i); it is the one multi-dimensional weight rule
    of the operators.
    """
    dim = pts.shape[1]
    ks, weights = [], None
    for i in range(dim):
        k, w = window_rows(kernel, n * pts[:, i])
        shape = [len(pts)] + [1] * dim
        shape[1 + i] = k.shape[1]
        ks.append(k.reshape(shape))
        weights = w if weights is None else weights[..., None] * w.reshape(shape[: i + 2])
    return ks, weights


def point_work(kernel: DensityKernel, dim: int, per_site: int = 1) -> int:
    """Numbers one evaluation point needs: (2W + 1)^dim window sites times per_site each.

    per_site counts the samples taken per lattice site (quad_nodes^dim
    for Kantorovich cells, 1 otherwise).  Above MAX_POINT_WORK (2^24)
    this is a ValueError, raised before anything is allocated.
    """
    width = 2 * int(kernel.radius) + 1
    work = width**dim * per_site
    if work > MAX_POINT_WORK:
        raise ValueError(
            f"one evaluation point needs {work} samples (> {MAX_POINT_WORK}): "
            f"{width} lattice sites per axis, {dim} axes, {per_site} samples per site; "
            "increase alpha or trunc_eps, or lower quad_nodes"
        )
    return work


def chunk_rows(kernel: DensityKernel, dim: int, per_site: int = 1) -> int:
    """Points per chunk: as many as keep a chunk array near CHUNK_ELEMENTS, at least one."""
    return max(1, CHUNK_ELEMENTS // point_work(kernel, dim, per_site))


def row_sums(terms: np.ndarray) -> np.ndarray:
    """Sum of each point's terms, (P, ...) -> (P,), pairwise like np.sum over one point's array."""
    return terms.reshape(len(terms), -1).sum(axis=1)


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (P, L) arrays, each row summed like a 1-D a @ b."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def partition_sum(kernel: DensityKernel, x: float) -> float:
    """Truncated lattice sum sum_k psi(x - k); equals 1 up to the tail mass."""
    return float(np.sum(window_weights(kernel, x)[1]))


def z_eval(kernel: DensityKernel, x) -> float:
    """Product kernel Z(x) = prod_i psi(x_i) for a length-N coordinate vector."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("z_eval expects a one-dimensional, non-empty coordinate vector")
    return float(np.prod(psi_eval(kernel, xs)))


@dataclass(frozen=True)
class MultiIndex:
    """Multi-index alpha = (a_1, ..., a_N) of non-negative integers."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(int(e) for e in self.entries)
        if len(entries) == 0:
            raise ValueError("a multi-index needs at least one entry")
        if any(e < 0 for e in entries):
            raise ValueError(f"multi-index entries must be non-negative, got {entries}")
        object.__setattr__(self, "entries", entries)

    @property
    def order(self) -> int:
        return sum(self.entries)

    @property
    def factorial(self) -> int:
        out = 1
        for e in self.entries:
            out *= math.factorial(e)
        return out

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def multi_indices(dim: int, min_order: int, max_order: int) -> tuple:
    """All multi-indices with min_order <= |alpha| <= max_order, lexicographic."""
    return tuple(
        MultiIndex(entries)
        for entries in itertools.product(range(max_order + 1), repeat=dim)
        if min_order <= sum(entries) <= max_order
    )


def axis_moments(kernel: DensityKernel, x, n: int, p_max: int) -> np.ndarray:
    """One-axis moments M_p(x, n) = sum_k (k/n - x)^p psi(n x - k), p = 0..p_max.

    x has shape (P,); the result has shape (P, p_max + 1), all orders
    from one window per point.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((x.size, p_max + 1))
    rows = chunk_rows(kernel, 1)
    for start in range(0, x.size, rows):
        xs = x[start:start + rows]
        ks, weights = window_rows(kernel, n * xs)
        out[start:start + rows, 0] = row_sums(weights)
        offsets = ks / n - xs[:, None]
        for p in range(1, p_max + 1):
            out[start:start + rows, p] = row_dot(offsets**p, weights)
    return out


def moment(kernel: DensityKernel, alpha, x, n: int) -> float:
    """Discrete moment M_alpha(x, n) = sum_k (k/n - x)^alpha Z(n x - k).

    The product kernel factorizes the sum, so the moment is the product
    of per-axis one-dimensional moments.  On the truncated window
    |k_i - n x_i| <= W, hence |M_alpha| <= (W/n)^|alpha|.  For |alpha| = 1
    the scaled moment n * M_alpha depends only on frac(n x_i).
    """
    if not isinstance(alpha, MultiIndex):
        alpha = MultiIndex(tuple(alpha))
    if alpha.order > MAX_MOMENT_ORDER:
        raise ValueError(f"moment order |alpha| = {alpha.order} exceeds the cap {MAX_MOMENT_ORDER}")
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if xs.ndim != 1 or xs.size != len(alpha):
        raise ValueError(f"dimension mismatch: x has {xs.size} coordinates, alpha has {len(alpha)}")
    out = 1.0
    for p, xi in zip(alpha, xs):
        out *= float(axis_moments(kernel, xi[None], int(n), p)[0, p])
    return out
