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
"""

from __future__ import annotations

import functools
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
    "window_weights",
    "window_tensor",
    "partition_sum",
    "z_eval",
    "moment",
]

MAX_MOMENT_ORDER = 6


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


def lattice_window(kernel: DensityKernel, u: float) -> np.ndarray:
    """Integers k with |k - u| <= W, ascending (fixed summation order)."""
    w = kernel.radius
    return np.arange(math.ceil(u - w), math.floor(u + w) + 1)


def window_weights(kernel: DensityKernel, u: float) -> tuple[np.ndarray, np.ndarray]:
    """Lattice window ks around u and the kernel weights psi(u - ks).

    Every lattice sum in the package (partition sums, moments, the
    operators) draws its integers and weights from here; u = n x for a
    sum over k/n near x.
    """
    ks = lattice_window(kernel, u)
    return ks, psi_eval(kernel, u - ks)


def window_tensor(kernel: DensityKernel, n: int, xs) -> tuple[tuple, np.ndarray]:
    """Per-axis windows ks_i around n x_i and the product weights.

    The weight tensor holds prod_i psi(n x_i - k_i) with one axis per
    coordinate, in np.meshgrid(*ks, indexing="ij") order; it is the one
    multi-dimensional weight rule of the operators.
    """
    ks, ws = zip(*(window_weights(kernel, n * xi) for xi in xs))
    return ks, functools.reduce(np.multiply.outer, ws)


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


def _axis_moment(kernel: DensityKernel, p: int, xi: float, n: int) -> float:
    ks, weights = window_weights(kernel, n * xi)
    if p == 0:
        return float(np.sum(weights))
    return float(((ks / n - xi) ** p) @ weights)


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
        out *= _axis_moment(kernel, p, float(xi), int(n))
    return out
