"""Chart-based volume-density weighting of the product kernel.

A chart is a named coordinate box carrying the volume density
sqrt(det g) of a Riemannian metric given in coordinates.  The metric
enters the kernel only through that density:

    phi_g(x) = (1 / sqrt(det g(x))) * prod_i psi(x_i)

so integrating phi_g against the volume element sqrt(det g) dx reduces
to the flat integral of the product kernel (``kernel.kernel_mass``).
Operators on a chart weight lattice samples by the local density at the
sample sites and always renormalize the truncated weights to sum to one.

Shipped chart presets:

* ``euclidean``            unit density, any dimension
* ``torus``                unit density, coordinates wrapped mod 1
* ``poincare-half-plane``  dimension 2, g = y^(-2) I, so sqrt(det g) = y^(-2) on y > 0
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernel import DensityKernel, lattice_sums, row_sums

__all__ = [
    "Chart",
    "chart_preset",
    "operator_on_chart_batch",
]


@dataclass(frozen=True)
class Chart:
    """Coordinate chart: open box domain, volume density, and optional periods.

    ``sqrt_det_g(*coords)`` takes one array per axis, like
    ``FunctionPreset.value``, and returns values that broadcast to them.
    """

    name: str
    dim: int
    domain: tuple[tuple[float, float], ...]
    sqrt_det_g: Callable
    periods: tuple[float, ...] | None = None

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Chart representation of x; periodic axes wrap into [0, period)."""
        xs = np.asarray(x, dtype=float)
        if self.periods is None:
            return xs
        return np.mod(xs, np.asarray(self.periods, dtype=float))

    def contains(self, x):
        """Whether x lies in the open domain; x of shape (..., N) gives one answer per point."""
        xs = self.coords(np.atleast_1d(np.asarray(x, dtype=float)))
        if xs.shape[-1] != self.dim:
            raise ValueError(
                f"chart {self.name!r} is {self.dim}-dimensional, point has {xs.shape[-1]}"
            )
        inside = np.ones(xs.shape[:-1], dtype=bool)
        for i, (lo, hi) in enumerate(self.domain):
            inside &= (xs[..., i] > lo) & (xs[..., i] < hi)
        return inside if inside.ndim else bool(inside)


def _ones_density(*coords):
    return 1.0


def _half_plane_density(x, y):
    return 1.0 / (y * y)


def chart_preset(name: str, dim: int | None = None) -> Chart:
    """Construct one of the shipped charts by name."""
    inf = math.inf
    if name == "euclidean":
        d = 1 if dim is None else int(dim)
        if d < 1:
            raise ValueError("dimension must be at least 1")
        return Chart("euclidean", d, tuple(((-inf, inf),) * d), _ones_density)
    if name == "torus":
        d = 1 if dim is None else int(dim)
        if d < 1:
            raise ValueError("dimension must be at least 1")
        return Chart(
            "torus", d, tuple(((-inf, inf),) * d), _ones_density,
            periods=(1.0,) * d,
        )
    if name == "poincare-half-plane":
        if dim not in (None, 2):
            raise ValueError("the half-plane chart is two-dimensional")
        return Chart(
            "poincare-half-plane", 2, ((-inf, inf), (0.0, inf)), _half_plane_density,
        )
    raise ValueError(
        f"unknown chart {name!r}; known charts: euclidean, torus, poincare-half-plane"
    )


def operator_on_chart_batch(kernel: DensityKernel, chart: Chart, f, n: int, pts) -> np.ndarray:
    """Metric-weighted quasi-interpolation sum_k f(k/n) w_k(x) at every row of pts, (P, N) -> (P,).

    Raw weights are psi products times 1/sqrt(det g) at the lattice
    sites, renormalized to sum to one so constants are reproduced
    exactly on every chart.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    pts = np.asarray(pts, dtype=float)
    if f.dim != chart.dim:
        raise ValueError(f"preset {f.name!r} is {f.dim}-dimensional, chart needs {chart.dim}")
    outside = ~chart.contains(pts)
    if outside.any():
        raise ValueError(
            f"point {pts[outside][0].tolist()} lies outside the {chart.name!r} chart domain"
        )

    def tables(sites):
        coords = []
        for i, (lo, hi) in enumerate(chart.domain):
            coord = sites[i] / n
            if chart.periods is not None:
                coord = np.mod(coord, chart.periods[i])
            if not ((coord > lo) & (coord < hi)).all():
                raise ValueError(
                    f"lattice support exits the {chart.name!r} chart domain on axis {i}; "
                    "increase n or shrink the evaluation box"
                )
            coords.append(coord)
        return [f.value(*coords), chart.sqrt_det_g(*coords)]

    def reduce(weights, vals, density):
        weights = weights / density
        weights = weights / row_sums(weights).reshape((-1,) + (1,) * chart.dim)
        return row_sums(vals * weights)

    return lattice_sums(kernel, n, pts, tables, reduce)
