"""Chart-based volume-density weighting of the product kernel.

A chart is a named coordinate box carrying the volume density
sqrt(det g) of a Riemannian metric given in coordinates.  The metric
enters the kernel only through that density:

    phi_g(x) = (1 / sqrt(det g(x))) * prod_i psi(x_i)

so integrating phi_g against the volume element sqrt(det g) dx reduces
to the flat integral of the product kernel.  Operators on a chart weight
lattice samples by the local density at the sample sites and always
renormalize the truncated weights to sum to one.

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

from .kernel import DensityKernel, chunk_rows, psi_eval, row_sums, window_tensor

__all__ = [
    "Chart",
    "MetricKernel",
    "DiagnosticError",
    "chart_preset",
    "volume_normalize",
    "operator_on_chart",
    "operator_on_chart_batch",
]


class DiagnosticError(RuntimeError):
    """A numerical self-check failed (for example quadrature non-convergence)."""


@dataclass(frozen=True)
class Chart:
    """Coordinate chart: open box domain, volume density, and optional periods.

    ``sqrt_det_g`` is vectorized over trailing coordinate axes: it
    accepts an array of shape (..., N) and returns shape (...).
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


def _ones_density(x):
    x = np.asarray(x, dtype=float)
    return np.ones(x.shape[:-1]) if x.ndim > 1 else 1.0


def _half_plane_density(x):
    x = np.asarray(x, dtype=float)
    y = x[..., 1]
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


@dataclass(frozen=True)
class MetricKernel:
    """Product kernel paired with the chart whose volume density weights it."""

    kernel: DensityKernel
    chart: Chart


def _simpson_weights(points: int, step: float) -> np.ndarray:
    # composite Simpson needs an odd point count
    w = np.ones(points)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (step / 3.0)


def _volume_mass(kernel: DensityKernel, region, points: int) -> float:
    # phi_g * sqrt(det g) is the product kernel, so the tensor Simpson sum
    # factorizes into one 1-D Simpson sum per axis
    mass = 1.0
    for lo, hi in region:
        nodes = np.linspace(lo, hi, points)
        weights = _simpson_weights(points, (hi - lo) / (points - 1))
        mass *= float(psi_eval(kernel, nodes) @ weights)
    return mass


def volume_normalize(mk: MetricKernel, region) -> float:
    """Constant c with c * integral of phi_g sqrt(det g) over the region = 1.

    Tensor composite Simpson, summed as a product of per-axis 1-D sums,
    starting at 129 nodes per axis and doubling until the relative change
    drops below 1e-8; failure to converge is a DiagnosticError.  Regions clipped inside the kernel support yield
    c > 1 (mass deficit correction).
    """
    region = tuple((float(lo), float(hi)) for lo, hi in region)
    if len(region) != mk.chart.dim:
        raise ValueError(f"region has {len(region)} axes, chart {mk.chart.name!r} has {mk.chart.dim}")
    for lo, hi in region:
        if not hi > lo:
            raise ValueError(f"degenerate region axis ({lo}, {hi}) has no volume")
    mid = [0.5 * (lo + hi) for lo, hi in region]
    if not mk.chart.contains(np.asarray(mid)):
        raise ValueError("region must lie inside the chart domain")
    points = 129
    prev = _volume_mass(mk.kernel, region, points)
    for _ in range(5):
        points = 2 * points - 1
        cur = _volume_mass(mk.kernel, region, points)
        if abs(cur - prev) <= 1e-8 * abs(cur):
            if cur <= 0.0:
                raise DiagnosticError("volume mass is not positive; region misses the kernel support")
            return 1.0 / cur
        prev = cur
    raise DiagnosticError(
        f"Simpson quadrature did not converge by {points} nodes per axis "
        "(relative change still above 1e-8)"
    )


def operator_on_chart_batch(mk: MetricKernel, f, n: int, pts) -> np.ndarray:
    """Metric-weighted quasi-interpolation sum_k f(k/n) w_k(x) at every row of pts, (P, N) -> (P,).

    Raw weights are psi products times 1/sqrt(det g) at the lattice
    sites, renormalized to sum to one so constants are reproduced
    exactly on every chart.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    pts = np.asarray(pts, dtype=float)
    chart = mk.chart
    if f.dim != chart.dim:
        raise ValueError(f"preset {f.name!r} is {f.dim}-dimensional, chart needs {chart.dim}")
    outside = ~chart.contains(pts)
    if outside.any():
        raise ValueError(
            f"point {pts[outside][0].tolist()} lies outside the {chart.name!r} chart domain"
        )
    out = np.empty(len(pts))
    rows = chunk_rows(mk.kernel, chart.dim)
    for start in range(0, len(pts), rows):
        ks, weights = window_tensor(mk.kernel, n, pts[start:start + rows])
        sites = chart.coords(np.stack(np.broadcast_arrays(*(k / n for k in ks)), axis=-1))
        for i, (lo, hi) in enumerate(chart.domain):
            coord = sites[..., i]
            if not ((coord > lo) & (coord < hi)).all():
                raise ValueError(
                    f"lattice support exits the {chart.name!r} chart domain on axis {i}; "
                    "increase n or shrink the evaluation box"
                )
        weights = weights / chart.sqrt_det_g(sites)
        weights = weights / row_sums(weights).reshape((-1,) + (1,) * chart.dim)
        vals = np.asarray(f.value(*[sites[..., i] for i in range(chart.dim)]), dtype=float)
        out[start:start + rows] = row_sums(vals * weights)
    return out


def operator_on_chart(mk: MetricKernel, f, n: int, x) -> float:
    """The metric-weighted operator of operator_on_chart_batch at one point x."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    return float(operator_on_chart_batch(mk, f, n, xs[None, :])[0])
