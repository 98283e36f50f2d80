"""Chart-based volume-density weighting of the product kernel.

A chart is a named coordinate box carrying the volume density
sqrt(det g) of a Riemannian metric given in coordinates.  The metric
enters the kernel only through that density:

    phi_g(x) = (1 / sqrt(det g(x))) * prod_i psi(x_i)

Operators on a chart weight each lattice sample by 1 / sqrt(det g) at
its site and renormalize the truncated weights to sum to one, with no
box integral: at each point x of a tensor grid the operator is

    sum_k f(k/n) Z(n x - k) / sqrt(det g(k/n))  /  sum_k Z(n x - k) / sqrt(det g(k/n)),

the ratio of the lattice sums of f / sqrt(det g) and 1 / sqrt(det g).
The second table is a broadcast of the density, constant along every
axis it does not depend on (both for unit density, axis 0 on the
half-plane), and ``kernel.lattice_sums`` takes
each such axis as one partition sum per point, not a window sum per
site.  One per-axis rule (``Chart.axis_coords``)
decides whether evaluation points and lattice sites lie in the domain;
``check_chart`` applies it to a grid's points, and ``chart_coords`` to a
lattice table's sites, the site rule ``analysis.chart_sweep`` hands
``analysis.sweep`` to run before its first n.

Shipped chart presets:

* ``euclidean``            unit density, any dimension
* ``torus``                unit density, coordinates wrapped mod 1
* ``poincare-half-plane``  dimension 2, g = y^(-2) I, so sqrt(det g) = y^(-2) on y > 0
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernel import DensityKernel, check_axes, lattice_sums

__all__ = [
    "Chart",
    "chart_coords",
    "chart_preset",
    "check_chart",
    "operator_on_chart_batch",
]

CHART_NAMES = ("euclidean", "torus", "poincare-half-plane")


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

    def axis_coords(self, axis: int, x) -> tuple[np.ndarray, np.ndarray]:
        """Axis coordinates x in the chart (a periodic axis wraps into [0, period)), and
        whether each lies in the open domain: the rule for points and lattice sites alike."""
        xs = np.asarray(x, dtype=float)
        if self.periods is not None:
            xs = np.mod(xs, self.periods[axis])
        lo, hi = self.domain[axis]
        return xs, (xs > lo) & (xs < hi)


def _ones_density(*coords):
    return 1.0


def _half_plane_density(x, y):
    return 1.0 / (y * y)


def chart_preset(name: str, dim: int | None = None) -> Chart:
    """Construct one of the shipped charts by name; dim, if given, is an integer (not a bool)."""
    inf = math.inf
    if name not in CHART_NAMES:
        raise ValueError(f"unknown chart {name!r}; known charts: {', '.join(CHART_NAMES)}")
    if not (dim is None or isinstance(dim, (int, np.integer)) and not isinstance(dim, bool)):
        raise ValueError(f"dimension must be an integer, got {dim!r}")
    if name == "poincare-half-plane":
        if dim not in (None, 2):
            raise ValueError("the half-plane chart is two-dimensional")
        return Chart(name, 2, ((-inf, inf), (0.0, inf)), _half_plane_density)
    d = 1 if dim is None else int(dim)
    if d < 1:
        raise ValueError("dimension must be at least 1")
    return Chart(name, d, ((-inf, inf),) * d, _ones_density,
                 periods=(1.0,) * d if name == "torus" else None)


def chart_coords(chart: Chart, n: int, sites) -> list[np.ndarray]:
    """Each axis's coordinates k/n in the chart, for a lattice table's open mesh of sites
    (``kernel.table_sites``); a site outside the chart's domain is a ValueError."""
    coords = []
    for i, k in enumerate(sites):
        coord, inside = chart.axis_coords(i, k / n)
        if not inside.all():
            raise ValueError(f"lattice support exits the {chart.name!r} chart domain on axis {i}; "
                             "increase n or shrink the evaluation box")
        coords.append(coord)
    return coords


def check_chart(chart: Chart, axes) -> list[np.ndarray]:
    """The grid of axes as float arrays (``check_axes``) once its points lie in the chart's
    domain; the first point in C order outside it is a ValueError."""
    axes = check_axes(axes, chart.dim)
    inside = functools.reduce(np.logical_and.outer,
                              [chart.axis_coords(i, x)[1] for i, x in enumerate(axes)])
    if not inside.all():
        first = np.unravel_index(np.argmin(inside), inside.shape)
        raise ValueError(f"point {[float(x[j]) for x, j in zip(axes, first)]} "
                         f"lies outside the {chart.name!r} chart domain")
    return axes


def operator_on_chart_batch(kernel: DensityKernel, chart: Chart, f, n: int, axes, *,
                            sites=None) -> np.ndarray:
    """Metric-weighted quasi-interpolation sum_k f(k/n) w_k(x) on the grid of axes -> (P,).

    Raw weights are psi products times 1/sqrt(det g) at the lattice
    sites, renormalized to sum to one so constants are reproduced
    exactly on every chart: the ratio of the lattice sums of
    f/sqrt(det g) and 1/sqrt(det g).
    """
    if f.dim != chart.dim:
        raise ValueError(f"preset {f.name!r} is {f.dim}-dimensional, chart needs {chart.dim}")
    axes = check_chart(chart, axes)

    def tables(mesh):
        coords = chart_coords(chart, n, mesh)
        density = np.asarray(chart.sqrt_det_g(*coords), dtype=float)
        vals = np.asarray(f.value(*coords), dtype=float)
        # a full-size f table is divided in place, so no second one is made
        full = vals.flags.writeable and vals.shape == np.broadcast_shapes(vals.shape, density.shape)
        return [np.divide(vals, density, out=vals if full else None), 1.0 / density]

    total, mass = lattice_sums(kernel, n, axes, tables, sites=sites)
    return total / mass
