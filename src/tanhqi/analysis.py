"""Convergence-rate experiments and report assembly.

Rates are estimated by ordinary least squares of log(error) against
log(1/n), so slope r means error ~ C n^(-r).  Every experiment measures
errors in the sup norm over a fixed evaluation grid (the mean over the
grid is recorded alongside), and every report says so in its note.

``sweep`` is the one loop over n values; each experiment supplies a
per-n batched operator and a batched target, both taking the whole
(P, N) point array and returning P values.  The ``check_*`` functions
are the experiments' preconditions, callable without a run.

Evaluation grids are offset by 1/(2*101) of a cell from the left cell
edge so that lattice sites k/n are never sampled exactly; errors at
lattice sites would otherwise collapse to rounding noise and corrupt
the fits.  Rows whose error is below 1e-13 are excluded from fits (and
counted), since they sit on the rounding floor.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .fractional import MAX_GRID_POINTS, power_rule_oracle
from .kernel import DensityKernel
from .operators import (
    OperatorConfig,
    apply_basic_batch,
    apply_fractional_batch,
    apply_kantorovich_batch,
    voronovskaya_correction_batch,
)

__all__ = [
    "Row",
    "ConvergenceReport",
    "grid_points",
    "sup_error",
    "rate_fit",
    "check_grid",
    "check_sweep",
    "check_m_max",
    "check_fractional",
    "sweep",
    "operator_convergence",
    "residual_orders",
    "fractional_rate",
]

ERROR_FLOOR = 1e-13
GRID_SHIFT = 1.0 / (2.0 * 101.0)
NORM_NOTE = "errors are sup/mean over the configured evaluation grid"


class Row(NamedTuple):
    n: int
    sup_error: float
    mean_error: float


@dataclass
class ConvergenceReport:
    """Sweep rows plus the fitted log-log rate and its provenance echo."""

    config: dict
    rows: tuple[Row, ...]
    fitted_slope: float | None
    intercept: float | None
    r_squared: float | None
    target_description: str
    claimed_exponent: str | None = None
    excluded_rows: int = 0
    note: str = NORM_NOTE

    def to_dict(self) -> dict:
        d = asdict(self)
        d["rows"] = [list(r) for r in self.rows]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ConvergenceReport":
        d = dict(d)
        d["rows"] = tuple(Row(int(r[0]), float(r[1]), float(r[2])) for r in d["rows"])
        return cls(**d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ConvergenceReport":
        return cls.from_dict(json.loads(text))


def check_grid(box, points_per_axis: int) -> list[tuple[float, float]]:
    """The box as float pairs once grid_points' checks pass, without building the grid."""
    if not (isinstance(points_per_axis, (int, np.integer)) and points_per_axis >= 1):
        raise ValueError(f"need an integer >= 1 of points per axis, got {points_per_axis!r}")
    box = [(float(lo), float(hi)) for lo, hi in box]
    for lo, hi in box:
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise ValueError(f"grid axis ({lo}, {hi}) must be finite and non-empty")
    return box


def grid_points(box, points_per_axis: int) -> np.ndarray:
    """Evaluation points of shape (points^N, N), offset off lattice sites.

    Each axis is cut into ``points_per_axis`` cells and sampled at
    fraction 1/202 into every cell, so samples never coincide with any
    k/n for the n values used in sweeps.
    """
    axes = []
    for lo, hi in check_grid(box, points_per_axis):
        step = (hi - lo) / points_per_axis
        axes.append(lo + (np.arange(points_per_axis) + GRID_SHIFT) * step)
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def sup_error(apply_fn, target_fn, pts: np.ndarray) -> tuple[float, float]:
    """Sup and mean absolute error of apply_fn against target_fn over pts.

    Both callables take the whole (P, N) point array and return P
    values; the mean uses numpy's pairwise summation, so the aggregate
    is deterministic for a given grid.  When a call fails, the points
    are re-run one at a time in grid order and the first failure is
    re-raised with its point, as the same exception type when it takes
    a single message argument and as a RuntimeError otherwise; if no
    single point fails, the original exception propagates.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.size == 0:
        raise ValueError("empty evaluation grid")
    try:
        errs = np.abs(np.asarray(apply_fn(pts), dtype=float) - np.asarray(target_fn(pts), dtype=float))
    except Exception:
        for i in range(pts.shape[0]):
            try:
                apply_fn(pts[i:i + 1])
                target_fn(pts[i:i + 1])
            except Exception as exc:
                msg = f"{exc} (at evaluation point {pts[i].tolist()})"
                try:
                    located = type(exc)(msg)
                except TypeError:
                    located = RuntimeError(msg)
                raise located from exc
        raise
    return float(np.max(errs)), float(np.mean(errs))


def rate_fit(rows, floor: float = 0.0) -> tuple[float, float, float]:
    """Least-squares slope of log(error) vs log(1/n).

    Returns (slope, intercept, r_squared).  Rows at or below ``floor``
    are dropped; at least three usable rows are required.
    """
    usable = [(int(n), float(e)) for n, e in rows if e > floor]
    if len(usable) < 3:
        raise ValueError(f"rate_fit needs >= 3 rows above the floor, got {len(usable)}")
    xs = np.log(1.0 / np.array([n for n, _ in usable], dtype=float))
    ys = np.log(np.array([e for _, e in usable]))
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    ss_res = float(resid @ resid)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)


def check_sweep(n_sweep) -> list[int]:
    """The distinct n values of a sweep in ascending order; all must be >= 1."""
    ns = sorted(set(int(n) for n in n_sweep))
    if not ns or ns[0] < 1:
        raise ValueError(f"n sweep must contain positive integers, got {n_sweep!r}")
    return ns


def check_m_max(m_max: int) -> None:
    """Precondition of residual_orders: the highest correction order lies in 0..4."""
    if not (isinstance(m_max, (int, np.integer)) and 0 <= m_max <= 4):
        raise ValueError(f"m_max must lie in 0..4, got {m_max!r}")


def check_fractional(f, box, radius: float, n_min: int, step: float) -> None:
    """Preconditions of fractional_rate: a monomial preset, a strictly positive box,
    and L1 grids within MAX_GRID_POINTS.

    The farthest lattice node a window reaches lies within radius/n_min
    of the box's upper corner; its L1 grid has ceil(t / step) points.
    """
    if f.power is None:
        raise ValueError(
            f"preset {f.name!r} has no monomial exponent; the oracle needs t^p presets"
        )
    if any(float(lo) <= 0.0 for lo, _ in box):
        raise ValueError("fractional sweeps need an evaluation box with positive coordinates")
    t_max = max(float(hi) for _, hi in box) + radius / n_min
    m = math.ceil(t_max / step)
    if m > MAX_GRID_POINTS:
        raise ValueError(
            f"L1 grid would need {m} points (> {MAX_GRID_POINTS}) at the farthest lattice "
            f"node t = {t_max!r}; increase the step or shrink the evaluation box"
        )


def sweep(
    apply_for,
    target_fn,
    pts: np.ndarray,
    n_sweep,
    config: dict,
    target_description: str,
    claimed_exponent: str | None = None,
) -> ConvergenceReport:
    """Error rows over the n sweep, their log-log fit, and the report.

    ``apply_for(n)`` returns the batched callable for lattice density n
    ((P, N) points -> P values); it is measured against ``target_fn``
    over ``pts`` by sup_error, once per distinct n in ascending order.
    A non-finite error is a RuntimeError naming n.  Rows on the rounding
    floor are counted and left out of the fit; with fewer than three
    rows above it the fit is skipped and the note says so.
    """
    rows = []
    for n in check_sweep(n_sweep):
        sup, mean = sup_error(apply_for(n), target_fn, pts)
        if not (math.isfinite(sup) and math.isfinite(mean)):
            raise RuntimeError(
                f"error at n = {n} is not finite (sup {sup!r}, mean {mean!r}); "
                "the operator or the target overflowed on the evaluation grid"
            )
        rows.append(Row(n, sup, mean))
    try:
        slope, intercept, r2 = rate_fit([(r.n, r.sup_error) for r in rows], floor=ERROR_FLOOR)
        note = NORM_NOTE
    except ValueError:
        slope = intercept = r2 = None
        note = NORM_NOTE + "; fit skipped: not enough rows above the rounding floor"
    return ConvergenceReport(
        config=config,
        rows=tuple(rows),
        fitted_slope=slope,
        intercept=intercept,
        r_squared=r2,
        target_description=target_description,
        claimed_exponent=claimed_exponent,
        excluded_rows=sum(1 for r in rows if r.sup_error <= ERROR_FLOOR),
        note=note,
    )


def _sweep_config(kernel: DensityKernel, f, n_sweep, box, points_per_axis: int, **extra) -> dict:
    return {
        "preset": f.name,
        "q": kernel.params.q,
        "alpha": kernel.params.alpha,
        "eps_trunc": kernel.eps_trunc,
        "n_sweep": check_sweep(n_sweep),
        "box": [list(b) for b in box],
        "points_per_axis": points_per_axis,
        **extra,
    }


def operator_convergence(
    kind: str,
    kernel: DensityKernel,
    f,
    n_sweep,
    box,
    points_per_axis: int,
    quad_nodes: int = 5,
) -> ConvergenceReport:
    """Error sweep of the basic or Kantorovich operator against f itself."""
    if kind not in ("basic", "kantorovich"):
        raise ValueError(f"operator_convergence covers 'basic' and 'kantorovich', got {kind!r}")
    pts = grid_points(box, points_per_axis)
    apply_fn = apply_basic_batch if kind == "basic" else apply_kantorovich_batch

    def apply_for(n):
        cfg = OperatorConfig(kind=kind, n=n, kernel=kernel, quad_nodes=quad_nodes)
        return lambda p: apply_fn(cfg, f, p)

    config = _sweep_config(kernel, f, n_sweep, box, points_per_axis,
                           operator=kind, quad_nodes=quad_nodes)
    return sweep(apply_for, lambda p: f.value(*p.T), pts, n_sweep, config,
                 f"{f.name} (the sampled function itself)")


def residual_orders(
    kernel: DensityKernel,
    f,
    box,
    points_per_axis: int,
    n_sweep,
    m_max: int,
) -> list[ConvergenceReport]:
    """Voronovskaya residual sweeps for correction orders m = 0 .. m_max.

    The m = 0 report is the uncorrected error of the basic operator;
    each further m subtracts the moment correction of that order.
    Fitted slopes are non-decreasing in m for smooth presets.
    """
    check_m_max(m_max)
    if m_max > f.smoothness:
        raise ValueError(
            f"m_max = {m_max} exceeds the smoothness grade {f.smoothness} of preset {f.name!r}"
        )
    pts = grid_points(box, points_per_axis)
    reports = []
    for m in range(m_max + 1):

        def apply_for(n, m=m):
            cfg = OperatorConfig(kind="basic", n=n, kernel=kernel)

            def residual(p):
                r = apply_basic_batch(cfg, f, p) - f.value(*p.T)
                if m >= 1:
                    r -= voronovskaya_correction_batch(kernel, f, p, n, m)
                return r

            return residual

        config = _sweep_config(kernel, f, n_sweep, box, points_per_axis,
                               experiment="voronovskaya-residual", m=m)
        reports.append(sweep(apply_for, lambda p: 0.0, pts, n_sweep, config,
                             f"residual after the order-{m} moment correction"))
    return reports


def fractional_rate(
    kernel: DensityKernel,
    f,
    beta: float,
    box,
    points_per_axis: int,
    n_sweep,
    frac_step: float = 1e-3,
) -> ConvergenceReport:
    """Error sweep of the fractional operator against the D^beta f oracle.

    The preset must be a pure monomial so the power rule supplies the
    target, and the box must have positive lower corners.  The report
    echoes the advertised exponent "m - beta" for reference; the
    measured slope is what the rows actually support (the operator's
    own first-order moment term caps it near one).
    """
    check_fractional(f, box, kernel.radius, check_sweep(n_sweep)[0], frac_step)
    pts = grid_points(box, points_per_axis)

    def apply_for(n):
        cfg = OperatorConfig(kind="fractional", n=n, kernel=kernel, beta=beta, frac_step=frac_step)
        return lambda p: apply_fractional_batch(cfg, f, p)

    config = _sweep_config(kernel, f, n_sweep, box, points_per_axis,
                           experiment="fractional-rate", beta=beta, frac_step=frac_step)
    m_str = "inf" if f.smoothness == float("inf") else f"{f.smoothness:g}"
    return sweep(
        apply_for,
        lambda p: power_rule_oracle(f.power, beta, p[:, 0]),
        pts,
        n_sweep,
        config,
        "D^beta f (oracle)",
        claimed_exponent=f"advertised rate n^-(m - beta) with m = {m_str}, beta = {beta:g}; recorded, not asserted",
    )
