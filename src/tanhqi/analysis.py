"""Convergence-rate experiments and report assembly.

Rates are estimated by ordinary least squares of log(error) against
log(1/n), so slope r means error ~ C n^(-r); the line is fitted in
closed form from centred sums, with no LAPACK call.  Every experiment measures
errors in the sup norm over a fixed evaluation grid (the mean over the
grid is recorded alongside), and every report says so in its note.

Each experiment's one entry point (a ``*_sweep`` function, or
``kernel_table`` for the kernel's own table) makes every check of its
run, in the order its docstring lists (``fractional_sweep`` checks
``FracConfig`` before the n sweep, ``residual_sweep`` m_max after the
grid), and returns the run bound but not started.  Every ``*_sweep``
returns through ``sweep``, whose binding makes the lattice checks (each
n's ``kernel.table_sites``, which caps a window's sites first, then the
operator's site rule, a check) and whose run is the one loop over n
values; only ``fractional_sweep`` checks more after it, its one L1 call.
``sweep`` is the one caller that passes an operator ``sites``, so a run
builds each table's sites once.  ``kernel_table``'s checks end with
``kernel.check_moments``, as it builds no lattice table.  A batched
operator may return a (K, P) stack of K results, one report per row:
``residual_sweep`` gets every order from one basic evaluation per n.

Evaluation grids are offset by 1/(2*101) of a cell from the left cell
edge so that lattice sites k/n are never sampled exactly; errors at
lattice sites would otherwise collapse to rounding noise and corrupt
the fits.  Each report's error floor is derived from its kernel and
grid: the partition mass a truncated window neglects at most
(``kernel.tail_mass`` at W) plus a window sum's rounding, N (2W + 1)
2^-53 on N axes, times the largest magnitude the operator reproduces on
the grid (max |f|, or max |D^beta f| for the fractional sweep).  Rows
whose sup error is at most 10 times that floor are left out of the fit
and counted: at the default eps_trunc the floor is 1.65e-13 max |f|, so
sin's m = 4 residual on 201 points fits slope 5.0 on the rows above it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .fractional import FracConfig, l1_work, power_rule_oracle, rl_derivative_batch
from .kernel import (
    MAX_POINT_WORK,
    DensityKernel,
    axis_moments,
    check_axes,
    check_moments,
    check_n,
    psi_eval,
    table_sites,
    tail_mass,
)
from .manifold import chart_coords, chart_preset, check_chart, operator_on_chart_batch
from .operators import (
    apply_basic_batch,
    apply_fractional_batch,
    apply_kantorovich_batch,
    check_m_max,
    check_quad_nodes,
    check_table_cells,
    fractional_nodes,
    voronovskaya_residuals,
)

__all__ = [
    "Row",
    "ConvergenceReport",
    "grid_axes",
    "sup_error",
    "rate_fit",
    "check_sweep",
    "check_operator",
    "sweep",
    "convergence_sweep",
    "residual_sweep",
    "fractional_sweep",
    "chart_sweep",
    "kernel_table",
]

# the operators convergence_sweep sweeps against f itself
CONVERGENCE_OPERATORS = ("basic", "kantorovich")
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
    error_floor: float = 0.0
    excluded_rows: int = 0
    note: str = NORM_NOTE

    def to_dict(self) -> dict:
        # config is copied one level deep; its values are shared, not deep-copied as asdict would
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["config"], d["rows"] = dict(self.config), [list(r) for r in self.rows]
        return d


def grid_axes(box, points_per_axis: int) -> list[np.ndarray]:
    """Each axis's evaluation coordinates, offset off lattice sites; the grid is their product.

    Each axis is cut into ``points_per_axis`` cells and sampled at
    fraction 1/202 into every cell, so samples never coincide with any
    k/n for the n values used in sweeps.  Every axis must be finite and
    non-empty, and the grid may hold at most MAX_POINT_WORK (2^24) points.
    """
    if not (isinstance(points_per_axis, (int, np.integer)) and not isinstance(points_per_axis, bool)
            and points_per_axis >= 1):
        raise ValueError(f"need an integer >= 1 of points per axis, got {points_per_axis!r}")
    box = [(float(lo), float(hi)) for lo, hi in box]
    for lo, hi in box:
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            raise ValueError(f"grid axis ({lo}, {hi}) must be finite and non-empty")
        if not math.isfinite(hi - lo):
            raise ValueError(f"grid axis ({lo}, {hi}) is wider than the largest float")
    count = points_per_axis ** len(box)
    if count > MAX_POINT_WORK:
        raise ValueError(f"the evaluation grid needs {count} points (> {MAX_POINT_WORK}); "
                         "lower the points per axis")
    return [lo + (np.arange(points_per_axis) + GRID_SHIFT) * ((hi - lo) / points_per_axis)
            for lo, hi in box]


def sup_error(apply_fn, target_fn, axes) -> list[tuple[float, float]]:
    """Sup and mean absolute error of apply_fn against target_fn over the grid of axes,
    one pair per row of apply_fn's result.

    Both callables take the per-axis coordinates.  apply_fn returns the
    grid's P values in C order (any array that ravels to them) or a
    (K, P) stack of K results; target_fn returns the P values or a
    scalar.  Each mean uses numpy's pairwise summation, so the aggregate
    is deterministic for a given grid.  A MemoryError propagates at once.
    When a call fails otherwise, the points are re-run one at a time in
    grid order and the first failure is re-raised with its point, as the
    same exception type when it takes a single message argument and as a
    RuntimeError otherwise; if no single point fails, the original
    exception propagates.
    """
    axes = [np.asarray(x, dtype=float) for x in axes]
    if not axes or any(x.size == 0 for x in axes):
        raise ValueError("empty evaluation grid")
    try:
        points = math.prod(x.size for x in axes)
        errs = np.abs(np.reshape(apply_fn(axes), (-1, points)) - np.ravel(target_fn(axes)))
    except MemoryError:
        raise  # re-running every point alone would not locate it, only repeat the work
    except Exception:
        for point in itertools.product(*axes):
            single = [np.array([c]) for c in point]
            try:
                apply_fn(single)
                target_fn(single)
            except Exception as exc:
                msg = f"{exc} (at evaluation point {[float(c) for c in point]})"
                try:
                    located = type(exc)(msg)
                except TypeError:
                    located = RuntimeError(msg)
                raise located from exc
        raise
    return [(float(np.max(e)), float(np.mean(e))) for e in errs]


def rate_fit(rows, floor: float = 0.0) -> tuple[float, float, float]:
    """Least-squares slope of log(error) vs log(1/n), in closed form.

    With x = log(1/n), y = log(error) and dx = x - mean(x), the slope is
    dx . (y - mean(y)) / dx . dx and the intercept mean(y) - slope mean(x).
    Returns (slope, intercept, r_squared).  Rows at or below ``floor``
    are dropped; at least three usable rows are required.  A row whose
    error is inf or nan is a ValueError naming the first such row.
    """
    rows = [(int(n), float(e)) for n, e in rows]
    for n, e in rows:
        if not math.isfinite(e):
            raise ValueError(f"rate_fit needs finite errors, got {e!r} at n={n}")
    usable = [(n, e) for n, e in rows if e > floor]
    if len(usable) < 3:
        raise ValueError(f"rate_fit needs >= 3 rows above the floor, got {len(usable)}")
    xs = np.log(1.0 / np.array([n for n, _ in usable], dtype=float))
    ys = np.log(np.array([e for _, e in usable]))
    mean_x, mean_y = xs.mean(), ys.mean()
    dx = xs - mean_x
    slope = (dx @ (ys - mean_y)) / (dx @ dx)
    intercept = mean_y - slope * mean_x
    resid = ys - (slope * xs + intercept)
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    ss_res = float(resid @ resid)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)


def check_sweep(n_sweep) -> list[int]:
    """The distinct n values of a sweep in ascending order; at least one, each passing
    kernel.check_n."""
    try:
        ns = sorted(set(map(check_n, n_sweep)))
    except ValueError:
        ns = []
    if not ns:
        raise ValueError(f"n sweep must contain positive integers within float range, got {n_sweep!r}")
    return ns


def check_operator(kind: str) -> None:
    """convergence_sweep's operator: one of CONVERGENCE_OPERATORS."""
    if kind not in CONVERGENCE_OPERATORS:
        raise ValueError(f"operator must be one of {', '.join(CONVERGENCE_OPERATORS)}, got {kind!r}")


def sweep(kernel: DensityKernel, axes, ns, make_operator, target_fn, configs: list[dict],
          target_descriptions: list[str], claimed_exponent: str | None = None, site_rule=None,
          floor=0.0):
    """The run of one experiment over the checked grid ``axes`` and n values ``ns`` (ascending,
    ``check_sweep``), bound after its lattice checks but not started.

    Before it returns, each n's ``table_sites`` runs, then the check
    ``site_rule(n, sites)`` on its open mesh (its value is ignored).  A call
    makes its operator once, as ``make_operator()``, and measures
    ``operator(n, ax, sites=...)`` against
    ``target_fn`` on the grid of ``axes`` by sup_error, once per n:
    ``sites`` is n's checked mesh when ax holds the very arrays of
    ``axes``, else None (``sup_error``'s one-point re-runs).  Result row i
    of a (K, P) stack makes report i, with a copy of ``configs[i]`` and
    ``target_descriptions[i]``.  A non-finite error is a RuntimeError
    naming n.  ``floor`` is every report's ``error_floor``, or a function of
    no arguments that gives it once the rows are measured, so that a sample
    on the grid fails only after ``sup_error`` has named the failing point.
    Rows whose sup error is at most 10 times the floor are counted and left
    out of the fit, which is skipped (the note says so) with fewer than
    three above.
    """
    meshes = {}
    for n in ns:
        meshes[n] = table_sites(kernel, n, axes)
        if site_rule is not None:
            site_rule(n, meshes[n])
    return functools.partial(_measure, make_operator, meshes, target_fn, axes, configs,
                             target_descriptions, claimed_exponent, floor)


def _measure(make_operator, meshes, target_fn, axes, configs, target_descriptions,
             claimed_exponent, floor) -> list[ConvergenceReport]:
    operator = make_operator()
    tables = [[] for _ in configs]
    for n, mesh in meshes.items():
        def apply(ax):
            return operator(n, ax, sites=mesh if list(map(id, ax)) == list(map(id, axes)) else None)

        for rows, (sup, mean) in zip(tables, sup_error(apply, target_fn, axes), strict=True):
            if not (math.isfinite(sup) and math.isfinite(mean)):
                raise RuntimeError(
                    f"error at n = {n} is not finite (sup {sup!r}, mean {mean!r}); "
                    "the operator or the target overflowed on the evaluation grid"
                )
            rows.append(Row(n, sup, mean))
    floor = floor() if callable(floor) else floor
    return [_report(rows, config, description, claimed_exponent, floor)
            for rows, config, description in zip(tables, configs, target_descriptions, strict=True)]


def _report(rows, config: dict, target_description: str, claimed_exponent,
            floor: float) -> ConvergenceReport:
    # a row within a decade of the floor may be mostly truncation and rounding, not the rate
    cut = 10.0 * floor
    try:
        slope, intercept, r2 = rate_fit([(r.n, r.sup_error) for r in rows], floor=cut)
        note = NORM_NOTE
    except ValueError:
        slope = intercept = r2 = None
        note = NORM_NOTE + "; fit skipped: fewer than 3 rows above 10 x error_floor"
    # a copy per report: every call of a bound sweep passes the same config, and a caller may
    # add keys to its report's
    return ConvergenceReport(
        config=dict(config),
        rows=tuple(rows),
        fitted_slope=slope,
        intercept=intercept,
        r_squared=r2,
        target_description=target_description,
        claimed_exponent=claimed_exponent,
        error_floor=floor,
        excluded_rows=sum(1 for r in rows if r.sup_error <= cut),
        note=note,
    )


def _error_floor(kernel: DensityKernel, axes, sample) -> float:
    # the partition mass a window neglects at most, plus a window sum's rounding on each of the
    # N axes, at the largest magnitude the operator reproduces on the grid
    relative = tail_mass(kernel.params, kernel.radius) + len(axes) * kernel.width * 2.0**-53
    return relative * float(np.max(np.abs(sample(axes))))


def _sweep_config(kernel: DensityKernel, f, ns, box, points_per_axis: int, **extra) -> dict:
    return {
        "preset": f.name,
        "q": kernel.params.q,
        "alpha": kernel.params.alpha,
        "eps_trunc": kernel.eps_trunc,
        "n_sweep": ns,
        "box": [list(b) for b in box],
        "points_per_axis": points_per_axis,
        **extra,
    }


def convergence_sweep(kind: str, kernel: DensityKernel, f, n_sweep, box, points_per_axis: int,
                      quad_nodes: int = 5):
    """Error sweep of the basic or Kantorovich operator against f itself: its checks (n sweep,
    operator, quadrature nodes, grid with f.dim axes, lattice tables and, for Kantorovich, each
    table's cell work, ``check_table_cells``), then its ``sweep`` bound."""
    ns = check_sweep(n_sweep)
    check_operator(kind)
    check_quad_nodes(quad_nodes)
    axes = check_axes(grid_axes(box, points_per_axis), f.dim)
    if kind == "basic":
        operator, site_rule = functools.partial(apply_basic_batch, kernel, f), None
    else:
        operator = functools.partial(apply_kantorovich_batch, kernel, quad_nodes, f)
        site_rule = lambda n, sites: check_table_cells(quad_nodes, sites)  # noqa: E731
    config = _sweep_config(kernel, f, ns, box, points_per_axis, operator=kind, quad_nodes=quad_nodes)
    target = lambda ax: f.value(*np.ix_(*ax))  # noqa: E731
    return sweep(kernel, axes, ns, lambda: operator, target, [config],
                 [f"{f.name} (the sampled function itself)"], site_rule=site_rule,
                 floor=functools.partial(_error_floor, kernel, axes, target))


def residual_sweep(kernel: DensityKernel, f, box, points_per_axis: int, n_sweep, m_max: int):
    """Voronovskaya residual sweeps for correction orders m = 0 .. m_max: their checks (n sweep,
    grid with f.dim axes, correction order, lattice tables), then their ``sweep`` bound.  Report
    m = 0 is the basic operator's uncorrected error, and each further m subtracts the moment
    correction of that order; per n both are evaluated once, as one stack
    (``operators.voronovskaya_residuals``)."""
    ns = check_sweep(n_sweep)
    axes = check_axes(grid_axes(box, points_per_axis), f.dim)
    check_m_max(m_max, f)
    orders = range(m_max + 1)
    configs = [_sweep_config(kernel, f, ns, box, points_per_axis,
                             experiment="voronovskaya-residual", m=m) for m in orders]
    operator = functools.partial(voronovskaya_residuals, kernel, m_max, f)
    return sweep(kernel, axes, ns, lambda: operator, lambda ax: 0.0, configs,
                 [f"residual after the order-{m} moment correction" for m in orders],
                 floor=functools.partial(_error_floor, kernel, axes,
                                         lambda ax: f.value(*np.ix_(*ax))))


def fractional_sweep(kernel: DensityKernel, f, beta: float, box, points_per_axis: int, n_sweep,
                     frac_step: float = 1e-3):
    """Error sweep of the fractional operator against the D^beta f oracle: its checks (order and
    step, n sweep, grid on one axis, a monomial preset for the power rule, a strictly positive
    box, each n's lattice table as the operator checks it and ``fractional_nodes``, then
    ``fractional.l1_work`` of the union of every n's nodes), then its ``sweep`` bound.  The
    report echoes the advertised rate "m - beta"; the rows support less (at q > 0 the kernel's
    shift atanh(q)/alpha adds a first-order term, which caps the slope near one).  A call
    tabulates D^beta f at that union in one rl_derivative_batch call, which checks the same nodes
    alike: the union table (ascending nodes, their values) that every n's operator reads.  The
    union is np.unique's, by a sort and an adjacent-difference mask (``_node_union``)."""
    frac = FracConfig(beta, frac_step)
    ns = check_sweep(n_sweep)
    axes = check_axes(grid_axes(box, points_per_axis), 1)
    if f.power is None:
        raise ValueError(f"preset {f.name!r} has no monomial exponent; the oracle needs t^p presets")
    if any(float(lo) <= 0.0 for lo, _ in box):
        raise ValueError("fractional sweeps need an evaluation box with positive coordinates")
    config = _sweep_config(kernel, f, ns, box, points_per_axis,
                           experiment="fractional-rate", beta=beta, frac_step=frac_step)
    m_str = "inf" if f.smoothness == float("inf") else f"{f.smoothness:g}"
    nodes = []  # each n's, from its site rule; their union is bound below, before any call
    oracle = lambda ax: power_rule_oracle(f.power, beta, ax[0])  # noqa: E731
    run = sweep(
        kernel, axes, ns,
        lambda: functools.partial(apply_fractional_batch, kernel, frac, f,
                                  table=(union, rl_derivative_batch(frac, f, union))),
        oracle, [config], ["D^beta f (oracle)"],
        claimed_exponent=f"advertised rate n^-(m - beta) with m = {m_str}, beta = {beta:g}; "
                         "recorded, not asserted",
        site_rule=lambda n, sites: nodes.append(fractional_nodes(f, n, sites[0])),
        floor=functools.partial(_error_floor, kernel, axes, oracle),
    )
    union = _node_union(nodes)
    l1_work(union, frac.h)
    return run


def _node_union(nodes) -> np.ndarray:
    # np.unique's values for nodes with no NaN, without its first call's import of numpy.ma
    union = np.sort(np.concatenate(nodes))
    keep = np.empty(union.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(union[1:], union[:-1], out=keep[1:])
    return union[keep]


def chart_sweep(kernel: DensityKernel, chart: str, f, n_sweep, box, points_per_axis: int):
    """The chart operator's sweep against f itself on the named chart preset, in f's dimension:
    its checks (n sweep, grid, chart, its points, ``manifold.check_chart``, and its lattice
    tables, ``manifold.chart_coords``), then its ``sweep`` bound but not run.  Chart weights are
    always renormalized (mode "discrete")."""
    ns = check_sweep(n_sweep)
    axes = grid_axes(box, points_per_axis)
    geometry = chart_preset(chart, dim=f.dim)
    axes = check_chart(geometry, axes)
    operator = functools.partial(operator_on_chart_batch, kernel, geometry, f)
    target = lambda ax: f.value(*np.ix_(*ax))  # noqa: E731
    return sweep(kernel, axes, ns, lambda: operator, target,
                 [{"chart": chart, "mode": "discrete"}],
                 [f"{f.name} on the {chart} chart (the sampled function itself)"],
                 site_rule=functools.partial(chart_coords, geometry),
                 floor=functools.partial(_error_floor, kernel, axes, target))


def kernel_table(kernel: DensityKernel, n_sweep, box, points_per_axis: int):
    """kernel-dump's table, psi, M_0..M_3 and n M_1 at each x of a one-axis grid for the one n of
    n_sweep, plus the kernel's constants, with its window width 2W + 1 and the partition mass a
    window neglects at most (``kernel.tail_mass`` at W): its checks (exactly one n, grid, then
    ``kernel.check_moments``, as the moments build no lattice table), then the table bound but not
    built."""
    n_sweep = list(n_sweep)
    if len(n_sweep) != 1:
        raise ValueError(f"the kernel table takes exactly one n, got {n_sweep!r}")
    ns = check_sweep(n_sweep)
    axes = check_axes(grid_axes(box, points_per_axis), 1)
    check_moments(kernel, ns[0], axes[0])
    return functools.partial(_kernel_rows, kernel, axes[0], ns[0])


def _kernel_rows(kernel: DensityKernel, xs, n: int) -> dict:
    moments = axis_moments(kernel, xs, n, 3)
    q, alpha = kernel.params.q, kernel.params.alpha
    # n M_1 is atanh(q)/alpha plus a 1-periodic ripple whose first harmonic has amplitude
    # (pi/alpha)/sinh(pi^2/alpha), here in a form that underflows to 0 rather than overflowing
    z = math.pi**2 / alpha
    ripple = 2.0 * math.pi / alpha * math.exp(-z) / -math.expm1(-2.0 * z)
    return {
        "columns": ["x", "psi", "moment0", "moment1", "moment2", "moment3", "n_times_moment1"],
        "rows": np.column_stack([xs, psi_eval(kernel, xs), moments, n * moments[:, 1]]).tolist(),
        "kernel": {"q": q, "alpha": alpha, "eps_trunc": kernel.eps_trunc,
                   "normalization": kernel.normalization, "radius": kernel.radius,
                   "window_width": kernel.width,
                   "tail_mass": tail_mass(kernel.params, kernel.radius),
                   "n_times_moment1_centre": math.atanh(q) / alpha,
                   "n_times_moment1_ripple": ripple},
    }
