"""Evaluation grids, error sweeps, rate fits, and report serialization."""

import dataclasses
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanhqi import (
    ActivationParams,
    DensityKernel,
    FracConfig,
    apply_fractional_batch,
    convergence_sweep,
    fractional_sweep,
    function_preset,
    grid_axes,
    rate_fit,
    residual_sweep,
    sup_error,
)
from tanhqi import analysis, cli, operators
from tanhqi.analysis import GRID_SHIFT, check_sweep, sweep
from tanhqi.kernel import check_n, table_sites, tail_mass

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402

KERNEL = DensityKernel(ActivationParams(0.5, 1.0))
BOX01 = [(0.0, 1.0)]


class TestGridPoints:
    def test_shape_and_bounds(self):
        xs, ys = grid_axes([(0.0, 1.0), (-1.0, 2.0)], 7)
        assert xs.shape == ys.shape == (7,)
        assert np.all(xs > 0.0) and np.all(xs < 1.0)
        assert np.all(ys > -1.0) and np.all(ys < 2.0)

    def test_avoids_lattice_sites(self):
        # sweep n values never hit a sample exactly, so operator errors
        # are measured between sites rather than on them
        pts = grid_axes(BOX01, 101)[0]
        for n in (8, 16, 32, 64, 128, 256, 512):
            dist = np.abs(pts[:, None] * n - np.round(pts[:, None] * n))
            assert dist.min() > 1e-9

    def test_shift_constant(self):
        pts = grid_axes(BOX01, 10)[0]
        assert pts[0] == pytest.approx(GRID_SHIFT / 10.0, rel=1e-15)

    @pytest.mark.parametrize("box, points", [
        ([(0.0, math.inf)], 5),
        ([(-math.inf, 1.0)], 5),
        ([(0.0, 1.0), (math.nan, 1.0)], 5),
        (BOX01, 2.5),
        (BOX01, "5"),
        ([(-1e308, 1e308)], 3),
    ])
    def test_non_finite_corners_and_fractional_counts_rejected(self, box, points):
        with pytest.raises(ValueError):
            grid_axes(box, points)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            grid_axes(BOX01, 0)
        with pytest.raises(ValueError):
            grid_axes([(1.0, 1.0)], 5)


@pytest.mark.parametrize("check, message", [
    (lambda: check_n(True), "n must be a positive integer within float range, got True"),
    (lambda: operators.check_m_max(True), "m_max must lie in 0..4, got True"),
    (lambda: grid_axes(BOX01, True), "need an integer >= 1 of points per axis, got True"),
], ids=["check_n", "check_m_max", "grid_axes"])
def test_a_bool_is_no_integer(check, message):
    # as the config loader rejects a bool for every integer key
    with pytest.raises(ValueError) as exc:
        check()
    assert str(exc.value) == message


class TestSupError:
    def test_known_errors(self):
        axes = [[0.0, 1.0, 2.0]]
        [(sup, mean)] = sup_error(lambda ax: ax[0] + 1.0, lambda ax: ax[0], axes)
        assert sup == 1.0 and mean == 1.0
        # a (K, P) stack gives one pair per row, each against the same target
        stack = lambda ax: np.array([ax[0] + 1.0, [0.0, 1.0, 5.0]])  # noqa: E731
        assert sup_error(stack, lambda ax: ax[0], axes) == [(1.0, 1.0), (3.0, 1.0)]

    def test_varying_errors(self):
        axes = [[0.0, 1.0, 2.0]]
        [(sup, mean)] = sup_error(lambda ax: 2.0 * ax[0], lambda ax: ax[0], axes)
        assert sup == 2.0
        assert mean == pytest.approx(1.0, rel=1e-15)

    def test_matches_fsum_mean(self):
        rng = np.random.default_rng(77)
        pts = rng.uniform(0.0, 1.0, size=200)
        [(sup, mean)] = sup_error(lambda ax: np.array([math.sin(v) for v in ax[0]]),
                                  lambda ax: ax[0], [pts])
        errs = [abs(math.sin(p) - p) for p in pts]
        assert sup == max(errs)
        assert mean == pytest.approx(math.fsum(errs) / len(errs), rel=1e-14)

    def test_failure_reports_offending_point(self):
        def bad(ax):
            if (ax[0] > 0.5).any():
                raise ValueError("boom")
            return np.zeros(len(ax[0]))

        with pytest.raises(ValueError, match=r"boom \(at evaluation point \[0.9\]\)"):
            sup_error(bad, lambda ax: np.zeros(len(ax[0])), [[0.1, 0.9]])
        # on a 2-D grid the points are re-run in C order: (0.1, 0.2), (0.1, 0.8), (0.9, 0.2), ..
        with pytest.raises(ValueError, match=r"boom \(at evaluation point \[0.9, 0.2\]\)"):
            sup_error(bad, lambda ax: 0.0, [[0.1, 0.9], [0.2, 0.8]])

    def test_failure_with_multi_argument_exception(self):
        class TwoArgError(Exception):
            def __init__(self, what, where):
                super().__init__(f"{what} in {where}")

        def bad(ax):
            raise TwoArgError("overflow", "cell 3")

        with pytest.raises(RuntimeError, match=r"overflow in cell 3 \(at evaluation point \[0.5\]\)") as info:
            sup_error(bad, lambda ax: np.zeros(len(ax[0])), [[0.5]])
        assert isinstance(info.value.__cause__, TwoArgError)

    def test_failure_of_whole_batch_only_propagates(self):
        # a MemoryError is re-raised at once: no point is re-run alone
        calls = []

        def batch_only(ax):
            calls.append(len(ax[0]))
            if len(ax[0]) > 1:
                raise MemoryError("batch too large")
            return np.zeros(len(ax[0]))

        with pytest.raises(MemoryError, match="^batch too large$"):
            sup_error(batch_only, lambda ax: np.zeros(len(ax[0])), [[0.1, 0.9]])
        assert calls == [2]

    def test_failure_no_point_repeats_alone_propagates_unchanged(self):
        # any other exception of the whole batch only is re-raised as it was, once every point
        # has been re-run alone
        calls, raised = [], []

        def batch_only(ax):
            calls.append(len(ax[0]))
            if len(ax[0]) > 1:
                raised.append(ValueError("batch only"))
                raise raised[-1]
            return np.zeros(len(ax[0]))

        with pytest.raises(ValueError) as exc:
            sup_error(batch_only, lambda ax: np.zeros(len(ax[0])), [[0.1, 0.9]])
        assert exc.value is raised[0] and str(exc.value) == "batch only"
        assert calls == [2, 1, 1]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sup_error(lambda ax: np.zeros(len(ax[0])), lambda ax: np.zeros(len(ax[0])), [np.empty(0)])


class TestSweep:
    def test_one_row_per_distinct_n_and_fit(self):
        # a (2, P) result makes two reports, each with its own rows, fit, config and target
        seen = []

        def operator(n, ax, *, sites):
            seen.append(n)
            return np.stack([np.full(len(ax[0]), 3.0 / n), np.full(len(ax[0]), 5.0 / n**2)])

        axes = grid_axes(BOX01, 4)
        rep, second = sweep(KERNEL, axes, check_sweep((32, 8, 16, 8)), lambda: operator,
                            lambda ax: np.zeros(len(ax[0])), [{"k": 1}, {"k": 2}],
                            ["target", "second"])()
        assert seen == [8, 16, 32]
        assert [r.n for r in rep.rows] == [r.n for r in second.rows] == seen
        assert [r.sup_error for r in rep.rows] == [3.0 / n for n in seen]
        assert [r.mean_error for r in second.rows] == [5.0 / n**2 for n in seen]
        assert rep.fitted_slope == pytest.approx(1.0, abs=1e-12)
        assert second.fitted_slope == pytest.approx(2.0, abs=1e-12)
        assert (rep.config, second.config) == ({"k": 1}, {"k": 2})
        assert (rep.target_description, second.target_description) == ("target", "second")
        assert rep.claimed_exponent is None and rep.excluded_rows == 0

    def test_floor_rows_counted_and_fit_skipped(self):
        axes = grid_axes(BOX01, 3)
        zeros = lambda n, ax, *, sites: np.zeros(len(ax[0]))  # noqa: E731
        [rep] = sweep(KERNEL, axes, [8, 16, 32], lambda: zeros, lambda ax: 0.0, [{}], ["t"],
                      "n^-1")()
        # the default floor is 0, so only exact zeros lie on it
        assert rep.error_floor == 0.0 and rep.excluded_rows == 3 and rep.fitted_slope is None
        assert rep.note.endswith("fit skipped: fewer than 3 rows above 10 x error_floor")
        assert rep.claimed_exponent == "n^-1"
        # floor 0.25: a row at exactly 10 x floor = 2.5 is left out, the next double above is kept
        above = math.nextafter(2.5, math.inf)
        errors = {8: (2.5, 10.0), 16: (above, 5.0), 32: (0.0, above), 64: (2.5, 2.5)}
        calls = []

        def operator(n, ax, *, sites):
            calls.append(n)
            return np.stack([np.full(len(ax[0]), e) for e in errors[n]])

        skipped, fitted = sweep(KERNEL, axes, [8, 16, 32, 64], lambda: operator, lambda ax: 0.0,
                                [{}, {}], ["t", "u"],
                                floor=lambda: calls.append("floor") or 0.25)()
        # a floor given as a function is taken once, after every row is measured
        assert calls == [8, 16, 32, 64, "floor"]
        assert skipped.error_floor == fitted.error_floor == 0.25
        assert (skipped.excluded_rows, skipped.fitted_slope) == (3, None)
        assert "fit skipped" in skipped.note
        # three rows are left, so the fit is made, and on them alone
        assert fitted.excluded_rows == 1 and fitted.note == analysis.NORM_NOTE
        assert fitted.fitted_slope == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_sweep", [(), (0, 16), (-4,), (16.5, 32, 64)])
    def test_non_positive_or_empty_sweep_rejected(self, n_sweep):
        # a sweep takes its n values from check_sweep, every entry point's first n check
        with pytest.raises(ValueError, match="n sweep"):
            check_sweep(n_sweep)

    def test_non_finite_error_names_n(self):
        axes = grid_axes(BOX01, 3)
        operator = lambda n, ax, *, sites: np.full(len(ax[0]), np.nan if n == 16 else 1.0)  # noqa: E731
        run = sweep(KERNEL, axes, [8, 16, 32], lambda: operator,
                    lambda ax: np.zeros(len(ax[0])), [{}], ["t"])
        with pytest.raises(RuntimeError, match="error at n = 16 is not finite"):
            run()

    def test_bind_checks_each_n_then_its_site_rule(self):
        # n = 16 and 64 pass and meet the rule with their own open mesh; at n = 2^16 the
        # windows part, 32 or 33 sites around each of the 1001 centres, past the cap
        seen = []
        x = np.linspace(0.0, 1.0, 1001)
        with pytest.raises(ValueError, match="the lattice table needs 32041 x 32041 sites"):
            sweep(KERNEL, [x, x], [16, 64, 2**16], None, None, [{}], ["t"],
                  site_rule=lambda n, sites: seen.append((n, [s.shape for s in sites])))
        assert seen == [(16, [(49, 1), (1, 49)]), (64, [(97, 1), (1, 97)])]

    def test_each_call_makes_its_operator_once_and_hands_it_the_checked_meshes(self):
        # the rule runs once per n at bind time and its value is ignored; each call makes its
        # operator once and hands every n's grid call the checked mesh, and other arrays none
        axes, ruled, made, handed = grid_axes(BOX01, 3), [], [], []

        def make_operator():
            made.append(1)
            return operator

        def operator(n, ax, *, sites):
            handed.append((n, sites))
            if ax[0].size > 1:
                raise ZeroDivisionError("the grid's call fails, so each point is re-run")
            return np.zeros(1)

        run = sweep(KERNEL, axes, [8, 16], make_operator, lambda ax: 0.0, [{}], ["t"],
                    site_rule=lambda n, sites: ruled.append((n, sites[0].size)) or "ignored")
        assert ruled == [(8, 37), (16, 42)] and made == [] and handed == []
        with pytest.raises(ZeroDivisionError):
            run()
        assert ruled == [(8, 37), (16, 42)] and made == [1]
        (n, sites), *rerun = handed
        assert n == 8 and np.array_equal(sites[0], table_sites(KERNEL, 8, axes)[0])
        assert rerun == [(8, None)] * 3


class TestRateFit:
    def test_recovers_exact_power_law(self):
        rows = [(n, 3.7 * n**-2.5) for n in (8, 16, 32, 64)]
        slope, intercept, r2 = rate_fit(rows)
        assert slope == pytest.approx(2.5, abs=1e-12)
        assert math.exp(intercept) == pytest.approx(3.7, rel=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_slope_invariant_under_scaling(self):
        rows = [(n, 2.0 * n**-1.3) for n in (16, 32, 64, 128)]
        scaled = [(n, 100.0 * e) for n, e in rows]
        assert rate_fit(rows)[0] == pytest.approx(rate_fit(scaled)[0], abs=1e-12)

    def test_needs_three_rows(self):
        with pytest.raises(ValueError):
            rate_fit([(16, 1e-2), (32, 5e-3)])

    def test_floor_drops_rows(self):
        rows = [(16, 1e-2), (32, 5e-3), (64, 2.5e-3), (128, 0.0)]
        slope, _, _ = rate_fit(rows, floor=1e-12)
        assert slope == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            rate_fit([(16, 1e-2), (32, 0.0), (64, 0.0), (128, 0.0)], floor=1e-12)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_error_names_its_row(self, bad):
        # an inf row would turn the slope into nan and a nan row would drop out of the fit unseen;
        # either is a ValueError naming the first such row, whatever the floor
        rows = [(16, 1e-2), (32, bad), (64, 2.5e-3), (128, math.inf), (256, 6e-4)]
        for floor in (0.0, 1.0):
            with pytest.raises(ValueError, match=f"got {bad!r} at n=32"):
                rate_fit(rows, floor=floor)


def gamma(m):
    # Higham's gamma_m = m u / (1 - m u), u = 2^-53, bounds m relative roundings
    return m * 2.0**-53 / (1.0 - m * 2.0**-53)


def assert_fit_within_rounding(rows):
    """rate_fit's slope and intercept lie within rounding bounds of the exact least-squares line
    (in Fractions) through the very floats it fits; returns the fit.

    rate_fit fits x_i = log(1 / n_i), y_i = log(e_i) over k rows; the same
    numpy calls here give the same floats.  Counts follow Higham, Accuracy
    and Stability of Numerical Algorithms, 3.1 and 3.5, as in
    tests/test_kernel.py, to first order in u = 2^-53 except for the
    products of two mean errors, which are kept: where the y_i are all
    equal they are all of the error.  Each mean is a sum of k terms and a
    quotient, so within e_x = gamma_k mean|x| (e_y = gamma_k mean|y|) of
    the exact one.  The centred values dx_i, dy_i are then off by at most
    e_x, e_y and round once each, and a dot product of k terms is within
    gamma_k of the sum of its terms' magnitudes.  A centre c off the exact
    mean x_bar changes sum (x_i - c)(y_i - d) by k (x_bar - c)(y_bar - d)
    and sum (x_i - c)^2 by k (x_bar - c)^2, so S_xy = sum dx_i dy_i comes
    out within gamma_(k+2) sum (|dx_i| + e_x)(|dy_i| + e_y) + k e_x e_y,
    and S_xx within gamma_(k+2) S_xx + k e_x^2; the quotient adds 1.  The
    intercept mean_y - slope mean_x takes mean_y's e_y, the product's
    |slope - s| (|x_bar| + e_x) + |s| e_x and a rounding of
    |s x_bar| <= |s| mean|x|, and the difference's rounding of |i|.
    """
    xs = np.log(1.0 / np.array([n for n, _ in rows], dtype=float))
    ys = np.log(np.array([e for _, e in rows]))
    fx, fy = [[Fraction(float(v)) for v in vs] for vs in (xs, ys)]
    k = len(fx)
    mean_x, mean_y = sum(fx) / k, sum(fy) / k
    dx, dy = [x - mean_x for x in fx], [y - mean_y for y in fy]
    s_xx = sum(d * d for d in dx)
    slope_exact = sum(a * b for a, b in zip(dx, dy)) / s_xx
    intercept_exact = mean_y - slope_exact * mean_x
    abs_x, abs_y = (float(sum(map(abs, vs)) / k) for vs in (fx, fy))
    e_x, e_y = gamma(k) * abs_x, gamma(k) * abs_y
    spread = sum((abs(float(a)) + e_x) * (abs(float(b)) + e_y) for a, b in zip(dx, dy))
    slope_size, s_xx = abs(float(slope_exact)), float(s_xx)
    slope_bound = ((gamma(k + 2) * spread + k * e_x * e_y) / s_xx
                   + (gamma(k + 3) + k * e_x * e_x / s_xx) * slope_size)
    intercept_bound = (e_y + slope_bound * (abs(float(mean_x)) + e_x) + slope_size * e_x
                       + gamma(1) * (slope_size * abs_x + abs(float(intercept_exact))))
    slope, intercept, r2 = rate_fit(rows)
    assert abs(Fraction(slope) - slope_exact) <= slope_bound
    assert abs(Fraction(intercept) - intercept_exact) <= intercept_bound
    return slope, intercept, r2


class TestClosedFormFit:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_within_rounding_of_the_exact_line(self, data):
        ns = data.draw(st.lists(st.integers(1, 2**40), min_size=3, max_size=12, unique=True))
        errors = data.draw(st.lists(st.floats(0.0, exclude_min=True, allow_infinity=False),
                                    min_size=len(ns), max_size=len(ns)))
        assert_fit_within_rounding(list(zip(ns, errors)))

    def test_every_seed_zero_benchmark_report(self, tmp_path, capsys):
        # each fitted report's slope and intercept as rate_fit gives them on its rows above
        # 10 x error_floor, and within rounding of the exact line; every sweep run has a fit
        fitted = 0
        for workload in sorted(workloads.WORKLOADS):
            for run in workloads.build(workload, 0, str(tmp_path)):
                assert cli.main(list(run.argv)) == 0
                with open(f"{run.out}.json") as fh:
                    payload = json.load(fh)
                for rep in payload if isinstance(payload, list) else [payload]:
                    if rep.get("fitted_slope") is None:
                        continue
                    cut = 10.0 * rep["error_floor"]
                    rows = [(n, sup) for n, sup, _ in rep["rows"] if sup > cut]
                    fit = (rep["fitted_slope"], rep["intercept"], rep["r_squared"])
                    assert assert_fit_within_rounding(rows) == fit
                    fitted += 1
        assert fitted == 11
        assert capsys.readouterr().err == ""


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestNodeUnion:
    def test_the_frac_benchmarks_union_is_np_unique_s(self, tmp_path, monkeypatch, capsys):
        seen = []

        def union(nodes):
            seen.append(list(nodes))
            return node_union(nodes)

        node_union = analysis._node_union
        monkeypatch.setattr(analysis, "_node_union", union)
        for run in workloads.build("frac", 0, str(tmp_path)):
            assert cli.main(list(run.argv)) == 0
        assert [len(nodes) for nodes in seen] == [6, 4]
        for nodes in seen:
            assert_same_bits(node_union(nodes), np.unique(np.concatenate(nodes)))
        assert capsys.readouterr().err == ""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_np_unique_on_lists_with_repeats(self, data):
        pool = data.draw(st.lists(st.floats(0.0, exclude_min=True, allow_infinity=False),
                                  min_size=1, max_size=20))
        parts = data.draw(st.lists(st.lists(st.sampled_from(pool), max_size=30),
                                   min_size=1, max_size=5))
        nodes = [np.array(part, dtype=float) for part in parts]
        assert_same_bits(analysis._node_union(nodes), np.unique(np.concatenate(nodes)))


class TestReportSerialization:
    def test_dict_rows_are_lists(self):
        rep = convergence_sweep("basic", KERNEL, function_preset("sin"), (16, 32, 64), BOX01, 5)()[0]
        d = rep.to_dict()
        assert all(isinstance(r, list) for r in d["rows"])

    @pytest.mark.parametrize("run, box, sample", [
        (lambda box: convergence_sweep("basic", KERNEL, function_preset("sin"), (16, 32), box, 7),
         BOX01, lambda x: np.sin(x[0])),
        (lambda box: residual_sweep(KERNEL, function_preset("sin"), box, 7, (16, 32), 2),
         [(-2.0, 1.0)], lambda x: np.sin(x[0])),
        (lambda box: fractional_sweep(KERNEL, function_preset("pow2"), 0.5, box, 7, (16, 32)),
         [(0.2, 1.0)], lambda x: 2.0 / math.gamma(2.5) * x[0] ** 1.5),
        (lambda box: analysis.chart_sweep(KERNEL, "poincare-half-plane",
                                          function_preset("sin-exp"), (16, 32), box, 7),
         [(0.0, 1.0), (1.0, 2.0)], lambda x: np.sin(x[0])[:, None] * np.exp(-x[1])[None, :]),
    ], ids=["converge", "voronovskaya", "frac", "manifold"])
    def test_every_report_echoes_its_derived_floor(self, run, box, sample):
        # the mass a window neglects plus N (2W + 1) 2^-53 of rounding, at the largest magnitude
        # the operator reproduces: f, or for the fractional sweep the D^beta f oracle
        relative = tail_mass(KERNEL.params, KERNEL.radius) + len(box) * KERNEL.width * 2.0**-53
        peak = np.max(np.abs(sample(grid_axes(box, 7))))
        for rep in run(box)():
            assert rep.error_floor == pytest.approx(relative * peak, rel=1e-14, abs=0.0)
            assert rep.to_dict()["error_floor"] == rep.error_floor


class TestOperatorConvergence:
    def test_basic_sin_first_order(self):
        rep = convergence_sweep("basic", KERNEL, function_preset("sin"), (16, 32, 64), BOX01, 21)()[0]
        assert rep.fitted_slope == pytest.approx(1.0, abs=0.1)
        assert rep.r_squared > 0.999
        assert rep.config["operator"] == "basic"
        assert rep.config["preset"] == "sin"
        assert [r.n for r in rep.rows] == [16, 32, 64]

    def test_sweep_sorted_and_deduplicated(self):
        rep = convergence_sweep("basic", KERNEL, function_preset("sin"), (64, 16, 16, 32), BOX01, 5)()[0]
        assert [r.n for r in rep.rows] == [16, 32, 64]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            convergence_sweep("fractional", KERNEL, function_preset("sin"), (16, 32, 64), BOX01, 5)()[0]

    @pytest.mark.parametrize("sweep_of", [
        lambda f, box, ns: convergence_sweep("basic", KERNEL, f, ns, box, 200)()[0],
        lambda f, box, ns: convergence_sweep("kantorovich", KERNEL, f, ns, box, 200)()[0],
        lambda f, box, ns: residual_sweep(KERNEL, f, box, 200, ns, 1)(),
    ], ids=["basic", "kantorovich", "voronovskaya"])
    def test_oversized_last_table_rejected_before_any_sample(self, sweep_of):
        # n = 16 would run; at n = 256 each axis of [0, 20]^2 reaches 5126 sites, 26.3e6 in all
        calls = []
        sin_exp = function_preset("sin-exp")
        f = dataclasses.replace(sin_exp, value_fn=lambda *c: calls.append(1) or sin_exp.value(*c))
        with pytest.raises(ValueError, match="the lattice table needs 5126 x 5126 sites"):
            sweep_of(f, [(0.0, 20.0)] * 2, [16, 256])
        assert calls == []

    def test_cell_work_rejected_before_any_sample(self):
        # 130^2 nodes per cell at 34^2 table sites (the sweep's two points) or 33^2 (one point);
        # the basic operator takes no quadrature
        calls = []
        sin_exp = function_preset("sin-exp")
        f = dataclasses.replace(sin_exp, value_fn=lambda *c: calls.append(1) or sin_exp.value(*c))
        with pytest.raises(ValueError, match="the cells of the lattice table need 19536400 "
                                             "quadrature samples"):
            convergence_sweep("kantorovich", KERNEL, f, [4], [(0.0, 1.0)] * 2, 2, quad_nodes=130)()[0]
        with pytest.raises(ValueError, match="the cells of the lattice table need 18404100 "
                                             "quadrature samples"):
            operators.apply_kantorovich_batch(KERNEL, 130, f, 4, [[0.5], [0.5]])
        assert calls == []
        convergence_sweep("basic", KERNEL, f, [4], [(0.0, 1.0)] * 2, 2, quad_nodes=130)()[0]

    def test_a_table_at_the_cell_cap_runs(self):
        # n x = 1.5 takes 32^2 table sites, x 128^2 nodes = 2^24 samples, exactly the cap; the
        # lattice site n x = 2 (n = 4) takes a whole window's 33^2 sites, past it
        f = function_preset("sin-exp")
        assert np.isfinite(operators.apply_kantorovich_batch(KERNEL, 128, f, 3, [[0.5], [0.5]])).all()
        with pytest.raises(ValueError, match="need 17842176 quadrature samples"):
            operators.apply_kantorovich_batch(KERNEL, 128, f, 4, [[0.5], [0.5]])


class TestResidualOrders:
    def test_sin_slopes_increase_by_one(self):
        reps = residual_sweep(KERNEL, function_preset("sin"), BOX01, 21, (16, 32, 64), 2)()
        slopes = [r.fitted_slope for r in reps]
        assert slopes[0] == pytest.approx(1.0, abs=0.1)
        assert slopes[1] == pytest.approx(2.0, abs=0.15)
        assert slopes[2] == pytest.approx(3.0, abs=0.2)
        assert slopes == sorted(slopes)

    def test_fourth_order_slope_on_the_benchmark_grid(self):
        # moments-chart's seed-0 voronovskaya run: its rows fall 32-fold per doubling down to the
        # truncated window's partition deficit, 1.1e-13 and 1.3e-13 at n = 256 and 512, which lie
        # under 10 x error_floor and stay out of the fit (with them in, it read 4.26)
        reps = residual_sweep(KERNEL, function_preset("sin"), BOX01, 201,
                              (16, 32, 64, 128, 256, 512), 4)()
        assert 4.5 <= reps[4].fitted_slope <= 5.5
        assert reps[4].excluded_rows == 2

    def test_a_smaller_trunc_eps_lowers_the_floor_and_keeps_the_rows_it_hid(self):
        # eps_trunc 1e-15 takes W = 19 where 1e-12 takes 16: the n = 512 residual falls from the
        # deficit, 1.3e-13, to 3.5e-15, and the floor falls with it, so n = 256 is fitted again
        runs = [residual_sweep(DensityKernel(ActivationParams(0.5, 1.0), eps),
                               function_preset("sin"), BOX01, 201,
                               (16, 32, 64, 128, 256, 512), 4)()[4] for eps in (1e-12, 1e-15)]
        coarse, fine = runs
        assert fine.error_floor < coarse.error_floor
        assert fine.rows[-1].sup_error < 1e-14 < coarse.rows[-1].sup_error
        assert (coarse.excluded_rows, fine.excluded_rows) == (2, 1)
        assert 10.0 * fine.error_floor < fine.rows[-2].sup_error
        assert 4.5 <= fine.fitted_slope <= 5.5

    def test_m_zero_is_uncorrected_error(self):
        reps = residual_sweep(KERNEL, function_preset("sin"), BOX01, 11, (16, 32, 64), 0)()
        rep = convergence_sweep("basic", KERNEL, function_preset("sin"), (16, 32, 64), BOX01, 11)()[0]
        assert reps[0].rows == rep.rows

    def test_linear_first_order_hits_floor(self):
        # the correction removes the whole error of an affine target but the partition deficit:
        # A_n t - t - M_1 = x (S_n(1) - 1), so every row lies under the floor itself (7.9e-14
        # against 1.50e-13) and the fit is skipped
        reps = residual_sweep(KERNEL, function_preset("linear"), BOX01, 11, (16, 32, 64), 1)()
        m1 = reps[1]
        assert all(r.sup_error <= m1.error_floor for r in m1.rows)
        assert m1.fitted_slope is None
        assert m1.excluded_rows == 3
        assert "fit skipped" in m1.note

    def test_rough_target_slope_saturates(self):
        # |t - 1/2|^2.5 only supplies 2.5 derivatives, so the order-2
        # residual cannot reach the third-order rate of smooth targets
        reps = residual_sweep(KERNEL, function_preset("abs25"), BOX01, 21, (16, 32, 64, 128), 2)()
        assert 2.3 <= reps[2].fitted_slope <= 2.95

    def test_smoothness_cap(self):
        with pytest.raises(ValueError, match="smoothness"):
            residual_sweep(KERNEL, function_preset("abs25"), BOX01, 11, (16, 32, 64), 3)()

    def test_m_max_range(self):
        with pytest.raises(ValueError):
            residual_sweep(KERNEL, function_preset("sin"), BOX01, 11, (16, 32, 64), 5)()

    @pytest.mark.parametrize("name, box", [("sin", BOX01), ("sin-exp", [(0.0, 1.0), (0.0, 1.0)])])
    def test_one_basic_pass_and_one_moment_table_per_n(self, monkeypatch, name, box):
        calls = {"basic": 0, "moments": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(operators, "apply_basic_batch", counted("basic", operators.apply_basic_batch))
        monkeypatch.setattr(operators, "axis_moments", counted("moments", operators.axis_moments))
        reps = residual_sweep(KERNEL, function_preset(name), box, 5, (16, 32, 64, 16), 4)()
        assert len(reps) == 5 and all(len(r.rows) == 3 for r in reps)
        assert calls == {"basic": 3, "moments": 3 * len(box)}


class TestFractionalRate:
    def test_report_strings(self):
        rep = fractional_sweep(KERNEL, function_preset("pow2"), 0.5, [(0.2, 1.0)], 5, (64, 128, 256),
                               frac_step=2e-3)()[0]
        assert rep.target_description == "D^beta f (oracle)"
        assert "recorded, not asserted" in rep.claimed_exponent
        assert rep.fitted_slope == pytest.approx(1.0, abs=0.3)

    def test_non_monomial_rejected(self):
        with pytest.raises(ValueError, match="monomial"):
            fractional_sweep(KERNEL, function_preset("sin"), 0.5, [(0.2, 1.0)], 5, (64, 128, 256))()[0]

    def test_box_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            fractional_sweep(KERNEL, function_preset("pow2"), 0.5, [(-0.5, 1.0)], 5, (64, 128, 256))()[0]

    def test_oversized_l1_grid_rejected(self):
        # the farthest lattice node is floor(64 x_max + 16)/64 = 69/64, whose grid holds
        # 10781250 intervals and one point more; the sweep rejects it at bind time
        with pytest.raises(ValueError, match="L1 grid would need 10781251 points"):
            fractional_sweep(KERNEL, function_preset("pow2"), 0.5, [(0.2, 1.0)], 5, (64, 128),
                             frac_step=1e-7)

    @pytest.mark.parametrize("beta, frac_step", [(0.5, 0.0), (1.5, 1e-3)])
    def test_frac_config_checked_before_the_sweep(self, beta, frac_step):
        # one FracConfig per sweep, built before the L1 grid bound divides by the step
        with pytest.raises(ValueError, match="must lie in"):
            fractional_sweep(KERNEL, function_preset("pow2"), beta, [(0.2, 1.0)], 5, (64, 128, 256),
                             frac_step=frac_step)()[0]

    @pytest.mark.parametrize("step", [0.0, -1e-3, math.inf, math.nan])
    def test_bad_step_rejected_before_the_grid_bound(self, step):
        # the L1 grid bound divides by the step; FracConfig rejects it first
        with pytest.raises(ValueError, match="step h must lie in"):
            fractional_sweep(KERNEL, function_preset("pow2"), 0.5, [(0.2, 1.0)], 5, (64, 128),
                             frac_step=step)()[0]

    def test_l1_grid_overflow_rejected(self):
        # 64 x 1e308 is far past 2^52, so the lattice centre check fails before any L1 grid
        with pytest.raises(ValueError, match="2\\^52"):
            fractional_sweep(KERNEL, function_preset("pow2"), 0.5, [(0.2, 1e308)], 5, (64, 128))()[0]

    @pytest.mark.parametrize("lo", [0.2, 0.249, 0.2493, 0.25, 0.26])
    def test_lattice_at_origin_rejected_iff_the_operator_rejects_it(self, lo):
        # pow0 has f(0) = 1; at n = 64 the window reaches t = 0 while 64 x_min <= W = 16
        box, n, f = [(lo, 1.0)], 64, function_preset("pow0")
        try:
            apply_fractional_batch(KERNEL, FracConfig(0.5, 1e-2), f, n, grid_axes(box, 5))
            ran = True
        except ValueError as exc:
            assert "touches t = 0" in str(exc)
            ran = False
        try:
            fractional_sweep(KERNEL, f, 0.5, box, 5, [n], frac_step=1e-2)
            passed = True
        except ValueError as exc:
            assert "touches t = 0" in str(exc)
            passed = False
        assert ran == passed

    def test_box_touching_origin_rejected(self):
        # every sample would be positive, but the box itself is not
        with pytest.raises(ValueError, match="positive"):
            fractional_sweep(KERNEL, function_preset("pow2"), 0.5, [(0.0, 1.0)], 5, (64, 128, 256))()[0]
