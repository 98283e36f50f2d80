"""Charts, metric-weighted kernels, chart operators."""

import functools

import numpy as np
import pytest

from tanhqi import (
    ActivationParams,
    DensityKernel,
    apply_basic_batch,
    chart_preset,
    function_preset,
    operator_on_chart_batch,
)
from tanhqi.analysis import chart_sweep, sweep
from tanhqi.manifold import chart_coords, check_chart

PARAMS = ActivationParams(0.5, 1.0)
KERNEL = DensityKernel(PARAMS)


class TestChartPresets:
    def test_euclidean_dims(self):
        assert chart_preset("euclidean").dim == 1
        assert chart_preset("euclidean", 3).dim == 3

    def test_torus_periods(self):
        ch = chart_preset("torus", 2)
        assert ch.periods == (1.0, 1.0)
        assert np.allclose([ch.axis_coords(0, 1.3)[0], ch.axis_coords(1, -0.25)[0]], [0.3, 0.75])

    def test_half_plane_fixed_dim(self):
        ch = chart_preset("poincare-half-plane")
        assert ch.dim == 2
        with pytest.raises(ValueError):
            chart_preset("poincare-half-plane", 3)

    def test_unknown_chart(self):
        with pytest.raises(ValueError, match="unknown chart"):
            chart_preset("sphere")

    @pytest.mark.parametrize("name", ["euclidean", "torus"])
    def test_dimension_below_one_rejected(self, name):
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            chart_preset(name, dim=0)

    @pytest.mark.parametrize("name, dim, message", [
        ("euclidean", 2.7, "must be an integer, got 2.7"),
        ("torus", "2", "must be an integer, got '2'"),
        ("euclidean", True, "must be an integer, got True"),
        ("torus", np.float64(1.0), "must be an integer"),
        ("poincare-half-plane", 2.0, "must be an integer, got 2.0"),
        ("euclidean", -1, "dimension must be at least 1"),
        ("poincare-half-plane", np.int64(3), "two-dimensional"),
        ("sphere", 2.7, "unknown chart"),
    ])
    def test_dimension_must_be_an_integer(self, name, dim, message):
        # int() would truncate a float, parse a string and read a bool as 0 or 1; an unknown
        # name reports first
        with pytest.raises(ValueError, match=message):
            chart_preset(name, dim)

    def test_domain_membership(self):
        ch = chart_preset("poincare-half-plane")
        assert ch.axis_coords(0, 0.0)[1] and ch.axis_coords(1, 1.0)[1]
        assert not ch.axis_coords(1, 0.0)[1]
        assert not ch.axis_coords(1, -1.0)[1]


class TestOperatorOnChart:
    def test_euclidean_equals_lattice_operator(self):
        chart = chart_preset("euclidean", 1)
        f = function_preset("sin")
        rng = np.random.default_rng(11)
        xs = [rng.uniform(-2.0, 2.0, size=100)]
        a = operator_on_chart_batch(KERNEL, chart, f, 32, xs)
        b = apply_basic_batch(KERNEL, f, 32, xs)
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_constants_exact_on_curved_chart(self):
        class Flat:
            name = "flat2"
            dim = 2

            @staticmethod
            def value(x, y):
                return np.ones_like(np.asarray(x) + np.asarray(y))

        chart = chart_preset("poincare-half-plane")
        got = operator_on_chart_batch(KERNEL, chart, Flat(), 64, [[0.3], [1.5]])[0]
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_lattice_exit_reported(self):
        # at n = 8 the window around y = 1.5 reaches k_y <= 0, outside
        # the half plane, and the operator must say so
        chart = chart_preset("poincare-half-plane")
        with pytest.raises(ValueError, match="increase n or shrink"):
            operator_on_chart_batch(KERNEL, chart, function_preset("sin-exp"), 8, [[0.3], [1.5]])

    def test_point_outside_reported(self):
        # the first grid point in C order with a coordinate outside y > 0 is named
        chart = chart_preset("poincare-half-plane")
        with pytest.raises(ValueError, match=r"point \[0.3, -0.5\] lies outside"):
            operator_on_chart_batch(KERNEL, chart, function_preset("sin-exp"), 64,
                                    [[0.3, 0.5], [1.5, -0.5, -1.0]])

    @pytest.mark.parametrize("y_lo", [-0.5, 0.01, 1.99, 2.0, 2.01, 3.0])
    def test_preflight_agrees_with_the_operator(self, y_lo):
        # at n = 8 the support reaches k_y <= 0 while 8 y_lo <= W = 16; a point with y <= 0
        # fails first. The sweep's preflight, check_chart then each n's table with chart_coords
        # (``sweep``'s bind), fails as the first failing n does
        chart, f, ns = chart_preset("poincare-half-plane"), function_preset("sin-exp"), (8, 16, 32)
        axes = [np.array([-0.5, 0.25]), np.array([y_lo, y_lo + 0.5])]
        failures = []
        for n in ns:
            try:
                operator_on_chart_batch(KERNEL, chart, f, n, axes)
            except ValueError as exc:
                failures.append(str(exc))
        try:
            sweep(KERNEL, check_chart(chart, axes), ns, None, None, [{}], ["t"],
                  site_rule=functools.partial(chart_coords, chart))
            preflight = None
        except ValueError as exc:
            preflight = str(exc)
        assert preflight == (failures[0] if failures else None)

    def test_half_plane_errors_shrink(self):
        # the narrower kernel keeps the n = 16 window above y = 0
        sharp = DensityKernel(ActivationParams(0.5, 2.0))
        chart = chart_preset("poincare-half-plane")
        f = function_preset("sin-exp")
        xs = np.linspace(-1.0, 1.0, 9) + 1.0 / 202.0
        ys = np.linspace(1.0, 2.0, 9) + 1.0 / 202.0
        sups = []
        for n in (16, 32, 64, 128):
            got = operator_on_chart_batch(sharp, chart, f, n, [xs, ys])
            sups.append(float(np.max(np.abs(got - f.value(*np.ix_(xs, ys)).ravel()))))
        assert sups[0] == pytest.approx(0.010360695275581588, rel=1e-10)
        assert sups[-1] == pytest.approx(0.0010754814810829405, rel=1e-10)
        for a, b in zip(sups, sups[1:]):
            assert b < a
        ratios = [sups[i] / sups[i + 1] for i in range(3)]
        assert min(ratios) >= 1.7

    def test_the_metric_changes_the_operator(self):
        # the half-plane weighs its lattice samples by 1 / sqrt(det g) = y^2, which leaves an
        # error of second order in 1/n (1.37e-4 at n = 128), where the euclidean chart's unit
        # weights read at most 1.2e-9 (q 0, alpha 0.5, sin-exp on the manifold subcommand's
        # default box, 21 points per axis)
        kernel = DensityKernel(ActivationParams(0.0, 0.5))
        f = function_preset("sin-exp")
        ns, box = [128, 256, 512, 1024], [(-1.0, 1.0), (1.0, 2.0)]
        (euclidean,), (half_plane,) = (chart_sweep(kernel, chart, f, ns, box, 21)()
                                       for chart in ("euclidean", "poincare-half-plane"))
        for e, h in zip(euclidean.rows, half_plane.rows):
            assert h.sup_error >= 10 * e.sup_error

    def test_torus_shift_invariance(self):
        chart = chart_preset("torus", 1)
        f = function_preset("sin")
        a = operator_on_chart_batch(KERNEL, chart, f, 16, [[0.3]])[0]
        b = operator_on_chart_batch(KERNEL, chart, f, 16, [[1.3]])[0]
        assert a == pytest.approx(b, abs=1e-14)

    def test_dim_mismatch_rejected(self):
        chart = chart_preset("poincare-half-plane")
        with pytest.raises(ValueError):
            operator_on_chart_batch(KERNEL, chart, function_preset("sin"), 32, [[0.3], [1.5]])

    def test_bad_n_rejected(self):
        chart = chart_preset("euclidean", 1)
        with pytest.raises(ValueError):
            operator_on_chart_batch(KERNEL, chart, function_preset("sin"), 0, [[0.3]])
