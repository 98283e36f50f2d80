"""Basic, Kantorovich, and fractional lattice operators."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tanhqi import (
    ActivationParams,
    DensityKernel,
    FracConfig,
    apply_basic_batch,
    apply_fractional_batch,
    apply_kantorovich_batch,
    axis_moments,
    chart_preset,
    convergence_sweep,
    function_preset,
    multi_indices,
    power_rule_oracle,
    operator_on_chart_batch,
    rl_derivative_batch,
    voronovskaya_corrections,
)
from tanhqi import operators
from tanhqi.kernel import check_n, lattice_sums
from tanhqi.operators import check_quad_nodes

KERNEL = DensityKernel(ActivationParams(0.5, 1.0))
HALF = FracConfig(0.5)

# every entry point that takes a lattice density n, called at x = 0.3
ENTRY_POINTS = {
    "basic": lambda n: apply_basic_batch(KERNEL, function_preset("sin"), n, [[0.3]]),
    "kantorovich": lambda n: apply_kantorovich_batch(KERNEL, 5, function_preset("sin"), n, [[0.3]]),
    "fractional": lambda n: apply_fractional_batch(KERNEL, HALF, function_preset("pow2"), n, [[0.3]]),
    "chart": lambda n: operator_on_chart_batch(KERNEL, chart_preset("euclidean"),
                                               function_preset("sin"), n, [[0.3]]),
    "voronovskaya": lambda n: voronovskaya_corrections(KERNEL, 2, function_preset("sin"), n, [[0.3]]),
    "voronovskaya-order-0": lambda n: voronovskaya_corrections(KERNEL, 0, function_preset("sin"),
                                                               n, [[0.3]]),
    "moments": lambda n: axis_moments(KERNEL, [0.3], n, 2),
}


class TestConfig:
    @pytest.mark.parametrize("n", [0, -4, 2.5])
    def test_bad_n_rejected(self, n):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            check_n(n)

    @pytest.mark.parametrize("n", [0, -4, 2.5])
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_every_entry_point_rejects_bad_n(self, entry, n):
        # a RuntimeWarning (0/0 moments) would fail the test before the ValueError
        with pytest.raises(ValueError, match="n must be a positive integer"):
            ENTRY_POINTS[entry](n)

    def test_beta_range_checked(self):
        with pytest.raises(ValueError):
            FracConfig(1.5)

    def test_quad_nodes_checked(self):
        with pytest.raises(ValueError):
            check_quad_nodes(1)
        with pytest.raises(ValueError, match="quad_nodes must be an integer >= 2"):
            apply_kantorovich_batch(KERNEL, 1, function_preset("sin"), 64, [[0.3]])

    def test_quad_nodes_capped_by_point_budget(self):
        # leggauss(g) builds a g x g matrix: g = isqrt(MAX_POINT_WORK) is the largest allowed
        check_quad_nodes(4096)
        with pytest.raises(ValueError, match="4097 x 4097"):
            check_quad_nodes(4097)


class TestBasic:
    def test_reproduces_constants(self):
        f = function_preset("constant")
        for n in (8, 64):
            got = apply_basic_batch(KERNEL, f, n, [[0.0, 0.31, -2.7]])
            assert got == pytest.approx([1.0] * 3, abs=1e-12)

    def test_linear_error_is_first_moment(self):
        # for f(t) = t the Taylor expansion is exact after one term, so
        # A_n(f; x) - x equals the first lattice moment exactly
        f = function_preset("linear")
        x = np.array([0.2, 0.77])
        for n in (16, 128):
            lhs = apply_basic_batch(KERNEL, f, n, [x]) - x
            rhs = axis_moments(KERNEL, x, n, 1)[:, 1]
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_quadratic_error_is_second_order_correction(self):
        f = function_preset("quadratic")
        n, x = 32, 0.4
        lhs = apply_basic_batch(KERNEL, f, n, [[x]])[0] - f.value(x)
        rhs = voronovskaya_corrections(KERNEL, 2, f, n, [[x]])[1, 0]
        assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_frozen_sin_value(self):
        got = apply_basic_batch(KERNEL, function_preset("sin"), 64, [[0.3]])[0]
        assert got == pytest.approx(0.30366110128209006, rel=1e-13)

    def test_two_dim_constant(self):
        class Flat:
            dim = 2

            @staticmethod
            def value(x, y):
                return np.ones_like(np.asarray(x) + np.asarray(y))

        got = apply_basic_batch(KERNEL, Flat(), 16, [[0.3], [-0.6]])[0]
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_two_dim_tracks_target(self):
        f = function_preset("sin-exp")
        got = apply_basic_batch(KERNEL, f, 64, [[0.3], [0.7]])[0]
        assert got == pytest.approx(f.value(0.3, 0.7), abs=0.01)

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_basic_batch(KERNEL, function_preset("sin"), 16, [[0.3], [0.7]])


class TestKantorovich:
    def test_reproduces_constants(self):
        f = function_preset("constant")
        got = apply_kantorovich_batch(KERNEL, 5, f, 32, [[0.45]])[0]
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_linear_shift_is_half_cell(self):
        # cell averages of t sit half a cell above the left endpoint, so
        # K_n and A_n differ by exactly 1/(2n) on f(t) = t
        f = function_preset("linear")
        for n in (16, 64):
            a = apply_basic_batch(KERNEL, f, n, [[0.37]])[0]
            k = apply_kantorovich_batch(KERNEL, 5, f, n, [[0.37]])[0]
            assert k - a == pytest.approx(1.0 / (2 * n), abs=1e-12)

    def test_gap_halves_with_n(self):
        f = function_preset("sin")
        x = 0.3
        gaps = []
        for n in (16, 32, 64, 128):
            a = apply_basic_batch(KERNEL, f, n, [[x]])[0]
            k = apply_kantorovich_batch(KERNEL, 5, f, n, [[x]])[0]
            gaps.append(abs(k - a))
        ratios = [gaps[i] / gaps[i + 1] for i in range(3)]
        assert 1.6 <= np.mean(ratios) <= 2.4

    def test_node_count_insensitive_for_smooth_f(self):
        f = function_preset("exp")
        a = apply_kantorovich_batch(KERNEL, 5, f, 32, [[0.5]])[0]
        b = apply_kantorovich_batch(KERNEL, 9, f, 32, [[0.5]])[0]
        assert a == pytest.approx(b, abs=1e-12)

    def test_two_dim_constant(self):
        class Flat:
            dim = 2

            @staticmethod
            def value(x, y):
                return np.ones_like(np.asarray(x) + np.asarray(y))

        got = apply_kantorovich_batch(KERNEL, 5, Flat(), 8, [[0.2], [0.9]])[0]
        assert got == pytest.approx(1.0, abs=1e-12)


class TestGaussRule:
    def test_one_rule_per_sweep(self, monkeypatch):
        # a Kantorovich sweep over 8 values of n builds its 5-node rule once
        legendre, calls = np.polynomial.legendre, []
        leggauss = legendre.leggauss
        monkeypatch.setattr(legendre, "leggauss", lambda g: calls.append(g) or leggauss(g))
        operators._gauss_rule.cache_clear()
        ns = [16, 24, 32, 48, 64, 96, 128, 256]
        (report,) = convergence_sweep("kantorovich", KERNEL, function_preset("sin"), ns,
                                      [(0.0, 1.0)], 11)()
        assert len(report.rows) == len(ns)
        assert calls == [5]

    def test_cached_rule_is_the_fresh_rule_on_the_unit_cell(self):
        operators._gauss_rule.cache_clear()
        for g in (2, 5, 9):
            offsets, weights = operators._gauss_rule(g)
            nodes, wts = np.polynomial.legendre.leggauss(g)
            assert np.array_equal(offsets, (nodes + 1.0) / 2.0)
            assert np.array_equal(weights, wts / 2.0)
            assert not offsets.flags.writeable and not weights.flags.writeable

    def test_one_entry_per_node_count(self):
        operators._gauss_rule.cache_clear()
        f = function_preset("sin")
        for g in (5, 9, 5, 9):
            apply_kantorovich_batch(KERNEL, g, f, 32, [[0.5]])
        assert operators._gauss_rule.cache_info().currsize == 2


class TestFractional:
    def test_negative_point_rejected(self):
        with pytest.raises(ValueError):
            apply_fractional_batch(KERNEL, HALF, function_preset("pow2"), 64, [[-0.1]])

    def test_two_dimensional_preset_rejected(self):
        with pytest.raises(ValueError, match="the fractional operator is one-dimensional"):
            apply_fractional_batch(KERNEL, HALF, function_preset("sin-exp"), 64, [[0.3]])

    def test_origin_lattice_point_needs_vanishing_f(self):
        # near the origin the window contains k = 0; with f(0) != 0 the
        # fractional derivative blows up there and the call must refuse
        with pytest.raises(ValueError, match="f\\(0\\)"):
            apply_fractional_batch(KERNEL, HALF, function_preset("constant"), 64, [[0.01]])
        # while f(0) = 0 makes the k = 0 term well defined
        got = apply_fractional_batch(KERNEL, HALF, function_preset("pow2"), 64, [[0.01]])[0]
        assert math.isfinite(got)

    def test_constant_matches_closed_form(self):
        # away from the origin Q_n tracks D^beta 1 = t^(-beta)/Gamma(1-beta)
        got = apply_fractional_batch(KERNEL, HALF, function_preset("constant"), 512, [[1.0]])[0]
        want = power_rule_oracle(0, 0.5, 1.0)
        assert want == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)
        assert got == pytest.approx(want, abs=2e-2)

    def test_quadratic_matches_closed_form(self):
        got = apply_fractional_batch(KERNEL, HALF, function_preset("pow2"), 512, [[1.0]])[0]
        want = power_rule_oracle(2, 0.5, 1.0)
        assert got == pytest.approx(want, abs=2e-2)

    def test_tracks_derivative_not_function(self):
        # the operator's target is D^beta f; on f(t) = t^2 at t = 1 the
        # two differ by half, so a misread target would fail loudly
        got = apply_fractional_batch(KERNEL, HALF, function_preset("pow2"), 512, [[1.0]])[0]
        assert abs(got - 1.0) > 0.4


def shift_case(name, n, reach):
    """Operator name as (run(kernel, axes), max|v|, max|f|, d) over the sites of reach (one array
    per axis): v the site values it sums, d None for a sum operator, else the weight rule of its
    denominator, site coordinates' open mesh -> weights."""
    mesh = np.ix_(*reach)
    if name in ("basic", "kantorovich"):
        vmax = float(np.max(np.abs(np.sin(reach[0]))))  # a cell average lies within them too
        if name == "basic":
            return lambda k, axes: apply_basic_batch(k, SIN, n, axes), vmax, vmax, None
        return lambda k, axes: apply_kantorovich_batch(k, 5, SIN, n, axes), vmax, vmax, None
    if name == "fractional":
        frac, nodes = FracConfig(0.4, 1e-3), reach[0][reach[0] > 0.0]
        table = (nodes, rl_derivative_batch(frac, POW2, nodes))
        vmax = float(np.max(np.abs(table[1])))
        return (lambda k, axes: apply_fractional_batch(k, frac, POW2, n, axes, table), vmax, vmax,
                lambda t: t[0] >= 0.0)
    chart = chart_preset(name, 2)
    f = np.abs(SIN_EXP.value(*mesh))
    return (lambda k, axes: operator_on_chart_batch(k, chart, SIN_EXP, n, axes),
            float(np.max(f / chart.sqrt_det_g(*mesh))), float(np.max(f)),
            lambda t: 1.0 / chart.sqrt_det_g(*t))


SIN, SIN_EXP, POW2 = (function_preset(name) for name in ("sin", "sin-exp", "pow2"))
COORDS = st.lists(st.floats(0.2, 0.8), min_size=1, max_size=6)


class TestQIsAShift:
    @pytest.mark.parametrize("name", ["basic", "kantorovich", "fractional", "euclidean",
                                      "poincare-half-plane"])
    @settings(deadline=None, max_examples=15)
    @given(q=st.floats(0.05, 0.9), alpha=st.floats(0.5, 2.0), n=st.integers(64, 2048), x=COORDS,
           y=COORDS)
    @example(q=0.5, alpha=1.0, n=64, x=[0.2, 0.8], y=[0.2])
    @example(q=0.9, alpha=0.5, n=64, x=[0.2, 0.5, 0.8], y=[0.8])
    @example(q=0.3, alpha=2.0, n=2048, x=[0.2, 0.8], y=[0.5])
    def test_the_q0_operator_at_x_plus_c_over_n(self, name, q, alpha, n, x, y):
        """op(kernel_q, n, x) = op(kernel_0, n, x + c/n), c = atanh(q)/alpha, within the window
        truncation.

        psi_q(u) = psi_0(u + c), so both sides truncate one lattice sum S = sum_k v_k Z_q(n x - k):
        side q keeps |k_i - n x_i| <= W_q, side 0 keeps |k_i - n x_i - c| <= W_0.  A side's window
        misses at most N eps of the kernel's mass (``truncation_radius``: eps per axis; a product
        window misses at most its axes' tails), so, with T = N 4 eps W above that, a sum
        operator's side is within T max|v| of S.  A ratio operator is N/D with D's weight rule
        d >= 0 (the chart's 1/sqrt(det g), the fractional k >= 0 mask) and v = f d (fractional:
        f's D^beta table); its full ratio R is a weighted mean of f, and a side's N_A/D_A - R =
        (R t_D - t_N)/D_A for the parts t_N, t_D it misses, so it is within T (max|v| + max|f|
        max d)/D_A of R, D_A the side's own weight sum.  The maxima are over the sites both
        windows reach (y on [1, 1.6]) and doubled: past the windows f, d and D^beta f grow by a
        few percent per site, where psi's tail falls by e^(-2 alpha) <= 1/e.  Rounding, a few
        1e-13 at most here, stays below a hundredth of every bound; a shift by -c/n breaks every
        bound.
        """
        kq, k0 = (DensityKernel(ActivationParams(v, alpha)) for v in (q, 0.0))
        c, dim = math.atanh(q) / alpha, 1 if name in ("basic", "kantorovich", "fractional") else 2
        axes = [np.array(x), np.array(y) + 0.8][:dim]
        w = max(kq.radius, k0.radius)
        reach = [np.arange(math.floor(n * a.min() - w) - 1, math.ceil(n * a.max() + c + w) + 2) / n
                 for a in axes]
        run, vmax, fmax, density = shift_case(name, n, reach)
        tails = [2 * dim * 4 * k.eps_trunc * k.radius for k in (kq, k0)]
        sides = [(kq, axes), (k0, [a + c / n for a in axes])]
        if density is None:
            bound = sum(tails) * vmax
        else:
            dmax = float(np.max(density(np.ix_(*reach))))
            masses = [lattice_sums(k, n, a, lambda sites: [density([s / n for s in sites])])[0]
                      for k, a in sides]
            bound = sum(t * (vmax + fmax * dmax) / np.min(m) for t, m in zip(tails, masses))
        got_q, got_0 = (run(k, a) for k, a in sides)
        assert np.max(np.abs(got_q - got_0)) <= bound


class TestVoronovskaya:
    def test_frozen_sin_correction(self):
        got = voronovskaya_corrections(KERNEL, 2, function_preset("sin"), 64, [[0.3]])[1, 0]
        assert got == pytest.approx(0.008142148086427846, rel=1e-12)

    def test_correction_captures_most_of_the_error(self):
        f = function_preset("sin")
        n, x = 64, 0.3
        err = apply_basic_batch(KERNEL, f, n, [[x]])[0] - f.value(x)
        corr = voronovskaya_corrections(KERNEL, 2, f, n, [[x]])[1, 0]
        assert abs(err - corr) < 1e-5
        assert abs(err - corr) < abs(err) / 100.0

    @pytest.mark.parametrize("m", [5, -1])
    def test_order_out_of_range(self, m):
        with pytest.raises(ValueError):
            voronovskaya_corrections(KERNEL, m, function_preset("sin"), 64, [[0.3]])

    def test_order_zero_has_no_rows_and_no_moments(self, monkeypatch):
        calls = []
        monkeypatch.setattr(operators, "axis_moments", lambda *a: calls.append(a))
        got = voronovskaya_corrections(KERNEL, 0, function_preset("sin-exp"), 64, [[0.3, 0.5], [0.7]])
        assert got.shape == (0, 2) and calls == []

    def test_order_capped_by_smoothness(self):
        with pytest.raises(ValueError, match="smoothness"):
            voronovskaya_corrections(KERNEL, 3, function_preset("abs25"), 64, [[0.3]])

    def test_two_dim_matches_manual_sum(self):
        f = function_preset("sin-exp")
        x = np.array([0.3, 0.7])
        n, m = 16, 2
        moments = [axis_moments(KERNEL, x[i:i + 1], n, m)[0] for i in range(2)]
        manual = 0.0
        for alpha in multi_indices(2, 1, m):
            d = f.derivative(alpha, *x)
            mom = moments[0][alpha[0]] * moments[1][alpha[1]]
            manual += d / math.prod(map(math.factorial, alpha)) * mom
        got = voronovskaya_corrections(KERNEL, m, f, n, [x[:1], x[1:]])[m - 1, 0]
        assert got == pytest.approx(manual, rel=1e-12)

    @pytest.mark.parametrize("name, axes", [
        ("sin", [[0.3, 0.55, 0.8, 0.12]]),
        ("sin-exp", [[0.3, 0.55, 0.8, 0.12], [0.7, 0.1, 0.45]]),
    ])
    def test_row_is_the_sum_of_its_order(self, name, axes):
        # row m - 1 is bit-identical to summing the terms of multi_indices(dim, 1, m) alone,
        # in their lexicographic order, with moments up to order m only
        f, n, m_max = function_preset(name), 16, 4
        grid = np.ix_(*[np.asarray(x) for x in axes])
        got = voronovskaya_corrections(KERNEL, m_max, f, n, axes)
        assert got.shape == (m_max, math.prod(len(x) for x in axes))
        for m in range(1, m_max + 1):
            moments = [axis_moments(KERNEL, x, n, m) for x in axes]
            want = np.zeros([len(x) for x in axes])
            for alpha in multi_indices(len(axes), 1, m):
                mom = 1.0
                for axis, p in enumerate(alpha):
                    mom = mom * moments[axis][:, p].reshape(grid[axis].shape)
                want = want + f.derivative(alpha, *grid) / math.prod(map(math.factorial, alpha)) * mom
            assert np.array_equal(got[m - 1], want.ravel())

    def test_grid_is_the_product_of_its_axes(self):
        # values in C order, each equal to the one-point call at that grid point
        f = function_preset("sin-exp")
        xs, ys = [0.3, 0.55, 0.8, 0.12], [0.7, 0.1, 0.45]
        got = voronovskaya_corrections(KERNEL, 3, f, 16, [xs, ys])
        want = [voronovskaya_corrections(KERNEL, 3, f, 16, [[x], [y]])[:, 0]
                for x in xs for y in ys]
        assert np.array_equal(got, np.transpose(want))
