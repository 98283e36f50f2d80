"""Density kernel, truncation window, lattice moments, multi-indices."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanhqi import (
    ActivationParams,
    DensityKernel,
    MultiIndex,
    lattice_window,
    moment,
    multi_indices,
    normalization_constant,
    partition_sum,
    psi_eval,
    truncation_radius,
    z_eval,
)
from tanhqi.kernel import MAX_POINT_WORK, point_work, window_rows, window_weights


def kernel(q=0.5, alpha=1.0, eps=1e-12):
    return DensityKernel(ActivationParams(q, alpha), eps_trunc=eps)


def raw_h(q, alpha, x):
    # independent scalar evaluation used as the in-test oracle
    ep, em = math.exp(alpha * x), math.exp(-alpha * x)
    return (ep - q * em) / ((1.0 + q) * ep + (1.0 - q) * em)


class TestNormalization:
    def test_constant_frozen(self):
        assert normalization_constant(ActivationParams(0.5, 1.0)) == pytest.approx(10.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("q", [0.1, 0.3, 0.7])
    def test_constant_formula(self, q):
        got = normalization_constant(ActivationParams(q, 2.0))
        assert got == pytest.approx(2.0 * (1.0 + q * q) / (1.0 - q * q), rel=1e-15)


class TestPsi:
    def test_center_against_raw_oracle(self):
        q, alpha = 0.5, 1.0
        expected = (raw_h(q, alpha, 1.0) - raw_h(q, alpha, -1.0)) / (10.0 / 3.0)
        got = psi_eval(kernel(), 0.0)
        assert got == pytest.approx(expected, rel=1e-15)
        assert got == pytest.approx(0.33403503062379875, rel=1e-15)

    def test_positive_inside_window(self):
        k = kernel()
        xs = np.linspace(-k.radius, k.radius, 4001)
        assert np.all(psi_eval(k, xs) > 0.0)
        # still resolvable beyond the truncation radius of a looser kernel
        loose = kernel(eps=1e-4)
        assert loose.radius < 12.0
        assert psi_eval(loose, 12.0) > 0.0
        assert psi_eval(loose, -12.0) > 0.0

    def test_asymmetric_tails(self):
        # the left tail carries more mass than the right one
        k = kernel()
        assert psi_eval(k, -2.0) > psi_eval(k, 2.0)
        assert psi_eval(k, 2.0) == pytest.approx(0.02116948219054735, rel=1e-12)
        assert psi_eval(k, -2.0) == pytest.approx(0.14069201948971086, rel=1e-12)

    def test_unit_mass_by_quadrature(self):
        k = kernel()
        nodes, weights = np.polynomial.legendre.leggauss(400)
        half = k.radius + 6.0
        mass = half * np.sum(weights * psi_eval(k, half * nodes))
        assert mass == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("x", [0.0, 0.37, -1.9, 4.4])
    def test_partition_of_unity(self, x):
        assert partition_sum(kernel(), x) == pytest.approx(1.0, abs=1e-12)


class TestTruncation:
    def test_frozen_radius(self):
        assert truncation_radius(ActivationParams(0.5, 1.0), 1e-12) == 16.0

    def test_loose_tolerance_gives_minimal_window(self):
        assert truncation_radius(ActivationParams(0.5, 1.0), 0.5) == 2.0

    def test_radius_nonincreasing_in_alpha(self):
        eps = 1e-12
        got = [truncation_radius(ActivationParams(0.5, a), eps) for a in (0.5, 1.0, 2.0)]
        assert got == [32.0, 16.0, 16.0]
        assert sorted(got, reverse=True) == got

    def test_radius_strictly_decreasing_for_small_q(self):
        eps = 1e-12
        got = [truncation_radius(ActivationParams(0.1, a), eps) for a in (0.5, 1.0, 2.0)]
        assert got == [32.0, 16.0, 8.0]

    def test_wide_kernel_window_holds_its_mass(self):
        # psi stays below eps everywhere, so psi(+-W) < eps alone would stop at W = 2
        k = kernel(alpha=1e-3, eps=1e-3)
        assert k.radius == 2048.0
        # 4 eps W = 8.2 is vacuous here; the window holds about 95% of the mass
        assert 1.0 - partition_sum(k, 0.3) < 0.06

    def test_search_stop_is_value_error(self):
        with pytest.raises(ValueError, match="2\\^40"):
            truncation_radius(ActivationParams(0.5, 1e-300), 1e-12)

    @pytest.mark.parametrize("eps", [1.0, 2.0, 0.0, -0.5])
    def test_invalid_tolerance_rejected(self, eps):
        with pytest.raises(ValueError):
            truncation_radius(ActivationParams(0.5, 1.0), eps)

    def test_tails_below_tolerance(self):
        k = kernel(q=0.3, alpha=1.5, eps=1e-10)
        assert psi_eval(k, k.radius) < 1e-10
        assert psi_eval(k, -k.radius) < 1e-10

    @pytest.mark.parametrize("u", [-3.7, 0.0, 0.3, 41.5])
    def test_window_weights_pair_window_with_psi(self, u):
        k = kernel()
        ks, ws = window_weights(k, u)
        assert np.array_equal(ks, lattice_window(k, u))
        assert np.array_equal(ws, psi_eval(k, u - ks))

    def test_lattice_window_contents(self):
        k = kernel(eps=0.5)
        win = lattice_window(k, 0.3)
        assert win[0] == math.ceil(0.3 - k.radius)
        assert win[-1] == math.floor(0.3 + k.radius)
        assert np.all(np.diff(win) == 1)


class TestWindowRows:
    def test_rows_hold_each_centres_window(self):
        # 3.0 is a lattice site (2W + 1 sites), so the other rows get one padded slot
        k = kernel()
        centres = [0.3, 3.0, -7.25]
        ks, ws = window_rows(k, centres)
        assert ks.shape == ws.shape == (3, 2 * int(k.radius) + 1)
        for row, u in enumerate(centres):
            win, weights = window_weights(k, u)
            assert np.array_equal(ks[row, :win.size], win)
            assert np.array_equal(ws[row, :win.size], weights)
            if win.size < ks.shape[1]:
                # the pad repeats the last site, with weight zero
                assert ks[row, -1] == win[-1] and ws[row, -1] == 0.0

    def test_off_site_rows_are_unpadded(self):
        k = kernel()
        ks, _ = window_rows(k, [0.3, 0.7, 41.5])
        assert ks.shape == (3, 2 * int(k.radius))

    def test_point_work_cap(self):
        k = kernel()
        assert point_work(k, 1) == 33
        assert point_work(k, 2, 25) == 33 * 33 * 25
        with pytest.raises(ValueError, match="one evaluation point needs"):
            point_work(k, 2, MAX_POINT_WORK)


class TestZEval:
    def test_product_structure(self):
        k = kernel()
        pt = np.array([0.3, -1.1, 2.0])
        expected = np.prod([psi_eval(k, float(c)) for c in pt])
        assert z_eval(k, pt) == pytest.approx(expected, rel=1e-14)

    def test_two_dim_partition(self):
        k = kernel()
        win = lattice_window(k, 0.0)
        ii, jj = np.meshgrid(win, win, indexing="ij")
        x = np.array([0.23, -0.61])
        total = np.sum(
            psi_eval(k, x[0] - ii) * psi_eval(k, x[1] - jj)
        )
        assert total == pytest.approx(1.0, abs=2e-12)


class TestMultiIndex:
    def test_order_and_factorial(self):
        mi = MultiIndex((2, 0, 1))
        assert mi.order == 3
        assert mi.factorial == 2

    def test_enumeration_is_lexicographic(self):
        got = [mi.entries for mi in multi_indices(2, 1, 2)]
        assert got == [(0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]

    def test_order_zero_single_index(self):
        got = multi_indices(3, 0, 0)
        assert len(got) == 1
        assert got[0].entries == (0, 0, 0)

    def test_order_cap_enforced(self):
        with pytest.raises(ValueError):
            moment(kernel(), MultiIndex((7,)), np.array([0.0]), 8)


class TestMoments:
    def test_zeroth_moment_is_partition_sum(self):
        k = kernel()
        x = np.array([0.43])
        m0 = moment(k, MultiIndex((0,)), x, 16)
        assert m0 == pytest.approx(1.0, abs=1e-12)

    def test_first_moment_bounded_by_radius(self):
        k = kernel()
        for p in (1, 2, 3):
            m = moment(k, MultiIndex((p,)), np.array([0.2]), 8)
            assert abs(m) <= (k.radius / 8.0) ** p + 1e-12

    def test_scaled_first_moment_depends_on_fractional_part_only(self):
        # n * M_1 is a function of frac(n x) alone, so these two agree
        k = kernel()
        a = 8 * moment(k, MultiIndex((1,)), np.array([0.25]), 8)
        b = 16 * moment(k, MultiIndex((1,)), np.array([0.125]), 16)
        assert a == pytest.approx(b, abs=1e-10)

    def test_scaled_first_moment_near_half(self):
        # the kernel is centered left of the origin, which shows up here
        k = kernel()
        val = 64 * moment(k, MultiIndex((1,)), np.array([0.3]), 64)
        assert val == pytest.approx(0.5493, abs=5e-3)

    def test_factorization_across_axes(self):
        k = kernel()
        x = np.array([0.3, -0.7])
        joint = moment(k, MultiIndex((1, 2)), x, 16)
        m1 = moment(k, MultiIndex((1,)), x[:1], 16)
        m2 = moment(k, MultiIndex((2,)), x[1:], 16)
        assert joint == pytest.approx(m1 * m2, rel=1e-12)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


class TestKernelProperties:
    @settings(deadline=None)
    @given(
        q=st.floats(0.01, 0.99),
        alpha=_log_uniform(1e-4, 4.0),
        eps=_log_uniform(1e-14, 1e-3),
        x=st.floats(-5.0, 5.0),
    )
    def test_positive_with_bounded_partition_deficit(self, q, alpha, eps, x):
        k = kernel(q, alpha, eps)
        assert psi_eval(k, x) > 0.0
        assert 1.0 - partition_sum(k, x) <= 4 * eps * k.radius
