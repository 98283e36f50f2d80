"""Density kernel, truncation window, lattice moments, multi-indices."""

import functools
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tanhqi import (
    ActivationParams,
    DensityKernel,
    apply_basic_batch,
    apply_kantorovich_batch,
    axis_moments,
    chart_preset,
    function_preset,
    kernel_mass,
    multi_indices,
    normalization_constant,
    operator_on_chart_batch,
    psi_eval,
    truncation_radius,
)
from tanhqi import kernel as kernel_module
from tanhqi import operators as operators_module
from tanhqi.kernel import (
    MAX_CENTRE,
    MAX_POINT_WORK,
    MAX_SUM_WORK,
    ONE_EXP_ALPHA,
    WINDOW_EXP_LIMIT,
    check_tables,
    lattice_sums,
    offset_powers,
    point_work,
    table_sites,
    window_index,
    window_rows,
    window_weights,
)


def kernel(q=0.5, alpha=1.0, eps=1e-12):
    return DensityKernel(ActivationParams(q, alpha), eps_trunc=eps)


def lattice_sum(k, x):
    # the truncated lattice sum sum_k psi(x - k) is the zeroth moment at n = 1
    return axis_moments(k, [x], 1, 0)[0, 0]


def own_sites(k, u):
    # the sites of u's window, as _window_ends counts them: 2W, or 2W + 1 for a lattice site;
    # a window_rows row's slots past them are its pad
    return int(math.floor(u + k.radius) - math.ceil(u - k.radius)) + 1


def raw_h(q, alpha, x):
    # independent scalar evaluation used as the in-test oracle
    ep, em = math.exp(alpha * x), math.exp(-alpha * x)
    return (ep - q * em) / ((1.0 + q) * ep + (1.0 - q) * em)


def mp_psi(q, alpha, xs, centre=0.0):
    # psi(centre + x), the sum taken exactly, as the naive difference (h(y+1) - h(y-1)) / C at
    # 80 digits plus the 2 alpha |y| / ln 10 digits it cancels in the tails (at 40 digits in
    # all it is off by 1e-13 at (0.1, 4))
    mp = pytest.importorskip("mpmath")
    reach = max((abs(centre + x) for x in xs), default=0.0) + 1.0
    with mp.workdps(80 + math.ceil(2.0 * alpha * reach / math.log(10.0))):
        q, a = mp.mpf(q), mp.mpf(alpha)

        def h(y):
            u = mp.exp(2 * a * y)
            return (u - q) / ((1 + q) * u + 1 - q)

        ys = [mp.mpf(centre) + mp.mpf(x) for x in xs]
        return np.array([float((h(y + 1) - h(y - 1)) * (1 - q * q) / (2 * (1 + q * q)))
                         for y in ys])


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


def gamma(m):
    # Higham's gamma_m = m u / (1 - m u), u = 2^-53, bounds m relative roundings
    return m * 2.0**-53 / (1.0 - m * 2.0**-53)


def eval_roundings(k):
    """m such that psi_eval(u - k) is within gamma_m of psi at the exact u - k, |u - k| <= W + 1.

    Counts follow Higham, Accuracy and Stability of Numerical Algorithms,
    3.1, to first order in u = 2^-53, with an exp or expm1 as 2 roundings
    (within one ulp).  psi = s v /
    D(v) has |d ln psi / d ln v| <= 1, so an error in v or in e^(2 alpha
    (x +- 1)) reaches psi at most as large.  Up to ONE_EXP_ALPHA: u - k
    rounds once and -2 alpha x once, an error of 2 alpha (W + 1) 2u in the
    exponent; exp adds 2; s = (1-q)(1+q)(1 - e^2)/2 takes 6, each factor
    (A/v + B e, A e + B v) 5, their product and the quotient 1 each: m =
    4 alpha (W + 1) + 20.  Above it each factor's exponent -2 alpha (x +- 1)
    carries x's rounding, the +-1's and the product's, 2 alpha (3W + 5) u,
    plus 5 in the factor; with s and the last two roundings, m = 4 alpha
    (3W + 5) + 18, taken as + 20.
    """
    a, w = k.params.alpha, k.radius
    return 4 * a * (w + 1) + 20 if a <= ONE_EXP_ALPHA else 4 * a * (3 * w + 5) + 20


def weight_roundings(k):
    """m such that every window weight is within gamma_m of psi at the exact u - k.

    The per-centre rule, v = e^(2 alpha (c - u)) R_j, R_j = e^(2 alpha (j -
    W)), psi = v / (c1 + v (c0 + c2 v)), counted as in ``eval_roundings``:
    c - u in [0, 1) rounds once and 2 alpha (c - u) once, at most 2 alpha
    2u in the exponent; 2 alpha (j - W) rounds once, at most 2 alpha W u;
    two exps and the product add 5, so v is within 2 alpha (W + 2) + 5.
    With s at 6, c1 = A^2 e / s and c2 = B^2 e / s take 13 roundings and
    c0 = A B (1 + e^2) / s 17; Horner's two multiplies and two adds keep
    every term of the positive denominator within 20, and the quotient
    adds 1: m = 2 alpha (W + 2) + 26.  Past WINDOW_EXP_LIMIT the weights
    are psi_eval's.
    """
    a, w = k.params.alpha, k.radius
    if 2 * a * (w + 1) > WINDOW_EXP_LIMIT:
        return eval_roundings(k)
    return 2 * a * (w + 2) + 26


def underflow_floor(k):
    # psi_eval reads 0 or subnormal only where psi < (1+q)/(1-q) e^(2 alpha - 708) (see
    # kernel.ONE_EXP_ALPHA); above ONE_EXP_ALPHA, only where psi < e^-708
    q, a = k.params.q, k.params.alpha
    return (1.0 + q) / (1.0 - q) * math.exp(2.0 * a - 708.0)


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

    @pytest.mark.parametrize("q, alpha", [(0.5, 1.0), (0.9, 0.3), (0.1, 4.0), (0.05, 0.05),
                                          (0.95, 2.0)])
    def test_unit_mass_closed_form(self, q, alpha):
        # Psi(inf) - Psi(-inf) = 1; 40/alpha past W the tails hold less than e^-80
        k = kernel(q, alpha)
        r = k.radius + 40.0 / alpha
        assert kernel_mass(k, [(-r, r)]) == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("x", [0.0, 0.37, -1.9, 4.4])
    def test_partition_of_unity(self, x):
        assert lattice_sum(kernel(), x) == pytest.approx(1.0, abs=1e-12)


class TestClosedForm:
    @pytest.mark.parametrize("q, alpha", [(0.5, 1.0), (0.5, 1 / 16), (0.9, 0.3), (0.1, 4.0)])
    def test_window_against_high_precision_reference(self, q, alpha):
        # the difference of two h values read 0 at 56 (0.9, 0.3) and 722 (0.1, 4) of these
        k = kernel(q, alpha)
        xs = np.linspace(-k.radius - 1.0, k.radius + 1.0, 2001)
        got = psi_eval(k, xs)
        assert np.all(got > 0.0)
        assert np.max(np.abs(got / mp_psi(q, alpha, xs) - 1.0)) <= 1e-14

    def test_frozen_tails(self):
        # mp_psi's values, which the difference of two h values read as 0.0
        k = kernel()
        assert psi_eval(k, 32.0) == pytest.approx(1.9389327402015744e-28, rel=1e-13)
        assert psi_eval(k, -32.0) == pytest.approx(1.7450394661814168e-27, rel=1e-13)

    @pytest.mark.parametrize("q, alpha", [(0.5, 1.0), (0.5, 1 / 16), (0.9, 0.3), (0.1, 4.0),
                                          (0.99, 1e-4), (0.5, 100.0), (0.5, 1e308)])
    def test_finite_and_nonnegative_for_every_x(self, q, alpha):
        # v = e^(-2 alpha x) overflows for x < -709 / (2 alpha): inf / inf must not be NaN
        k = kernel(q, alpha)
        mags = np.geomspace(1e-300, 1e308, 400)
        xs = np.concatenate([mags, -mags, [0.0, 1.0, -1.0, -1000.0, 1000.0]])
        got = psi_eval(k, xs)
        assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
        assert psi_eval(k, -1e308) == 0.0 and psi_eval(k, 1e308) == 0.0

    def test_huge_alpha_is_the_limit_box(self):
        # e = e^(-2 alpha) underflows to 0: psi is 1/2 on |x| < 1 and (1 -+ q)/4 at x = +-1, exactly
        k = kernel(alpha=1e308)
        assert k.radius == 2.0
        xs = np.array([-2.0, -1.5, -1.0, -0.999, -0.5, 0.0, 0.5, 0.999, 1.0, 1.5, 2.0])
        want = [0.0, 0.0, 0.375, 0.5, 0.5, 0.5, 0.5, 0.5, 0.125, 0.0, 0.0]
        assert np.array_equal(psi_eval(k, xs), want)

    @pytest.mark.parametrize("alpha", [100.0, 350.0, 372.3, 1e308])
    def test_partition_of_unity_for_steep_kernels(self, alpha):
        # one exp per site loses psi near x = -1 where v overflows: 8e-5 off at alpha = 350,
        # 1/2 off from alpha = 355; exp(2 alpha (x +- 1)) rounds to about 1e-14 here
        sums = axis_moments(kernel(alpha=alpha), np.linspace(-1.0, 1.0, 201), 1, 0)[:, 0]
        assert np.max(np.abs(sums - 1.0)) <= 1e-13

    def test_forms_agree_across_one_exp_alpha(self):
        # one exp per site up to ONE_EXP_ALPHA, one per factor above: the two forms meet
        xs = np.linspace(-4.0, 4.0, 801)
        below = psi_eval(kernel(alpha=ONE_EXP_ALPHA), xs)
        above = psi_eval(kernel(alpha=math.nextafter(ONE_EXP_ALPHA, math.inf)), xs)
        assert np.all(below > 0.0)
        assert np.max(np.abs(above / below - 1.0)) <= 1e-12


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
        assert 1.0 - lattice_sum(k, 0.3) < 0.06

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

    @pytest.mark.parametrize("eps", [1e-6, 1e-14, 1e-22, 1e-30])
    @pytest.mark.parametrize("alpha", [1 / 16, 0.3, 1.0, 4.0])
    @pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 0.99])
    def test_neglected_mass_within_bound(self, q, alpha, eps):
        # a cancelled zero stopped the search at W = 32 for (0.5, 1, 1e-30), leaving 1.3e-27
        k = kernel(q, alpha, eps)
        w = k.radius
        assert np.all(mp_psi(q, alpha, [w, -w]) < eps)
        # the tails beyond W, to where they fall below e^-120 of psi(+-W)
        far = w + 1.0 + 60.0 / alpha
        for u in (0.0, 0.25, 0.5, 0.75):
            d = u - np.arange(math.floor(u - far), math.ceil(u + far) + 1)
            assert math.fsum(psi_eval(k, d[np.abs(d) > w])) <= 4 * eps * w

    @pytest.mark.parametrize("u", [-3.7, 0.0, 0.3, 41.5])
    def test_window_weights_pair_window_with_psi(self, u):
        # on the window's own sites, the weights are the one-centre rule from the row's first
        # site, and within both rules' forward-error bounds of psi_eval
        k = kernel()
        ks, ws = (a[0, :own_sites(k, u)] for a in window_rows(k, [u]))
        assert np.array_equal(ws, window_weights(k, np.array([u]), ks[:1])(ks.size)[0])
        want = psi_eval(k, u - ks)
        bound = gamma(weight_roundings(k)) + gamma(eval_roundings(k))
        assert np.all(np.abs(ws - want) <= bound * want)

    def test_lattice_window_contents(self):
        # 0.3's window has 2W sites; its row's last slot repeats the last one at weight zero
        k = kernel(eps=0.5)
        win, weights = (a[0] for a in window_rows(k, [0.3]))
        assert win.size == 2 * int(k.radius) + 1
        assert win[0] == math.ceil(0.3 - k.radius)
        assert win[-2] == win[-1] == math.floor(0.3 + k.radius)
        assert np.all(np.diff(win[:-1]) == 1)
        assert weights[-1] == 0.0 and np.all(weights[:-1] > 0.0)


class TestWindowRows:
    @settings(deadline=None)
    @given(q=st.floats(0.05, 0.95), alpha=_log_uniform(1 / 32, 2 * ONE_EXP_ALPHA),
           eps=_log_uniform(1e-300, 1e-3),
           on=st.lists(st.integers(-60, 60).map(float), min_size=1, max_size=3),
           off=st.lists(st.floats(-60.0, 60.0).filter(lambda u: u != round(u)),
                        min_size=1, max_size=3))
    # 3.0 is a lattice site (2W + 1 sites), the others have 2W sites and one pad slot
    @example(q=0.5, alpha=1.0, eps=1e-12, on=[3.0], off=[0.3, -7.25])
    def test_rows_hold_each_centres_window(self, q, alpha, eps, on, off):
        # a row of a batch mixing on-site (full) and off-site (padded) rows is its centre's
        # one-row call bit for bit: a window sum depends neither on CHUNK_ELEMENTS nor on
        # the other points of its call
        k = kernel(q, alpha, eps)
        centres = off[:1] + on + off[1:]
        ks, ws = window_rows(k, centres)
        width = 2 * int(k.radius) + 1
        assert ks.shape == ws.shape == (len(centres), width)
        for row, u in enumerate(centres):
            win, weights = (a[0] for a in window_rows(k, [u]))
            assert np.array_equal(ks[row], win) and np.array_equal(ws[row], weights)
            sites = own_sites(k, u)
            assert np.all(np.diff(win[:sites]) == 1)
            if sites < width:
                # the pad repeats the last site, with weight exactly zero
                assert sites == width - 1 and win[-1] == win[-2] and weights[-1] == 0.0

    def test_off_site_rows_pad_their_last_slot(self):
        # 2W sites in 2W + 1 slots, the last repeating the last site at weight zero
        k = kernel()
        ks, ws = window_rows(k, [0.3, 0.7, 41.5])
        assert ks.shape == (3, 2 * int(k.radius) + 1)
        assert np.all(ks[:, -1] == ks[:, -2]) and np.all(ws[:, -1] == 0.0)

    @pytest.mark.parametrize("x", [[], np.empty(0), [[0.3]], 0.3])
    def test_empty_or_non_1d_centres_rejected(self, x):
        # check_axes' rule and message, before any window end is formed
        k = kernel()
        with pytest.raises(ValueError, match="non-empty 1-D coordinate arrays"):
            window_rows(k, x)
        with pytest.raises(ValueError, match="non-empty 1-D coordinate arrays"):
            axis_moments(k, x, 8, 2)

    def test_point_work_cap(self):
        k = kernel()
        assert point_work(k, 1) == 33
        assert point_work(k, 2, 25) == 33 * 33 * 25
        with pytest.raises(ValueError, match="cells of one kernel window need"):
            point_work(k, 2, MAX_POINT_WORK)
        # alpha 1e-6 gives W = 2^23: one window spans 2^24 + 1 sites and takes no quadrature
        with pytest.raises(ValueError, match="one kernel window holds 16777217 lattice sites") as exc:
            point_work(kernel(alpha=1e-6), 1)
        assert "quad" not in str(exc.value)


class TestWindowWeights:
    @settings(deadline=None, max_examples=60)
    @given(q=st.floats(0.05, 0.95), alpha=_log_uniform(1 / 32, 2 * ONE_EXP_ALPHA),
           eps=_log_uniform(1e-300, 1e-3), u=st.floats(-60.0, 60.0),
           picks=st.lists(st.floats(0.0, 1.0), max_size=24))
    # one exp per centre; psi_eval past WINDOW_EXP_LIMIT, below and above ONE_EXP_ALPHA
    @example(q=0.5, alpha=2**0.5, eps=1e-12, u=0.3, picks=[])
    @example(q=0.5, alpha=1.0, eps=1e-300, u=0.3, picks=[])
    @example(q=0.5, alpha=128.0, eps=1e-12, u=0.3, picks=[])
    def test_within_the_derived_bound_of_the_exact_kernel(self, q, alpha, eps, u, picks):
        k = kernel(q, alpha, eps)
        ks, ws = (a[0, :own_sites(k, u)] for a in window_rows(k, [u]))
        # both ends, the peak and random sites; the exact kernel at the exact offset u - k
        cols = np.unique([0, ks.size - 1, int(np.argmax(ws)),
                          *(int(p * (ks.size - 1)) for p in picks)])
        exact = mp_psi(q, alpha, -ks[cols], centre=u)
        # one more rounding for the oracle's own float
        bound = gamma(weight_roundings(k) + 1) * exact + underflow_floor(k)
        assert np.all(np.abs(ws[cols] - exact) <= bound)

    @pytest.mark.parametrize("q", [0.01, 0.99])
    @pytest.mark.parametrize("eps", [1e-12, 1e-100, 1e-300])
    @pytest.mark.parametrize("alpha", [1 / 32, 64.0, 128.0])
    def test_finite_and_positive_at_the_edges(self, q, alpha, eps):
        k = kernel(q, alpha, eps)
        x = np.array([-0.5, 0.0, 0.3, 0.99])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ks, ws = window_rows(k, x)
            sums = axis_moments(k, x, 1, 0)[:, 0]
        pad = np.zeros(ws.shape, dtype=bool)
        pad[:, -1] = np.floor(x + k.radius) - np.ceil(x - k.radius) + 1 < ws.shape[1]
        assert np.all(np.isfinite(ws)) and np.all(ws[pad] == 0.0)
        assert np.all(ws[~pad][psi_eval(k, (x[:, None] - ks)[~pad]) > 0.0] > 0.0)
        # the neglected mass, then each weight's rounding and a pairwise sum's over the row
        # (Higham 3.1), and what a weight below the underflow floor may lose
        width = ws.shape[1]
        slack = gamma(weight_roundings(k)) + gamma(width) + width * underflow_floor(k)
        assert np.all(np.abs(sums - 1.0) <= 4 * eps * k.radius + slack)


class TestZEval:
    def test_two_dim_partition(self):
        k = kernel()
        win = window_rows(k, [0.0])[0][0]
        ii, jj = np.meshgrid(win, win, indexing="ij")
        x = np.array([0.23, -0.61])
        total = np.sum(
            psi_eval(k, x[0] - ii) * psi_eval(k, x[1] - jj)
        )
        assert total == pytest.approx(1.0, abs=2e-12)


class TestMultiIndex:
    def test_enumeration_is_lexicographic(self):
        assert multi_indices(2, 1, 2) == ((0, 1), (0, 2), (1, 0), (1, 1), (2, 0))

    def test_order_zero_single_index(self):
        assert multi_indices(3, 0, 0) == ((0, 0, 0),)


class TestMoments:
    def test_zeroth_moment_is_partition_sum(self):
        k = kernel()
        m0 = axis_moments(k, [0.43], 16, 0)[0, 0]
        assert m0 == pytest.approx(1.0, abs=1e-12)

    def test_first_moment_bounded_by_radius(self):
        k = kernel()
        moments = axis_moments(k, [0.2], 8, 3)[0]
        for p in (1, 2, 3):
            assert abs(moments[p]) <= (k.radius / 8.0) ** p + 1e-12

    def test_scaled_first_moment_depends_on_fractional_part_only(self):
        # n * M_1 is a function of frac(n x) alone, so these two agree
        k = kernel()
        a = 8 * axis_moments(k, [0.25], 8, 1)[0, 1]
        b = 16 * axis_moments(k, [0.125], 16, 1)[0, 1]
        assert a == pytest.approx(b, abs=1e-10)

    def test_scaled_first_moment_near_half(self):
        # the kernel is centered left of the origin, which shows up here
        k = kernel()
        val = 64 * axis_moments(k, [0.3], 64, 1)[0, 1]
        assert val == pytest.approx(0.5493, abs=5e-3)

    def test_factorization_across_axes(self):
        k = kernel()
        x = np.array([0.3, -0.7])
        # the 2-D lattice sum of (k/n - x)^(1, 2) Z(n x - k) against the axis product
        (joint,) = lattice_sums(k, 16, [x[:1], x[1:]],
                                lambda sites: [(sites[0] / 16 - x[0]) * (sites[1] / 16 - x[1]) ** 2])
        m1 = axis_moments(k, x[:1], 16, 1)[0, 1]
        m2 = axis_moments(k, x[1:], 16, 2)[0, 2]
        assert joint[0] == pytest.approx(m1 * m2, rel=1e-12)



class TestOffsetPowers:
    @pytest.mark.parametrize("p_max", [2, 4, 7])
    def test_sign_symmetric_and_within_one_ulp_of_pow(self, p_max):
        # moment offsets of both signs over many binades; at o**p, (-o)**3 and -(o**3) differed
        # in 5% of such values, since numpy's ** takes libm for negative bases only
        rng = np.random.default_rng(20)
        o = rng.uniform(-1.0, 1.0, 4096) * 2.0 ** rng.integers(-30, 8, 4096).astype(float)
        powers = list(zip(offset_powers(o, p_max), offset_powers(-o, p_max)))
        assert len(powers) == p_max
        for p, (plus, minus) in enumerate(powers, 1):
            assert np.array_equal(minus, (-1.0) ** p * plus)
            want = np.array([math.pow(v, p) for v in o])
            assert np.all(np.abs(plus - want) <= np.spacing(np.abs(want)))

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
        assert 1.0 - lattice_sum(k, x) <= 4 * eps * k.radius

    @settings(deadline=None)
    @given(q=st.floats(0.01, 0.99), alpha=_log_uniform(1e-3, 50.0), eps=_log_uniform(1e-30, 1e-3))
    def test_positive_across_the_whole_window(self, q, alpha, eps):
        k = kernel(q, alpha, eps)
        xs = np.linspace(-k.radius - 1.0, k.radius + 1.0, 4001)
        assert np.all(psi_eval(k, xs) > 0.0)


class TestTableSites:
    @settings(deadline=None)
    @given(q=st.floats(0.05, 0.95), alpha=_log_uniform(0.05, 4.0), n=st.integers(1, 64),
           data=st.data())
    def test_sites_are_the_union_of_the_windows(self, q, alpha, n, data):
        # unsorted, repeated (step 0), gapped, negative and on-site centres; a step of
        # 2W + 2 between two sites leaves exactly one site out between their windows
        k = kernel(q, alpha)
        w = k.radius
        start = data.draw(st.integers(-3000, 3000).map(float) | st.floats(-3000.0, 3000.0))
        step = st.sampled_from([0.0, 2 * w, 2 * w + 1.0, 2 * w + 2.0, 2 * w + 2.5])
        steps = data.draw(st.lists(step | st.floats(0.0, 8.0 * w), max_size=30))
        centres = data.draw(st.permutations(list(start + np.cumsum([0.0] + steps))))
        x = np.array(centres) / n
        u = n * x
        want = np.unique(np.concatenate(
            [np.arange(math.ceil(c - w), math.floor(c + w) + 1) for c in u]))
        sites = table_sites(k, n, [x])
        assert np.array_equal(sites[0], want)
        index, weights = window_index(k, n, x, sites[0])
        ks, ws = window_rows(k, u)
        # pads included: a pad indexes its row's last site
        assert np.array_equal(sites[0][index], ks)
        assert np.array_equal(weights, ws)

    def test_two_axes_broadcast_to_the_table(self):
        # centres 4.8 and 32 (a site) reach -11..48; 24 and 25.6 reach 8..41
        sites = table_sites(kernel(), 16, [[0.3, 2.0], [1.5, 1.6]])
        assert sites[0].shape == (60, 1) and sites[1].shape == (1, 34)

    def test_gaps_take_no_space(self):
        sites = table_sites(kernel(), 1, [[0.5, 4096.5], [0.5, 4096.5]])
        assert [s.size for s in sites] == [64, 64]

    def test_exact_table_size_checked(self):
        # windows every 33 sites touch, so each axis is one run -16..4207: 4224^2 = 17.8e6 > 2^24
        x = np.arange(0.0, 4200.0, 33.0)
        with pytest.raises(ValueError, match="the lattice table needs 4224 x 4224 sites"):
            table_sites(kernel(), 1, [x, x])

    def test_oversized_table_rejected_before_it_is_built(self):
        # 2^20 centres 40 apart reach 33 sites each, 34.6e6 in all; the count needs only
        # the window ends, a few arrays the size of the input
        x = np.arange(2.0**20) * 40.0
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="the lattice table needs 34603008 sites"):
                table_sites(kernel(), 1, [x])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * x.nbytes

    @pytest.mark.parametrize("n", [16, 2048])
    def test_sites_take_few_temporaries(self, n):
        # the window ends reuse n x, so the peak is the sorted centres and two ends
        x = (np.arange(2.0**20) + 0.5) / 2.0**20
        tracemalloc.start()
        try:
            table_sites(kernel(), n, [x])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * x.nbytes

    def test_huge_centre_rejected_without_overflow(self):
        # 64 x 1e308 is inf: checked before n x is formed, so no overflow warning either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="2\\^52"):
                table_sites(kernel(), 64, [[1e308]])

    def test_sum_work_capped_exactly(self):
        # alpha 1e-4: W = 2^17, windows of 2^18 + 1 sites; 8192 points pay 2^31 + 8192
        # multiply-adds, one point fewer stays under the cap
        k = kernel(alpha=1e-4)
        assert k.radius == 2.0**17 and MAX_SUM_WORK == 2**31
        table_sites(k, 1, [np.linspace(0.0, 1.0, 8191)])
        with pytest.raises(ValueError, match=f"a lattice sum needs {2**31 + 8192} multiply-adds"):
            table_sites(k, 1, [np.linspace(0.0, 1.0, 8192)])

    def test_sum_work_counts_each_axis(self):
        # axis 0: 65536 points x 33 window sites x 34 sites of axis 1; axis 1: 65536 x 1000
        # points x 33 sites: 2236219392 in all, though the table holds only 34 x 34 sites
        x, y = np.linspace(0.0, 1.0, 65536), np.linspace(0.0, 1.0, 1000)
        with pytest.raises(ValueError, match="a lattice sum needs 2236219392 multiply-adds "
                                             "\\(> 2147483648\\): 65536 x 1000 points, windows "
                                             "of 33 sites per axis, 34 x 34 table sites"):
            check_tables(kernel(), [x, y], [1])

    def test_check_tables_runs_each_n_then_its_site_rule(self):
        # n = 16 and 64 pass and meet the rule with their own open mesh; at n = 2^16 the
        # windows part, 32 or 33 sites around each of the 1001 centres, past the cap
        seen = []
        x = np.linspace(0.0, 1.0, 1001)
        with pytest.raises(ValueError, match="the lattice table needs 32041 x 32041 sites"):
            check_tables(kernel(), [x, x], [16, 64, 2**16],
                         lambda n, sites: seen.append((n, [s.shape for s in sites])))
        assert seen == [(16, [(49, 1), (1, 49)]), (64, [(97, 1), (1, 97)])]


class TestLatticeSums:
    def test_grid_order_and_broadcast_tables(self):
        # sum_k (k_0/n) Z(n x - k) = (x M_0(x) + M_1(x)) M_0(y), and a constant table gives M_0 M_0
        k, n = kernel(), 16
        x, y = np.array([0.7, -0.2, 0.7, 0.31]), np.array([1.5, 0.05])
        first, ones = lattice_sums(k, n, [x, y], lambda sites: [sites[0] / n, 1.0])
        mx, my = axis_moments(k, x, n, 1), axis_moments(k, y, n, 0)
        want = np.outer(x * mx[:, 0] + mx[:, 1], my[:, 0]).ravel()
        assert np.allclose(first, want, rtol=1e-14, atol=0.0)
        assert np.allclose(ones, np.outer(mx[:, 0], my[:, 0]).ravel(), rtol=1e-15, atol=0.0)

    def test_three_axes_against_each_point_window(self):
        # a 3-D table is one chunk per first-axis point here; each point sums its own windows
        k, n = kernel(), 8
        axes = [np.array([0.1, 0.9, 0.4]), np.array([-0.3, 0.2]), np.array([0.6])]
        (got,) = lattice_sums(k, n, axes, lambda sites: [np.exp(sites[0] / n - sites[1] / n)
                                                       + np.cos(sites[2] / n)])
        want = []
        for point in itertools.product(*axes):
            ks, ws = zip(*(window_rows(k, [n * c]) for c in point))
            grid = np.meshgrid(*[kk[0] / n for kk in ks], indexing="ij")
            weights = np.einsum("i,j,l->ijl", *[w[0] for w in ws])
            want.append(np.sum((np.exp(grid[0] - grid[1]) + np.cos(grid[2])) * weights))
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)


# W = 16 at n = 1: 3.0 and 6.0 are lattice sites with 33-site windows, -13..19 and -10..22;
# 1.5 and 5.5 have 32 sites, -14..17 and -10..21.  In [3.0, 5.5] the 32-site window ends on
# the table's last site; in [1.5, 6.0] the 33-site one does.  The later axis's 2.0 is a site.
PAD_CASES = [[3.0, 5.5], [1.5, 6.0], [5.5, 1.5, 3.0, 5.5]]


def pad_tables(sites):
    # a full table and two broadcast ones (a 1-D grid sees three full tables)
    return [np.exp(sum(s / (7.0 + i) for i, s in enumerate(sites))),
            np.cos(sites[-1] / 5.0), np.exp(sites[0] / 7.0)]


class TestPadSlot:
    @pytest.mark.parametrize("x", PAD_CASES)
    @pytest.mark.parametrize("dim", [1, 2])
    def test_pad_adds_exactly_zero(self, x, dim):
        # each row of the call equals its point's sum alone: the first axis sums each window
        # without a pad, whatever the other widths, and a later axis gives every row 2W + 1
        # slots, an off-site row's pad last at weight zero
        k = kernel()
        axes = [np.array(x)] + [np.array([0.25, 2.0, -3.5])] * (dim - 1)
        together = lattice_sums(k, 1, axes, pad_tables)
        rows = math.prod(a.size for a in axes[1:])
        for i in range(len(x)):
            alone = lattice_sums(k, 1, [axes[0][i:i + 1], *axes[1:]], pad_tables)
            for t, a in zip(together, alone):
                assert np.array_equal(t[i * rows:(i + 1) * rows], a)

    @pytest.mark.parametrize("x", PAD_CASES)
    def test_broadcast_table_sums_like_its_copy(self, x):
        k = kernel()
        axes = [np.array(x), np.array([0.25, 2.0, -3.5, 2.0])]

        def copies(sites):
            shape = np.broadcast_shapes(*(s.shape for s in sites))
            # .copy() is C-ordered; np.array would copy in the broadcast table's own order
            return [np.broadcast_to(t, shape).copy() for t in pad_tables(sites)]

        for a, b in zip(lattice_sums(k, 1, axes, pad_tables), lattice_sums(k, 1, axes, copies)):
            assert np.array_equal(a, b)



def off_site(lo, hi, points, n):
    # a grid on (lo, hi) with no lattice-site centre n x: every window has 2W sites
    x = lo + (hi - lo) * (np.arange(points) + 0.37) / points
    assert np.all(n * x != np.floor(n * x))
    return x


class CountedNumpy:
    # numpy, recording the argument shape of each np.exp call
    def __init__(self):
        self.exp_shapes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        self.exp_shapes.append(np.shape(x))
        return np.exp(x, *args, **kwargs)


def mixed(x, n):
    # x holds both lattice-site centres n x (2W + 1-site windows) and off-site ones (2W sites)
    on = n * x == np.floor(n * x)
    assert on.any() and not on.all()
    return x


# alpha 1, 0.3, 0.125 and 1/16 give W = 16, 64, 128 and 256
WINDOW_ALPHAS = [1.0, 0.3, 0.125, 1 / 16]


class TestWindowPlan:
    @pytest.mark.parametrize("alpha", WINDOW_ALPHAS)
    def test_chunk_size_changes_no_bit(self, monkeypatch, alpha):
        # a row's sum depends on its own windows only, and a Kantorovich cell average on its own
        # samples, so neither the chunk size nor the other points of a chunk move it, on grids
        # with or without lattice-site centres
        k = kernel(alpha=alpha)
        n = int(k.radius) + 8
        runge, sin_exp = function_preset("runge"), function_preset("sin-exp")
        grids = {
            "off-site": (off_site(-0.5, 0.5, 301, n),
                         [off_site(-0.5, 0.5, 23, n), off_site(1.0, 2.0, 5, n)]),
            "site centres": (mixed(np.linspace(-0.5, 0.5, 301), n),
                             [mixed(np.linspace(-0.5, 0.5, 23), n),
                              mixed(np.linspace(1.0, 2.0, 11), n)]),
        }
        half_plane, torus = chart_preset("poincare-half-plane"), chart_preset("torus", 1)
        calls = {}
        for grid, (line, plane) in grids.items():
            calls.update({
                (grid, "basic 1-D"): functools.partial(apply_basic_batch, k, runge, n, [line]),
                (grid, "basic 2-D"): functools.partial(apply_basic_batch, k, sin_exp, n, plane),
                (grid, "chart 1-D"): functools.partial(operator_on_chart_batch, k, torus, runge,
                                                       n, [line]),
                (grid, "chart 2-D"): functools.partial(operator_on_chart_batch, k, half_plane,
                                                       sin_exp, n, plane),
                (grid, "moments"): functools.partial(axis_moments, k, line, n, 4),
                (grid, "Kantorovich 1-D"): functools.partial(apply_kantorovich_batch, k, 5, runge,
                                                             n, [line]),
            })
            # (n + 2W)^2 table cells of 25 samples, at 2^6 elements two per slab: 0.9 s a call
            # at W = 64, about 14 s at W = 256
            if k.radius <= 64:
                calls[grid, "Kantorovich 2-D"] = functools.partial(apply_kantorovich_batch, k, 5,
                                                                   sin_exp, n, plane)
        want = {name: call() for name, call in calls.items()}
        for elements in (2**6, 2**9, 2**13, 2**16):
            # operators binds the name at import, for Kantorovich's cell slabs
            monkeypatch.setattr(kernel_module, "CHUNK_ELEMENTS", elements)
            monkeypatch.setattr(operators_module, "CHUNK_ELEMENTS", elements)
            for name, call in calls.items():
                assert np.array_equal(call(), want[name]), (name, elements)

    @pytest.mark.parametrize("alpha", WINDOW_ALPHAS)
    def test_a_point_alone_equals_its_row(self, alpha):
        # each axis mixes lattice-site centres (0, 0.25, 0.5; 1 and 1.5) with off-site ones, so
        # a batch mixes 2W- and 2W + 1-site windows on the first and on the later axis; a
        # point's value computed alone equals its row bit for bit
        k = kernel(alpha=alpha)
        n = int(k.radius) + 8
        x = mixed(np.array([0.3, 0.5, -0.21, 0.25, 0.0]), n)
        y = mixed(np.array([1.3, 1.0, 1.77, 1.5]), n)
        half_plane, sin_exp = chart_preset("poincare-half-plane"), function_preset("sin-exp")
        (sums,) = lattice_sums(k, n, [x], lambda sites: [np.exp(sites[0] / n)])
        moments = axis_moments(k, x, n, 4)
        chart = operator_on_chart_batch(k, half_plane, sin_exp, n, [x, y]).reshape(x.size, y.size)
        for i in range(x.size):
            one = x[i:i + 1]
            assert np.array_equal(lattice_sums(k, n, [one], lambda sites: [np.exp(sites[0] / n)])[0],
                                  sums[i:i + 1])
            assert np.array_equal(axis_moments(k, one, n, 4), moments[i:i + 1])
            for j in range(y.size):
                alone = operator_on_chart_batch(k, half_plane, sin_exp, n, [one, y[j:j + 1]])
                assert np.array_equal(alone, chart[i, j:j + 1]), (i, j)

    def test_one_exp_per_centre_per_call(self, monkeypatch):
        # W = 16 takes the one-exp rule: per call, one exp over the R table's 33 sites and one
        # over the first axis's centres, however many chunks; a later axis takes its own pair
        k, n = kernel(), 16
        x, y = off_site(0.0, 1.0, 301, n), off_site(0.0, 1.0, 7, n)
        monkeypatch.setattr(kernel_module, "CHUNK_ELEMENTS", 2**6)
        assert kernel_module.chunk_rows(k, 1) == 1
        calls = [
            (lambda: lattice_sums(k, n, [x], lambda sites: [sites[0] / n]), [(33,), (301,)]),
            (lambda: lattice_sums(k, n, [x, y], lambda sites: [sites[0] / n + sites[1]]),
             [(33,), (301,), (33,), (7,)]),
            (lambda: axis_moments(k, x, n, 4), [(33,), (301,)]),
        ]
        for call, shapes in calls:
            counted = CountedNumpy()
            monkeypatch.setattr(kernel_module, "np", counted)
            call()
            monkeypatch.setattr(kernel_module, "np", np)
            assert sorted(counted.exp_shapes) == sorted(shapes)

    @pytest.mark.parametrize("alpha", WINDOW_ALPHAS)
    def test_rows_are_the_one_exp_formula(self, alpha):
        # each weight is v / (c1 + v (c0 + c2 v)), v = factor_i R_j one rounded product, bit for
        # bit: for all rows, a chunk of rows into given buffers, and both window widths
        k = kernel(alpha=alpha)
        q, a, w = k.params.q, alpha, k.radius
        # off-site centres and three lattice sites
        u = np.r_[np.linspace(-3.7, 3.3, 38), -2.0, 0.0, 5.0]
        lo = np.ceil(u - w)
        e = math.exp(-2.0 * a)
        s = 0.5 * (1.0 - q) * (1.0 + q) * -math.expm1(-4.0 * a)
        c0 = (1.0 + q) * (1.0 - q) * (1.0 + e * e) / s
        c1, c2 = (1.0 + q) ** 2 * e / s, (1.0 - q) ** 2 * e / s
        factor = np.exp(2.0 * a * (lo + w - u))
        ratios = np.exp(2.0 * a * (np.arange(2.0 * w + 1.0) - w))
        rule = window_weights(k, u, lo)
        rows = np.array([3, 0, 17, 40])
        for width in (int(2 * w), int(2 * w) + 1):
            v = factor[:, None] * ratios[:width]
            want = v / (c1 + v * (c0 + c2 * v))
            assert np.array_equal(rule(width), want)
            out, scratch = np.empty((2, rows.size, width))
            got = rule(width, rows, out, scratch)
            assert got is out and np.array_equal(got, want[rows])


class TestCentreLimit:
    @settings(deadline=None)
    @given(q=st.floats(0.05, 0.95), alpha=_log_uniform(0.05, 4.0), eps=_log_uniform(1e-14, 1e-6),
           n=st.integers(1, 2**20), scale=st.floats(0.0, 1.0), sign=st.sampled_from([-1.0, 1.0]))
    def test_partition_sum_holds_up_to_the_limit(self, q, alpha, eps, n, scale, sign):
        k = kernel(q, alpha, eps)
        x = sign * scale * (MAX_CENTRE - k.radius - 1.0) / n
        assume(n * abs(x) + k.radius + 1.0 <= MAX_CENTRE)
        assert abs(axis_moments(k, [x], n, 0)[0, 0] - 1.0) <= 4 * eps * k.radius

    def test_past_the_limit_is_rejected(self):
        k = kernel()
        with pytest.raises(ValueError, match="2\\^52"):
            axis_moments(k, [MAX_CENTRE / 64], 64, 0)
        with pytest.raises(ValueError, match="2\\^52"):
            table_sites(k, 64, [[MAX_CENTRE / 64]])
