"""Density kernel, truncation window, lattice moments, multi-indices."""

import fractions
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
    multi_indices,
    normalization_constant,
    operator_on_chart_batch,
    psi_eval,
    tail_mass,
    truncation_radius,
)
from tanhqi import analysis, operators
from tanhqi import kernel as kernel_module
from tanhqi.kernel import (
    MAX_CENTRE,
    MAX_POINT_WORK,
    MAX_SUM_WORK,
    WINDOW_EXP_LIMIT,
    lattice_sums,
    offset_powers,
    point_work,
    table_sites,
    window_weights,
)
from tanhqi.manifold import chart_coords


def kernel(q=0.5, alpha=1.0, eps=1e-12):
    return DensityKernel(ActivationParams(q, alpha), eps_trunc=eps)


def lattice_sum(k, x):
    # the truncated lattice sum sum_k psi(x - k) is the zeroth moment at n = 1
    return axis_moments(k, [x], 1, 0)[0, 0]


def own_window(k, u):
    # u's window, its sites ceil(u - W)..floor(u + W) (2W, or 2W + 1 for a lattice site) and
    # their weights by window_weights' one-centre rule, as every lattice sum weighs them
    ks = np.arange(math.ceil(u - k.radius), math.floor(u + k.radius) + 1, dtype=float)
    return ks, window_weights(k, np.array([u]), ks[:1])(ks.size)[0]


def direct_tail_mass(k, w, points=200):
    """The largest mass outside a radius-w window over centres in [0, 1), summed with math.fsum
    over psi_eval to where the tails fall below e^-120 of psi(+-w): points centres evenly spaced
    from 0, and the two 2^-30 off a site, where the supremum is approached."""
    far = w + 2.0 + 60.0 / k.params.alpha
    most = 0.0
    for u in np.r_[np.arange(points) / points, 2.0**-30, 1.0 - 2.0**-30]:
        d = u - np.arange(math.floor(u - far), math.ceil(u + far) + 1)
        most = max(most, math.fsum(psi_eval(k, d[np.abs(d) > w])))
    return most


def closed_form_deficit(k, u):
    """delta(u), the partition mass outside u's window lo..hi = ceil(u - W)..floor(u + W).

    psi = (h(x + 1) - h(x - 1)) / C telescopes over the window, so 1 - its sum is the four tails
    of h at its ends, (T+(a) + T+(a - 1) + T-(b + 1) + T-(b)) / C with a = u - lo + 1,
    b = u - hi - 1, T+(z) = 1/(1 + q) - h(z) and T-(z) = h(z) + q/(1 - q)."""
    q, alpha = k.params.q, k.params.alpha
    w, c = k.radius, normalization_constant(k.params)

    def t_plus(z):
        return (1 + q * q) / ((1 + q) * ((1 + q) * math.exp(2 * alpha * z) + 1 - q))

    def t_minus(z):
        return (1 + q * q) / ((1 - q) * ((1 + q) + (1 - q) * math.exp(-2 * alpha * z)))

    a, b = u - math.ceil(u - w) + 1, u - math.floor(u + w) - 1
    return (t_plus(a) + t_plus(a - 1) + t_minus(b + 1) + t_minus(b)) / c


def mp_outside_mass(q, alpha, u, lo, hi):
    """The sum of psi(u - k) over the sites k < lo and k > hi, at 50 digits.

    psi(x) = s / ((A + B E1)(B + A E2)), E1 = e^(-2 alpha (x + 1)), E2 = e^(2 alpha (x - 1)),
    has positive terms only, and E1, E2 step by e^(-+2 alpha) from site to site.  Each side is
    summed outward until a term falls under 1e-30 of its sum, which happens only past psi's
    peak: psi is log-concave (-ln psi is a sum of log-sum-exps), so the ratio of the terms that
    follow is at most the last one's, and the rest is under 1e-30 / (1 - e^(-2 alpha)) of it."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        q, a, u = mp.mpf(q), mp.mpf(alpha), mp.mpf(u)
        big, small, step = 1 + q, 1 - q, mp.exp(2 * a)
        s = (1 - q * q) * (1 - mp.exp(-4 * a)) / 2
        total = mp.mpf(0)
        # x = u - k for k = lo - 1, lo - 2, .. rises from u - lo + 1; for k = hi + 1, .. falls
        for x, rise in ((u - lo + 1, True), (u - hi - 1, False)):
            e1, e2 = mp.exp(-2 * a * (x + 1)), mp.exp(2 * a * (x - 1))
            side = mp.mpf(0)
            while True:
                term = s / ((big + small * e1) * (small + big * e2))
                side += term
                if term < side * mp.mpf(10) ** -30:
                    break
                e1, e2 = (e1 / step, e2 * step) if rise else (e1 * step, e2 / step)
            total += side
        return float(total)


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


def eval_roundings(k, reach=None):
    """m such that psi_eval(x) is within gamma_m of psi at the exact x, for x = u - k rounded
    once and |x| <= reach (W + 1 by default).

    Counts follow Higham, Accuracy and Stability of Numerical Algorithms,
    3.1, to first order in u = 2^-53, with an exp or expm1 as 2 roundings
    (within one ulp).  psi = s / (F1 F2) with F1 = A + B E1, F2 = B + A E2,
    E1 = e^(-2 alpha (x + 1)) and E2 = e^(2 alpha (x - 1)).  A relative
    error in E1 reaches ln psi times E1's share of F1, B E1 / F1, and one
    in E2 times A E2 / F2; as E1 E2 = e^(-4 alpha) < 1 the two shares sum
    to at most 1, so what rides on E1 and E2 counts once, not twice.  The
    exponent -2 alpha (x + 1) carries x's rounding, |x| u, the + 1's,
    |x + 1| u, and the product's, 2 alpha |x + 1| u, so at most
    2 alpha (3 reach + 2) u, and likewise the exponent of E2; with exp's 2,
    B's and the product B E1's 1 each (A's and A E2's in F2), that is
    2 alpha (3 reach + 2) + 4 on the shares.  A in F1 and B in F2 take 1
    each on the rest of their factors, at most 2 - (sum of the shares), so
    at most 2 alpha (3 reach + 2) + 5 in all.  The factors' two additions
    add 2, s = (1-q)(1+q)(1 - e^2)/2 takes 6, and the product and the
    quotient 1 each: m = 2 alpha (3 reach + 2) + 15, which at reach W + 1
    is 2 alpha (3W + 5) + 15.
    """
    a = k.params.alpha
    reach = k.radius + 1 if reach is None else reach
    return 2 * a * (3 * reach + 2) + 15


def weight_roundings(k):
    """m such that every window weight is within gamma_m of psi at the exact u - k.

    The per-centre rule, psi = 1 / (((c1 / f) S_j + (c2 f) R_j) + c0), f =
    e^(2 alpha (c - u)), R_j = e^(2 alpha (j - W)) and S_j = R_(2W - j),
    counted as in ``eval_roundings``: c - u in [0, 1) rounds once and
    2 alpha (c - u) once, at most 2 alpha 2u in f's exponent, and exp adds
    2, so f is within 4 alpha + 2; 2 alpha (j - W) rounds once, at most
    2 alpha W u in the exponent, so R_j and S_j are within 2 alpha W + 2.
    With s at 6, c1 = A^2 e / s and c2 = B^2 e / s take 13 roundings and
    c0 = A B (1 + e^2) / s 17; c1 / f and c2 f add 1 each, and their
    products with S_j and R_j 1 more, so both slot terms are within
    2 alpha (W + 2) + 19.  The two additions of positive terms keep the
    denominator within 2 alpha (W + 2) + 21 (each term's share of it is at
    most 1), and the reciprocal adds 1: m = 2 alpha (W + 2) + 22.  Past
    WINDOW_EXP_LIMIT the weights are psi_eval's.
    """
    a, w = k.params.alpha, k.radius
    if 2 * a * (w + 1) > WINDOW_EXP_LIMIT:
        return eval_roundings(k)
    return 2 * a * (w + 2) + 22


# psi_eval reads 0 or subnormal only where psi < e^-708: where an exp, a factor or their product
# overflows (psi < s e^-709) or where the quotient leaves the normal range (2^-1022 = e^-708.4);
# an exp that underflows drops a share under 1e-300 of its factor
UNDERFLOW_FLOOR = math.exp(-708.0)


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

    @pytest.mark.parametrize("q, alpha", [(0.5, 1.0), (0.9, 0.3), (0.1, 4.0), (0.05, 0.05),
                                          (0.95, 2.0)])
    def test_unit_mass_by_quadrature(self, q, alpha):
        """psi integrates to 1: an 800-node Gauss-Legendre rule over [-r, r], r = W + 40/alpha.

        800 nodes, as the rule's error at (0.05, 0.05), the widest of these, fell from 5.2e-9
        at 400 nodes to 3.8e-14 at 600, so at 800 it is far below one rounding (all five read
        within 6.7e-16 of 1).  The rule is ``operators._gauss_rule``, held to a 30-digit
        reference; numpy's leggauss reads 1.2e-13 off at 1600 nodes, from its weights alone.
        Bound, in roundings u = 2^-53 as in ``eval_roundings``, for each term w psi(x):
        - x = r (2t - 1) is within 6 r u of its exact node (t within 2u, the subtraction's and
          the product's roundings), and |d ln psi / dx| <= 2 alpha, so 12 alpha r;
        - psi_eval at |x| <= r, ``eval_roundings(k, r)``;
        - the weight, 4 sqrt(g) / (4 t (1 - t)), as test_operators' mpmath test holds it;
        - the product, fsum's one rounding of the whole and the scaling by 2r: 3.
        All terms are positive, so the sum's relative error is at most the largest term's.
        The tails past +-r hold under (1 + (1 + q)/(1 - q)) e^(-2 alpha (r - 1)) < e^-100:
        each is a T+ or T- integral (``kernel.tail_mass``) over [r - 1, r + 1]."""
        k = kernel(q, alpha)
        r = k.radius + 40.0 / alpha
        g = 800
        t, w = operators._gauss_rule(g)
        terms = w * psi_eval(k, r * (2.0 * t - 1.0))
        mass = 2.0 * r * math.fsum(terms)
        m = 12 * alpha * r + eval_roundings(k, r) + 4 * math.sqrt(g) / (4 * t * (1 - t)) + 3
        tails = (1.0 + (1.0 + q) / (1.0 - q)) * math.exp(-2.0 * alpha * (r - 1.0))
        bound = 2.0 * r * math.fsum(terms * gamma(m)) + tails
        assert bound <= 1e-12
        assert abs(mass - 1.0) <= bound

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

    @settings(deadline=None, max_examples=100)
    @given(q=st.floats(0.0, 0.95), alpha=_log_uniform(1 / 16, 8), eps=_log_uniform(1e-20, 1e-6),
           t=st.floats(-1.0, 1.0))
    @example(q=0.0, alpha=1.0, eps=1e-12, t=0.3)
    @example(q=0.95, alpha=8.0, eps=1e-20, t=-1.0)
    # steep kernels, W = 2, whose windows take psi_eval itself (2 alpha (W + 1) > 300)
    @example(q=0.5, alpha=64.0, eps=1e-12, t=-0.5)
    @example(q=0.5, alpha=math.nextafter(64.0, math.inf), eps=1e-12, t=-0.5)
    @example(q=0.9, alpha=200.0, eps=1e-12, t=0.6)
    def test_every_q_translates_the_classical_kernel(self, q, alpha, eps, t):
        """psi_q(x) = psi_0(x + c), c = atanh(q)/alpha, for x = t (W + 1): h_q is tanh shifted
        by atanh(q) in alpha x and affinely rescaled, and C(q) is twice its rise.

        Bound, in units of u = 2^-53 to first order, with psi_0 taken exactly
        by ``mp_psi(0.0, ...)`` at the float c' = fl(fl(atanh(q))/alpha):
        - psi_eval is within ``eval_roundings`` of psi_q(x), |x| <= W + 1;
        - c' is within 3|c| u of c (atanh within one ulp, 2, the quotient 1),
          and |d ln psi_0 / dy| <= 2 alpha (psi_0 = s v / D(v), v =
          e^(-2 alpha y), has |d ln psi / d ln v| <= 1), so psi_0(x + c')
          is within 2 alpha 3 |c| = 6 atanh(q) of psi_0(x + c);
        - the oracle's float adds 1.
        """
        k = kernel(q, alpha, eps)
        x = t * (k.radius + 1.0)
        want = mp_psi(0.0, alpha, [x], centre=math.atanh(q) / alpha)[0]
        bound = gamma(eval_roundings(k) + 6.0 * math.atanh(q) + 1.0)
        assert abs(psi_eval(k, x) - want) <= bound * want

    @pytest.mark.parametrize("q, alpha", [(0.5, 1.0), (0.5, 1 / 16), (0.9, 0.3), (0.1, 4.0),
                                          (0.99, 1e-4), (0.5, 100.0), (0.5, 1e308)])
    def test_finite_and_nonnegative_for_every_x(self, q, alpha):
        # e^(-2 alpha (x + 1)) overflows for x < -1 - 709 / (2 alpha), and the factors' product
        # with it: s / inf must read 0, and no inf * 0 or inf / inf a NaN
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
        # psi takes one exp per factor, e^(-2 alpha (x + 1)) and e^(2 alpha (x - 1)), so no
        # term leaves the float range near x = +-1 however steep the kernel (a single
        # v = e^(-2 alpha x) overflows there from alpha = 355); those exps round to about 1e-14
        sums = axis_moments(kernel(alpha=alpha), np.linspace(-1.0, 1.0, 201), 1, 0)[:, 0]
        assert np.max(np.abs(sums - 1.0)) <= 1e-13


class TestTruncation:
    def test_frozen_radius(self):
        assert truncation_radius(ActivationParams(0.5, 1.0), 1e-12) == 16.0

    def test_loose_tolerance_gives_minimal_window(self):
        assert truncation_radius(ActivationParams(0.5, 1.0), 0.5) == 2.0

    def test_radius_nonincreasing_in_alpha(self):
        eps = 1e-12
        got = [truncation_radius(ActivationParams(0.5, a), eps) for a in (0.5, 1.0, 2.0)]
        assert got == [30.0, 16.0, 9.0]
        assert sorted(got, reverse=True) == got
        for a, w in zip((0.5, 1.0, 2.0), got):
            assert direct_tail_mass(kernel(0.5, a), w) <= eps < direct_tail_mass(kernel(0.5, a), w - 1)

    def test_radius_strictly_decreasing_for_small_q(self):
        eps = 1e-12
        got = [truncation_radius(ActivationParams(0.1, a), eps) for a in (0.5, 1.0, 2.0)]
        assert got == [29.0, 15.0, 8.0]
        for a, w in zip((0.5, 1.0, 2.0), got):
            assert direct_tail_mass(kernel(0.1, a), w) <= eps < direct_tail_mass(kernel(0.1, a), w - 1)

    def test_wide_kernel_window_holds_its_mass(self):
        # psi stays below eps everywhere, so psi(+-W) < eps alone would stop at W = 2
        k = kernel(alpha=1e-3, eps=1e-3)
        assert k.radius == 4056.0
        assert 1.0 - lattice_sum(k, 0.3) <= 1e-3
        assert direct_tail_mass(k, 4056, points=1) <= 1e-3 < direct_tail_mass(k, 4055, points=1)

    @pytest.mark.parametrize("q, alpha, eps, want", [(0.5, 1 / 16, 1e-12, 232), (0.0, 1.0, 1e-12, 15),
                                                     (0.5, 1.0, 1e-15, 19), (0.9, 0.5, 1e-12, 32),
                                                     (0.5, 1.0, 1e-12, 16)])
    def test_radius_is_the_smallest_within_eps(self, q, alpha, eps, want):
        # the neglected mass at W is at most eps, and at W - 1 above it, in closed form and by
        # direct sums; the powers of two took 256, 16, 32, 32 and 16
        params = ActivationParams(q, alpha)
        w = truncation_radius(params, eps)
        assert w == want
        assert tail_mass(params, w) <= eps < tail_mass(params, w - 1)
        k = kernel(q, alpha, eps)
        assert direct_tail_mass(k, w) <= eps < direct_tail_mass(k, w - 1)

    @settings(deadline=None)
    @given(q=st.floats(0.0, 0.99), alpha=_log_uniform(1e-3, 1e3), eps=_log_uniform(1e-300, 0.5))
    def test_radius_is_minimal_unless_at_its_floor(self, q, alpha, eps):
        params = ActivationParams(q, alpha)
        w = truncation_radius(params, eps)
        floor = max(2, math.ceil((math.atanh(q) + 1.0) / alpha))
        assert w >= floor and tail_mass(params, w) <= eps
        assert w == floor or tail_mass(params, w - 1) > eps

    @settings(deadline=None, max_examples=40)
    @given(q=st.floats(0.0, 0.99), alpha=_log_uniform(0.01, 50.0), w=st.integers(1, 300))
    @example(q=0.5, alpha=1 / 16, w=232)
    @example(q=0.99, alpha=0.01, w=1)
    def test_tail_mass_is_the_largest_direct_sum(self, q, alpha, w):
        # the mass outside the windows of a dense grid of centres, summed directly, stays within
        # tail_mass, and comes within 1e-6 of it at the centres 2^-30 off a site
        k = kernel(q, alpha)
        want = tail_mass(k.params, w)
        got = direct_tail_mass(k, w)
        assume(want > 1e-290)
        # psi_eval's roundings at distances up to direct_tail_mass' reach, far + 1, with fsum's
        # one; tail_mass's: v = e^(-2 alpha z), z <= w + 1, within 2 alpha (w + 1) + 2, each
        # quotient of positive terms 5 more and the sum of four 3
        far = w + 2.0 + 60.0 / alpha
        rounding = gamma(eval_roundings(k, far + 1.0) + 1 + 2 * alpha * (w + 1) + 10)
        assert got <= want * (1.0 + rounding)
        assert got >= want * (1.0 - 1e-6)

    @pytest.mark.parametrize("alpha", [1 / 16, 1.0, 4.0])
    @pytest.mark.parametrize("q", [0.0, 0.5, 0.9])
    def test_tail_mass_and_deficit_against_direct_sums(self, q, alpha):
        # tail_mass(w) is the larger of the masses outside the window as u -> 0+ (sites
        # 1 - w..w) and u -> 1- (the same sites), and delta(u) the mass outside u's own window;
        # both against 50-digit sums of psi over the sites outside.  tail_mass's roundings as in
        # test_tail_mass_is_the_largest_direct_sum; delta's exponent 2 alpha z, z <= W + 2, takes
        # z's two roundings and the product's, 6 alpha (W + 2) on exp's 2, and its quotients and
        # sums 20 more.  Seen at most 2.2e-16 relative for tail_mass and 1.8e-15 for delta, whose
        # centres off a site round z; dropping any one of either's four terms fails every case
        k = kernel(q, alpha)
        for w in (2.0, 8.0, k.radius):
            want = max(mp_outside_mass(q, alpha, 0.0, 1.0 - w, w),
                       mp_outside_mass(q, alpha, 1.0, 1.0 - w, w))
            assert abs(tail_mass(k.params, w) - want) <= gamma(2 * alpha * (w + 1) + 10) * want
        for u in (0.0, 0.3, 0.71):
            want = mp_outside_mass(q, alpha, u, math.ceil(u - k.radius), math.floor(u + k.radius))
            bound = gamma(6 * alpha * (k.radius + 2) + 20) * want
            assert abs(closed_form_deficit(k, u) - want) <= bound

    @pytest.mark.parametrize("w", [1, 2, 3, 16, 2**40])
    def test_tail_mass_of_the_limit_box_is_zero(self, w):
        # 2 alpha overflows: psi is the box on [-1, 1], and no window of radius >= 1 loses mass
        assert tail_mass(ActivationParams(0.5, 1e308), w) == 0.0

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
            assert math.fsum(psi_eval(k, d[np.abs(d) > w])) <= eps

    @pytest.mark.parametrize("u", [-3.7, 0.0, 0.3, 41.5])
    def test_window_weights_pair_window_with_psi(self, u):
        # on the window's own sites, the weights are the one-centre rule from its first site,
        # whatever the other centres of the rule, and within both rules' forward-error bounds
        # of psi_eval
        k = kernel()
        ks, ws = own_window(k, u)
        centres = np.array([41.5, u, -3.7])
        rule = window_weights(k, centres, np.ceil(centres - k.radius))
        assert np.array_equal(ws, rule(ks.size, np.array([1]))[0])
        want = psi_eval(k, u - ks)
        bound = gamma(weight_roundings(k)) + gamma(eval_roundings(k))
        assert np.all(np.abs(ws - want) <= bound * want)


class TestWindowRows:
    @settings(deadline=None)
    @given(q=st.floats(0.05, 0.95), alpha=_log_uniform(1 / 32, 128.0),
           eps=_log_uniform(1e-300, 1e-3),
           on=st.lists(st.integers(-60, 60).map(float), min_size=1, max_size=3),
           off=st.lists(st.floats(-60.0, 60.0).filter(lambda u: u != round(u)),
                        min_size=1, max_size=3))
    # 3.0 is a lattice site (2W + 1 sites), the others have 2W sites
    @example(q=0.5, alpha=1.0, eps=1e-12, on=[3.0], off=[0.3, -7.25])
    def test_rows_hold_each_centres_window(self, q, alpha, eps, on, off):
        # a row of a rule mixing on-site (2W + 1 sites) and off-site (2W) centres, at its own
        # window's width, is its centre's one-centre rule bit for bit: a window sum depends
        # neither on CHUNK_ELEMENTS nor on the other points of its call
        k = kernel(q, alpha, eps)
        centres = np.array(off[:1] + on + off[1:])
        rule = window_weights(k, centres, np.ceil(centres - k.radius))
        for row, u in enumerate(centres):
            win, weights = own_window(k, u)
            assert np.array_equal(rule(win.size, np.array([row]))[0], weights)

    @pytest.mark.parametrize("x", [[], np.empty(0), [[0.3]], 0.3])
    def test_empty_or_non_1d_centres_rejected(self, x):
        # check_axes' rule and message, before any window end is formed
        k = kernel()
        with pytest.raises(ValueError, match="non-empty 1-D coordinate arrays"):
            axis_moments(k, x, 8, 2)

    def test_point_work_cap(self):
        k = kernel()
        assert point_work(k, 1) == 33
        assert point_work(k, 2) == 33 * 33
        # alpha 1e-6 gives W = 14417498: one window spans 28834997 sites and takes no quadrature
        with pytest.raises(ValueError, match="one kernel window holds 28834997 lattice sites") as exc:
            point_work(kernel(alpha=1e-6), 1)
        assert "quad" not in str(exc.value)


class TestWindowWeights:
    @settings(deadline=None, max_examples=60)
    @given(q=st.floats(0.05, 0.95), alpha=_log_uniform(1 / 32, 128.0),
           eps=_log_uniform(1e-300, 1e-3), u=st.floats(-60.0, 60.0),
           picks=st.lists(st.floats(0.0, 1.0), max_size=24))
    # one exp per centre, and psi_eval past WINDOW_EXP_LIMIT
    @example(q=0.5, alpha=2**0.5, eps=1e-12, u=0.3, picks=[])
    @example(q=0.5, alpha=1.0, eps=1e-300, u=0.3, picks=[])
    @example(q=0.5, alpha=128.0, eps=1e-12, u=0.3, picks=[])
    def test_within_the_derived_bound_of_the_exact_kernel(self, q, alpha, eps, u, picks):
        k = kernel(q, alpha, eps)
        ks, ws = own_window(k, u)
        # both ends, the peak and random sites; the exact kernel at the exact offset u - k
        cols = np.unique([0, ks.size - 1, int(np.argmax(ws)),
                          *(int(p * (ks.size - 1)) for p in picks)])
        exact = mp_psi(q, alpha, -ks[cols], centre=u)
        # one more rounding for the oracle's own float
        bound = gamma(weight_roundings(k) + 1) * exact + UNDERFLOW_FLOOR
        assert np.all(np.abs(ws[cols] - exact) <= bound)

    @pytest.mark.parametrize("q", [0.01, 0.99])
    @pytest.mark.parametrize("eps", [1e-12, 1e-100, 1e-300])
    @pytest.mark.parametrize("alpha", [1 / 32, 64.0, 128.0])
    def test_finite_and_positive_at_the_edges(self, q, alpha, eps):
        k = kernel(q, alpha, eps)
        x = np.array([-0.5, 0.0, 0.3, 0.99])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            windows = [own_window(k, u) for u in x]
            sums = axis_moments(k, x, 1, 0)[:, 0]
        for u, (ks, ws) in zip(x, windows):
            assert np.all(np.isfinite(ws)) and np.all(ws[psi_eval(k, u - ks) > 0.0] > 0.0)
        # the neglected mass, then each weight's rounding and a pairwise sum's over the row
        # (Higham 3.1), and what a weight below the underflow floor may lose
        width = k.width
        slack = gamma(weight_roundings(k)) + gamma(width) + width * UNDERFLOW_FLOOR
        assert np.all(np.abs(sums - 1.0) <= eps + slack)


class TestZEval:
    def test_two_dim_partition(self):
        k = kernel()
        win, _ = own_window(k, 0.0)
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


def scaled_first_moment_bound(k, u):
    """Bound on |n M_1 - its untruncated Poisson series| at the centres u = fl(n x), as derived in
    ``TestMoments.test_scaled_first_moment_is_its_poisson_series``."""
    c = math.atanh(k.params.q) / k.params.alpha
    b = c * c + 1.0 / 3.0 + math.pi**2 / (12.0 * k.params.alpha**2)
    rounding = 2.0 * np.abs(u) + (2.0 * k.radius + weight_roundings(k) + 4.0) * math.sqrt(b)
    return 8.0 * k.eps_trunc * k.radius**2 + rounding * 2.0**-53


def first_moment_amplitudes(k):
    """(m, (pi/alpha)/sinh(pi^2 m/alpha)) for m = 1, 2, ... while pi^2 m/alpha <= 700: the
    harmonics of n M_1's Poisson series, past which they add below e^-700."""
    alpha = k.params.alpha
    m = np.arange(1.0, math.floor(700.0 * alpha / math.pi**2) + 1.0)
    return m, math.pi / alpha / np.sinh(math.pi**2 * m / alpha)


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

    @settings(deadline=None, max_examples=200)
    @given(q=st.floats(0.0, 0.95), alpha=_log_uniform(1 / 16, 8), eps=_log_uniform(1e-30, 1e-6),
           n=st.integers(1, 512), xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    @example(q=0.5, alpha=1.0, eps=1e-12, n=64, xs=[0.3])
    @example(q=0.0, alpha=1.0, eps=1e-12, n=64, xs=[0.3, 0.999])
    @example(q=0.5, alpha=8.0, eps=1e-20, n=511, xs=[0.73, 0.999])
    def test_scaled_first_moment_is_its_poisson_series(self, q, alpha, eps, n, xs):
        """n M_1(x) = c + sum_m>=1 (pi/alpha) sin(2 pi m (frac(u) + c)) / sinh(pi^2 m / alpha),
        c = atanh(q)/alpha, u = n x: psi_q(y) = psi_0(y + c), and Poisson summation of
        y psi_0(y) over the lattice leaves these terms.  The series stops once pi^2 m / alpha >
        700, past which its terms add below e^-700.  It is summed at frac(u) for u = fl(n x), the
        centre the kernel's windows take: sin at m u itself would cost m u 2^-53 (2e-13 at n 512).

        Bound, against the untruncated sum at u:
        - truncation: the window keeps the sites within W of u, and past W, psi(y) <= eps
          e^(-2 alpha (|y| - W)) (``DensityKernel``).  So each side's lost sites add at most eps
          ((W + 1)/(1 - r) + r/(1 - r)^2), r = e^(-2 alpha).  With W >= 2 and W >= 1/alpha
          (``truncation_radius``), 1/(1 - r) <= 1 + 1/(2 alpha) <= W and r/(1 - r)^2 =
          1/(4 sinh(alpha)^2) <= W^2/4, so both sides add below 4 eps W^2; the bound takes 8.
        - rounding, in units of 2^-53 to first order, with sum psi = 1, A = sum psi |y| <=
          sqrt(B), and B = sum psi y^2 = c^2 + 1/3 + pi^2/(12 alpha^2) (psi_0 is the uniform
          density on [-1, 1] convolved with a logistic of scale 1/(2 alpha)):
          - the centre: fl(n x) is within |u| of n x;
          - the offsets: n (fl(k/n) - x) is within |k| + |k - n x| of k - n x, and sum psi |k|
            <= |u| + A, so 2|u| + 2A in all with the centre;
          - the weights, each within ``weight_roundings`` of psi: weight_roundings A;
          - the products and the final times n: 2A;
          - the dot of at most 2W + 1 terms: 2W A.
        """
        k = kernel(q, alpha, eps)
        c = math.atanh(q) / alpha
        m, amplitude = first_moment_amplitudes(k)
        u = n * np.array(xs)
        frac = u % 1.0
        series = c + np.sum(amplitude * np.sin(2.0 * math.pi * m * (frac[:, None] + c)), axis=1)
        got = n * axis_moments(k, xs, n, 1)[:, 1]
        assert np.all(np.abs(got - series) <= scaled_first_moment_bound(k, u))

    @pytest.mark.parametrize("q, alpha", [(0.5, 1.0), (0.0, 2.0), (0.9, 0.3), (0.5, 1.0 / 16.0)])
    def test_kernel_table_echoes_the_centre_and_ripple_of_n_m1(self, q, alpha):
        # kernel-dump's kernel block: the centre atanh(q)/alpha of n M_1 and the amplitude of its
        # first harmonic; every row lies within the centre plus all harmonics and the series
        # test's bound
        k, n = kernel(q, alpha), 64
        table = analysis.kernel_table(k, [n], [(0.0, 1.0)], 201)()
        centre = table["kernel"]["n_times_moment1_centre"]
        ripple = table["kernel"]["n_times_moment1_ripple"]
        _, amplitude = first_moment_amplitudes(k)
        assert centre == math.atanh(q) / alpha
        assert ripple == pytest.approx(amplitude[0], rel=4e-16)
        rows = np.array(table["rows"])
        assert table["columns"][6] == "n_times_moment1"
        deviation = np.abs(rows[:, 6] - centre)
        assert np.all(deviation <= amplitude.sum() + scaled_first_moment_bound(k, n * rows[:, 0]))
        if alpha == 1.0:
            # the second harmonic is e^-pi^2 of the first, so the rows reach the first's height
            assert deviation.max() >= 0.99 * ripple

    @settings(deadline=None, max_examples=100)
    @given(q=st.floats(0.0, 0.95), alpha=_log_uniform(1 / 16, 4), eps=_log_uniform(1e-30, 1e-6),
           log_n=st.integers(0, 9), log_k=st.integers(4, 6), cell=st.integers(0, 511),
           shift=st.integers(0, 1023))
    @example(q=0.5, alpha=1.0, eps=1e-12, log_n=6, log_k=4, cell=0, shift=0)
    def test_mean_scaled_first_moment_over_a_period_is_the_centre(self, q, alpha, eps, log_n,
                                                                    log_k, cell, shift):
        """The mean of n M_1 over K = 2^log_k equally spaced phases frac(n x) is atanh(q)/alpha:
        the phase mean of each harmonic of the Poisson series above is 0 unless K divides m,
        and those aliased terms add at most 4 (pi/alpha) e^(-pi^2 K/alpha) < 3e-17.  Phases
        and points are dyadic, so n x is exact and each point keeps the series test's bound."""
        k, n, big_k = kernel(q, alpha, eps), 2**log_n, 2**log_k
        u = cell % n + (np.arange(big_k) + shift / 1024.0) / big_k
        got = n * axis_moments(k, u / n, n, 1)[:, 1]
        c = math.atanh(q) / alpha
        alias = 4.0 * math.pi / alpha * math.exp(-math.pi**2 * big_k / alpha)
        bound = scaled_first_moment_bound(k, u).max() + alias + c * 2.0**-52
        assert abs(math.fsum(got) / big_k - c) <= bound

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
        # the neglected mass, then the weights' and the row sum's roundings
        assert 1.0 - lattice_sum(k, x) <= eps + gamma(weight_roundings(k)) + gamma(k.width)

    @pytest.mark.parametrize("n", [16, 512])
    @pytest.mark.parametrize("q, alpha, eps", [(0.5, 1.0, 1e-12), (0.3, 0.25, 1e-10),
                                               (0.9, 2.0, 1e-14), (0.0, 1.0, 1e-12)])
    def test_partition_deficit_is_the_closed_form_tail_mass(self, q, alpha, eps, n):
        k = kernel(q, alpha, eps)
        x = np.linspace(0.0, 1.0, 201)
        deficit = 1.0 - axis_moments(k, x, n, 0)[:, 0]
        want = np.array([closed_form_deficit(k, u) for u in (n * x).tolist()])
        # each of the row's width weights within gamma(weight_roundings) of psi at the exact
        # offset, their sum (<= 1) within gamma(width) more, 1 - sum exact (Sterbenz); delta's
        # four quotients, exps and sums within gamma(20) of their exact value
        bound = gamma(weight_roundings(k)) + gamma(k.width) + gamma(20) * want
        assert np.all(np.abs(deficit - want) <= bound)
        assert np.all(want > 0.0)

    @settings(deadline=None)
    @given(q=st.floats(0.01, 0.99), alpha=_log_uniform(1e-3, 50.0), eps=_log_uniform(1e-30, 1e-3))
    def test_positive_across_the_whole_window(self, q, alpha, eps):
        k = kernel(q, alpha, eps)
        xs = np.linspace(-k.radius - 1.0, k.radius + 1.0, 4001)
        assert np.all(psi_eval(k, xs) > 0.0)


def ix_table_sites(k, n, axes):
    """table_sites as it was written with np.r_ and np.ix_: the oracle of the leaner one."""
    n = kernel_module.check_n(n)
    point_work(k, len(axes))
    runs = []
    counts = []
    for x in axes:
        lo, hi = kernel_module._window_ends(k, n, np.sort(np.asarray(x, dtype=float)))
        counts.append(lo.size)
        first = np.flatnonzero(np.r_[True, lo[1:] - hi[:-1] > 1.0])
        runs.append((lo[first], (hi[np.r_[first[1:] - 1, -1]] - lo[first]).astype(np.intp) + 1))
    sizes = [int(lengths.sum()) for _, lengths in runs]
    if math.prod(sizes) > MAX_POINT_WORK:
        raise ValueError(f"the lattice table needs {' x '.join(map(str, sizes))} sites "
                         f"(> {MAX_POINT_WORK}); shrink the box, its points or n, or increase alpha")
    width = 2 * int(k.radius) + 1
    work = sum(kernel_module._sum_work(counts, width, sizes))
    if work > MAX_SUM_WORK:
        raise ValueError(f"a lattice sum needs {work} multiply-adds (> {MAX_SUM_WORK}): "
                         f"{' x '.join(map(str, counts))} points, windows of {width} sites per axis, "
                         f"{' x '.join(map(str, sizes))} table sites; shrink the grid or n, "
                         "or increase alpha or trunc_eps")
    sites = []
    for starts, lengths in runs:
        offsets = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        sites.append(offsets + np.arange(offsets.size))
    return list(np.ix_(*sites))


class TestTableSites:
    @settings(deadline=None, max_examples=60)
    @given(k=st.sampled_from([kernel(), kernel(0.2, 0.3), kernel(0.9, 4.0)]),
           n=st.integers(1, 2**20), dim=st.integers(1, 3), data=st.data())
    # one cap each: a window of 2^24 + 1 sites, a centre past 2^52, a table of 4224^2 sites and
    # 2236219392 multiply-adds over a 34 x 34 table; and n = 0
    @example(k=kernel(alpha=1e-6), n=1, dim=1, data=[[0.5]])
    @example(k=kernel(), n=2**20, dim=1, data=[[-MAX_CENTRE / 2**20, 0.5]])
    @example(k=kernel(), n=1, dim=2, data=[np.arange(0.0, 4200.0, 33.0)] * 2)
    @example(k=kernel(), n=1, dim=2, data=[np.linspace(0.0, 1.0, 65536), np.linspace(0.0, 1.0, 1000)])
    @example(k=kernel(), n=0, dim=1, data=[[0.5]])
    def test_equals_the_r_and_ix_version(self, k, n, dim, data):
        # unsorted, repeated, negative and gapped centres, in lattice units off a random start,
        # so a gap of more than 2W + 1 sites starts a new run; past 2^24 sites the cap speaks
        if isinstance(data, list):
            axes = data
        else:
            axes = []
            for i in range(dim):
                start = data.draw(st.floats(-3000.0, 3000.0), label=f"start{i}")
                step = st.sampled_from([0.0, 1.0, 2 * k.radius + 1.0, 2 * k.radius + 2.5])
                steps = data.draw(st.lists(step | st.floats(0.0, 5000.0), max_size=12),
                                  label=f"steps{i}")
                centres = data.draw(st.permutations(list(start + np.cumsum([0.0] + steps))),
                                    label=f"centres{i}")
                axes.append(np.array(centres) / n)
        try:
            want = ix_table_sites(k, n, axes)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                table_sites(k, n, axes)
            assert str(got.value) == str(exc)
            return
        got = table_sites(k, n, axes)
        assert len(got) == len(want) == len(axes)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.float64 and g.shape == w.shape
            assert np.array_equal(g, w)

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
        # each window is one run of consecutive sites, from the place of its first site on
        for c in u:
            ks, _ = own_window(k, c)
            first = np.searchsorted(sites[0], ks[0])
            assert np.array_equal(sites[0][first:first + ks.size], ks)

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
        # alpha 1e-4: W = 144176, windows of 288353 sites; 7448 points pay 2147653144
        # multiply-adds, past 2^31, and one point fewer stays under the cap
        k = kernel(alpha=1e-4)
        assert k.radius == 144176.0 and MAX_SUM_WORK == 2**31
        assert 7447 * 288353 <= MAX_SUM_WORK < 7448 * 288353 == 2147653144
        table_sites(k, 1, [np.linspace(0.0, 1.0, 7447)])
        with pytest.raises(ValueError, match="a lattice sum needs 2147653144 multiply-adds"):
            table_sites(k, 1, [np.linspace(0.0, 1.0, 7448)])

    def test_sum_work_counts_each_axis(self):
        # axis 0: 65536 points x 33 window sites x 34 sites of axis 1; axis 1: 65536 x 1000
        # points x 33 sites: 2236219392 in all, though the table holds only 34 x 34 sites
        x, y = np.linspace(0.0, 1.0, 65536), np.linspace(0.0, 1.0, 1000)
        with pytest.raises(ValueError, match="a lattice sum needs 2236219392 multiply-adds "
                                             "\\(> 2147483648\\): 65536 x 1000 points, windows "
                                             "of 33 sites per axis, 34 x 34 table sites"):
            table_sites(kernel(), 1, [x, y])


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

    @pytest.mark.parametrize("axes", [
        [np.array([0.7, -0.2, 0.7, 0.31, 1.0])],
        [np.array([0.7, -0.2, 0.5]), np.array([1.5, 0.05, 0.0625])],
        [np.array([0.1, 0.9, 0.4]), np.array([-0.3, 0.2]), np.array([0.6, 0.0])],
    ], ids=["1-D", "2-D", "3-D"])
    def test_checked_sites_change_no_bit(self, axes):
        # a sweep's checked mesh stands in for the call's own table_sites: the tables see that
        # very mesh, and every sum, a broadcast table's included, keeps its bits
        k, n = kernel(alpha=0.3), 16
        sites = table_sites(k, n, axes)
        seen = []

        def tables(mesh):
            seen.append(mesh)
            return edge_tables(mesh)

        own = lattice_sums(k, n, axes, tables)
        given = lattice_sums(k, n, axes, tables, sites=sites)
        assert seen[1] is sites and all(np.array_equal(a, b) for a, b in zip(seen[0], sites))
        for a, b in zip(own, given, strict=True):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("dim, cap, block", [(1, 2**4, 16), (2, 2**8, 5), (3, 2**13, 3)])
    def test_blocks_change_no_bit(self, monkeypatch, dim, cap, block):
        # first-axis points taken a block at a time through every axis keep their one-block
        # bits: a point's partial sums hold 1, 49 (sites of axis 1) or 49 x 49 numbers, so
        # MAX_POINT_WORK = cap leaves block points per block; the mesh is checked beforehand
        k, n = kernel(), 16
        axes = [np.linspace(0.0, 1.0, 50), np.linspace(1.0, 2.0, 7), np.linspace(0.0, 1.0, 3)][:dim]
        sites = table_sites(k, n, axes)
        whole = lattice_sums(k, n, axes, edge_tables, sites=sites)
        contractions = []

        def counted(*args):
            contractions.append(args[1].size)
            return contract(*args)

        contract = kernel_module._contract
        monkeypatch.setattr(kernel_module, "_contract", counted)
        monkeypatch.setattr(kernel_module, "MAX_POINT_WORK", cap)
        blocked = lattice_sums(k, n, axes, edge_tables, sites=sites)
        assert contractions[::dim] == [block] * (50 // block) + [50 % block] * (50 % block > 0)
        for a, b in zip(whole, blocked, strict=True):
            assert np.array_equal(a, b)

    def test_three_axes_against_each_point_window(self):
        # a 3-D table is one chunk per first-axis point here; each point sums its own windows
        k, n = kernel(), 8
        axes = [np.array([0.1, 0.9, 0.4]), np.array([-0.3, 0.2]), np.array([0.6])]
        (got,) = lattice_sums(k, n, axes, lambda sites: [np.exp(sites[0] / n - sites[1] / n)
                                                       + np.cos(sites[2] / n)])
        want = []
        for point in itertools.product(*axes):
            ks, ws = zip(*(own_window(k, n * c) for c in point))
            grid = np.meshgrid(*[kk / n for kk in ks], indexing="ij")
            weights = np.einsum("i,j,l->ijl", *ws)
            want.append(np.sum((np.exp(grid[0] - grid[1]) + np.cos(grid[2])) * weights))
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("alpha", [1.0, 0.3, 1 / 16])
    def test_each_row_is_a_dot_within_its_forward_error_bound(self, alpha):
        # W = 16, 64 and 256: a 1-D row is the dot of its L = 2W or 2W + 1 float weights
        # (own_window, the rule's row bit for bit) and table values, within gamma_L sum |w_j T_j|
        # of their exact dot (Higham, Accuracy and Stability of Numerical Algorithms, 3.1)
        k, n = kernel(alpha=alpha), 32
        x = mixed(np.r_[np.linspace(-0.4, 0.6, 9), 0.25, 0.5], n)
        (got,) = lattice_sums(k, n, [x], lambda sites: [np.cos(sites[0] / 7.0) + 0.2])
        unit = fractions.Fraction(1, 2**53)
        for u, row in zip(n * x, got):
            ks, ws = own_window(k, u)
            terms = [fractions.Fraction(w) * fractions.Fraction(t)
                     for w, t in zip(ws, np.cos(ks / 7.0) + 0.2)]
            size = len(terms)
            bound = size * unit / (1 - size * unit) * sum(abs(t) for t in terms)
            assert abs(fractions.Fraction(row) - sum(terms)) <= bound

    @pytest.mark.parametrize("alpha", [1.0, 0.3])
    def test_an_earlier_axis_sums_each_slot_by_itself(self, alpha):
        # an earlier axis weighs each window slot across the later axes' whole table: every
        # slot of a 289-site later table, contracted with its neighbours in a table of 2-5
        # sites or with its point alone, keeps its bits, so a slot's value depends neither on
        # the width of the later table nor on where it lies in it (a gemv, which takes a
        # table's last columns apart, fails this).  A later table holds a window, so at least
        # 2W >= 4 sites: one-site tables do not occur
        k = kernel(alpha=alpha)
        x = mixed(np.r_[np.linspace(-3.7, 3.3, 6), -2.0, 1.0], 1)
        sites = table_sites(k, 1, [x])[0]
        table = np.random.default_rng(5).uniform(-1.0, 1.0, (sites.size, 289))
        (whole,) = kernel_module._contract(k, x, sites, [table], False)
        for cols in range(2, 6):
            for start in range(0, 289 - cols + 1):
                part = np.ascontiguousarray(table[:, start:start + cols])
                (got,) = kernel_module._contract(k, x, sites, [part], False)
                assert np.array_equal(got, whole[start:start + cols]), (cols, start)
        for i in range(x.size):
            (alone,) = kernel_module._contract(k, x[i:i + 1], sites, [table], False)
            assert np.array_equal(alone[:, 0], whole[:, i]), i

# W = 16 at n = 1: 3.0 and 6.0 are lattice sites with 33-site windows, -13..19 and -10..22;
# 1.5 and 5.5 have 32 sites, -14..17 and -10..21.  In [3.0, 5.5] the 32-site window ends on
# the table's last site; in [1.5, 6.0] the 33-site one does.  The later axis's 2.0 is a site.
EDGE_CASES = [[3.0, 5.5], [1.5, 6.0], [5.5, 1.5, 3.0, 5.5]]


def edge_tables(sites):
    # a full table and two broadcast ones (a 1-D grid sees three full tables)
    return [np.exp(sum(s / (7.0 + i) for i, s in enumerate(sites))),
            np.cos(sites[-1] / 5.0), np.exp(sites[0] / 7.0)]


class TestPadSlot:
    # every axis sums each window over its own 2W or 2W + 1 sites, with no pad slot; the tests
    # keep the names they had when a later axis padded a 2W-site row to 2W + 1 slots
    @pytest.mark.parametrize("x", EDGE_CASES)
    @pytest.mark.parametrize("dim", [1, 2])
    def test_pad_adds_exactly_zero(self, x, dim):
        # each row of the call equals its point's sum alone, whatever the other widths, with
        # windows of either width ending on the table's last site
        k = kernel()
        axes = [np.array(x)] + [np.array([0.25, 2.0, -3.5])] * (dim - 1)
        together = lattice_sums(k, 1, axes, edge_tables)
        rows = math.prod(a.size for a in axes[1:])
        for i in range(len(x)):
            alone = lattice_sums(k, 1, [axes[0][i:i + 1], *axes[1:]], edge_tables)
            for t, a in zip(together, alone):
                assert np.array_equal(t[i * rows:(i + 1) * rows], a)

    @pytest.mark.parametrize("x", EDGE_CASES)
    def test_a_table_broadcast_along_later_axes_sums_like_its_copy(self, x):
        # exp(sites[0] / 7) varies along the contracted axis and is constant along the later one
        k = kernel()
        axes = [np.array(x), np.array([0.25, 2.0, -3.5, 2.0])]

        def tables(sites):
            return [np.exp(sites[0] / 7.0)]

        def copies(sites):
            shape = np.broadcast_shapes(*(s.shape for s in sites))
            # .copy() is C-ordered; np.array would copy in the broadcast table's own order
            return [np.broadcast_to(t, shape).copy() for t in tables(sites)]

        (a,), (b,) = lattice_sums(k, 1, axes, tables), lattice_sums(k, 1, axes, copies)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("x", EDGE_CASES)
    @pytest.mark.parametrize("last", [False, True])
    def test_a_flat_table_is_the_partition_sum_times_its_row(self, x, last):
        # a table constant along the contracted axis (stride 0 there) takes each point's
        # partition sum, axis_moments' column 0, times its one row, bit for bit; that is within
        # gamma_L sum |w_j T_j| of its C-ordered copy's sum, as is the copy's sum of the exact one
        k = kernel()
        x = np.array(x)
        sites = table_sites(k, 1, [x])[0]
        row = np.cos(np.array([0.25, 2.0, -3.5, 2.0]) / 5.0) - 0.4
        flat = np.broadcast_to(row, (sites.size, row.size))
        (got,) = kernel_module._contract(k, x, sites, [flat], last)
        (copy,) = kernel_module._contract(k, x, sites, [flat.copy()], last)
        mass = axis_moments(k, x, 1, 0)[:, 0]
        assert np.array_equal(got, row[:, None] * mass)
        unit = fractions.Fraction(1, 2**53)
        for u, col, copy_col in zip(x, got.T, copy.T):
            _, ws = own_window(k, u)
            size = ws.size
            for t, value, copied in zip(row, col, copy_col):
                terms = [fractions.Fraction(w) * fractions.Fraction(t) for w in ws]
                bound = size * unit / (1 - size * unit) * sum(abs(s) for s in terms)
                assert abs(fractions.Fraction(value) - fractions.Fraction(copied)) <= bound
                assert abs(fractions.Fraction(copied) - sum(terms)) <= bound

    @pytest.mark.parametrize("n", [8, 32])
    def test_the_euclidean_mass_is_the_outer_product_of_partition_sums(self, n):
        # unit density: 1 / sqrt(det g) is flat along both axes, so the 2-D mass is each axis's
        # partition sum, multiplied once
        k, chart = kernel(), chart_preset("euclidean", 2)
        axes = [np.linspace(-0.3, 0.7, 7), np.r_[np.linspace(0.1, 0.9, 5), 0.5]]

        def tables(mesh):
            return [1.0 / np.asarray(chart.sqrt_det_g(*chart_coords(chart, n, mesh)), dtype=float)]

        (mass,) = lattice_sums(k, n, axes, tables)
        want = np.outer(*(axis_moments(k, x, n, 0)[:, 0] for x in axes))
        assert np.array_equal(mass, want.ravel())

    @pytest.mark.parametrize("alpha, w", [(0.23, 64.0), (0.1135, 128.0)])
    def test_each_point_alone_on_mixed_later_axes(self, alpha, w):
        # W = 64 and 128, where numpy's pairwise row sum groups 2W and 2W + 1 slots differently:
        # both axes mix lattice-site (2W + 1-site) and off-site (2W-site) centres, and every
        # point computed alone equals its row of the call bit for bit
        k = kernel(alpha=alpha)
        assert k.radius == w
        n = int(k.radius) + 8
        x = mixed(np.array([0.3, 0.5, -0.21, 0.25]), n)
        y = mixed(np.array([1.3, 1.0, 1.77, 1.5, 1.25]), n)
        together = lattice_sums(k, n, [x, y], edge_tables)
        for i, j in itertools.product(range(x.size), range(y.size)):
            alone = lattice_sums(k, n, [x[i:i + 1], y[j:j + 1]], edge_tables)
            for t, a in zip(together, alone):
                assert t[i * y.size + j] == a[0], (i, j)



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


# alpha 1, 0.3, 0.125 and 1/16 give W = 16, 49, 116 and 232
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
            # chunk_rows sizes Kantorovich's cell slabs too
            monkeypatch.setattr(kernel_module, "CHUNK_ELEMENTS", elements)
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
        assert kernel_module.chunk_rows(point_work(k, 1)) == 1
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
        # each weight is 1 / (((c1 / f_i) S_j + (c2 f_i) R_j) + c0), f_i and R_j one exp each,
        # S_j = R_(2W - j), bit for bit: for all rows, a chunk of rows into a given buffer, and
        # both window widths
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
        # the mirror image is the reciprocal's exp: 2 alpha (j - W) negates exactly
        assert np.array_equal(ratios[::-1], np.exp(-2.0 * a * (np.arange(2.0 * w + 1.0) - w)))
        rule = window_weights(k, u, lo)
        rows = np.array([3, 0, 17, 40])
        for width in (int(2 * w), int(2 * w) + 1):
            d = ((c1 / factor)[:, None] * ratios[::-1][:width]
                 + (c2 * factor)[:, None] * ratios[:width]) + c0
            want = 1.0 / d
            assert np.array_equal(rule(width), want)
            out = np.empty((rows.size, width))
            got = rule(width, rows, out)
            assert got is out and np.array_equal(got, want[rows])


class TestCentreLimit:
    @settings(deadline=None)
    @given(q=st.floats(0.05, 0.95), alpha=_log_uniform(0.05, 4.0), eps=_log_uniform(1e-14, 1e-6),
           n=st.integers(1, 2**20), scale=st.floats(0.0, 1.0), sign=st.sampled_from([-1.0, 1.0]))
    def test_partition_sum_holds_up_to_the_limit(self, q, alpha, eps, n, scale, sign):
        k = kernel(q, alpha, eps)
        x = sign * scale * (MAX_CENTRE - k.radius - 1.0) / n
        assume(n * abs(x) + k.radius + 1.0 <= MAX_CENTRE)
        # as in TestKernelProperties: the window's offsets from a centre below 2^52 are exact
        slack = gamma(weight_roundings(k)) + gamma(k.width)
        assert abs(axis_moments(k, [x], n, 0)[0, 0] - 1.0) <= eps + slack

    def test_past_the_limit_is_rejected(self):
        k = kernel()
        with pytest.raises(ValueError, match="2\\^52"):
            axis_moments(k, [MAX_CENTRE / 64], 64, 0)
        with pytest.raises(ValueError, match="2\\^52"):
            table_sites(k, 64, [[MAX_CENTRE / 64]])
