"""Activation function: values, limits, derivative against finite differences."""

import math

import numpy as np
import pytest

from tanhqi import ActivationParams, h_derivative, h_eval, h_limits

Q_GRID = (0.1, 0.3, 0.5, 0.9)
ALPHA_GRID = (0.5, 1.0, 2.0)


def fd_derivative(params, x, step=1e-5):
    # fourth-order central stencil, the independent oracle for h'
    return (
        -h_eval(params, x + 2 * step)
        + 8.0 * h_eval(params, x + step)
        - 8.0 * h_eval(params, x - step)
        + h_eval(params, x - 2 * step)
    ) / (12.0 * step)


class TestParams:
    @pytest.mark.parametrize("q", [1.0, 1.2, -0.1])
    def test_q_outside_open_interval_rejected(self, q):
        with pytest.raises(ValueError):
            ActivationParams(q=q, alpha=1.0)

    @pytest.mark.parametrize("q", [0.0, 0.5, 0.999])
    def test_q_in_half_open_interval_accepted(self, q):
        assert ActivationParams(q=q, alpha=1.0).q == q

    @pytest.mark.parametrize("alpha", [0.0, -1.0, float("inf"), float("nan")])
    def test_nonpositive_alpha_rejected(self, alpha):
        with pytest.raises(ValueError):
            ActivationParams(q=0.5, alpha=alpha)

    def test_valid_params_frozen(self):
        p = ActivationParams(0.5, 2.0)
        assert (p.q, p.alpha) == (0.5, 2.0)


class TestValues:
    def test_q_zero_is_the_classical_tanh(self):
        xs = np.linspace(-5.0, 5.0, 101)
        want = (1.0 + np.tanh(2.0 * xs)) / 2.0
        assert np.allclose(h_eval(ActivationParams(0.0, 2.0), xs), want, rtol=1e-15, atol=1e-16)

    def test_center_value_q_half(self):
        assert h_eval(ActivationParams(0.5, 1.0), 0.0) == 0.25

    @pytest.mark.parametrize("q", Q_GRID)
    def test_center_is_half_one_minus_q(self, q):
        # h is not odd: its value at the origin is (1-q)/2, never 0
        p = ActivationParams(q, 1.0)
        assert h_eval(p, 0.0) == pytest.approx((1.0 - q) / 2.0, abs=1e-15)
        assert h_eval(p, 0.0) != 0.0

    def test_not_odd_away_from_origin(self):
        p = ActivationParams(0.5, 1.0)
        assert abs(h_eval(p, 1.0) + h_eval(p, -1.0)) > 0.05

    def test_limits_frozen_values(self):
        assert h_limits(ActivationParams(0.5, 1.0)) == pytest.approx((-1.0, 2.0 / 3.0), abs=1e-15)
        lo, hi = h_limits(ActivationParams(1.0 / 3.0, 2.0))
        assert lo == pytest.approx(-0.5, abs=1e-15)
        assert hi == pytest.approx(0.75, abs=1e-15)

    def test_lower_limit_at_q_zero_is_positive_zero(self):
        lo, hi = h_limits(ActivationParams(0.0, 1.0))
        assert (lo, hi) == (0.0, 1.0) and math.copysign(1.0, lo) == 1.0

    @pytest.mark.parametrize("q", Q_GRID + (1e-300, 1.0 / 3.0, 0.999))
    def test_limits_at_positive_q_keep_their_bits(self, q):
        lo, hi = h_limits(ActivationParams(q, 1.0))
        assert lo.hex() == (-q / (1.0 - q)).hex() and hi.hex() == (1.0 / (1.0 + q)).hex()

    @pytest.mark.parametrize("q", Q_GRID)
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_saturation_at_forty_over_alpha(self, q, alpha):
        p = ActivationParams(q, alpha)
        lo, hi = h_limits(p)
        x = 40.0 / alpha
        assert h_eval(p, x) == pytest.approx(hi, abs=1e-12)
        assert h_eval(p, -x) == pytest.approx(lo, abs=1e-12)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_range_within_limits(self, q):
        p = ActivationParams(q, 1.3)
        rng = np.random.default_rng(902)
        xs = rng.uniform(-50.0, 50.0, size=1000)
        vals = h_eval(p, xs)
        lo, hi = h_limits(p)
        assert np.all(vals >= lo) and np.all(vals <= hi)

    @pytest.mark.parametrize("q", Q_GRID)
    def test_strictly_increasing_before_saturation(self, q):
        # strict ordering only holds while the exponentials are still
        # resolvable in double precision, so stay within |x| <= 12
        p = ActivationParams(q, 1.3)
        rng = np.random.default_rng(903)
        xs = np.unique(np.sort(rng.uniform(-12.0, 12.0, size=1000)))
        vals = h_eval(p, xs)
        lo, hi = h_limits(p)
        assert np.all(vals > lo) and np.all(vals < hi)
        assert np.all(np.diff(vals) > 0.0)

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_no_overflow_for_huge_arguments(self, alpha):
        p = ActivationParams(0.5, alpha)
        big = 700.0 / alpha
        with np.errstate(over="raise", invalid="raise"):
            for x in (big, -big):
                assert np.isfinite(h_eval(p, x))
                assert np.isfinite(h_derivative(p, x))
        lo, hi = h_limits(p)
        assert h_eval(p, big) == pytest.approx(hi, abs=1e-15)
        assert h_eval(p, -big) == pytest.approx(lo, abs=1e-15)

    def test_scalar_and_array_agree(self):
        p = ActivationParams(0.3, 2.0)
        xs = np.array([-3.0, -0.2, 0.0, 0.7, 11.0])
        vec = h_eval(p, xs)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert h_eval(p, float(x)) == v


class TestDerivative:
    def test_frozen_value_at_origin(self):
        # 2 alpha (1+q^2) / D(0)^2 with D(0) = 2 gives 0.625 at q = 0.5
        got = h_derivative(ActivationParams(0.5, 1.0), 0.0)
        assert got == pytest.approx(0.625, abs=1e-15)

    def test_one_minus_q_squared_variant_rejected(self):
        # the occasionally printed numerator 2 alpha (1-q^2) would give
        # 0.375 here; finite differences side with 0.625
        p = ActivationParams(0.5, 1.0)
        assert abs(h_derivative(p, 0.0) - 0.375) > 0.2
        assert fd_derivative(p, 0.0) == pytest.approx(0.625, abs=1e-9)

    @pytest.mark.parametrize("q", Q_GRID)
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_matches_finite_differences(self, q, alpha):
        p = ActivationParams(q, alpha)
        xs = np.linspace(-10.0, 10.0, 201)
        analytic = h_derivative(p, xs)
        numeric = fd_derivative(p, xs)
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
        assert np.max(rel) <= 1e-8

    def test_positive_everywhere(self):
        p = ActivationParams(0.9, 0.5)
        xs = np.linspace(-60.0, 60.0, 2001)
        assert np.all(h_derivative(p, xs) > 0.0)
