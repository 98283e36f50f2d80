"""Bundled test functions: values, analytic derivatives, metadata."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tanhqi import function_preset, preset_names


def fd(fn, order, t, step):
    """Central finite difference of the given order at t."""
    if order == 1:
        return (fn(t + step) - fn(t - step)) / (2.0 * step)
    if order == 2:
        return (fn(t + step) - 2.0 * fn(t) + fn(t - step)) / step**2
    if order == 3:
        return (
            fn(t + 2 * step) - 2.0 * fn(t + step) + 2.0 * fn(t - step) - fn(t - 2 * step)
        ) / (2.0 * step**3)
    return (
        fn(t + 2 * step) - 4.0 * fn(t + step) + 6.0 * fn(t) - 4.0 * fn(t - step) + fn(t - 2 * step)
    ) / step**4


MONOMIALS = tuple((p, name) for p, degree in enumerate(("constant", "linear", "quadratic", "cubic"))
                  for name in (degree, f"pow{p}"))
# negative values, both zeros and subnormals included; cubes of |t| <= 1e100 stay finite
samples = st.floats(-1e100, 1e100, allow_nan=False)


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


SMOOTH_1D = ("constant", "linear", "quadratic", "cubic", "sin", "exp", "runge")


class TestRegistry:
    def test_known_names_present(self):
        names = preset_names()
        for expected in SMOOTH_1D + ("abs25", "pow0", "pow1", "pow2", "pow3", "sin-exp"):
            assert expected in names

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown preset"):
            function_preset("no-such-function")

    def test_metadata_fields(self):
        runge = function_preset("runge")
        assert runge.dim == 1
        assert runge.smoothness == math.inf
        abs25 = function_preset("abs25")
        assert abs25.smoothness == 2.0
        for p, name in enumerate(("pow0", "pow1", "pow2", "pow3")):
            assert function_preset(name).power == p
        assert function_preset("sin").power is None

    def test_two_dim_preset(self):
        f = function_preset("sin-exp")
        assert f.dim == 2
        assert f.value(0.3, 0.7) == pytest.approx(math.sin(0.3) * math.exp(-0.7), rel=1e-14)


class TestDerivatives:
    def test_order_zero_is_value(self):
        for name in SMOOTH_1D:
            f = function_preset(name)
            assert f.derivative((0,), 0.37) == f.value(0.37)

    @pytest.mark.parametrize("name", SMOOTH_1D)
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matches_finite_differences(self, name, order):
        # steps chosen near the roundoff/truncation crossover for each
        # stencil order; tolerances widen accordingly
        f = function_preset(name)
        step = {1: 1e-6, 2: 1e-5, 3: 1e-3, 4: 4e-3}[order]
        tol = {1: 1e-9, 2: 1e-5, 3: 2e-4, 4: 1e-2}[order]
        for t in (0.1, 0.45, 0.8):
            numeric = fd(f.value, order, t, step)
            analytic = f.derivative((order,), t)
            scale = max(1.0, abs(analytic))
            assert abs(analytic - numeric) / scale <= tol

    @pytest.mark.parametrize("order", [1, 2])
    def test_abs25_away_from_kink(self, order):
        f = function_preset("abs25")
        step = {1: 1e-6, 2: 1e-5}[order]
        for t in (0.1, 0.8):
            numeric = fd(f.value, order, t, step)
            assert f.derivative((order,), t) == pytest.approx(numeric, rel=1e-4)

    @pytest.mark.parametrize("order", [3, 4])
    def test_abs25_high_orders_away_from_kink(self, order):
        # orders three and four hold off the kink only: each is the slope of the order below
        f = function_preset("abs25")
        for t in (0.1, 0.8):
            numeric = fd(lambda s: f.derivative((order - 1,), s), 1, t, 1e-6)
            assert f.derivative((order,), t) == pytest.approx(numeric, rel=1e-6)

    def test_runge_frozen_values(self):
        f = function_preset("runge")
        assert f.value(0.2) == pytest.approx(0.5, rel=1e-14)
        assert f.derivative((1,), 0.2) == pytest.approx(-2.5, rel=1e-12)
        assert f.value(0.0) == pytest.approx(1.0, rel=1e-14)

    def test_two_dim_mixed_derivative(self):
        f = function_preset("sin-exp")
        got = f.derivative((1, 1), 0.3, 0.7)
        assert got == pytest.approx(-math.cos(0.3) * math.exp(-0.7), rel=1e-12)

    def test_vectorized_evaluation(self):
        f = function_preset("sin")
        ts = np.linspace(0.0, 1.0, 7)
        vals = f.value(ts)
        assert vals.shape == ts.shape
        assert np.allclose(vals, np.sin(ts), rtol=1e-14)


class TestMonomialProducts:
    """t^p is the left-to-right product ((t*t)*t)..., not numpy's pow."""

    @given(t=samples, ts=st.lists(samples, min_size=1, max_size=16))
    @example(t=-0.0, ts=[0.0, -0.0])
    @example(t=5e-324, ts=[-5e-324, 2.2250738585072014e-308, -1e-110])
    @example(t=1e100, ts=[-1e100, 1.0 + 2.0**-52, -(2.0 - 2.0**-52)])
    def test_values_are_left_to_right_products(self, t, ts):
        for p, name in MONOMIALS:
            f = function_preset(name)
            assert bits(f.value(t)) == bits(math.prod([t] * p))
            got = f.value(np.array(ts))
            assert got.shape == (len(ts),)
            assert np.array_equal(bits(got), bits([math.prod([s] * p) for s in ts]))

    @given(t=samples)
    @example(t=0.0)
    @example(t=5e-324)
    def test_odd_powers_are_sign_symmetric(self, t):
        for name in ("linear", "pow1", "cubic", "pow3"):
            f = function_preset(name)
            assert bits(f.value(-t)) == bits(-f.value(t))

    @given(t=samples)
    @example(t=1.0 + 2.0**-52)
    @example(t=2.0 ** (1.0 / 3.0))
    @example(t=1e-110)
    def test_cubic_within_one_and_a_half_ulp(self, t):
        # ulp of the exact cube rounded to a double; the first product's rounding carries at
        # most 0.8 ulp into the cube and the second rounds at most 0.5 ulp
        exact = Fraction(t) ** 3
        got = Fraction(float(function_preset("cubic").value(t)))
        assert abs(got - exact) <= Fraction(3, 2) * Fraction(math.ulp(float(exact)))

    def test_shapes_and_scalars_kept(self):
        ts = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
        for p, name in MONOMIALS:
            f = function_preset(name)
            assert f.value(ts).shape == (2, 3)
            assert float(f.value(0.5)) == 0.5**p
            # never the caller's own array, which a caller might then write to
            assert f.value(ts) is not ts


class TestValidation:
    def test_dim_mismatch_rejected(self):
        f = function_preset("sin")
        with pytest.raises(ValueError):
            f.value(0.3, 0.7)
        with pytest.raises(ValueError):
            f.derivative((1, 0), 0.3, 0.7)

    def test_order_above_four_rejected(self):
        f = function_preset("sin")
        with pytest.raises(ValueError):
            f.derivative((5,), 0.3)

    def test_negative_entry_rejected(self):
        f = function_preset("sin")
        with pytest.raises(ValueError):
            f.derivative((-1,), 0.3)

    def test_coordinate_count_rejected(self):
        with pytest.raises(ValueError, match=r"sin takes 1 coordinate\(s\), got 2"):
            function_preset("sin").derivative((1,), 0.3, 0.7)
