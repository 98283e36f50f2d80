"""Bundled test functions: values, analytic derivatives, metadata."""

import math

import numpy as np
import pytest

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
