"""Gamma function and the Riemann-Liouville fractional derivative."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tanhqi import FracConfig, function_preset, gamma_fn, power_rule_oracle, rl_derivative_batch
from tanhqi.fractional import L1_CHUNK_POINTS, MAX_GRID_POINTS


class TestGamma:
    def test_frozen_values(self):
        assert gamma_fn(0.5) == pytest.approx(1.7724538509055159, rel=1e-13)
        assert gamma_fn(2.5) == pytest.approx(1.329340388179137, rel=1e-13)
        assert gamma_fn(1.0) == 1.0 or gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 10, 15])
    def test_factorials(self, n):
        assert gamma_fn(float(n + 1)) == pytest.approx(math.factorial(n), rel=1e-13)

    def test_recursion_identity(self):
        rng = np.random.default_rng(417)
        xs = rng.uniform(0.1, 60.0, size=1000)
        worst = 0.0
        for x in xs:
            lhs = gamma_fn(x + 1.0)
            rhs = x * gamma_fn(x)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        assert worst <= 1e-12

    def test_against_stdlib(self):
        xs = np.linspace(0.05, 100.0, 777)
        for x in xs:
            assert gamma_fn(float(x)) == pytest.approx(math.gamma(float(x)), rel=1e-12)

    def test_large_argument_overflows_to_inf(self):
        assert gamma_fn(200.0) == math.inf

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_nonpositive_rejected(self, x):
        with pytest.raises(ValueError):
            gamma_fn(x)


class TestFracConfig:
    def test_valid(self):
        cfg = FracConfig(beta=0.5, h=1e-3)
        assert cfg.beta == 0.5

    @pytest.mark.parametrize("beta", [0.0, 1.0, 1.5, -0.2])
    def test_beta_open_interval(self, beta):
        with pytest.raises(ValueError):
            FracConfig(beta=beta, h=1e-3)

    @pytest.mark.parametrize("h", [0.0, -1e-3, 0.2, math.inf, math.nan])
    def test_step_bounds(self, h):
        with pytest.raises(ValueError):
            FracConfig(beta=0.5, h=h)


class Fn:
    """Wrap a vectorized callable in the value() interface presets use."""

    def __init__(self, fn):
        self._fn = fn

    def value(self, t):
        return self._fn(np.asarray(t, dtype=float))


IDENTITY = Fn(lambda t: t)
ONE = Fn(np.ones_like)


class TestRLDerivative:
    def test_identity_frozen(self):
        # the half derivative of t at 1 is 2/sqrt(pi)
        got = rl_derivative_batch(FracConfig(0.5, 1e-4), IDENTITY, [1.0])[0]
        assert got == pytest.approx(2.0 / math.sqrt(math.pi), abs=1e-4)

    def test_constant_frozen(self):
        # the beta derivative of 1 at 1 is 1/Gamma(1-beta), exact for
        # the scheme because the history sum vanishes
        got = rl_derivative_batch(FracConfig(0.3, 1e-3), ONE, [1.0])[0]
        assert got == pytest.approx(1.0 / gamma_fn(0.7), abs=1e-6)

    def test_zero_function(self):
        assert rl_derivative_batch(FracConfig(0.7, 1e-3), Fn(np.zeros_like), [0.8])[0] == 0.0

    @pytest.mark.parametrize("beta", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_power_rule_matrix(self, beta, p):
        fn = ONE if p == 0 else Fn(lambda t: t**p)
        got = rl_derivative_batch(FracConfig(beta, 1e-4), fn, [0.9])[0]
        want = power_rule_oracle(p, beta, 0.9)
        assert got == pytest.approx(want, rel=2e-4, abs=2e-4)

    def test_second_order_in_step(self):
        # halving h should shrink the error by about 2^(2-beta)
        beta, x = 0.5, 1.0
        exact = power_rule_oracle(2, beta, x)
        errs = []
        for h in (2e-3, 1e-3, 5e-4):
            got = rl_derivative_batch(FracConfig(beta, h), Fn(lambda t: t * t), [x])[0]
            errs.append(abs(got - exact))
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        for r in ratios:
            assert 2.0 ** (2 - beta) * 0.7 <= r <= 2.0 ** (2 - beta) * 1.3

    def test_linearity(self):
        cfg = FracConfig(0.4, 1e-3)
        lhs = rl_derivative_batch(cfg, Fn(lambda t: 2.0 * np.sin(t) - 3.0 * t * t), [0.7])[0]
        rhs = (2.0 * rl_derivative_batch(cfg, Fn(np.sin), [0.7])[0]
               - 3.0 * rl_derivative_batch(cfg, Fn(lambda t: t * t), [0.7])[0])
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_exact_for_affine(self):
        # the history weights integrate piecewise-linear functions
        # exactly, so affine inputs need no small step
        cfg = FracConfig(0.5, 0.05)
        got = rl_derivative_batch(cfg, Fn(lambda t: 2.0 + 3.0 * t), [1.0])[0]
        want = 2.0 * power_rule_oracle(0, 0.5, 1.0) + 3.0 * power_rule_oracle(1, 0.5, 1.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_nonpositive_point_rejected(self):
        with pytest.raises(ValueError):
            rl_derivative_batch(FracConfig(0.5, 1e-3), IDENTITY, [0.0])[0]
        with pytest.raises(ValueError):
            rl_derivative_batch(FracConfig(0.5, 1e-3), IDENTITY, [-1.0])[0]
        with pytest.raises(ValueError, match=r"got -0\.25"):
            rl_derivative_batch(FracConfig(0.5, 1e-3), IDENTITY, [0.5, -0.25, 0.0])

    def test_grid_cap(self):
        assert MAX_GRID_POINTS == 10**7
        with pytest.raises(ValueError):
            rl_derivative_batch(FracConfig(0.5, 1e-9), IDENTITY, [1.0])[0]
        # x / h overflows to inf, which the cap rejects too
        with pytest.raises(ValueError, match="inf points"):
            rl_derivative_batch(FracConfig(0.5, 1e-3), IDENTITY, [1e308])[0]
        # the cap is checked on the largest node before any grid is built
        with pytest.raises(ValueError, match="inf points"):
            rl_derivative_batch(FracConfig(0.5, 1e-3), IDENTITY, [0.5, 1e308, 1.0])

    def test_empty_nodes(self):
        assert rl_derivative_batch(FracConfig(0.5, 1e-3), IDENTITY, []).shape == (0,)


def scalar_l1(cfg, f, x):
    """The one-node L1 body the batched function replaced: its values must not move."""
    m = math.ceil(x / cfg.h)
    tau = x / m
    t = np.linspace(0.0, x, m + 1)
    fv = np.asarray(f.value(t), dtype=float)
    diffs = fv[1:] - fv[:-1]
    j = np.arange(m, dtype=float)
    b = (j + 1.0) ** (1.0 - cfg.beta) - j ** (1.0 - cfg.beta)
    caputo = tau ** (-cfg.beta) / gamma_fn(2.0 - cfg.beta) * float(b @ diffs[::-1])
    initial = float(f.value(0.0)) * x ** (-cfg.beta) / gamma_fn(1.0 - cfg.beta)
    return caputo + initial


@st.composite
def node_sets(draw, h):
    """Unsorted nodes: many short grids across chunk boundaries, repeats, one grid past a chunk."""
    short = draw(st.lists(st.floats(1e-3, 200.0), min_size=1, max_size=300))
    repeats = draw(st.lists(st.sampled_from(short), max_size=20))
    long = draw(st.floats(L1_CHUNK_POINTS, L1_CHUNK_POINTS + 300.0))
    units = np.array(short + repeats + [long])
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(units.size)
    return units[order] * h


class TestBatchIsBitIdentical:
    @settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(name=st.sampled_from(["sin", "pow2", "pow3", "runge"]),
           beta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           h=st.floats(math.log(1e-4), math.log(0.1)).map(math.exp), data=st.data())
    def test_matches_scalar_body(self, name, beta, h, data):
        # runge has f(0) = 1, so the initial-value term is exercised too
        f, cfg = function_preset(name), FracConfig(beta, min(h, 0.1))
        xs = data.draw(node_sets(cfg.h))
        got = rl_derivative_batch(cfg, f, xs)
        want = np.array([scalar_l1(cfg, f, float(x)) for x in xs])
        assert np.array_equal(got, want)


class TestPowerRuleOracle:
    def test_frozen_values(self):
        assert power_rule_oracle(1, 0.5, 1.0) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-13)
        assert power_rule_oracle(2, 0.5, 1.0) == pytest.approx(
            gamma_fn(3.0) / gamma_fn(2.5), rel=1e-13
        )
        assert gamma_fn(3.0) / gamma_fn(2.5) == pytest.approx(1.5045055561273502, rel=1e-12)

    def test_constant_case(self):
        assert power_rule_oracle(0, 0.5, 1.0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)
        assert 1.0 / math.sqrt(math.pi) == pytest.approx(0.5641895835477563, rel=1e-15)

    def test_scaling_in_x(self):
        # D^beta t^p scales like x^(p-beta)
        a = power_rule_oracle(2, 0.3, 0.5)
        b = power_rule_oracle(2, 0.3, 1.0)
        assert a / b == pytest.approx(0.5 ** (2 - 0.3), rel=1e-12)

    def test_guards(self):
        with pytest.raises(ValueError):
            power_rule_oracle(-1, 0.5, 1.0)
        with pytest.raises(ValueError):
            power_rule_oracle(1, 0.5, 0.0)
        with pytest.raises(ValueError):
            power_rule_oracle(1, 1.5, 1.0)
