"""Gamma function and the Riemann-Liouville fractional derivative."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tanhqi import (
    ActivationParams,
    DensityKernel,
    FracConfig,
    fractional,
    function_preset,
    gamma_fn,
    power_rule_oracle,
    rl_derivative_batch,
)
from tanhqi.analysis import grid_axes
from tanhqi.kernel import CHUNK_ELEMENTS, table_sites
from tanhqi.operators import fractional_nodes
from tanhqi.fractional import MAX_GRID_POINTS, l1_work


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

    def test_grid_cap_counts_points(self):
        # a grid of M = ceil(x/h) intervals holds M + 1 points: exactly MAX_GRID_POINTS pass, and
        # one point more is an error naming that count
        h = 2.0**-24  # x/h is exact below 2^24
        assert l1_work([(MAX_GRID_POINTS - 1) * h], h) == MAX_GRID_POINTS
        for xs, step in (([MAX_GRID_POINTS * h], h), ([1.0], 1e-7)):
            with pytest.raises(ValueError, match=r"L1 grid would need 10000001 points \(> 10000000\)"):
                l1_work(xs, step)

    def test_l1_work_capped_exactly(self, monkeypatch):
        # M = 512, 1024 and 256 intervals: 1795 grid points in all
        cfg, xs = FracConfig(0.5, 2.0**-10), [0.5, 1.0, 0.25]
        monkeypatch.setattr(fractional, "MAX_L1_WORK", 1795)
        rl_derivative_batch(cfg, IDENTITY, xs)
        monkeypatch.setattr(fractional, "MAX_L1_WORK", 1794)
        with pytest.raises(ValueError, match=r"would need 1795 points in all \(> 1794\)"):
            rl_derivative_batch(cfg, IDENTITY, xs)

    def test_empty_nodes(self):
        assert rl_derivative_batch(FracConfig(0.5, 1e-3), IDENTITY, []).shape == (0,)


@st.composite
def node_sets(draw, h):
    """Unsorted nodes: many short grids across block boundaries, distinct M of one row width
    (65 .. 128 points, so one block), repeats, one grid past CHUNK_ELEMENTS."""
    short = draw(st.lists(st.floats(1e-3, 200.0), min_size=1, max_size=300))
    one_width = [k - 0.5 for k in draw(st.lists(st.integers(65, 127), min_size=2, max_size=10,
                                                unique=True))]
    repeats = draw(st.lists(st.sampled_from(short), max_size=20))
    long = draw(st.floats(CHUNK_ELEMENTS, CHUNK_ELEMENTS + 300.0))
    units = np.array(short + one_width + repeats + [long])
    order = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(units.size)
    return units[order] * h


PRESETS = st.sampled_from(["sin", "pow2", "pow3", "runge"])
BETAS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
STEPS = st.floats(math.log(1e-4), math.log(0.1)).map(lambda v: min(math.exp(v), 0.1))


class TestNodeValueStandsAlone:
    @settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(name=PRESETS, beta=BETAS, h=STEPS, data=st.data())
    def test_bit_for_bit_whoever_the_other_nodes_are(self, name, beta, h, data):
        # runge has f(0) = 1, so its rows' pad points are non-zero and the initial-value term is
        # exercised too
        f, cfg = function_preset(name), FracConfig(beta, h)
        xs = data.draw(node_sets(cfg.h))
        got = rl_derivative_batch(cfg, f, xs)
        assert np.array_equal(got, [rl_derivative_batch(cfg, f, [x])[0] for x in xs])
        perm = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).permutation(xs.size)
        assert np.array_equal(rl_derivative_batch(cfg, f, xs[perm]), got[perm])
        repeated = np.concatenate([xs, xs[::3], xs[:1]])
        assert np.array_equal(rl_derivative_batch(cfg, f, repeated),
                              np.concatenate([got, got[::3], got[:1]]))


class TestBlocks:
    @settings(deadline=None, max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    @given(name=PRESETS, beta=BETAS, h=STEPS, data=st.data())
    def test_every_f_call_takes_at_most_a_chunk_unless_one_row_is_wider(self, name, beta, h, data):
        # the blocks follow kernel.chunk_rows, like the lattice chunks: a block of rows holds at
        # most CHUNK_ELEMENTS grid points, and a wider row is a block of its own; a crowd of
        # 64-point rows fills several blocks
        f, cfg = function_preset(name), FracConfig(beta, h)
        shapes = []

        class Recording:
            def value(self, t):
                shapes.append(np.shape(t))
                return f.value(t)

        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        crowd = rng.uniform(0.5, 62.5, data.draw(st.integers(2, 3)) * CHUNK_ELEMENTS // 64 + 1)
        xs = np.concatenate([data.draw(node_sets(cfg.h)), crowd * cfg.h])
        rl_derivative_batch(cfg, Recording(), xs)
        blocks = [shape for shape in shapes if shape]  # f(0) is a scalar call
        for rows, width in blocks:
            assert rows * width <= CHUNK_ELEMENTS or (rows == 1 and width > CHUNK_ELEMENTS)
        # every row once, and each width's rows in as few blocks as the rule allows
        widths = -(-(np.ceil(xs / cfg.h) + 1) // 64) * 64
        counts = dict(zip(*np.unique(widths, return_counts=True)))
        assert sum(rows for rows, _ in blocks) == xs.size
        assert len(blocks) == sum(-(-int(count) // max(1, CHUNK_ELEMENTS // int(width)))
                                  for width, count in counts.items())


class TestScale:
    @settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(name=PRESETS, beta=BETAS, h=STEPS, data=st.data())
    def test_each_value_is_the_math_pow_scale_within_one_ulp_of_each_pow(self, name, beta, h,
                                                                          data):
        """D^beta f = (x/M)^-beta / Gamma(2 - beta) * s + f(0) x^-beta / Gamma(1 - beta) takes
        numpy's vector pow.  It and math.pow (the C library's) are faithful: each is one of the
        two doubles around the exact power, so the two differ by at most one ulp.  The divisions,
        products and the sum are the same IEEE operations in numpy and in Python floats, so each
        value is the math.pow reference with each pow moved by at most one ulp."""
        f, cfg = function_preset(name), FracConfig(beta, h)
        xs = data.draw(node_sets(cfg.h))
        got = rl_derivative_batch(cfg, f, xs)
        ms = np.ceil(xs / cfg.h).astype(np.int64)
        b = np.diff(np.arange(ms.max() + fractional._ROW_QUANTUM, dtype=float) ** (1.0 - beta))
        sums = fractional._l1_sums(f, xs, ms, b)
        g2, g1, f0 = gamma_fn(2.0 - beta), gamma_fn(1.0 - beta), float(f.value(0.0))

        def near(p):
            return {math.nextafter(p, -math.inf), p, math.nextafter(p, math.inf)}

        for x, m, s, value in zip(xs.tolist(), ms.tolist(), sums.tolist(), got.tolist()):
            assert value in {p1 / g2 * s + f0 * p2 / g1 for p1 in near(math.pow(x / m, -beta))
                             for p2 in near(math.pow(x, -beta))}


def exact_dot(a, b) -> Fraction:
    """sum_i a_i b_i in exact rational arithmetic (each float is p / 2^k)."""
    terms = []
    for x, y in zip(a.tolist(), b.tolist()):
        (p, q), (r, s) = x.as_integer_ratio(), y.as_integer_ratio()
        terms.append((p * r, (q * s).bit_length() - 1))
    k = max(e for _, e in terms)
    return Fraction(sum(v << (k - e) for v, e in terms), 1 << k)


class TestCaputoSumAccuracy:
    @settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(name=PRESETS, beta=BETAS, h=STEPS,
           units=st.lists(st.floats(1e-3, CHUNK_ELEMENTS + 300.0), min_size=1, max_size=4))
    def test_within_the_dot_product_bound_of_the_exact_sum(self, name, beta, h, units):
        """Each node's sum of b_j (f(t_{M-j}) - f(t_{M-j-1})), its M terms added in any order,
        is within gamma_M sum_j |b_j df_j|, gamma_M = M u / (1 - M u), of the exact sum of the
        same float b_j and differences: M - 1 roundings of the additions and one of each
        product (the pad terms are exact zeros and round nothing)."""
        f, cfg = function_preset(name), FracConfig(beta, h)
        xs = np.array(units) * cfg.h
        ms = np.ceil(xs / cfg.h).astype(np.int64)
        b = np.diff(np.arange(ms.max() + fractional._ROW_QUANTUM, dtype=float) ** (1.0 - beta))
        sums = fractional._l1_sums(f, xs, ms, b)
        u = Fraction(1, 2**53)
        for x, m, s in zip(xs.tolist(), ms.tolist(), sums.tolist()):
            t = np.arange(m + 1, dtype=float) * (x / m)
            t[m] = x
            fv = np.asarray(f.value(t), dtype=float)
            df = (fv[1:] - fv[:-1])[::-1]
            gamma = m * u / (1 - m * u)
            assert abs(Fraction(s) - exact_dot(b[:m], df)) <= gamma * exact_dot(np.abs(b[:m]),
                                                                                np.abs(df))


NODE_KERNEL = DensityKernel(ActivationParams(0.5, 1.0))


@st.composite
def one_axis_tables(draw):
    """(points, n, runs): a grid_axes grid over a box in [0, 4] at small n, or sparse points at
    large n, up to 2^40, whose centres n x lie 1.5 (2W + 2) or more apart, so the lattice table
    splits into one run of sites per point; runs is None when not known."""
    if draw(st.booleans()):
        lo, width = draw(st.floats(0.0, 2.0)), draw(st.floats(1e-3, 2.0))
        axis = grid_axes([(lo, lo + width)], draw(st.integers(1, 60)))[0]
        return axis, draw(st.integers(1, 4096)), None
    n = draw(st.integers(2**10, 2**40))
    steps = draw(st.lists(st.floats(1.5, 1e3), min_size=2, max_size=8))
    points = draw(st.floats(0.0, 2.0)) + (2 * NODE_KERNEL.radius + 2) / n * np.cumsum(steps)
    return points, n, len(steps)


class TestFractionalNodes:
    @settings(deadline=None, max_examples=80)
    @given(table=one_axis_tables())
    def test_strictly_ascending_and_positive(self, table):
        # apply_fractional_batch tabulates D^beta f at these nodes as they come, without
        # np.unique, and looks them up by np.searchsorted
        points, n, runs = table
        (ks,) = table_sites(NODE_KERNEL, n, [points])
        if runs is not None:
            assert np.count_nonzero(np.diff(ks) > 1.0) + 1 == runs
        nodes = fractional_nodes(function_preset("pow2"), n, ks)
        assert np.array_equal(nodes, ks[ks > 0.0] / n)
        assert (nodes > 0.0).all() and (np.diff(nodes) > 0.0).all()


class TestMemoryBudget:
    def test_one_call_over_the_frac_benchmarks_pow3_nodes(self):
        """The frac benchmark's pow3 run (q 0.5, alpha 1, eps 1e-12, step 1e-4, n 64 .. 512, 51
        points on [0.2, 1]) tabulates D^beta f at its 478 distinct nodes in one call.  The call
        holds at most three block-sized arrays (t, f(t) and the differences), the count table
        and b of m_max + _ROW_QUANTUM numbers each, and a few arrays of one number per node."""
        kernel = DensityKernel(ActivationParams(0.5, 1.0), 1e-12)
        f, cfg = function_preset("pow3"), FracConfig(0.25, 1e-4)
        axes = grid_axes([(0.2, 1.0)], 51)
        xs = np.unique(np.concatenate([fractional_nodes(f, n, table_sites(kernel, n, axes)[0])
                                       for n in (64, 128, 256, 512)]))
        m_max, quantum = math.ceil(xs.max() / cfg.h), fractional._ROW_QUANTUM
        block = max(CHUNK_ELEMENTS, -(-(m_max + 1) // quantum) * quantum)
        budget = 8 * (3 * block + 2 * (m_max + quantum) + 12 * xs.size)
        assert (xs.size, m_max, budget) == (478, 12344, 637632)
        rl_derivative_batch(cfg, f, xs)
        tracemalloc.start()
        try:
            rl_derivative_batch(cfg, f, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget


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
