"""Batched operator bodies against per-point reference sums; exactness on constants.

The reference functions below are the one-point sums as the package
computed them before the batched engine existed: one Python call per
point, windows from math.ceil/math.floor, weights multiplied out with
np.multiply.outer and reduced with np.sum or a 1-D dot product.  They
never touch kernel.window_rows.

Batched rows must equal them exactly unless the point set holds a
lattice site (a centre n x_i whose window has 2W + 1 sites).  Then the
chunk pads its shorter rows with a zero, which can regroup numpy's
pairwise row sum, so rows may move by 1e-15 relative.  Three more sums
regroup by design and get the same 1e-15 bound:

* fractional rows whose window reaches k < 0, which zero those sites
  instead of dropping them;
* 2-D Kantorovich, whose cell averages come from one BLAS matrix-vector
  product over the chunk's distinct cells, not one per window;
* 1-D Kantorovich with more than 5 quadrature nodes, for the same
  reason (up to 5 nodes, the per-row result does not depend on the
  row's place in the matrix).
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tanhqi import (
    ActivationParams,
    DensityKernel,
    FracConfig,
    MetricKernel,
    OperatorConfig,
    chart_preset,
    function_preset,
    psi_eval,
    rl_derivative,
)
from tanhqi import operators
from tanhqi.kernel import axis_moments, chunk_rows
from tanhqi.manifold import operator_on_chart_batch
from tanhqi.operators import (
    apply_basic_batch,
    apply_fractional_batch,
    apply_kantorovich_batch,
)

REL = 1e-15
PROPERTY = settings(deadline=None, max_examples=40,
                    suppress_health_check=[HealthCheck.too_slow])


class Exp2:
    """exp(x - y/2): positive, so relative bounds on its sums mean something."""

    name = "exp2"
    dim = 2

    @staticmethod
    def value(x, y):
        return np.exp(np.asarray(x, dtype=float) - 0.5 * np.asarray(y, dtype=float))


class Ones2:
    name = "ones2"
    dim = 2

    @staticmethod
    def value(x, y):
        return np.ones_like(np.asarray(x, dtype=float) + np.asarray(y, dtype=float))


# --- per-point reference sums ----------------------------------------------


def ref_window(kernel, u):
    w = kernel.radius
    ks = np.arange(math.ceil(u - w), math.floor(u + w) + 1)
    return ks, psi_eval(kernel, u - ks)


def ref_tensor(kernel, n, x):
    ks, ws = zip(*(ref_window(kernel, n * xi) for xi in x))
    return ks, functools.reduce(np.multiply.outer, ws)


def ref_basic(kernel, n, f, x):
    ks, weights = ref_tensor(kernel, n, x)
    vals = np.asarray(f.value(*np.meshgrid(*[k / n for k in ks], indexing="ij")), dtype=float)
    return float(np.sum(vals * weights))


def ref_kantorovich(kernel, n, g, f, x):
    ks, weights = ref_tensor(kernel, n, x)
    nodes, wts = np.polynomial.legendre.leggauss(g)
    dim = len(x)
    expanded = []
    for i, k in enumerate(ks):
        t = (k[:, None] + (nodes[None, :] + 1.0) / 2.0) / n
        shape = [1] * (2 * dim)
        shape[i] = k.size
        shape[dim + i] = g
        expanded.append(t.reshape(shape))
    vals = np.asarray(f.value(*expanded), dtype=float)
    node_weights = functools.reduce(np.multiply.outer, [wts / 2.0] * dim)
    averages = np.tensordot(vals, node_weights, axes=dim)
    return float(np.sum(averages * weights))


def ref_fractional(kernel, n, dbeta, x):
    ks, weights = ref_window(kernel, n * x)
    admissible = ks >= 0
    ks, weights = ks[admissible], weights[admissible]
    dvals = np.array([dbeta(int(k)) for k in ks])
    return float(dvals @ weights / float(np.sum(weights)))


def ref_chart(mk, n, f, x):
    chart = mk.chart
    ks, weights = ref_tensor(mk.kernel, n, x)
    grids = np.meshgrid(*[k / n for k in ks], indexing="ij")
    sites = chart.coords(np.stack(grids, axis=-1))
    weights = weights / chart.sqrt_det_g(sites)
    weights = weights / np.sum(weights)
    vals = np.asarray(f.value(*[sites[..., i] for i in range(chart.dim)]), dtype=float)
    return float(np.sum(vals * weights))


def ref_moment(kernel, p, x, n):
    ks, weights = ref_window(kernel, n * x)
    if p == 0:
        return float(np.sum(weights))
    return float(((ks / n - x) ** p) @ weights)


# --- strategies and comparison ---------------------------------------------


def _log_uniform(lo, hi):
    return st.floats(math.log2(lo), math.log2(hi)).map(lambda e: 2.0**e)


def kernels(alpha_lo=1.0 / 32.0, alpha_hi=2.0):
    return st.builds(
        lambda q, alpha: DensityKernel(ActivationParams(q, alpha)),
        st.floats(0.05, 0.95), _log_uniform(alpha_lo, alpha_hi),
    )


def draw_points(data, kernel, n, dim, per_site=1, lo=0.0, hi=1.0):
    """Up to two chunks and one point of samples in the box, some moved onto lattice sites."""
    rows = chunk_rows(kernel, dim, per_site)
    count = data.draw(st.one_of(st.integers(1, rows), st.integers(rows + 1, 2 * rows + 1)),
                      label="count")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    pts = rng.uniform(lo, hi, size=(count, dim))
    if data.draw(st.booleans(), label="sites"):
        moved = rng.choice(count, size=max(1, count // 4))
        pts[moved] = np.clip(np.round(pts[moved] * n) / n, lo, hi)
    return pts


def holds_site(kernel, n, pts) -> bool:
    w = kernel.radius
    u = n * pts
    return bool(np.any(np.floor(u + w) - np.ceil(u - w) == 2 * w))


def assert_rows(got, ref, exact):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.all(got[exact] == ref[exact])
    assert np.all(np.abs(got - ref) <= REL * np.abs(ref))


# --- batched == per-point reference ------------------------------------------


class TestBatchedMatchesReference:
    @PROPERTY
    @given(kernel=kernels(), n=st.integers(1, 256), data=st.data())
    def test_basic_one_dim(self, kernel, n, data):
        f = function_preset("exp")
        pts = draw_points(data, kernel, n, 1)
        got = apply_basic_batch(OperatorConfig("basic", n, kernel), f, pts)
        ref = [ref_basic(kernel, n, f, p) for p in pts]
        assert_rows(got, ref, not holds_site(kernel, n, pts))

    @PROPERTY
    @given(kernel=kernels(alpha_lo=0.25), n=st.integers(1, 128), data=st.data())
    def test_basic_two_dim(self, kernel, n, data):
        pts = draw_points(data, kernel, n, 2)
        got = apply_basic_batch(OperatorConfig("basic", n, kernel), Exp2(), pts)
        ref = [ref_basic(kernel, n, Exp2(), p) for p in pts]
        assert_rows(got, ref, not holds_site(kernel, n, pts))

    @PROPERTY
    @given(kernel=kernels(), n=st.integers(1, 256), g=st.integers(2, 9), data=st.data())
    def test_kantorovich_one_dim(self, kernel, n, g, data):
        f = function_preset("exp")
        pts = draw_points(data, kernel, n, 1, per_site=g)
        got = apply_kantorovich_batch(OperatorConfig("kantorovich", n, kernel, quad_nodes=g), f, pts)
        ref = [ref_kantorovich(kernel, n, g, f, p) for p in pts]
        assert_rows(got, ref, g <= 5 and not holds_site(kernel, n, pts))

    @PROPERTY
    @given(kernel=kernels(alpha_lo=0.5), n=st.integers(1, 64), g=st.integers(2, 5), data=st.data())
    def test_kantorovich_two_dim(self, kernel, n, g, data):
        pts = draw_points(data, kernel, n, 2, per_site=g * g)
        got = apply_kantorovich_batch(
            OperatorConfig("kantorovich", n, kernel, quad_nodes=g), Exp2(), pts)
        ref = [ref_kantorovich(kernel, n, g, Exp2(), p) for p in pts]
        assert_rows(got, ref, False)

    @PROPERTY
    @given(kernel=kernels(alpha_lo=0.5), n=st.integers(8, 128), beta=st.floats(0.1, 0.9),
           data=st.data())
    def test_fractional(self, kernel, n, beta, data):
        f = function_preset("pow2")
        frac_cfg = FracConfig(beta, 1e-2)

        @functools.lru_cache(maxsize=None)
        def dbeta(k):
            return rl_derivative(frac_cfg, f, k / n) if k > 0 else 0.0

        pts = draw_points(data, kernel, n, 1)
        cfg = OperatorConfig("fractional", n, kernel, beta=beta, frac_step=1e-2)
        got = apply_fractional_batch(cfg, f, pts)
        ref = [ref_fractional(kernel, n, dbeta, float(x)) for x in pts[:, 0]]
        whole = np.ceil(n * pts[:, 0] - kernel.radius) >= 0
        assert_rows(got, ref, whole & (not holds_site(kernel, n, pts)))

    @PROPERTY
    @given(kernel=kernels(alpha_lo=0.25), chart=st.sampled_from(["euclidean", "torus", "half-plane"]),
           n=st.integers(1, 128), data=st.data())
    def test_chart(self, kernel, chart, n, data):
        if chart == "half-plane":
            # n > W keeps every window above y = 0 for y >= 1
            n = int(kernel.radius) + n
            mk = MetricKernel(kernel, chart_preset("poincare-half-plane"))
            pts = draw_points(data, kernel, n, 2, lo=1.0, hi=2.0)
            f = Exp2()
        else:
            mk = MetricKernel(kernel, chart_preset(chart, 1))
            pts = draw_points(data, kernel, n, 1, lo=-1.0, hi=1.0)
            f = function_preset("exp")
        got = operator_on_chart_batch(mk, f, n, pts)
        ref = [ref_chart(mk, n, f, p) for p in pts]
        assert_rows(got, ref, not holds_site(kernel, n, pts))

    @PROPERTY
    @given(kernel=kernels(), n=st.integers(1, 256), data=st.data())
    def test_moments(self, kernel, n, data):
        x = draw_points(data, kernel, n, 1, lo=-1.0, hi=1.0)[:, 0]
        got = axis_moments(kernel, x, n, 4)
        ref = [[ref_moment(kernel, p, xi, n) for p in range(5)] for xi in x]
        assert_rows(got, ref, not holds_site(kernel, n, x))


# --- exactness on constants ---------------------------------------------------


def small_kernels():
    return st.builds(
        lambda q, alpha, eps: DensityKernel(ActivationParams(q, alpha), eps_trunc=eps),
        st.floats(0.05, 0.95), _log_uniform(1.0 / 16.0, 4.0), _log_uniform(1e-14, 1e-6),
    )


def assert_unity(vals, kernel, scale=1.0):
    # the truncated window misses at most 4 eps W of the partition mass
    assert np.all(np.abs(np.asarray(vals) - scale) <= 4 * kernel.eps_trunc * kernel.radius * scale)


class TestExactOnConstants:
    @PROPERTY
    @given(kernel=small_kernels(), n=st.integers(1, 256), dim=st.integers(1, 2), data=st.data())
    def test_basic(self, kernel, n, dim, data):
        f = function_preset("constant") if dim == 1 else Ones2()
        pts = draw_points(data, kernel, n, dim, lo=-2.0, hi=2.0)
        assert_unity(apply_basic_batch(OperatorConfig("basic", n, kernel), f, pts), kernel)

    @PROPERTY
    @given(kernel=small_kernels(), n=st.integers(1, 256), g=st.integers(2, 6), data=st.data())
    def test_kantorovich(self, kernel, n, g, data):
        pts = draw_points(data, kernel, n, 1, per_site=g, lo=-2.0, hi=2.0)
        cfg = OperatorConfig("kantorovich", n, kernel, quad_nodes=g)
        assert_unity(apply_kantorovich_batch(cfg, function_preset("constant"), pts), kernel)

    @PROPERTY
    @given(kernel=small_kernels(), n=st.integers(1, 64), data=st.data())
    def test_chart(self, kernel, n, data):
        n = int(kernel.radius) + n
        mk = MetricKernel(kernel, chart_preset("poincare-half-plane"))
        pts = draw_points(data, kernel, n, 2, lo=1.0, hi=2.0)
        assert_unity(operator_on_chart_batch(mk, Ones2(), n, pts), kernel)

    @PROPERTY
    @given(kernel=small_kernels(), n=st.integers(1, 256), c=st.floats(-3.0, 3.0), data=st.data())
    def test_fractional(self, kernel, n, c, data):
        # with D^beta f equal to c at every node, the renormalized weights return c
        lo = (kernel.radius + 1.0) / n
        pts = draw_points(data, kernel, n, 1, lo=lo, hi=lo + 1.0)
        cfg = OperatorConfig("fractional", n, kernel, beta=0.5)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "rl_derivative", lambda frac_cfg, f, t: c)
            vals = apply_fractional_batch(cfg, function_preset("pow2"), pts)
        assert_unity(vals / c if c else vals + 1.0, kernel)
