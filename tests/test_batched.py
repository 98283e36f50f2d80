"""Batched operator bodies against per-point reference sums; exactness on constants.

The reference functions below are the one-point sums as the package
computed them before the batched engine existed: one Python call per
point, windows from math.ceil/math.floor, weights multiplied out with
np.multiply.outer and reduced with np.sum, or, for a 1-D window, with
one BLAS dot product, as the package's last axis sums each row.  They
never touch the package's window plan: a window's sites come from
math.ceil and math.floor, and its weights from ``kernel.window_weights``
applied to that one centre, the rule every lattice window takes (held to
the exact kernel and to psi_eval in ``test_kernel``).  The operators take a tensor
grid as per-axis coordinates (drawn unsorted, with repeats, sometimes on
lattice sites, and with first axes longer than one chunk, its size
patched to SMALL_CHUNK so the grids stay short); the references walk its
points in C order.

1-D basic and Kantorovich rows, moments and fractional rows whose
window lies in k >= 0 must equal them exactly on every grid: a
first-axis row sums its own window, 2W sites or, for a lattice-site
centre n x_i, 2W + 1, whatever the other points of its call, and a
fractional row's numerator and weight sum are both BLAS dot products
(the weight sum one with a table of ones).  Every 2-D sum regroups by
design and gets a 1e-15 relative bound: it contracts one axis at a time
instead of summing each point's (2W)^2 window products pairwise (the
examples at W = 64 and 128 mix 2W- and 2W + 1-site windows on each
axis).

A Kantorovich cell average is one dot product over that cell's
quadrature samples, in the operator and in ``ref_kantorovich`` alike, so
1-D Kantorovich rows are exact for every node count.  Both take the rule
from ``operators._gauss_rule``: these tests pin the batched sums, and the
rule itself is held to a high-precision reference in ``test_operators``.

Fractional rows whose window reaches k < 0 zero those sites instead of
dropping them; they are held to the forward-error bound of their
length-(2W + 1) dot product and sum, derived in ``test_fractional``.
Chart sums, a ratio of the sums of f/sqrt(det g) and 1/sqrt(det g)
instead of a sum over weights normalized first, are held to the
forward-error bound of both ways to the ratio (``chart_bound``): a flat
1e-15 failed by 1.108e-15 on a half-plane grid holding a lattice site.

A fractional sweep reads D^beta f from one table over the distinct nodes
of all its n; its rows and operator values must equal those of one
standalone call per n bit for bit.
"""

import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from tanhqi import (
    ActivationParams,
    DensityKernel,
    FracConfig,
    chart_preset,
    function_preset,
    rl_derivative_batch,
)
from tanhqi import analysis, operators
from tanhqi import kernel as kernel_module
from tanhqi.analysis import fractional_sweep, grid_axes
from tanhqi.fractional import power_rule_oracle
from tanhqi.kernel import axis_moments, chunk_rows, point_work, table_sites, window_weights
from tanhqi.manifold import operator_on_chart_batch
from tanhqi.operators import (
    apply_basic_batch,
    apply_fractional_batch,
    apply_kantorovich_batch,
    fractional_nodes,
)

REL = 1e-15
PROPERTY = settings(deadline=None, max_examples=40,
                    suppress_health_check=[HealthCheck.too_slow])
# CHUNK_ELEMENTS while a test draws axes: its grids past one chunk, and so the per-point
# references, stay short whatever the package's own chunk size
SMALL_CHUNK = 2**11


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
    return ks, window_weights(kernel, np.array([u]), np.array([float(ks[0])]))(ks.size)[0]


def ref_tensor(kernel, n, x):
    ks, ws = zip(*(ref_window(kernel, n * xi) for xi in x))
    return ks, functools.reduce(np.multiply.outer, ws)


def ref_sum(vals, weights):
    # a 1-D window as one BLAS dot, as the package's last axis sums it; more axes multiplied
    # out and summed pairwise
    return float(np.dot(vals, weights) if weights.ndim == 1 else np.sum(vals * weights))


def ref_basic(kernel, n, f, x):
    ks, weights = ref_tensor(kernel, n, x)
    vals = np.asarray(f.value(*np.meshgrid(*[k / n for k in ks], indexing="ij")), dtype=float)
    return ref_sum(vals, weights)


def ref_kantorovich(kernel, n, g, f, x):
    ks, weights = ref_tensor(kernel, n, x)
    offsets, wts = operators._gauss_rule(g)
    dim = len(x)
    expanded = []
    for i, k in enumerate(ks):
        t = (k[:, None] + offsets[None, :]) / n
        shape = [1] * (2 * dim)
        shape[i] = k.size
        shape[dim + i] = g
        expanded.append(t.reshape(shape))
    vals = np.asarray(f.value(*expanded), dtype=float)
    node_weights = functools.reduce(np.multiply.outer, [wts] * dim).ravel()
    averages = np.einsum("ij,j->i", vals.reshape(-1, node_weights.size), node_weights)
    return ref_sum(averages.reshape(weights.shape), weights)


def ref_fractional(kernel, n, dbeta, x):
    ks, weights = ref_window(kernel, n * x)
    admissible = ks >= 0
    ks, weights = ks[admissible], weights[admissible]
    dvals = np.array([dbeta(int(k)) for k in ks])
    return float(dvals @ weights / np.dot(np.ones_like(weights), weights))


def ref_chart(kernel, chart, n, f, x):
    ks, weights = ref_tensor(kernel, n, x)
    sites = np.meshgrid(*[chart.axis_coords(i, k / n)[0] for i, k in enumerate(ks)], indexing="ij")
    weights = weights / chart.sqrt_det_g(*sites)
    weights = weights / np.sum(weights)
    vals = np.asarray(f.value(*sites), dtype=float)
    return float(np.sum(vals * weights))


def ref_moment(kernel, p, x, n):
    ks, weights = ref_window(kernel, n * x)
    if p == 0:
        return float(np.sum(weights))
    # axis_moments' integer-power rule: from p = 3 on, |d|**p with d's sign put back
    d = ks / n - x
    power = d**p if p < 3 else np.copysign(np.abs(d) ** p, d) if p % 2 else np.abs(d) ** p
    return float(power @ weights)


# --- strategies and comparison ---------------------------------------------


def _log_uniform(lo, hi):
    return st.floats(math.log2(lo), math.log2(hi)).map(lambda e: 2.0**e)


def kernels(alpha_lo=1.0 / 32.0, alpha_hi=2.0):
    return st.builds(
        lambda q, alpha: DensityKernel(ActivationParams(q, alpha)),
        st.floats(0.05, 0.95), _log_uniform(alpha_lo, alpha_hi),
    )


def small_chunks(test):
    """The test with kernel.CHUNK_ELEMENTS, which sizes Kantorovich's cell slabs too, at
    SMALL_CHUNK: a patch inside the body, as hypothesis rejects function-scoped fixtures."""
    @functools.wraps(test)
    def patched(*args, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernel_module, "CHUNK_ELEMENTS", SMALL_CHUNK)
            return test(*args, **kwargs)

    return patched


def draw_axes(data, kernel, n, dim, lo=0.0, hi=1.0):
    """Per-axis coordinates in the box: unsorted, some repeated, some moved onto lattice sites.

    The first axis holds up to two chunks and one point, the others up to 6 points.  With no
    data (an @example), the first axis is 41 points spaced (hi - lo) / 40 apart and each later
    axis 9 points spaced (hi - lo) / 8 apart: at n = 30 a lattice-site centre every fourth
    point on [0, 1] and every other point on [-1, 1].
    """
    if data is None:
        return [np.linspace(lo, hi, 41)] + [np.linspace(lo, hi, 9)] * (dim - 1)
    rows = chunk_rows(point_work(kernel, dim))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    axes = []
    for i in range(dim):
        count = data.draw(st.one_of(st.integers(1, rows), st.integers(rows + 1, 2 * rows + 1))
                          if i == 0 else st.integers(1, 6), label=f"count{i}")
        x = rng.uniform(lo, hi, size=count)
        if data.draw(st.booleans(), label=f"repeats{i}"):
            x[rng.choice(count, size=max(1, count // 4))] = x[0]
        if data.draw(st.booleans(), label=f"sites{i}"):
            moved = rng.choice(count, size=max(1, count // 4))
            x[moved] = np.clip(np.round(x[moved] * n) / n, lo, hi)
        axes.append(x)
    return axes


def grid(axes):
    """The points of the tensor grid in C order, as the operators return them."""
    return [np.array(p) for p in itertools.product(*axes)]


def chart_bound(kernel, dim):
    """Relative bound on |batched - reference| for a chart sum of a positive f in dim axes.

    Both sides approximate r = N / M, N = sum_k f_k a_k, M = sum_k a_k,
    a_k = Z_k / d_k, from the same psi weights, densities d_k and values f_k.
    Each computes its sum as sum_k f_k a_k (1 + alpha_k) over a sum
    sum_k a_k (1 + beta_k) with |alpha_k|, |beta_k| <= gamma_m, gamma_m =
    m u / (1 - m u), u = 2^-53, where m counts the roundings a term meets
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.1 and
    Lemma 3.3).  The batched side rounds f/d or 1/d once into its table,
    then per axis multiplies by a weight once and sums at most 2W + 1
    slots: m = 1 + dim (2W + 1).  The reference rounds the weight product
    dim - 1 times and divides by d once; its mass sums L = (2W + 1)^dim
    terms; a normalized weight rounds once more, and so does its product
    with f; the final sum adds L - 1 roundings: m = dim + L + 1.  The
    quotient then lies within gamma_m / (1 - gamma_m) (A + |r|) <=
    gamma_(m+1) (A + |r|) of r, A = sum_k |f_k| a_k / M, and the batched
    side's final division adds one more rounding, so the batched side
    is within gamma_(dim (2W + 1) + 3) (A + |r|) and the reference within
    gamma_(L + dim + 2) (A + |r|).  For a positive f, A = |r|; the two
    sides differ by at most the sum, to first order in u relative to
    either of them.
    """
    width = 2 * int(kernel.radius) + 1

    def gamma(m):
        return m * 2.0**-53 / (1.0 - m * 2.0**-53)

    return 2.0 * (gamma(dim * width + 3) + gamma(width**dim + dim + 2))


def assert_rows(got, ref, exact):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert np.all(got[exact] == ref[exact])
    assert np.all(np.abs(got - ref) <= REL * np.abs(ref))


# --- batched == per-point reference ------------------------------------------


class TestBatchedMatchesReference:
    @PROPERTY
    @given(kernel=kernels(), n=st.integers(1, 256), data=st.data())
    # W = 64 and 128 on a grid whose chunks mix 2W- and 2W + 1-site windows: from W = 64 on, a
    # 2W-site row summed over 2W + 1 slots would regroup numpy's pairwise row sum
    @example(kernel=DensityKernel(ActivationParams(0.5, 0.3)), n=30, data=None)
    @example(kernel=DensityKernel(ActivationParams(0.5, 0.125)), n=30, data=None)
    @small_chunks
    def test_basic_one_dim(self, kernel, n, data):
        f = function_preset("exp")
        axes = draw_axes(data, kernel, n, 1)
        got = apply_basic_batch(kernel, f, n, axes)
        ref = [ref_basic(kernel, n, f, p) for p in grid(axes)]
        assert_rows(got, ref, True)

    @PROPERTY
    @given(kernel=kernels(alpha_lo=0.25), n=st.integers(1, 128), data=st.data())
    # W = 64 and 128, each axis mixing 2W- and 2W + 1-site windows
    @example(kernel=DensityKernel(ActivationParams(0.5, 0.3)), n=30, data=None)
    @example(kernel=DensityKernel(ActivationParams(0.5, 0.125)), n=30, data=None)
    @small_chunks
    def test_basic_two_dim(self, kernel, n, data):
        axes = draw_axes(data, kernel, n, 2)
        got = apply_basic_batch(kernel, Exp2(), n, axes)
        ref = [ref_basic(kernel, n, Exp2(), p) for p in grid(axes)]
        assert_rows(got, ref, False)

    @PROPERTY
    @given(kernel=kernels(), n=st.integers(1, 256), g=st.integers(2, 9), data=st.data())
    @example(kernel=DensityKernel(ActivationParams(0.5, 0.3)), n=30, g=3, data=None)
    @example(kernel=DensityKernel(ActivationParams(0.5, 0.125)), n=30, g=3, data=None)
    @small_chunks
    def test_kantorovich_one_dim(self, kernel, n, g, data):
        f = function_preset("exp")
        axes = draw_axes(data, kernel, n, 1)
        got = apply_kantorovich_batch(kernel, g, f, n, axes)
        ref = [ref_kantorovich(kernel, n, g, f, p) for p in grid(axes)]
        assert_rows(got, ref, True)

    @PROPERTY
    @given(kernel=kernels(alpha_lo=0.5), n=st.integers(1, 64), g=st.integers(2, 5), data=st.data())
    @small_chunks
    def test_kantorovich_two_dim(self, kernel, n, g, data):
        axes = draw_axes(data, kernel, n, 2)
        got = apply_kantorovich_batch(kernel, g, Exp2(), n, axes)
        ref = [ref_kantorovich(kernel, n, g, Exp2(), p) for p in grid(axes)]
        assert_rows(got, ref, False)

    @PROPERTY
    @given(kernel=kernels(alpha_lo=0.5), n=st.integers(8, 128), beta=st.floats(0.1, 0.9),
           data=st.data())
    @small_chunks
    def test_fractional(self, kernel, n, beta, data):
        f = function_preset("pow2")
        frac_cfg = FracConfig(beta, 1e-2)

        @functools.lru_cache(maxsize=None)
        def dbeta(k):
            return rl_derivative_batch(frac_cfg, f, [k / n])[0] if k > 0 else 0.0

        (x,) = draw_axes(data, kernel, n, 1)
        got = apply_fractional_batch(kernel, frac_cfg, f, n, [x])
        ref = np.array([ref_fractional(kernel, n, dbeta, float(xi)) for xi in x])
        whole = np.ceil(n * x - kernel.radius) >= 0
        assert_rows(got[whole], ref[whole], True)
        # A row whose window reaches k < 0 sums the same nonzero terms as the
        # reference, which drops those sites instead of weighting them zero,
        # so only the grouping differs.  A sum of L terms rounds by at most
        # gamma_L = L u / (1 - L u), u = 2^-53, times the sum of their moduli
        # (Higham, Accuracy and Stability of Numerical Algorithms, 3.1), so
        # with L = 2W + 1 sites: |fl(d.w) - d.w| <= gamma_L sum |d_k| w_k and
        # fl(sum w) = (1 + eta) sum w, |eta| <= gamma_L.  One more rounding
        # for the division keeps each side within gamma_(L+2) (A + |r|) of
        # the exact quotient r = d.w / sum w, A = sum |d_k| w_k / sum w_k,
        # to first order in u; the two sides differ by at most twice that.
        sites = 2 * int(kernel.radius) + 3
        gamma = sites * 2.0**-53 / (1.0 - sites * 2.0**-53)
        mean_abs = np.array([ref_fractional(kernel, n, lambda k: abs(dbeta(k)), float(xi))
                             for xi in x[~whole]])
        cut = ref[~whole]
        assert np.all(np.abs(got[~whole] - cut) <= 2.0 * gamma * (mean_abs + np.abs(cut)))

    @PROPERTY
    @given(kernel=kernels(alpha_lo=0.25), chart=st.sampled_from(["euclidean", "torus", "half-plane"]),
           n=st.integers(1, 128), data=st.data())
    # W = 16, n = 17, the first axis's point on a site: 1.108e-15 apart at the second point
    @example(kernel=DensityKernel(ActivationParams(0.5, 2**0.5)), chart="half-plane", n=1,
             data=[np.array([30 / 17]), np.array([1.0410812705961963, 1.2206088513826996])])
    # W = 64 and 128 at n = 70 and 130: each axis a lattice-site centre every fourth point
    @example(kernel=DensityKernel(ActivationParams(0.5, 0.3)), chart="half-plane", n=6, data=None)
    @example(kernel=DensityKernel(ActivationParams(0.5, 0.125)), chart="half-plane", n=2,
             data=None)
    @small_chunks
    def test_chart(self, kernel, chart, n, data):
        if chart == "half-plane":
            # n > W keeps every window above y = 0 for y >= 1
            n = int(kernel.radius) + n
            ch = chart_preset("poincare-half-plane")
            # an @example may give the axes themselves as its data
            axes = data if isinstance(data, list) else draw_axes(data, kernel, n, 2, lo=1.0, hi=2.0)
            f = Exp2()
        else:
            ch = chart_preset(chart, 1)
            axes = draw_axes(data, kernel, n, 1, lo=-1.0, hi=1.0)
            f = function_preset("exp")
        got = operator_on_chart_batch(kernel, ch, f, n, axes)
        ref = np.array([ref_chart(kernel, ch, n, f, p) for p in grid(axes)])
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= chart_bound(kernel, len(axes)) * np.abs(ref))

    @PROPERTY
    @given(kernel=kernels(), n=st.integers(1, 256), data=st.data())
    @example(kernel=DensityKernel(ActivationParams(0.5, 0.3)), n=30, data=None)
    @example(kernel=DensityKernel(ActivationParams(0.5, 0.125)), n=30, data=None)
    @small_chunks
    def test_moments(self, kernel, n, data):
        (x,) = draw_axes(data, kernel, n, 1, lo=-1.0, hi=1.0)
        got = axis_moments(kernel, x, n, 4)
        ref = [[ref_moment(kernel, p, xi, n) for p in range(5)] for xi in x]
        assert_rows(got, ref, True)


# --- a sweep's shared D^beta f table == one table per call -------------------


FRAC_KERNEL = DensityKernel(ActivationParams(0.5, 1.0))
# off the seed-0 corners by 0.37 of a cell of 41 points
SHIFT = 0.37 * 0.8 / 41
SHARED_CASES = pytest.mark.parametrize("ns, box", [
    ([64, 128, 256], [(0.2, 1.0)]),
    ([48, 64, 100, 128], [(0.2, 1.0)]),
    ([100, 48, 128, 64], [(0.2 + SHIFT, 1.0 + SHIFT)]),
], ids=["nested", "not-nested", "shifted"])


def union_table(frac, f, nodes):
    """D^beta f at the distinct nodes of every n, (ascending nodes, their values), built as
    fractional_sweep builds its table."""
    union = np.unique(np.concatenate(nodes))
    return union, rl_derivative_batch(frac, f, union)


class TestSharedFractionalTable:
    @SHARED_CASES
    def test_sweep_rows_equal_standalone_calls(self, monkeypatch, ns, box):
        f, frac = function_preset("pow2"), FracConfig(0.5, 1e-3)
        swept, tables = {}, []

        def recorded(kernel, frac, f, n, axes, table, *, sites):
            # the sweep hands its grid call the lattice table its checks built
            assert sites is not None
            tables.append(table)
            swept[n] = apply_fractional_batch(kernel, frac, f, n, axes, table, sites=sites)
            return swept[n]

        monkeypatch.setattr(analysis, "apply_fractional_batch", recorded)
        (report,) = fractional_sweep(FRAC_KERNEL, f, 0.5, box, 41, ns)()
        axes = grid_axes(box, 41)
        target = power_rule_oracle(f.power, 0.5, axes[0])
        rows = []
        for n in sorted(ns):
            alone = apply_fractional_batch(FRAC_KERNEL, frac, f, n, axes)
            assert np.array_equal(swept[n], alone)
            err = np.abs(alone - target)
            rows.append((n, float(np.max(err)), float(np.mean(err))))
        assert list(report.rows) == rows
        # one table for every n, holding what one call over its nodes gives
        known, values = tables[0]
        assert all(table is tables[0] for table in tables)
        assert np.array_equal(values, rl_derivative_batch(frac, f, known))

    @SHARED_CASES
    @pytest.mark.parametrize("preset", ["pow2", "runge"])
    def test_operator_reads_the_shared_table_bit_for_bit(self, ns, box, preset):
        # runge has f(0) = 1; every window stays above t = 0 once n x > W + 1 on [0.5, 1]
        f, frac = function_preset(preset), FracConfig(0.25, 1e-3)
        axes = grid_axes([(lo + 0.3, hi) for lo, hi in box], 41)
        assert min(ns) * axes[0][0] > FRAC_KERNEL.radius + 1.0
        nodes = [fractional_nodes(f, n, table_sites(FRAC_KERNEL, n, axes)[0]) for n in ns]
        table = union_table(frac, f, nodes)
        assert table[0].size < sum(node.size for node in nodes)
        for n, own in zip(ns, nodes):
            assert np.array_equal(operators._table_values(table, own),
                                  rl_derivative_batch(frac, f, own))
            shared = apply_fractional_batch(FRAC_KERNEL, frac, f, n, axes, table)
            assert np.array_equal(shared, apply_fractional_batch(FRAC_KERNEL, frac, f, n, axes))

    def test_a_node_missing_from_the_table_is_an_error(self):
        f, frac = function_preset("pow2"), FracConfig(0.5, 1e-3)
        axes = [np.array([0.5])]
        nodes = fractional_nodes(f, 64, table_sites(FRAC_KERNEL, 64, axes)[0])
        table = union_table(frac, f, [nodes])
        # n = 128 reads the odd sites 49/128 .. 79/128 too, which n = 64 never reached
        with pytest.raises(ValueError, match="not tabulated at node t = 0.3828125"):
            apply_fractional_batch(FRAC_KERNEL, frac, f, 128, axes, table)
        with pytest.raises(ValueError, match="not tabulated at node t = 0.25"):
            apply_fractional_batch(FRAC_KERNEL, frac, f, 64, axes, union_table(frac, f, [[0.3]]))


# --- exactness on constants ---------------------------------------------------


def small_kernels():
    return st.builds(
        lambda q, alpha, eps: DensityKernel(ActivationParams(q, alpha), eps_trunc=eps),
        st.floats(0.05, 0.95), _log_uniform(1.0 / 16.0, 4.0), _log_uniform(1e-14, 1e-6),
    )


def assert_unity(vals, kernel, scale=1.0):
    # the truncated window misses at most eps of the partition mass (truncation_radius); the
    # bound keeps 4 eps W >= 8 eps, room for the rounding too
    assert np.all(np.abs(np.asarray(vals) - scale) <= 4 * kernel.eps_trunc * kernel.radius * scale)


class TestExactOnConstants:
    @PROPERTY
    @given(kernel=small_kernels(), n=st.integers(1, 256), dim=st.integers(1, 2), data=st.data())
    @small_chunks
    def test_basic(self, kernel, n, dim, data):
        f = function_preset("constant") if dim == 1 else Ones2()
        axes = draw_axes(data, kernel, n, dim, lo=-2.0, hi=2.0)
        assert_unity(apply_basic_batch(kernel, f, n, axes), kernel)

    @PROPERTY
    @given(kernel=small_kernels(), n=st.integers(1, 256), g=st.integers(2, 6), data=st.data())
    @small_chunks
    def test_kantorovich(self, kernel, n, g, data):
        axes = draw_axes(data, kernel, n, 1, lo=-2.0, hi=2.0)
        assert_unity(apply_kantorovich_batch(kernel, g, function_preset("constant"), n, axes), kernel)

    @PROPERTY
    @given(kernel=small_kernels(), n=st.integers(1, 64), data=st.data())
    @small_chunks
    def test_chart(self, kernel, n, data):
        n = int(kernel.radius) + n
        chart = chart_preset("poincare-half-plane")
        axes = draw_axes(data, kernel, n, 2, lo=1.0, hi=2.0)
        assert_unity(operator_on_chart_batch(kernel, chart, Ones2(), n, axes), kernel)

    @PROPERTY
    # a subnormal c (below 2.2e-308) keeps fewer than 53 significant bits, so c * psi
    # rounds by more than the 4 eps W bound (c = 2.2e-313 misses it by 1.5x)
    @given(kernel=small_kernels(), n=st.integers(1, 256),
           c=st.floats(-3.0, 3.0, allow_subnormal=False), data=st.data())
    @small_chunks
    def test_fractional(self, kernel, n, c, data):
        # with D^beta f equal to c at every node, the renormalized weights return c
        lo = (kernel.radius + 1.0) / n
        axes = draw_axes(data, kernel, n, 1, lo=lo, hi=lo + 1.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(operators, "rl_derivative_batch", lambda cfg, f, t: np.full(len(t), c))
            vals = apply_fractional_batch(kernel, FracConfig(0.5), function_preset("pow2"), n, axes)
        assert_unity(vals / c if c else vals + 1.0, kernel)
