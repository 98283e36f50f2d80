"""Density kernel, truncated lattice windows, and discrete moments.

The one-dimensional kernel is the normalized difference

    psi(x) = (h(x + 1) - h(x - 1)) / C(q),      C(q) = 2 (1 + q^2) / (1 - q^2).

Because h is increasing, psi > 0 everywhere, and the sum over integer
shifts telescopes to the total variation of h, which is exactly C(q):
sum_k psi(x - k) = 1 for every real x.  The same telescoping gives unit
integral.  Multiple dimensions use the plain product kernel Z(x) =
prod_i psi(x_i).  Every q in [0, 1) gives a translate of the classical
(q = 0, even) kernel: psi_q(x) = psi_0(x + atanh(q)/alpha).

h = (u - q) / ((1+q) u + 1 - q) is a Moebius map of u = e^(2 alpha x) with
determinant 1 + q^2, so the difference is one quotient: with A = 1 + q,
B = 1 - q, e = e^(-2 alpha), v = e^(-2 alpha x) and s = (1 - q^2)(1 - e^2)/2,

    psi(x) = s v / ((A + B e v)(A e + B v)),

all terms positive and, in ``psi_eval``, one exp per site: accurate to a
few ulp in the tails too, so psi > 0 holds as computed (down to about
1e-250).

psi decays like e^(-2 alpha |x|), so lattice sums can be truncated at a
radius W chosen once per kernel from a tolerance eps_trunc.

A window's weights psi(u - k) take one exp per centre u instead, and one
table e^(2 alpha (j - W)) over its sites k = lo + j per call
(``window_weights``); past WINDOW_EXP_LIMIT they take ``psi_eval``.

Lattice sums sum_k v(k) Z(n x - k) over a tensor grid of points sample v
once per site of the lattice table (``table_sites``); as Z is a product,
``lattice_sums`` contracts the table one axis at a time, each axis by one
rule, then moves it last so the next axis comes first.  Every axis, like
``axis_moments``, takes one window plan (window ends, exps and weight
buffers), so a chunk of points, all with windows of one width, only fills
its weights and reads each window, 2W or 2W + 1 sites, with one index per
row from an ``as_strided`` view of the table (its first stride on two axes,
no copy).  A point's sum depends on its own windows alone, not on the
other points of its call.  ``table_sites`` caps a window's sites, the
table's sites and the sums' multiply-adds before it builds a site, for
operators and sweeps alike (``check_moments`` all but the table's, for the
moments, which build no table); a sweep (``analysis.sweep``) runs it for
every n first and hands each n's checked mesh to the calls on its own grid
(``lattice_sums(..., sites=...)``), so each table's sites are built once.
One rule, ``chunk_rows``, sizes every lattice chunk (and Kantorovich's cell
slabs); fractional L1 chunks keep ``fractional.L1_CHUNK_POINTS``, for time.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .activation import ActivationParams

__all__ = [
    "DensityKernel",
    "multi_indices",
    "normalization_constant",
    "truncation_radius",
    "psi_eval",
    "window_weights",
    "check_axes",
    "check_n",
    "table_sites",
    "check_moments",
    "lattice_sums",
    "point_work",
    "chunk_rows",
    "axis_moments",
    "offset_powers",
    "kernel_mass",
]

# numbers per chunk array (256 KiB of float64): a chunk's three live arrays (weights, their
# temporary, the gather) fit a 2 MiB L2, and numpy's fixed cost per call (11-14 us) is spread
# over more points, 63 in a W = 256 chunk where 2^13 held 15.  One W = 256 sum over 1001 points
# took 3.0 ms at 2^13, 2.2-2.5 ms at 2^15 and 3.0-3.6 ms at 2^17 (Xeon, 48 KiB L1d, 2 MiB L2)
CHUNK_ELEMENTS = 2**15
# cap on the samples over one kernel window's cells and on a lattice table's
# sites, checked before any allocation
MAX_POINT_WORK = 2**24
# cap on one lattice sum's multiply-adds (see _sum_work), checked before its table is built
MAX_SUM_WORK = 2**31
# bound on |n x| + W + 1: below 2^52 a double keeps a fractional bit, so a
# centre n x is not already rounded onto a lattice site, and every window
# end and site is an exact integer; from 2^53 on, k + 1 rounds back to k
MAX_CENTRE = 2.0**52
# up to this alpha psi takes one exp per site; v = e^(-2 alpha x) leaves the normal range
# only where psi < (1+q)/(1-q) e^(2 alpha - 708) and reads 0 or subnormal there
ONE_EXP_ALPHA = 64.0
# windows take one exp per centre while 2 alpha (W + 1) is at most this: v = e^(-2 alpha x)
# then stays within e^(+-300) for |x| < W + 1, past every window site, so c2 v^2 is far
# from overflow and psi from the subnormals.  Past it they take psi_eval: for every alpha
# above 50 (W >= 2, so every alpha above ONE_EXP_ALPHA), and below that only for eps_trunc
# under 1e-25 (1e-60 up to alpha 4)
WINDOW_EXP_LIMIT = 300.0


def normalization_constant(params: ActivationParams) -> float:
    """C(q) = 2 (1 + q^2) / (1 - q^2), the exact value of the telescoped sum."""
    q = params.q
    return 2.0 * (1.0 + q * q) / (1.0 - q * q)


def _psi(params: ActivationParams, x):
    # s / ((A / v + B e)(A e + B v)): v = 0 and v = inf give 0, not NaN
    q, a = float(params.q), float(params.alpha)
    s = 0.5 * (1.0 - q) * (1.0 + q) * -math.expm1(-4.0 * a)
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore", divide="ignore"):
        if a > ONE_EXP_ALPHA:
            # one exp per factor, e v = e^(-2 alpha (x + 1)) and e / v = e^(2 alpha (x - 1)); as
            # alpha -> inf this is the limit box, 1/2 on |x| < 1 and (1 -+ q)/4 at x = +-1
            return s / ((1.0 + q + (1.0 - q) * np.exp(a * (-2.0 * (x + 1.0))))
                        * (1.0 - q + (1.0 + q) * np.exp(a * (2.0 * (x - 1.0)))))
        e, v = math.exp(-2.0 * a), np.exp(-2.0 * a * x)
        return s / (((1.0 + q) / v + (1.0 - q) * e) * ((1.0 + q) * e + (1.0 - q) * v))


def truncation_radius(params: ActivationParams, eps: float) -> float:
    """Smallest W in {2, 4, 8, ...} with psi(+-W) < eps and W >= (atanh(q) + 1)/alpha.

    Both tails must be checked: for q > 0 the kernel is not even, and the
    left tail carries the larger constant (by a factor ((1+q)/(1-q))^2),
    so it usually decides W.  psi is symmetric about its peak at
    -atanh(q)/alpha, and one slope length 1/alpha past the peak its
    tails decay like e^(-2 alpha |x|); the lower bound puts both window
    ends there, so a wide kernel whose peak is already below eps still
    gets a window holding its mass.  The closed-form tails hold no
    cancelled zeros, so the 4 eps W bound holds for tiny eps too.  An
    alpha too small for any W <= 2^40 is a ValueError.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"truncation tolerance must lie in (0, 1), got {eps!r}")
    w_min = (math.atanh(params.q) + 1.0) / params.alpha
    w = 2.0
    while w < w_min or not (_psi(params, w) < eps and _psi(params, -w) < eps):
        w *= 2.0
        if w > 2.0**40:
            raise ValueError(
                f"no truncation radius up to 2^40 for alpha={params.alpha!r}, eps={eps!r}; "
                "increase alpha or eps_trunc"
            )
    return w


@dataclass(frozen=True)
class DensityKernel:
    """Kernel psi with its normalization C and truncation radius W.

    Beyond W the kernel is below eps_trunc and keeps decaying along the
    exponential tail psi(x) <= psi(W) e^(-2 alpha (|x| - W)); summing the
    geometric tails on both sides keeps the neglected partition mass
    under 4 * eps_trunc * W.
    """

    params: ActivationParams
    eps_trunc: float = 1e-12
    normalization: float = field(init=False)
    radius: float = field(init=False)
    width: int = field(init=False)  # 2W + 1, a full window's sites per axis

    def __post_init__(self):
        object.__setattr__(self, "normalization", normalization_constant(self.params))
        object.__setattr__(self, "radius", truncation_radius(self.params, self.eps_trunc))
        object.__setattr__(self, "width", 2 * int(self.radius) + 1)


def psi_eval(kernel: DensityKernel, x):
    """psi(x) = s v / ((A + B e v)(A e + B v)), one exp per site, to a few ulp, 0 past the float
    range; sums to one."""
    return _psi(kernel.params, x)


def window_weights(kernel: DensityKernel, u, lo):
    """The weight rule of every lattice window: a function (width, rows, out, scratch) -> weights.

    u and lo have shape (P,), lo_i = ceil(u_i - W) the first site of u_i's
    window; the weights psi(u_i - lo_i - j) of the centres u[rows] (all by
    default) have shape (m, width), j = 0..width - 1 <= 2W, and go into out
    (a temporary into scratch) when given.  With c = lo + W, so
    -1 < u - c <= 0, psi(u - k) at k = lo + j takes v = e^(-2 alpha (u - c)) R_j,
    R_j = e^(2 alpha (j - W)): the per-centre exps and the R table are taken
    once, when the rule is built.  Expanding psi_eval's denominator with
    A = 1 + q, B = 1 - q gives

        psi = v / (c1 + v (c0 + c2 v)),  c0 = A B (1 + e^2) / s,  c1 = A^2 e / s,  c2 = B^2 e / s,

    all terms positive, one division and no site array.  Build the rule
    once per call and apply it per chunk.  Where 2 alpha (W + 1) exceeds
    WINDOW_EXP_LIMIT, the rule is ``psi_eval`` at the sites instead.
    """
    q, a, w = float(kernel.params.q), float(kernel.params.alpha), kernel.radius
    if 2.0 * a * (w + 1.0) > WINDOW_EXP_LIMIT:
        def sites(width, rows=slice(None), out=None, scratch=None):
            return psi_eval(kernel, u[rows, None] - (lo[rows, None] + np.arange(float(width))))

        return sites
    e = math.exp(-2.0 * a)
    s = 0.5 * (1.0 - q) * (1.0 + q) * -math.expm1(-4.0 * a)
    c0 = (1.0 + q) * (1.0 - q) * (1.0 + e * e) / s
    c1 = (1.0 + q) ** 2 * e / s
    c2 = (1.0 - q) ** 2 * e / s
    ratios = np.exp(2.0 * a * (np.arange(2.0 * w + 1.0) - w))
    factor = np.exp(2.0 * a * (lo + w - u))

    def weights(width, rows=slice(None), out=None, scratch=None):
        # one rounded product per element, as factor[rows, None] * ratios, without the broadcast
        v = np.einsum("i,j->ij", factor[rows], ratios[:width], out=out)
        d = np.multiply(c2, v, out=scratch)
        d += c0
        d *= v
        d += c1
        v /= d
        return v

    return weights


def _window_plan(kernel: DensityKernel, u: np.ndarray, rows: int):
    # one call's windows around centres u: the window ends lo, and per window width (2W sites,
    # or 2W + 1 for a centre on a lattice site) with a point, (width, chunks), each chunk at
    # most rows of those points as (index array, weights), in one buffer per call until the
    # next chunk; no row holds a slot outside its own window
    lo, hi = _window_ends(kernel, 1, u)
    length = (hi - lo).astype(np.intp) + 1
    # not np.unique: its first call alone raised a run's peak RSS by 1.7 MB (numpy 2.4)
    widths = range(int(length.min()), int(length.max()) + 1)
    weights = window_weights(kernel, u, lo)
    flat = np.empty(2 * min(rows, u.size) * widths[-1])

    def chunks(width):
        index = np.flatnonzero(length == width)
        for start in range(0, index.size, rows):
            chunk = index[start:start + rows]
            yield chunk, weights(width, chunk, *flat[:2 * chunk.size * width].reshape(2, -1, width))

    return lo, [(width, chunks(width)) for width in widths]


def _window_ends(kernel: DensityKernel, n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the first and last lattice site within W of each centre n x, once |n x| + W + 1 <= MAX_CENTRE;
    # that is checked in Python floats first, so a huge n x is inf and not an overflow warning
    centre = n * float(np.max(np.abs(x)))
    if not centre + kernel.radius + 1.0 <= MAX_CENTRE:
        raise ValueError(f"lattice centre |n x| = {centre!r} plus the window radius exceeds 2^52, "
                         "where window sites stop being exact integers; shrink the box or n")
    u = n * x
    lo = u - kernel.radius
    np.ceil(lo, out=lo)
    # u is this function's own array, so hi takes its place
    return lo, np.floor(np.add(u, kernel.radius, out=u), out=u)


def check_axes(axes, dim: int) -> list[np.ndarray]:
    """The per-axis coordinates of a tensor grid as float arrays: dim non-empty 1-D arrays."""
    axes = [np.asarray(x, dtype=float) for x in axes]
    if any(x.ndim != 1 or x.size == 0 for x in axes):
        raise ValueError("evaluation axes must be non-empty 1-D coordinate arrays")
    if len(axes) != dim:
        raise ValueError(f"the evaluation grid needs {dim} axis/axes, got {len(axes)}")
    return axes


def check_n(n) -> int:
    """The lattice density n as an int: a positive integer, not a bool, within float range,
    since every lattice scales by n as a float."""
    if not (isinstance(n, (int, np.integer)) and not isinstance(n, bool) and 1 <= n <= sys.float_info.max):
        raise ValueError(f"n must be a positive integer within float range, got {n!r}")
    return int(n)


def table_sites(kernel: DensityKernel, n: int, axes) -> list[np.ndarray]:
    """Each axis's sorted lattice sites reached by the windows around n x_i, x_i in axes[i].

    Axis i's sites, shaped (1, .., K_i, .., 1), broadcast to the lattice
    table (K_1, .., K_N).  A bad n (``check_n``), a kernel window past
    MAX_POINT_WORK sites (``point_work``, before any window end is formed),
    a centre past MAX_CENTRE (checked before n x is formed), a table past
    MAX_POINT_WORK sites or a lattice sum over it past MAX_SUM_WORK
    multiply-adds (both counted before any site is built) is a ValueError.
    """
    runs, counts, sizes = _site_runs(kernel, n, axes)
    if math.prod(sizes) > MAX_POINT_WORK:
        raise ValueError(f"the lattice table needs {' x '.join(map(str, sizes))} sites "
                         f"(> {MAX_POINT_WORK}); shrink the box, its points or n, or increase alpha")
    _check_sum_work(kernel, counts, sizes)
    sites = []
    for starts, lengths in runs:
        offsets = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        sites.append(offsets + np.arange(offsets.size))
    # axis i's sites in its open-mesh shape (1, .., K_i, .., 1), as np.ix_ gives them
    return [s.reshape([-1 if j == i else 1 for j in range(len(sites))]) for i, s in enumerate(sites)]


def check_moments(kernel: DensityKernel, n: int, x) -> None:
    """What ``axis_moments`` pays, checked before it runs: ``table_sites``' checks of n, one
    window's sites and each centre, and its cap on a lattice sum's multiply-adds (points x window
    sites), but no table cap, as the moments build no table."""
    _check_sum_work(kernel, *_site_runs(kernel, n, [x])[1:])


def _site_runs(kernel: DensityKernel, n: int, axes) -> tuple:
    # n, one window's sites and each centre checked; then per axis its runs of consecutive sites
    # (first sites, lengths), its point count and its site count
    n = check_n(n)
    point_work(kernel, len(axes))
    runs = []
    counts = []
    for x in axes:
        lo, hi = _window_ends(kernel, n, np.sort(np.asarray(x, dtype=float)))
        counts.append(lo.size)
        # sorted centres sort both window ends; a run starts past the previous end (the ends are
        # integers within 2^52 of 0, so their difference is exact)
        first = np.flatnonzero(np.concatenate(([True], lo[1:] - hi[:-1] > 1.0)))
        # disjoint runs of sites within 2^52 + W of 0: their sum fits an int64
        last = np.concatenate((first[1:] - 1, [-1]))
        runs.append((lo[first], (hi[last] - lo[first]).astype(np.intp) + 1))
    return runs, counts, [int(lengths.sum()) for _, lengths in runs]


def _check_sum_work(kernel: DensityKernel, counts, sizes) -> None:
    work = sum(_sum_work(counts, kernel.width, sizes))
    if work > MAX_SUM_WORK:
        raise ValueError(f"a lattice sum needs {work} multiply-adds (> {MAX_SUM_WORK}): "
                         f"{' x '.join(map(str, counts))} points, "
                         f"windows of {kernel.width} sites per axis, "
                         f"{' x '.join(map(str, sizes))} table sites; shrink the grid or n, "
                         "or increase alpha or trunc_eps")


def _sum_work(counts, width, sizes) -> list[int]:
    # per axis i, the multiply-adds lattice_sums pays contracting it: the grid points done
    # (axes 0..i), times the window width, times the table sites still to contract
    return [math.prod(counts[:i + 1]) * width * math.prod(sizes[i + 1:])
            for i in range(len(counts))]


def lattice_sums(kernel: DensityKernel, n: int, axes, tables, *, sites=None) -> list[np.ndarray]:
    """sum_k v(k) Z(n x - k) on the grid of axes (N 1-D arrays), in C order, for each table v.

    ``tables`` maps ``table_sites``' open mesh to arrays that broadcast to
    the lattice table.  Each axis i is contracted in turn by one rule
    (``_contract``), T <- sum_l w_i[p, l] T[k_i[p, l], ..], and then moved
    last, so the next axis comes first and the grid ends in C order.  An
    axis's window plan (window ends, places in the table, per-centre exps,
    weight buffers) groups its points by window width L (2W, or 2W + 1 for
    a lattice-site centre); a chunk of one group, near CHUNK_ELEMENTS
    gathered numbers, fills its rows' weights and gathers row p as
    T[first_p : first_p + L] from a read-only view of each table, with the
    table's first stride on the window's slots as well.  The last axis sums
    each window pairwise, its slots last, and earlier axes in window order.
    So a point's sum depends on its own windows alone, not on
    CHUNK_ELEMENTS or the other points of its call.  The first axis's
    points go through all axes in blocks whose partial sums hold at most
    MAX_POINT_WORK numbers, one block for every 1-D sum.  ``sites``, when
    given, must be ``table_sites(kernel, n, axes)`` for these very axes
    (what ``analysis.sweep`` hands out); it is used unchecked in place of
    that call.
    """
    mesh = table_sites(kernel, n, axes) if sites is None else sites
    sites = [s.ravel() for s in mesh]
    shape = [s.size for s in sites]
    values = [np.broadcast_to(np.asarray(t, dtype=float), shape) for t in tables(mesh)]
    centres = [n * np.asarray(x, dtype=float) for x in axes]
    counts = [u.size for u in centres]
    # per first-axis point, the partial sums past axis i hold the points done and the sites to come
    block = max(1, MAX_POINT_WORK // (max(_sum_work(counts, 1, shape)) // counts[0]))
    out = [np.empty(counts) for _ in values]
    for start in range(0, counts[0], block):
        part = slice(start, start + block)
        parts = values
        for axis, (u, s) in enumerate(zip(centres, sites)):
            parts = _contract(kernel, u[part] if axis == 0 else u, s, parts, axis == len(axes) - 1)
        for o, p in zip(out, parts):
            o[part] = p
    return [o.ravel() for o in out]


def _contract(kernel: DensityKernel, u: np.ndarray, sites: np.ndarray, tables, last: bool) -> list:
    # each table (K, *rest), K on the sorted sites, contracted on its first axis onto centres u:
    # row p sums T[first_p : first_p + L] by its window's weights, pairwise with the slots last
    # when last, else in window order; returned as (*rest, P), the contracted axis moved last
    rest = tables[0].shape[1:]
    slot = len(rest) + 1 if last else 1
    lo, groups = _window_plan(kernel, u, chunk_rows(kernel.width * math.prod(rest)))
    first = np.searchsorted(sites, lo)
    out = [np.empty((u.size, *rest)) for _ in tables]
    for width, chunks in groups:
        # each table as (K - width + 1, .., width, ..), the slots at slot, with the first axis's
        # stride; a window lies inside the table
        views = [as_strided(t, (t.shape[0] - width + 1, *rest[:slot - 1], width, *rest[slot - 1:]),
                            (*t.strides[:slot], t.strides[0], *t.strides[slot:]), writeable=False)
                 for t in tables]
        # a chunk's weights (m, width) as (m, .., width, ..), the width at slot
        spread = [1] * (len(rest) + 2)
        spread[0], spread[slot] = -1, width
        for chunk, weights in chunks:
            weights = weights.reshape(spread)
            for view, o in zip(views, out):
                # C order, so the sum groups as it would over a plain table: a gather through a
                # broadcast table's zero strides comes out in another layout
                v = np.ascontiguousarray(view[first[chunk]])
                v *= weights
                # rebinding v frees the gather before the next chunk's: o[chunk] = v.sum(..)
                # keeps it alive across that allocation, and a W = 256 sum over 1001 points
                # took 7-20% longer
                v = v.sum(axis=slot)
                o[chunk] = v
    return [o.transpose(*range(1, o.ndim), 0) for o in out]


def point_work(kernel: DensityKernel, dim: int) -> int:
    """The lattice sites of one kernel window in dim axes, width^dim; above MAX_POINT_WORK
    (2^24) a ValueError."""
    work = kernel.width**dim
    if work > MAX_POINT_WORK:
        raise ValueError(f"one kernel window holds {work} lattice sites (> {MAX_POINT_WORK}): "
                         f"{kernel.width} per axis, {dim} axes; increase alpha or trunc_eps")
    return work


def chunk_rows(per_point: int) -> int:
    """Rows per chunk (points, or Kantorovich's cells) of per_point numbers each: about
    CHUNK_ELEMENTS numbers in all, at least one row."""
    return max(1, CHUNK_ELEMENTS // per_point)


def multi_indices(dim: int, min_order: int, max_order: int) -> tuple:
    """All multi-indices alpha (tuples) with min_order <= |alpha| <= max_order, lexicographic."""
    return tuple(
        alpha for alpha in itertools.product(range(max_order + 1), repeat=dim)
        if min_order <= sum(alpha) <= max_order
    )


def axis_moments(kernel: DensityKernel, x, n: int, p_max: int) -> np.ndarray:
    """One-axis moments M_p(x, n) = sum_k (k/n - x)^p psi(n x - k), p = 0..p_max.

    x has shape (P,); the result has shape (P, p_max + 1), all orders
    from one window per point, 2W or 2W + 1 sites, weighed by
    ``window_weights`` with one exp per point from the call's window plan
    (see ``lattice_sums``), to the powers of ``offset_powers``, so a row
    depends on its point alone.  Column 0 is the truncated partition sum.
    The N-dimensional M_alpha(x, n) is the product over axes i of column
    alpha_i; |M_p| <= (W/n)^p, and n * M_1 depends only on frac(n x).  An
    empty or non-1-D x is a ValueError (``check_axes``).
    """
    check_n(n)
    (x,) = check_axes([x], 1)
    out = np.empty((x.size, p_max + 1))
    lo, groups = _window_plan(kernel, n * x, chunk_rows(point_work(kernel, 1)))
    for width, chunks in groups:
        for chunk, weights in chunks:
            out[chunk, 0] = weights.sum(axis=1)
            offsets = (lo[chunk, None] + np.arange(float(width))) / n - x[chunk, None]
            for p, power in enumerate(offset_powers(offsets, p_max), 1):
                # one 1-D dot per row, so a row's bits depend on its point alone
                out[chunk, p] = np.matmul(power[:, None, :], weights[:, :, None])[:, 0, 0]
    return out


def offset_powers(offsets: np.ndarray, p_max: int):
    """offsets**p, p = 1..p_max, from p = 3 on as |o|**p with o's sign put back for odd p: sign-
    symmetric bit for bit and within 1 ulp of math.pow.  numpy's float64 ``**`` takes libm,
    30 times slower and rounded differently, for bases < 0 only."""
    size = np.abs(offsets) if p_max > 2 else None
    for p in range(1, p_max + 1):
        yield offsets**p if p < 3 else np.copysign(size**p, offsets) if p % 2 else size**p


def kernel_mass(kernel: DensityKernel, box) -> float:
    """Integral of the product kernel Z over a box [(a_1, b_1), ..]: prod_i Psi(b_i) - Psi(a_i).

    Psi(x) = (H(x+1) - H(x-1)) / C integrates psi, and Psi(inf) - Psi(-inf) = 1;
    H(x) = x/(1+q) - (1+q^2)/(1-q^2) (x - log((1+q) e^(2 alpha x) + 1 - q) / (2 alpha)).
    """
    q, alpha = kernel.params.q, kernel.params.alpha
    mass = 1.0
    for lo, hi in box:
        if not hi > lo:
            raise ValueError(f"degenerate box axis ({lo}, {hi}) has no volume")
        x = np.array([hi + 1.0, hi - 1.0, lo + 1.0, lo - 1.0])
        log_term = np.logaddexp(2.0 * alpha * x + math.log1p(q), math.log1p(-q)) / (2.0 * alpha)
        big_h = x / (1.0 + q) - (1.0 + q * q) / (1.0 - q * q) * (x - log_term)
        mass *= ((big_h[0] - big_h[1]) - (big_h[2] - big_h[3])) / kernel.normalization
    return float(mass)
