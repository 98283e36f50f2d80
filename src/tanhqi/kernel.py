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

    psi(x) = s v / ((A + B e v)(A e + B v))
           = s / ((A + B e^(-2 alpha (x + 1)))(B + A e^(2 alpha (x - 1)))),

all terms positive and, in ``psi_eval``, one exp per factor at every
alpha: accurate to a few ulp in the tails too, so psi > 0 holds as
computed down to about e^-708, and as alpha -> inf the limit box.

psi decays like e^(-2 alpha |x|), so lattice sums can be truncated at a
radius W chosen once per kernel from a tolerance eps_trunc: the smallest
integer whose neglected partition mass, at any centre, is at most
eps_trunc (``tail_mass``, in closed form as psi telescopes).

A window's weights psi(u - k) take one exp per centre u instead, and one
table e^(2 alpha (j - W)) over its sites k = lo + j per call: each weight
is the reciprocal of a three-term sum, one rank-3 einsum of a centre
table and a slot table (``window_weights``); past WINDOW_EXP_LIMIT they
take ``psi_eval``.

Lattice sums sum_k v(k) Z(n x - k) over a tensor grid of points sample v
once per site of the lattice table (``table_sites``); as Z is a product,
``lattice_sums`` contracts the table one axis at a time, each axis by one
rule, then moves it last so the next axis comes first.  Every axis, like
``axis_moments``, takes one window plan (window ends, exps and weight
buffers), so a chunk of points, all with windows of one width, only fills
its weights and reads each window, 2W or 2W + 1 sites, with one index per
row from an ``as_strided`` view of the table (its first stride on two axes,
no copy).  The last axis sums each row as one BLAS dot; earlier axes sum
slot by slot in window order, in numpy's own loop.  A point's sum depends
on its own windows alone, not on the other points of its call.  A table
that is constant along the axis being contracted (stride 0 there, as
``np.broadcast_to`` makes it from a size-1 axis or a scalar) is not
gathered: each point's row is its partition sum, ``weights.sum(axis=1)``
with the bits of ``axis_moments``' column 0, times the table's first row,
one rounding, and the result keeps that row's zero strides, so a later
axis the table is also constant along takes the same path (sum
factorization: Orszag, J. Comput. Phys. 37, 1980).  A chart density's
constant axes so cost one partition sum each.
``table_sites`` caps a window's sites, the table's sites and the sums'
multiply-adds before it builds a site, for operators and sweeps alike
(``check_moments`` all but the table's, for the moments, which build no
table); a sweep (``analysis.sweep``) runs it for every n first and hands
each n's checked mesh to the calls on its own grid (``lattice_sums(...,
sites=...)``), so each table's sites are built once.
One rule, ``chunk_rows``, sizes every lattice chunk, Kantorovich's cell
slabs and the fractional L1 blocks, each to at most CHUNK_ELEMENTS numbers
unless one row is wider.
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
    "tail_mass",
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
]

# numbers per chunk array (128 KiB of float64): chunk_rows takes whole rows of an odd window
# width, so a chunk's gather, made afresh per chunk, stays under the C library's default mmap
# threshold (128 KiB in glibc) and reuses heap memory, and numpy's fixed cost per call (11-14 us)
# is spread over 31 points of a W = 256 chunk.  At 2^15 each gather was freshly mapped pages
# (276-282 page faults per call below).  The 1-D sums of n = 16, 128 and 2048 over 1001 points
# took 0.86-0.89 ms at W = 16 and 4.5-5.1 ms at W = 256 at 2^14, 0.92-0.93 and 5.5 ms at 2^13,
# 1.2-1.5 and 4.7-5.6 ms at 2^15 (Xeon, 48 KiB L1d, 2 MiB L2, one process per size)
CHUNK_ELEMENTS = 2**14
# cap on the samples over one kernel window's cells and on a lattice table's
# sites, checked before any allocation
MAX_POINT_WORK = 2**24
# cap on one lattice sum's multiply-adds (see _sum_work), checked before its table is built
MAX_SUM_WORK = 2**31
# bound on |n x| + W + 1: below 2^52 a double keeps a fractional bit, so a
# centre n x is not already rounded onto a lattice site, and every window
# end and site is an exact integer; from 2^53 on, k + 1 rounds back to k
MAX_CENTRE = 2.0**52
# windows take one exp per centre while 2 alpha (W + 1) is at most this: with f < e^(2 alpha)
# and S_j, R_j within e^(+-2 alpha W), each term of a weight's denominator d, (c1 / f) S_j and
# (c2 f) R_j, is then at most its coefficient times e^300, far from overflow, and psi = 1 / d
# far from the subnormals.  Past it they take psi_eval: for every alpha above 50 (W >= 2), and
# below that, for q <= 0.99, only for eps_trunc under 3e-31 (1e-118 up to alpha 4), the tail
# mass at the last W with 2 alpha (W + 1) <= 300; these thresholds grow like 1 / (1 - q)
WINDOW_EXP_LIMIT = 300.0


def normalization_constant(params: ActivationParams) -> float:
    """C(q) = 2 (1 + q^2) / (1 - q^2), the exact value of the telescoped sum."""
    q = params.q
    return 2.0 * (1.0 + q * q) / (1.0 - q * q)


def tail_mass(params: ActivationParams, w: float) -> float:
    """The supremum over centres u of the partition mass outside u's radius-w window, w >= 1.

    u's window holds the sites k with |u - k| <= w.  With R(m) = sum_(j>=m)
    psi(j) and L(m) = sum_(j>=m) psi(-j), the mass outside it tends to
    R(w) + L(w + 1) as the fractional part of u goes to 0+ and to
    R(w + 1) + L(w) as it goes to 1-; the supremum is the larger limit
    (checked against direct sums over dense centre grids in the tests).
    psi telescopes through h, so R(m) = (T+(m) + T+(m - 1)) / C and
    L(m) = (T-(1 - m) + T-(-m)) / C, with T+(z) = 1/(1+q) - h(z) and
    T-(z) = h(z) + q/(1-q).  Per distance z >= 0, with v = e^(-2 alpha z),

        T+(z) / C = (1-q) v / (2 ((1+q) + (1-q) v)),
        T-(-z) / C = (1+q) v / (2 ((1+q) v + 1 - q)),

    one quotient of positive terms each, so no cancelled zeros.
    """
    q, a = float(params.q), float(params.alpha)
    if 2.0 * a == math.inf:
        # psi is the limit box (see psi_eval), with no mass past +-1: every term is 0, also the
        # one-sided limit z -> 0+, where 2 alpha z would read inf * 0
        return 0.0
    big, small = 1.0 + q, 1.0 - q
    right, left = [], []
    for z in (w - 1.0, w, w + 1.0):
        v = math.exp(-2.0 * a * z)
        right.append(small * v / (2.0 * (big + small * v)))
        left.append(big * v / (2.0 * (big * v + small)))
    return max(right[1] + right[0] + left[1] + left[2], right[2] + right[1] + left[0] + left[1])


def truncation_radius(params: ActivationParams, eps: float) -> float:
    """Smallest integer W >= max(2, ceil((atanh(q) + 1)/alpha)) with tail_mass(W) <= eps.

    So eps bounds the partition mass a truncated window neglects, at every
    centre.  psi is symmetric about its peak at -atanh(q)/alpha, and one
    slope length 1/alpha past the peak its tails decay like
    e^(-2 alpha |x|); the lower bound puts both window ends there.  The
    tail mass decreases in W, so the search bisects between two radii its
    exponential bounds give.  An alpha too small for any W <= 2^40 is a
    ValueError.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"truncation tolerance must lie in (0, 1), got {eps!r}")
    limit, q, a = 2**40, params.q, params.alpha

    def radius(c):
        # where c e^(-2 alpha (w - 1)) = eps, at most limit + 2 (ceil takes no inf)
        return math.ceil(min(1.0 + (math.log(c) - math.log(eps)) / (2.0 * a), limit + 2.0))

    # (1+q)/4 <= tail_mass(w) e^(2 alpha (w - 1)) <= (1+q)/(1-q) + (1-q)/(1+q): every w below
    # the first bound's radius fails and every w from the second's on passes (one site of slack
    # each for rounding), so bisect between them, limit + 1 standing for none up to 2^40
    floor = max(2, math.ceil(min((math.atanh(q) + 1.0) / a, limit + 1.0)))
    lo = max(floor, radius((1.0 + q) / 4.0) - 1) - 1
    hi = min(max(floor, radius((1.0 + q) / (1.0 - q) + (1.0 - q) / (1.0 + q)) + 1), limit + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail_mass(params, mid) > eps:
            lo = mid
        else:
            hi = mid
    if hi > limit:
        raise ValueError(
            f"no truncation radius up to 2^40 for alpha={params.alpha!r}, eps={eps!r}; "
            "increase alpha or eps_trunc"
        )
    return float(hi)


@dataclass(frozen=True)
class DensityKernel:
    """Kernel psi with its normalization C and truncation radius W.

    W is ``truncation_radius``: a window of radius W around any centre
    neglects at most eps_trunc of the partition mass (``tail_mass``), so a
    truncated partition sum lies in [1 - eps_trunc, 1] before rounding.
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
    """psi(x) = s / ((A + B e^(-2 alpha (x + 1)))(B + A e^(2 alpha (x - 1)))), one exp per factor,
    to a few ulp, 0 past the float range, never NaN; sums to one.  As alpha -> inf this is the
    limit box, 1/2 on |x| < 1 and (1 -+ q)/4 at x = +-1."""
    q, a = float(kernel.params.q), float(kernel.params.alpha)
    s = 0.5 * (1.0 - q) * (1.0 + q) * -math.expm1(-4.0 * a)
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        return s / ((1.0 + q + (1.0 - q) * np.exp(a * (-2.0 * (x + 1.0))))
                    * (1.0 - q + (1.0 + q) * np.exp(a * (2.0 * (x - 1.0)))))


def window_weights(kernel: DensityKernel, u, lo):
    """The weight rule of every lattice window: a function (width, rows, out) -> weights.

    u and lo have shape (P,), lo_i = ceil(u_i - W) the first site of u_i's
    window; the weights psi(u_i - lo_i - j) of the centres u[rows] (all by
    default) have shape (m, width), j = 0..width - 1 <= 2W, and go into out
    when given.  With c = lo + W, so -1 < u - c <= 0, psi(u - k) at
    k = lo + j takes v = f R_j, f = e^(2 alpha (c - u)) per centre and
    R_j = e^(2 alpha (j - W)) per slot.  Expanding psi_eval's denominator
    with A = 1 + q, B = 1 - q and dividing through by v gives

        psi = 1 / (c0 + (c1 / f) S_j + (c2 f) R_j),  S_j = 1 / R_j = R_(2W - j),
        c0 = A B (1 + e^2) / s,  c1 = A^2 e / s,  c2 = B^2 e / s,

    all terms positive.  When the rule is built it takes one exp per centre
    and one per slot, and one division per centre, into a centre table
    [c1 / f, c2 f, c0] (P, 3) and a slot table [S, R, 1] (3, 2W + 1); per
    chunk each weight is then one reciprocal of the rank-3 product of the
    two, summed as ((c1 / f) S_j + (c2 f) R_j) + c0.  The product is
    numpy's own einsum loop, not BLAS: a BLAS dgemm of the same product
    groups a row differently with the rows around it, so a weight would
    depend on its chunk.  Build the rule once per call and apply it per
    chunk.  Where 2 alpha (W + 1) exceeds WINDOW_EXP_LIMIT, the rule is
    ``psi_eval`` at the sites instead.
    """
    q, a, w = float(kernel.params.q), float(kernel.params.alpha), kernel.radius
    if 2.0 * a * (w + 1.0) > WINDOW_EXP_LIMIT:
        def sites(width, rows=slice(None), out=None):
            return psi_eval(kernel, u[rows, None] - (lo[rows, None] + np.arange(float(width))))

        return sites
    e = math.exp(-2.0 * a)
    s = 0.5 * (1.0 - q) * (1.0 + q) * -math.expm1(-4.0 * a)
    slots = np.empty((3, kernel.width))
    # R_j, and S_j as R's mirror image: 2 alpha (j - W) is exactly -2 alpha (2W - j - W)
    np.exp(2.0 * a * (np.arange(2.0 * w + 1.0) - w), out=slots[1])
    slots[0] = slots[1, ::-1]
    slots[2] = 1.0
    factor = np.exp(2.0 * a * (lo + w - u))
    centres = np.empty((factor.size, 3))
    np.divide((1.0 + q) ** 2 * e / s, factor, out=centres[:, 0])
    np.multiply((1.0 - q) ** 2 * e / s, factor, out=centres[:, 1])
    centres[:, 2] = (1.0 + q) * (1.0 - q) * (1.0 + e * e) / s

    def weights(width, rows=slice(None), out=None):
        d = np.einsum("ik,kj->ij", centres[rows], slots[:, :width], out=out)
        return np.reciprocal(d, out=d)

    return weights


def _window_plan(kernel: DensityKernel, u: np.ndarray, rows: int):
    # one call's windows around centres u: the window ends lo, and per window width (2W sites,
    # or 2W + 1 for a centre on a lattice site) with a point, (width, chunks), each chunk at
    # most rows of those points as (index array, weights), in one buffer per call until the
    # next chunk; no row holds a slot outside its own window
    lo, hi = _window_ends(kernel, 1, u)
    length = (hi - lo).astype(np.intp) + 1
    # not np.unique: on numpy 2.4 its first call imports numpy.ma (for np.ma.is_masked), which
    # raised a run's peak RSS by 1.7 MB
    widths = range(int(length.min()), int(length.max()) + 1)
    weights = window_weights(kernel, u, lo)
    flat = np.empty(min(rows, u.size) * widths[-1])

    def chunks(width):
        index = np.flatnonzero(length == width)
        for start in range(0, index.size, rows):
            chunk = index[start:start + rows]
            yield chunk, weights(width, chunk, flat[:chunk.size * width].reshape(-1, width))

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
    each row, its slots last, as one BLAS 1-D dot (``np.matmul`` of a row
    and a column), as ``axis_moments`` does.  Earlier axes sum slot by slot
    in window order, each slot across the later axes' whole table, by
    numpy's own einsum loop: a BLAS gemv there would treat a table's last
    columns apart, so a slot's bits would depend on the width of that
    table.  So a point's sum depends on its own windows alone, not on
    CHUNK_ELEMENTS or the other points of its call.  A flat axis, where a
    table's stride is 0 (every row the same), is neither gathered nor
    summed slot by slot: row p is p's partition sum (``axis_moments``'
    column 0, bit for bit) times the table's first row, one rounding from
    within gamma_L sum |w_j T_j| of the slot sum, with that row's zero
    strides kept for the later axes.  The first axis's
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
    # row p sums T[first_p : first_p + L] by its window's weights, one BLAS dot per row with the
    # slots last when last, else in window order; returned as (*rest, P), the contracted axis
    # moved last.  A flat table (stride 0 on its first axis, so every row is its first) is not
    # gathered: row p is p's partition sum, weights.sum(axis=1) as axis_moments' column 0,
    # times the first row, whose zero strides the result keeps for the next axis
    rest = tables[0].shape[1:]
    slot = len(rest) + 1 if last else 1
    lo, groups = _window_plan(kernel, u, chunk_rows(kernel.width * math.prod(rest)))
    first = np.searchsorted(sites, lo)
    full = [t for t in tables if t.strides[0]]
    out = [np.empty((u.size, *rest)) for _ in full]
    mass = np.empty(u.size) if len(full) < len(tables) else None
    for width, chunks in groups:
        # each table as (K - width + 1, .., width, ..), the slots at slot, with the first axis's
        # stride; a window lies inside the table
        views = [as_strided(t, (t.shape[0] - width + 1, *rest[:slot - 1], width, *rest[slot - 1:]),
                            (*t.strides[:slot], t.strides[0], *t.strides[slot:]), writeable=False)
                 for t in full]
        for chunk, weights in chunks:
            if mass is not None:
                mass[chunk] = weights.sum(axis=1)
            if last:
                # (m, 1, .., width, 1), a column per row for matmul
                weights = weights.reshape(-1, *[1] * len(rest), width, 1)
            for view, o in zip(views, out):
                # C order, so the sum groups as it would over a plain table: a gather through a
                # broadcast table's zero strides comes out in another layout
                v = np.ascontiguousarray(view[first[chunk]])
                # rebinding v to its sum frees the gather before the next chunk's: writing the
                # sum straight into o[chunk] keeps the gather alive across that allocation, and
                # a W = 256 sum over 1001 points took 7-20% longer
                if last:
                    # one BLAS 1-D dot per row, as in axis_moments: the einsum below, with the
                    # slots last, took 10.1-10.9 us against 6.9-7.2 us on a W = 256 chunk (31 rows
                    # of 513 slots), and tied on a W = 16 chunk (496 rows of 33)
                    v = np.matmul(v[..., None, :], weights)[..., 0, 0]
                else:
                    # numpy's own loop, slot by slot in window order: a gemv (matmul) would make
                    # a slot's bits depend on the width of the later axes' table
                    v = np.einsum("ij...,ij->i...", v, weights)
                o[chunk] = v
    done = iter(out)
    out = [next(done) if t.strides[0] else _flat_rows(mass, t[0]) for t in tables]
    return [o.transpose(*range(1, o.ndim), 0) for o in out]


def _flat_rows(mass: np.ndarray, row: np.ndarray) -> np.ndarray:
    # (P, *row.shape): mass[p] * row, multiplied along the row's varying axes alone and broadcast
    # along its zero-stride ones, so those stay flat
    core = row[tuple(slice(None) if stride else slice(0, 1) for stride in row.strides)]
    return np.broadcast_to(np.multiply.outer(mass, core), (mass.size, *row.shape))


def point_work(kernel: DensityKernel, dim: int) -> int:
    """The lattice sites of one kernel window in dim axes, width^dim; above MAX_POINT_WORK
    (2^24) a ValueError."""
    work = kernel.width**dim
    if work > MAX_POINT_WORK:
        raise ValueError(f"one kernel window holds {work} lattice sites (> {MAX_POINT_WORK}): "
                         f"{kernel.width} per axis, {dim} axes; increase alpha or trunc_eps")
    return work


def chunk_rows(per_point: int) -> int:
    """Rows per chunk (points, Kantorovich's cells or L1 grids) of per_point numbers each: about
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
    """offsets**p, p = 1..p_max, as |o|**p with o's sign put back for odd p: sign-symmetric bit
    for bit and within 1 ulp of math.pow.  numpy's float64 ``**`` takes libm, 30 times slower
    and rounded differently, for bases < 0 only."""
    size = np.abs(offsets)
    for p in range(1, p_max + 1):
        yield np.copysign(size**p, offsets) if p % 2 else size**p

