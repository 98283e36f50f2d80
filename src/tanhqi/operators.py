"""Quasi-interpolation operators built on the product kernel.

Three variants share the truncated lattice window |k_i - n x_i| <= W:

* basic          A_n(f; x) = sum_k f(k/n) Z(n x - k)
* Kantorovich    K_n(f; x) = sum_k (n^N integral of f over the cell
                 [k/n, (k+1)/n]) Z(n x - k), cell averages by tensor
                 Gauss-Legendre quadrature
* fractional     Q_n(f; x) = sum_{k >= 0} D^beta f(k/n) psi(n x - k) / S(x),
                 S(x) the half-lattice partition sum; D^beta f read from a
                 table (ascending nodes, their values)

Q_n reproduces the fractional derivative, not f itself: its zeroth-order
term is already D^beta f.  Errors against it should therefore be measured
with a D^beta f oracle.  A call of ``apply_fractional_batch`` tabulates
D^beta f at its own nodes with one ``rl_derivative_batch`` call, unless it
is given a table; a sweep (``analysis.fractional_sweep``) makes one table
over the distinct nodes of all its n and passes it to every n's call.  A
node's value does not depend on which call computed it, so both give the
same bits.

``voronovskaya_corrections`` assembles the moment corrections
sum_{1 <= |alpha| <= m} D^alpha f(x)/alpha! * M_alpha(x, n) for every
order m = 1..m_max at once; each added order peels one more power of 1/n
off the basic operator's error.

Every operator has one calling convention, ``(kernel, <its own
parameter, if any>, f, n, axes)``: Kantorovich takes ``quad_nodes``,
fractional a ``FracConfig`` (and, last, an optional shared table), the
corrections and residuals ``m_max``, and the chart operator (``manifold``) its chart.
It evaluates the tensor grid of the per-axis coordinates ``axes`` (one
point x is the axes [[x_1], .., [x_N]]) and returns the grid's values
flattened in C order.  Each is one lattice sum (``kernel.lattice_sums``),
or a ratio of two, over site values sampled once per lattice table site;
n is checked by ``kernel.check_n``.  Each lattice operator also takes the
keyword-only ``sites``, the lattice table's open mesh for exactly these n
and axes; only ``analysis.sweep`` passes it, the mesh its checks built.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .fractional import FracConfig, rl_derivative_batch
from .kernel import (
    MAX_POINT_WORK,
    DensityKernel,
    axis_moments,
    check_axes,
    check_n,
    chunk_rows,
    lattice_sums,
    multi_indices,
)

__all__ = [
    "apply_basic_batch",
    "apply_kantorovich_batch",
    "apply_fractional_batch",
    "check_cell_work",
    "check_m_max",
    "check_quad_nodes",
    "check_table_cells",
    "fractional_nodes",
    "voronovskaya_corrections",
    "voronovskaya_residuals",
]

# leggauss(g) builds a g x g matrix, so g^2 must fit the per-point budget too
MAX_QUAD_NODES = math.isqrt(MAX_POINT_WORK)


def apply_basic_batch(kernel: DensityKernel, f, n: int, axes, *, sites=None) -> np.ndarray:
    """A_n(f; x) on the grid of axes (N arrays) -> (P,); exact on constants up to the tail mass."""
    return lattice_sums(kernel, n, check_axes(axes, f.dim),
                        lambda mesh: [f.value(*(k / n for k in mesh))], sites=sites)[0]


def check_quad_nodes(quad_nodes: int) -> None:
    """Gauss-Legendre nodes per axis: an integer from 2 to MAX_QUAD_NODES."""
    if not (isinstance(quad_nodes, (int, np.integer)) and quad_nodes >= 2):
        raise ValueError(f"quad_nodes must be an integer >= 2, got {quad_nodes!r}")
    if quad_nodes > MAX_QUAD_NODES:
        raise ValueError(
            f"quad_nodes = {quad_nodes} exceeds {MAX_QUAD_NODES}: the Gauss-Legendre "
            f"rule would build a {quad_nodes} x {quad_nodes} matrix"
        )


def check_cell_work(kernel: DensityKernel, quad_nodes: int, dim: int) -> None:
    """Kantorovich's per-window work: the cells of one kernel window in dim axes take
    quad_nodes^dim samples each, at most MAX_POINT_WORK in all (quadrature work, not one array),
    and quad_nodes passes ``check_quad_nodes``."""
    if isinstance(quad_nodes, (int, np.integer)) and quad_nodes >= 2:
        samples = int(quad_nodes) ** dim
        work = kernel.width**dim * samples
        if work > MAX_POINT_WORK:
            raise ValueError(f"the cells of one kernel window need {work} quadrature samples "
                             f"(> {MAX_POINT_WORK}): {kernel.width} lattice sites per axis, "
                             f"{dim} axes, {samples} samples per site; increase alpha or "
                             "trunc_eps, or lower quad_nodes")
    check_quad_nodes(quad_nodes)


def check_table_cells(quad_nodes: int, sites) -> None:
    """Kantorovich's work on one lattice table (``kernel.table_sites``' open mesh): quad_nodes^N
    samples at each of its sites, at most MAX_POINT_WORK in all."""
    sizes = [s.size for s in sites]
    work = math.prod(sizes) * quad_nodes ** len(sizes)
    if work > MAX_POINT_WORK:
        raise ValueError(f"the cells of the lattice table need {work} quadrature samples "
                         f"(> {MAX_POINT_WORK}): {' x '.join(map(str, sizes))} sites, "
                         f"{quad_nodes}^{len(sizes)} samples each; lower quad_nodes or n, "
                         "or shrink the box")


@functools.lru_cache(maxsize=16)
def _gauss_rule(g: int) -> tuple[np.ndarray, np.ndarray]:
    # the g-node Gauss-Legendre rule on [0, 1], (offsets, weights), read-only as every caller
    # shares them: 2 g floats per g, for the 16 node counts used last
    nodes, wts = np.polynomial.legendre.leggauss(g)
    rule = ((nodes + 1.0) / 2.0, wts / 2.0)
    for a in rule:
        a.flags.writeable = False
    return rule


def _cell_averages(g: int, f, n: int, sites) -> np.ndarray:
    # cell averages on the lattice table, in slabs of about CHUNK_ELEMENTS samples; the 1-D rule
    # is built once per g (``_gauss_rule``), its dim-axis weight tensor once per call
    dim = len(sites)
    offsets, wts = _gauss_rule(g)
    node_weights = functools.reduce(np.multiply.outer, [wts] * dim).ravel()
    shape = tuple(k.size for k in sites)
    averages = np.empty(math.prod(shape))
    slab = chunk_rows(g**dim)
    for start in range(0, averages.size, slab):
        cells = np.unravel_index(np.arange(start, min(start + slab, averages.size)), shape)
        # cell axis i samples its nodes along array axis 1 + i
        samples = [np.expand_dims((sites[i].ravel()[c][:, None] + offsets) / n,
                                  [1 + j for j in range(dim) if j != i]) for i, c in enumerate(cells)]
        vals = np.asarray(f.value(*samples), dtype=float).reshape(cells[0].size, -1)
        # each cell's dot product alone, the same bits in any slab: BLAS's matrix-vector product
        # (tensordot) rounds a cell by its place in the slab
        averages[start:start + slab] = np.einsum("ij,j->i", vals, node_weights)
    return averages.reshape(shape)


def apply_kantorovich_batch(kernel: DensityKernel, quad_nodes: int, f, n: int, axes, *,
                            sites=None) -> np.ndarray:
    """K_n(f; x) on the grid of axes (N arrays) -> (P,).

    With g = quad_nodes nodes per axis the cell averages are exact for
    polynomial degree 2g - 1 per axis (degree 9 at g = 5), so K_n
    inherits the basic operator's exactness on constants.  Each cell
    average of the lattice table is computed once; the Gauss-Legendre
    rule is built once per quad_nodes.  The cells' work is checked first, per window
    (``check_cell_work``) and over the lattice table (``check_table_cells``).
    """
    check_cell_work(kernel, quad_nodes, f.dim)

    def tables(mesh):
        check_table_cells(quad_nodes, mesh)
        return [_cell_averages(quad_nodes, f, n, mesh)]

    return lattice_sums(kernel, n, check_axes(axes, f.dim), tables, sites=sites)[0]


def fractional_nodes(f, n: int, ks) -> np.ndarray:
    """The nodes k/n > 0 of one axis's lattice sites ks (ascending, ``kernel.table_sites``) at
    which Q_n takes D^beta f, ascending and distinct; a site at t = 0 when f(0) != 0 is a
    ValueError."""
    # at t = 0 the Caputo part vanishes for C^1 functions and the
    # initial-value term vanishes iff f(0) = 0
    if 0.0 in ks and float(f.value(0.0)) != 0.0:
        raise ValueError("fractional lattice touches t = 0 where D^beta f diverges because "
                         "f(0) != 0; evaluate farther from the origin or increase n")
    return ks[ks > 0.0] / n


def _table_values(table, nodes) -> np.ndarray:
    # the table's values at nodes, each found by exact equality; a missing node is a ValueError
    known, values = table
    at = np.searchsorted(known, nodes)
    found = at < known.size
    found[found] = known[at[found]] == nodes[found]
    if not found.all():
        raise ValueError(f"D^beta f is not tabulated at node t = {float(nodes[~found][0])!r}")
    return values[at]


def apply_fractional_batch(kernel: DensityKernel, frac: FracConfig, f, n: int, axes,
                           table=None, *, sites=None) -> np.ndarray:
    """Q_n(f; x) at every x of the one axis, [x] -> (P,), x >= 0.

    The sum over sites k >= 0 is divided by their weight sum; D^beta f
    at the lattice table's nodes k/n > 0 (``fractional_nodes``) is read
    from ``table``, (ascending nodes, their values) holding at least
    those nodes, or, if None, from one rl_derivative_batch call over
    those nodes, which checks their L1 budget (``fractional.l1_work``).
    """
    (x,) = check_axes(axes, 1)
    if f.dim != 1:
        raise ValueError("the fractional operator is one-dimensional")
    if (x < 0.0).any():
        raise ValueError(f"the fractional operator needs x >= 0, got {float(x[x < 0.0][0])!r}")

    def tables(mesh):
        ks = mesh[0]
        nodes = fractional_nodes(f, n, ks)
        dbeta = np.zeros(ks.shape)
        lookup = (nodes, rl_derivative_batch(frac, f, nodes)) if table is None else table
        dbeta[ks > 0.0] = _table_values(lookup, nodes)
        return [dbeta, ks >= 0.0]

    total, mass = lattice_sums(kernel, n, [x], tables, sites=sites)
    return total / mass


def check_m_max(m_max: int, f=None) -> None:
    """The highest correction order: an integer (no bool) in 0..4, at most a preset f's smoothness."""
    if not (isinstance(m_max, (int, np.integer)) and not isinstance(m_max, bool) and 0 <= m_max <= 4):
        raise ValueError(f"m_max must lie in 0..4, got {m_max!r}")
    if f is not None and m_max > f.smoothness:
        raise ValueError(
            f"m_max = {m_max} exceeds the smoothness grade {f.smoothness} of preset {f.name!r}"
        )


def voronovskaya_corrections(kernel: DensityKernel, m_max: int, f, n: int, axes) -> np.ndarray:
    """Row m - 1: sum_{1 <= |alpha| <= m} D^alpha f(x)/alpha! M_alpha(x, n) on the grid of axes,
    m = 1..m_max -> (m_max, P).

    Each term is computed once, and each row adds its terms in lexicographic
    order of alpha.  M_alpha is the outer product of one axis_moments column
    per axis; m_max = 0 computes no moment.
    """
    check_m_max(m_max, f)
    check_n(n)  # axis_moments checks n too, but m_max = 0 calls none
    axes = check_axes(axes, f.dim)
    grid = np.ix_(*axes)
    moments = [axis_moments(kernel, x, n, m_max) for x in axes] if m_max else []
    terms = {}
    for alpha in multi_indices(len(axes), 1, m_max):
        d = np.asarray(f.derivative(alpha, *grid), dtype=float)
        mom = 1.0
        for axis, p in enumerate(alpha):
            mom = mom * moments[axis][:, p].reshape(grid[axis].shape)
        terms[alpha] = d / math.prod(map(math.factorial, alpha)) * mom
    # a zero derivative adds an exact zero, as skipping the term would
    rows = [sum((terms[alpha] for alpha in multi_indices(len(axes), 1, m)), 0.0)
            for m in range(1, m_max + 1)]
    return np.reshape(rows, (m_max, math.prod(x.size for x in axes)))


def voronovskaya_residuals(kernel: DensityKernel, m_max: int, f, n: int, axes, *,
                           sites=None) -> np.ndarray:
    """Row m: A_n(f) - f minus the order-m correction (row 0 uncorrected) on the grid of axes,
    m = 0..m_max -> (m_max + 1, P), from one basic evaluation and one moment table per axis."""
    r = apply_basic_batch(kernel, f, n, axes, sites=sites) - np.ravel(f.value(*np.ix_(*axes)))
    return np.vstack([r, r - voronovskaya_corrections(kernel, m_max, f, n, axes)])
