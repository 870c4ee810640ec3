"""Divided differences, Newton interpolation, and decay profiling.

The m-th divided difference of samples plays the role of an m-th derivative
probe: for a function with continuous m-th derivative, differences of
nearby m-th divided differences shrink with the spread of the nodes, and
the profiles here measure exactly that shrinkage.
"""

import itertools
import math
import os
from typing import NamedTuple

import numpy as np

from .errors import LengthMismatchError, QuadratureBudgetError, ScanTooLargeError, TooFewNodesError
from .heis import HPoint, _twist, check_finite, check_nodes
from .poly import Poly
from .profiles import _BandMax, _chunk_rows, delta_grid


class SampledCurve:
    """Curve samples at strictly increasing nodes, held once as read-only
    arrays: _t, the nodes (n,), and _xyz, the values (3, n).  nodes, points,
    fs, gs and hs are tuples built from them on each read."""

    __slots__ = ("_t", "_xyz")

    def __init__(self, nodes, points):
        xyz = np.array(list(zip(*points)), dtype=float).reshape(3, -1)
        self._hold(np.array(nodes, dtype=float), xyz)

    @classmethod
    def _of(cls, t, xyz):
        """The curve of nodes t (n,) and values xyz (3, n), which it keeps and freezes."""
        curve = cls.__new__(cls)
        curve._hold(t, xyz)
        return curve

    def _hold(self, t, xyz):
        """Check nodes t and values xyz by the node and value rules; keep them read-only."""
        if len(t) < 2:
            raise TooFewNodesError("a sampled curve needs at least two nodes")
        if xyz.shape[1] != len(t):
            raise LengthMismatchError("one point per node required")
        check_finite(xyz, "samples")
        check_nodes(t)
        t.flags.writeable = xyz.flags.writeable = False
        self._t, self._xyz = t, xyz

    @classmethod
    def from_rows(cls, rows):
        """Build from (t, x, y, z) rows, sorting by t."""
        a = np.array(rows, dtype=float).reshape(len(rows), 4)
        a = np.ascontiguousarray(a[np.argsort(a[:, 0], kind="stable")].T)
        return cls._of(a[0], a[1:])

    nodes = property(lambda self: tuple(self._t.tolist()))
    points = property(lambda self: tuple(HPoint(*p) for p in self._xyz.T.tolist()))
    fs = property(lambda self: tuple(self._xyz[0].tolist()))
    gs = property(lambda self: tuple(self._xyz[1].tolist()))
    hs = property(lambda self: tuple(self._xyz[2].tolist()))
    diam = property(lambda self: float(self._t[-1] - self._t[0]))
    min_gap = property(lambda self: float(np.min(np.diff(self._t))))

    def translated(self, p):
        """Left translate p * curve, sample by sample."""
        x, y, z = self._xyz
        moved = np.stack([p.x + x, p.y + y, p.z + z + _twist(p.x, p.y, x, y)])
        return SampledCurve._of(self._t, moved)


def dd_coefficients(values, nodes):
    """Newton coefficients [f[x0], f[x0,x1], .., f[x0..xk]] and the sorted nodes.

    Nodes are sorted ascending before tabulating so the recursion always
    combines left to right; divided differences are symmetric, so this only
    pins the floating-point evaluation order.  Both come back as arrays.
    """
    if len(values) != len(nodes):
        raise LengthMismatchError("values and nodes must have equal length")
    if not len(nodes):
        raise TooFewNodesError("a divided difference needs at least one node")
    check_finite(values, "values")
    xs, col = np.array(sorted(zip(nodes, values)), dtype=float).T
    check_nodes(xs)
    return _newton_columns(xs, col), xs


def _newton_columns(xs, col):
    """Newton coefficients along the last axis of col, at sorted nodes xs.

    Leading axes broadcast, so one call tabulates many subsets at once.
    """
    coeffs = [col[..., 0]]
    for j in range(1, xs.shape[-1]):
        col = (col[..., 1:] - col[..., :-1]) / (xs[..., j:] - xs[..., :-j])
        coeffs.append(col[..., 0])
    return np.stack(coeffs, axis=-1)


def divided_difference(values, nodes):
    """Top divided difference f[x0, .., xk] of the samples."""
    return float(dd_coefficients(values, nodes)[0][-1])


def newton_interp(nodes, values):
    """Interpolating polynomial through (nodes, values) in monomial form."""
    return Poly(_monomial_rows(*dd_coefficients(values, nodes)))


def _monomial_rows(coeffs, xs):
    """Ascending monomial coefficients of Newton polynomials.

    coeffs[..., j] multiplies (u - xs[..., 0]) .. (u - xs[..., j-1]); the
    leading axes of coeffs and xs broadcast.  Nested multiplication by
    (u - xs[..., j]) from the top coefficient down.
    """
    k = coeffs.shape[-1]
    p = np.zeros(np.broadcast_shapes(coeffs.shape, xs.shape))
    p[..., :1] = coeffs[..., -1:]
    for j in range(k - 2, -1, -1):
        x, c = -xs[..., j : j + 1], coeffs[..., j : j + 1]
        p = np.concatenate([p[..., :1] * x + c, p[..., :-1] + p[..., 1:] * x], -1)
    return p


def _adaptive_simpson(f, a, b, tol, budget, depth=40):
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    budget[0] -= 3
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _asimp(f, a, b, fa, fm, fb, whole, tol, budget, depth)


def _asimp(f, a, b, fa, fm, fb, whole, tol, budget, depth):
    mid = 0.5 * (a + b)
    lm, rm = 0.5 * (a + mid), 0.5 * (mid + b)
    flm, frm = f(lm), f(rm)
    budget[0] -= 2
    if budget[0] < 0:
        raise QuadratureBudgetError("quadrature evaluation budget exhausted")
    left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if abs(err) <= 15.0 * tol or depth <= 0:
        if depth <= 0 and abs(err) > 15.0 * tol:
            raise QuadratureBudgetError("quadrature depth exhausted")
        return left + right + err / 15.0
    return _asimp(f, a, mid, fa, flm, fm, left, 0.5 * tol, budget, depth - 1) + _asimp(
        f, mid, b, fm, frm, fb, right, 0.5 * tol, budget, depth - 1
    )


def hermite_genocchi(fm, nodes, tol=1e-9, budget=2_000_000):
    """Divided difference via the simplex-integral representation.

    fm is the m-th derivative of the underlying function, m = len(nodes)-1:

        f[x_0..x_m] = int over {1 >= t_1 >= .. >= t_m >= 0} of
                      fm(x_0 + t_1 (x_1 - x_0) + .. + t_m (x_m - x_{m-1})).

    Evaluated by nested adaptive Simpson quadrature, which makes it a route
    to the divided difference that is independent of the recursion; repeated
    nodes are allowed (the confluent case f^(m)(a)/m! falls out).
    """
    pts = [float(t) for t in nodes]
    m = len(pts) - 1
    if m == 0:
        return float(fm(pts[0]))
    diffs = [pts[i + 1] - pts[i] for i in range(m)]
    counter = [budget]
    level_tol = tol / (2.0 ** m)

    def level(j, base, upper):
        if j == m:
            integrand = lambda t: fm(base + t * diffs[j - 1])
        else:
            integrand = lambda t: level(j + 1, base + t * diffs[j - 1], t)
        if upper == 0.0:
            return 0.0
        return _adaptive_simpson(integrand, 0.0, upper, level_tol, counter)

    return level(1, pts[0], 1.0)


def dd_windows(n, m, width):
    """(m+1)-subsets of node indices within a sliding window of width <= n nodes.

    Returns (subsets, width): subsets is an (S, m+1) array of index rows,
    each ascending and its last index less than width past its first, in
    lexicographic order.  Each row is a first index plus a row of one
    offset table, 0 and an m-combination of 1 .. width - 1.
    """
    offsets = np.array(
        [(0, *rest) for rest in itertools.combinations(range(1, width), m)], dtype=np.intp
    ).reshape(-1, m + 1)
    rows = np.arange(n)[:, None, None] + offsets
    return rows[rows[..., -1] < n], width


def _subset_count(n, m, width):
    """len(dd_windows(n, m, width)[0]), in closed form, for width <= n.

    Each of the n - width + 1 first nodes with a whole window after it
    heads C(width - 1, m) subsets; the later ones, whose windows hold
    width - 1 down to 1 nodes, head sum_k C(k - 1, m) = C(width - 1, m + 1).
    """
    return (n - width + 1) * math.comb(width - 1, m) + math.comb(width - 1, m + 1)


def _physical_memory():
    """Bytes of physical memory."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class _Table(NamedTuple):
    """Newton coefficients of f, g and h on a slice of the subsets of a scan."""

    idx: np.ndarray  # (S, k) sorted node indices per subset
    xs: np.ndarray  # (S, k) the subsets' nodes
    u: np.ndarray  # (S, k) local coordinate xs - xs[:, :1]
    dd: np.ndarray  # (3, S, k) Newton coefficients of f, g, h on xs

    def polys(self, count=3):
        """Ascending monomial rows in u of the first count of f, g and h."""
        return _monomial_rows(self.dd[:count], self.u)


def _subset_table(samples, idx):
    """The table of the subsets whose node indices are the rows of idx.

    The divided differences run on the global nodes and the interpolants
    are expanded in u = t - t_first, so they never carry the subset's
    distance from t = 0, and dd[..., -1] is the dd_coefficients divided
    difference bit for bit.
    """
    xs, values = samples._t[idx], samples._xyz[:, idx]
    return _Table(idx, xs, xs - xs[:, :1], _newton_columns(xs, values))


class _Scan(NamedTuple):
    """The subsets of a scan, as dd_windows lists them, read in slices."""

    samples: SampledCurve
    idx: np.ndarray  # (S, k) node indices per subset, in lexicographic order
    width: int
    step: int  # subsets per slice

    def tables(self):
        """The Newton tables of consecutive slices of step subsets, in order."""
        for s in range(0, len(self.idx), self.step):
            yield _subset_table(self.samples, self.idx[s : s + self.step])


# Peak bytes of a Newton-table slice and its readers' temporaries per
# subset pair: tracemalloc measured 150 to 1050 on scans at m = 1 .. 4.
SLICE_BYTES_PER_PAIR = 1024


def _full_window(n, m, window, full_enum):
    """full_enum widens a missing window, or one of at least m + 2, to all n nodes."""
    return n if full_enum and (window is None or window >= m + 2) else window


def _scan(samples, m, window, order=None):
    """Checked set-up of an order-m scan: its _Scan and scale grid.

    The samples and the window (2m + 4 unless given) need m + 2 nodes.  The
    subsets are those of k = order + 1 nodes (order m unless set) within
    min(n, window) consecutive nodes, read in slices whose pairs number at
    most CHUNK_PAIRS, and the scales are the geometric grid from diam down
    to the smallest gap.  Before dd_windows lists a subset, the scan's peak
    memory is estimated: dd_windows' index rows before and after its cut,
    the dd profiles' extrema tables and one slice.  An estimate beyond
    physical memory raises ScanTooLargeError.
    """
    n = len(samples._t)
    if n < m + 2:
        raise TooFewNodesError(f"need at least {m + 2} nodes for order {m}")
    if window is not None and window < m + 2:
        raise TooFewNodesError(f"window must be at least {m + 2}")
    deltas = delta_grid(samples.diam, samples.min_gap)
    width = min(n, 2 * m + 4 if window is None else window)
    k = (m if order is None else order) + 1
    count, pairs = _subset_count(n, k - 1, width), math.comb(k, 2)
    step = _chunk_rows(pairs)
    # dd_windows' index rows before and after its cut, the dd extrema's
    # twelve rows of n * width floats, and one slice
    listing = 8 * k * (n * math.comb(width - 1, k - 1) + count)
    size = listing + 12 * 8 * n * width + SLICE_BYTES_PER_PAIR * pairs * min(step, count)
    if size > _physical_memory():
        raise ScanTooLargeError(
            f"{count} subsets of {k} nodes need {size / 2**30:.3g} GiB to scan, "
            "more than physical memory"
        )
    return _Scan(samples, dd_windows(n, k - 1, width)[0], width, step), deltas


class _DDProfiles:
    """Banded sup of |gamma[X] - gamma[Y]| at scale diam(X u Y), per component,
    fed the tables of a scan slice by slice.

    X != Y run over pairs of the scan's subsets whose union spans fewer than
    width consecutive indices.  That union is an interval [s, e] with
    e - s > m: one member starts at s and the other ends at e, or one spans
    [s, e] and the other lies inside.  So the interval's largest item is the
    larger spread (max of one group minus min of the other) of those two
    group pairs, read from running extrema by (first, span) and (last,
    span), which add updates in the subsets' order.  Rounding is monotone,
    so this is the pair maximum bit for bit.
    """

    def __init__(self, scan):
        self.scan = scan
        # Max and -min of each component, by (first, span) and by (last, span).
        self.by = np.full((2, 6, len(scan.samples._t) * scan.width), -np.inf)

    def add(self, table):
        """Fold in the next slice's table, in the scan's order."""
        idx, width, top = table.idx, self.scan.width, table.dd[..., -1]
        span = idx[:, -1] - idx[:, 0]
        for rows, key in zip(self.by, (idx[:, 0] * width + span, idx[:, -1] * width + span)):
            for row, values in zip(rows, (*top, *-top)):
                np.maximum.at(row, key, values)

    def profiles(self, deltas):
        """{"dd_f": .., "dd_g": .., "dd_h": ..} on the scales deltas, once every table is in."""
        t, width, m = self.scan.samples._t, self.scan.width, self.scan.idx.shape[1] - 1
        n = len(t)
        exact, ending = self.by.reshape(2, 2, 3, n, width)
        inside = exact.copy()  # rows within [s, s + d]
        for d in range(1, width):
            shorter = np.maximum(inside[..., :-1, d - 1], inside[..., 1:, d - 1])
            np.maximum(inside[..., :-1, d], shorter, out=inside[..., :-1, d])
        s, d = np.nonzero((np.arange(width) > m) & (np.arange(n)[:, None] + np.arange(width) < n))
        starts = np.maximum.accumulate(exact, axis=-1)[..., s, d]  # from s, within [s, s + d]
        ends = np.maximum.accumulate(ending, axis=-1)[..., s + d, d]  # to s + d, within it
        spread = np.maximum(starts + ends[::-1], exact[..., s, d] + inside[::-1, :, s, d])
        bands = _BandMax(deltas, 3)
        # abs turns a -0.0 from signed-zero samples into the pair scan's +0.0
        bands.add(t[s + d] - t[s], *np.abs(spread.max(axis=0)))
        return {f"dd_{c}": bands.profile(f"dd_{c}", k) for k, c in enumerate("fgh")}
