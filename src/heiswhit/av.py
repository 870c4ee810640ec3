"""Area and velocity functionals for horizontality-compatibility checks.

For a curve (f, g, h) with degree-m Taylor polynomials T_f, T_g at a, the
pair

    A = h(b) - h(a) - 2 int_a^b (T_f' T_g - T_g' T_f)
          + 2 f(a) (g(b) - T_g(b)) - 2 g(a) (f(b) - T_f(b))
    V = (b-a)^{2m} + (b-a)^m int_a^b (|T_f'| + |T_g'|)

measures the signed area a horizontal lift would have to close against the
volume available for closing it; |A/V| -> 0 as b - a -> 0 is the
compatibility condition.  The discrete variant replaces Taylor polynomials
by interpolants through an (m+1)-node subset, which need no correction
terms, and diam(subset) replaces b - a in V.  Both run through one kernel,
_av, on rows of polynomial coefficients.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadSubsetError, OrderViolationError
from .divdiff import _subset_table
from .heis import _velocity
from .poly import _abs_integral, _antideriv, _deriv, _horner, _roots, _rows, _taylor_rows
from .profiles import _anchor_blocks, _BandMax


@dataclass(frozen=True)
class AVPair:
    """Area / velocity values for one endpoint pair."""

    area: float
    velocity: float

    def __post_init__(self):
        if not (self.velocity > 0.0):
            raise ValueError("velocity must be positive")

    @property
    def ratio(self):
        return self.area / self.velocity


def _area(p, dp, q, dq, at, a, b, ha, hb):
    """The area half of _av, from the rows p, q and their derivatives dp, dq."""
    anti = _rows(_antideriv(_velocity(p, dp, q, dq)), at)
    return hb - ha - (_horner(anti, b) - _horner(anti, a))


def _av(p, q, hull, at, a, b, ha, hb, length, m):
    """A without the Taylor corrections, and V, for endpoint pairs of rows.

    p and q hold ascending coefficients of f and g along their last axis,
    and hull = (lo, hi) one interval per row that holds all of its pairs.
    a, b, ha, hb and length hold one entry per endpoint pair along their
    last axis; pair k reads row at[k] of the axis before the coefficients.
    With at None every pair reads the one row that the pairs' leading axes
    name.  Leading axes broadcast.  Returns

        A = hb - ha - 2 int_a^b (p' q - q' p),
        V = length^{2m} + length^m int_a^b (|p'| + |q'|),

    with p' and q' integrated and their sign changes isolated once per row, on its hull.
    """
    p, q = _rows(p), _rows(q)
    dp, dq = _deriv(p), _deriv(q)
    lo, hi = np.minimum(a, b)[..., None], np.maximum(a, b)[..., None]
    dp_int, dq_int = (
        _abs_integral(_rows(_antideriv(d), at), lo, hi, _rows(_roots(d, *hull), at))
        for d in (dp, dq)
    )
    area = _area(p, dp, q, dq, at, a, b, ha, hb)
    return area, length ** (2 * m) + length ** m * (dp_int + dq_int)[..., 0]


def _taylor_av(t, f, g, values, m):
    """Pairs ia < ib of nodes t along the last axis, and A and V of each.

    The first nodes, one per entry of the axis of f and g before the last,
    anchor the pairs that start at them: f and g hold the anchors' jets
    (value, first derivative, ..) along the last axis, and every pair of
    an anchor and a later node is formed.  values holds f, g and h at
    every node along its last axis.  An anchor's Taylor polynomials are one row of
    _av, so their sign changes are isolated once, on the hull from the
    anchor to the last node.  Returns ia, ib, A and V.
    """
    anchors = f.shape[-2]
    ia, ib = np.nonzero(np.arange(anchors)[:, None] < np.arange(t.shape[-1]))
    u = t[..., ib] - t[..., ia]
    span = t[..., -1:] - t[..., :anchors]
    hull = np.minimum(span, 0.0), np.maximum(span, 0.0)
    tf, tg = _taylor_rows(f[..., : m + 1]), _taylor_rows(g[..., : m + 1])
    hv = values[2]
    area, velocity = _av(
        tf, tg, hull, ia, np.zeros_like(u), u, hv[..., ia], hv[..., ib], u, m
    )
    return ia, ib, _taylor_area(area, tf, tg, values, ia, ib, u), velocity


def _taylor_area(area, tf, tg, values, ia, ib, u):
    """A of the Taylor pairs (ia, ib) from the AV kernel's area, which lacks the corrections."""
    fv, gv, _ = values
    # Written out, not as heis._twist, to keep the rounding order (A + 2f dg) - 2g df.
    return (
        area
        + 2.0 * fv[..., ia] * (gv[..., ib] - _horner(tg[..., ia, :], u))
        - 2.0 * gv[..., ia] * (fv[..., ib] - _horner(tf[..., ia, :], u))
    )


def _jets_pair(jets, a, b, m):
    """The jets of f and g at a, one row each, and f, g and h at a and b."""
    ia, ib = jets.index(a), jets.index(b)
    if ia == ib:
        raise OrderViolationError("need two distinct nodes")
    if jets.order < m:
        raise OrderViolationError(f"jets carry order {jets.order}, need at least {m}")
    f, g, _ = jets._jets
    return f[[ia]], g[[ia]], jets._jets[:, [ia, ib], 0]


def area_discrepancy(jets, a, b, m):
    """The signed-area functional A for any pair of distinct nodes.

    Works in the local variable u = t - a, so the formula is usable in
    either orientation.  It is _taylor_av's A of the pair, with no root
    isolated: A needs none.
    """
    f, g, values = _jets_pair(jets, a, b, m)
    tf, tg = _taylor_rows(f[:, : m + 1]), _taylor_rows(g[:, : m + 1])
    ia, ib, u, hv = [0], [1], np.array([b - a]), values[2]
    area = _area(tf, _deriv(tf), tg, _deriv(tg), ia, np.zeros(1), u, hv[ia], hv[ib])
    return float(_taylor_area(area, tf, tg, values, ia, ib, u)[0])


def av_pair(jets, a, b, m):
    """AVPair for nodes a < b using the jets stored at a."""
    if not (a < b):
        raise OrderViolationError(f"need a < b, got a={a}, b={b}")
    _, _, area, velocity = _taylor_av(np.array([a, b]), *_jets_pair(jets, a, b, m), m)
    return AVPair(float(area[0]), float(velocity[0]))


def discrete_av_pair(samples, subset, a, b, m):
    """AVPair built from interpolants through an (m+1)-node subset.

    subset is a collection of node values containing a and b with a < b;
    the area uses the interpolants of f and g through the subset, and the
    velocity uses diam(subset) in place of b - a.
    """
    x = sorted(set(float(t) for t in subset))
    if len(x) != m + 1 or len(x) != len(tuple(subset)):
        raise BadSubsetError(f"subset must hold {m + 1} distinct nodes")
    t = samples._t
    sub = np.minimum(np.searchsorted(t, x), len(t) - 1)
    if np.any(t[sub] != x):
        raise BadSubsetError("subset must consist of sample nodes")
    if a not in x or b not in x:
        raise BadSubsetError("endpoints must belong to the subset")
    if not (a < b):
        raise OrderViolationError(f"need a < b, got a={a}, b={b}")

    table = _subset_table(samples, sub[None])
    area, velocity = _discrete_av(table, samples._xyz[2], [x.index(a)], [x.index(b)], m)
    return AVPair(float(area[0, 0]), float(velocity[0, 0]))


def _av_profile(t, f, g, hs, m, deltas):
    """Banded sup of |A/V| over node pairs: nodes t, jets of f and g to order m, h's values.

    The pairs run in blocks of anchors; each block's Taylor rows and roots are its own.
    """
    values, bands = np.stack([f[:, 0], g[:, 0], hs]), _BandMax(deltas)
    for a, b in _anchor_blocks(np.arange(len(t) - 1, 0, -1)):
        ia, ib, area, velocity = _taylor_av(t[a:], f[a:b], g[a:b], values[:, a:], m)
        bands.add(t[a + ib] - t[a + ia], np.abs(area / velocity))
    return bands.profile("av_ratio")


def _discrete_av(table, hs, ia, ib, m):
    """A and V of the pairs (ia, ib) of every subset of a table, h's values hs by node."""
    u, (pf, pg), hs = table.u, table.polys(2), hs[table.idx]
    return _av(
        pf, pg, (u[:, 0], u[:, -1]), None, u[:, ia], u[:, ib], hs[:, ia], hs[:, ib], u[:, -1:], m
    )


def _discrete_av_ratios(table, hs, m):
    """diam(X) and the largest |A[X]/V[X]| over X's pairs, for every subset X of a table.

    All of a subset's pairs share its diameter, so its largest ratio is all
    that a band of its diameter can take from it.
    """
    area, velocity = _discrete_av(table, hs, *np.triu_indices(m + 1, 1), m)
    return table.u[:, -1], np.fmax.reduce(np.abs(area / velocity), axis=1)
