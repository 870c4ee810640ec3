"""Area and velocity functionals for horizontality-compatibility checks.

For a curve (f, g, h) with degree-m Taylor polynomials T_f, T_g at a, the
pair

    A = h(b) - h(a) - 2 int_a^b (T_f' T_g - T_g' T_f)
          + 2 f(a) (g(b) - T_g(b)) - 2 g(a) (f(b) - T_f(b))
    V = (b-a)^{2m} + (b-a)^m int_a^b (|T_f'| + |T_g'|)

measures the signed area a horizontal lift would have to close against the
volume available for closing it; |A/V| -> 0 as b - a -> 0 is the
compatibility condition.  The discrete variant replaces Taylor polynomials
by interpolants through an (m+1)-node subset.
"""

import itertools
from dataclasses import dataclass

from .errors import BadSubsetError, OrderViolationError, TooFewNodesError
from .divdiff import _newton_poly, _newton_table, newton_interp
from .poly import (
    Interval,
    abs_integral,
    abs_integral_between,
    jet_poly,
    real_roots,
    signed_integral,
)
from .profiles import banded_sup, delta_grid


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


def _taylor_pair(jets, ia, m):
    if jets.order < m:
        raise OrderViolationError(
            f"jets carry order {jets.order}, need at least {m}"
        )
    tf = jet_poly(jets.fjets[ia][: m + 1])
    tg = jet_poly(jets.gjets[ia][: m + 1])
    return tf, tg


def _area(jets, ia, ib, tf, tg):
    """A for the nodes at indices ia, ib from the Taylor pair (tf, tg) at ia."""
    u = jets.nodes[ib] - jets.nodes[ia]
    bracket = tf.derivative() * tg - tg.derivative() * tf
    fa, ga = jets.fjets[ia][0], jets.gjets[ia][0]
    fb, gb = jets.fjets[ib][0], jets.gjets[ib][0]
    ha, hb = jets.hjets[ia][0], jets.hjets[ib][0]
    return (
        hb
        - ha
        - 2.0 * signed_integral(bracket, 0.0, u)
        + 2.0 * fa * (gb - tg(u))
        - 2.0 * ga * (fb - tf(u))
    )


def area_discrepancy(jets, a, b, m):
    """The signed-area functional A for any pair of distinct nodes.

    Works in the local variable u = t - a, so the formula is usable in
    either orientation; the orientation-checked av_pair builds on it.
    """
    ia, ib = jets.index(a), jets.index(b)
    if ia == ib:
        raise OrderViolationError("need two distinct nodes")
    return _area(jets, ia, ib, *_taylor_pair(jets, ia, m))


def av_pair(jets, a, b, m, tol=1e-12):
    """AVPair for nodes a < b using the jets stored at a."""
    if not (a < b):
        raise OrderViolationError(f"need a < b, got a={a}, b={b}")
    ia, ib = jets.index(a), jets.index(b)
    tf, tg = _taylor_pair(jets, ia, m)
    u = b - a
    dtf, dtg = tf.derivative(), tg.derivative()
    iv = Interval(0.0, u)
    speed = abs_integral(dtf, iv, tol) + abs_integral(dtg, iv, tol)
    velocity = u ** (2 * m) + u ** m * speed
    return AVPair(_area(jets, ia, ib, tf, tg), velocity)


def discrete_av_pair(samples, subset, a, b, m, tol=1e-12):
    """AVPair built from interpolants through an (m+1)-node subset.

    subset is a collection of node values containing a and b with a < b;
    the area uses the interpolants of f and g through the subset, and the
    velocity uses diam(subset) in place of b - a.
    """
    x = sorted(set(float(t) for t in subset))
    if len(x) != m + 1 or len(x) != len(tuple(subset)):
        raise BadSubsetError(f"subset must hold {m + 1} distinct nodes")
    node_set = set(samples.nodes)
    if any(t not in node_set for t in x):
        raise BadSubsetError("subset must consist of sample nodes")
    if a not in x or b not in x:
        raise BadSubsetError("endpoints must belong to the subset")
    if not (a < b):
        raise OrderViolationError(f"need a < b, got a={a}, b={b}")

    sub = [samples.nodes.index(t) for t in x]
    fs, gs, hs = samples.fs, samples.gs, samples.hs
    u = [t - x[0] for t in x]
    pf = newton_interp(u, [fs[i] for i in sub])
    pg = newton_interp(u, [gs[i] for i in sub])
    pair = (x.index(a), x.index(b))
    hvals = [hs[i] for i in sub]
    hull = Interval(u[pair[0]], u[pair[1]])
    return AVPair(*next(_subset_av(pf, pg, u, hvals, m, hull, [pair], tol)))


def _subset_av(pf, pg, x, hvals, m, hull, pairs, tol):
    """Yield (A, V) for endpoint index pairs of one subset with nodes x.

    pf and pg interpolate f and g through x, hvals are the h samples at x,
    and the roots of pf' and pg' are isolated once on hull, which must
    cover every pair; the velocity uses diam(x) in place of b - a.  Callers
    pass x in the local coordinate u = t - t_first of the subset, so the
    interpolants never carry the subset's distance from t = 0.
    """
    dpf, dpg = pf.derivative(), pg.derivative()
    rf = [] if dpf.is_zero else real_roots(dpf, hull, tol)
    rg = [] if dpg.is_zero else real_roots(dpg, hull, tol)
    bracket = dpf * pg - dpg * pf
    diam = x[-1] - x[0]
    for ia, ib in pairs:
        a, b = x[ia], x[ib]
        area = hvals[ib] - hvals[ia] - 2.0 * signed_integral(bracket, a, b)
        speed = abs_integral_between(dpf, rf, a, b) + abs_integral_between(
            dpg, rg, a, b
        )
        yield area, diam ** (2 * m) + diam ** m * speed


def av_profile(jets, m, deltas=None, ratio=0.5, tol=1e-12):
    """Banded sup of |A/V| over node pairs, scaled by pair separation."""
    nodes = jets.nodes
    if len(nodes) < m + 1:
        raise TooFewNodesError(f"need at least {m + 1} nodes for order {m}")
    if deltas is None:
        diam = nodes[-1] - nodes[0]
        gap = min(b - a for a, b in zip(nodes, nodes[1:]))
        deltas = delta_grid(diam, gap, ratio)
    items = []
    for ia, ib in itertools.combinations(range(len(nodes)), 2):
        a, b = nodes[ia], nodes[ib]
        pair = av_pair(jets, a, b, m, tol)
        items.append((b - a, abs(pair.ratio)))
    return banded_sup(items, deltas, name="av_ratio")


def _discrete_av_profile(samples, m, table, deltas, tol=1e-12):
    """Banded sup of |A[X]/V[X]| over the subsets of a Newton table."""
    idx, _, xs, coeffs = table
    hs = samples.hs
    pairs = list(itertools.combinations(range(m + 1), 2))
    items = []
    for sub, x, cf, cg in zip(
        idx.tolist(), xs.tolist(), coeffs[0].tolist(), coeffs[1].tolist()
    ):
        u = [t - x[0] for t in x]
        hull = Interval(0.0, u[-1])
        pf, pg = _newton_poly(cf, u), _newton_poly(cg, u)
        hvals = [hs[i] for i in sub]
        for area, velocity in _subset_av(pf, pg, u, hvals, m, hull, pairs, tol):
            items.append((hull.length, abs(area / velocity)))
    return banded_sup(items, deltas, name="discrete_av_ratio")


def discrete_av_profile(
    samples, m, window=None, deltas=None, ratio=0.5, full_enum=False, tol=1e-12
):
    """Banded sup of |A[X]/V[X]| over windowed (m+1)-subsets.

    Subsets are drawn from sliding windows of consecutive nodes (default
    width 2m+4) and every admissible endpoint pair inside each subset is
    scanned; items are binned at scale diam(X).
    """
    if len(samples.nodes) < m + 1:
        raise TooFewNodesError(f"need at least {m + 1} nodes for order {m}")
    if deltas is None:
        deltas = delta_grid(samples.diam, samples.min_gap, ratio)
    table = _newton_table(samples, m, window, full_enum)
    return _discrete_av_profile(samples, m, table, deltas, tol)
