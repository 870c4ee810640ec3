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

from .errors import BadSubsetError, OrderViolationError, TooFewNodesError
from .divdiff import _monomial_rows, _newton_columns
from .poly import _abs_integral, _antideriv, _deriv, _horner, _mul, _roots, _taylor_rows
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


def _av(p, q, a, b, ha, hb, length, m):
    """A without the Taylor corrections, and V, for endpoint pairs of rows.

    p and q hold ascending coefficients of f and g along their last axis;
    a, b, ha, hb and length hold one entry per endpoint pair along theirs,
    and all leading axes broadcast.  Returns

        A = hb - ha - 2 int_a^b (p' q - q' p),
        V = length^{2m} + length^m int_a^b (|p'| + |q'|),

    with the sign changes of p' and q' isolated once per row, on the hull
    of the row's pairs.
    """
    dp, dq = _deriv(p), _deriv(q)
    anti = _antideriv(_mul(dp, q) - _mul(dq, p))[..., None, :]
    area = hb - ha - 2.0 * (_horner(anti, b) - _horner(anti, a))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    hull = lo.min(-1), hi.max(-1)
    speed = _abs_integral(dp, lo, hi, _roots(dp, *hull)) + _abs_integral(
        dq, lo, hi, _roots(dq, *hull)
    )
    return area, length ** (2 * m) + length ** m * speed


def _taylor_av(f, g, h, ia, ib, u, m):
    """A and V of the Taylor pairs at nodes ia against nodes ib.

    f, g and h hold jets (value, first derivative, ..) along the last axis
    and one node per entry of the axis before it; u holds b - a per pair.
    Each pair is its own row, so its roots are isolated between a and b.
    """
    tf, tg = _taylor_rows(f[..., ia, : m + 1]), _taylor_rows(g[..., ia, : m + 1])
    col = u[..., None]
    area, velocity = _av(
        tf, tg, np.zeros_like(col), col, h[..., ia, :1], h[..., ib, :1], col, m
    )
    area = (
        area[..., 0]
        + 2.0 * f[..., ia, 0] * (g[..., ib, 0] - _horner(tg, u))
        - 2.0 * g[..., ia, 0] * (f[..., ib, 0] - _horner(tf, u))
    )
    return area, velocity[..., 0]


def _jet_arrays(jets, m):
    if jets.order < m:
        raise OrderViolationError(
            f"jets carry order {jets.order}, need at least {m}"
        )
    return [np.array(js, dtype=float) for js in (jets.fjets, jets.gjets, jets.hjets)]


def _jets_pair(jets, a, b, m):
    ia, ib = jets.index(a), jets.index(b)
    if ia == ib:
        raise OrderViolationError("need two distinct nodes")
    u = np.array([b - a])
    area, velocity = _taylor_av(*_jet_arrays(jets, m), [ia], [ib], u, m)
    return float(area[0]), float(velocity[0])


def area_discrepancy(jets, a, b, m):
    """The signed-area functional A for any pair of distinct nodes.

    Works in the local variable u = t - a, so the formula is usable in
    either orientation; the orientation-checked av_pair builds on it.
    """
    return _jets_pair(jets, a, b, m)[0]


def av_pair(jets, a, b, m):
    """AVPair for nodes a < b using the jets stored at a."""
    if not (a < b):
        raise OrderViolationError(f"need a < b, got a={a}, b={b}")
    return AVPair(*_jets_pair(jets, a, b, m))


def discrete_av_pair(samples, subset, a, b, m):
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

    # As in the scan's Newton table: divided differences on the global
    # nodes, interpolants expanded in u = t - t_first.
    sub = [samples.nodes.index(t) for t in x]
    xs = np.array(x)
    u = xs - xs[0]
    values = np.array([samples.fs, samples.gs, samples.hs])[:, sub]
    pf, pg = _monomial_rows(_newton_columns(xs, values[:2]), u)
    ia, ib = [x.index(a)], [x.index(b)]
    area, velocity = _av(pf, pg, u[ia], u[ib], values[2, ia], values[2, ib], u[-1], m)
    return AVPair(float(area[0]), float(velocity[0]))


def av_profile(jets, m, ratio=0.5):
    """Banded sup of |A/V| over node pairs, scaled by pair separation."""
    nodes = jets.nodes
    if len(nodes) < m + 1:
        raise TooFewNodesError(f"need at least {m + 1} nodes for order {m}")
    t = np.array(nodes, dtype=float)
    deltas = delta_grid(t[-1] - t[0], np.diff(t).min(), ratio)
    return _av_profile(t, *_jet_arrays(jets, m), m, deltas)


def _av_profile(t, f, g, h, m, deltas):
    """av_profile on arrays: nodes t, jets of f and g to order m, h's values in column 0."""
    ia, ib = np.triu_indices(len(t), 1)
    sep = t[ib] - t[ia]
    area, velocity = _taylor_av(f, g, h, ia, ib, sep, m)
    return banded_sup(
        np.column_stack((sep, np.abs(area / velocity))), deltas, name="av_ratio"
    )


def _discrete_av_profile(table, m, deltas):
    """Banded sup of |A[X]/V[X]| over the subsets of a Newton table."""
    u, (pf, pg, _), hs = table.u, table.rows, table.values[2]
    ia, ib = np.triu_indices(m + 1, 1)
    diam = u[:, -1:]
    area, velocity = _av(pf, pg, u[:, ia], u[:, ib], hs[:, ia], hs[:, ib], diam, m)
    ratios = np.abs(area / velocity)
    items = np.column_stack((np.broadcast_to(diam, ratios.shape).ravel(), ratios.ravel()))
    return banded_sup(items, deltas, name="discrete_av_ratio")

