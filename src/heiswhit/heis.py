"""First Heisenberg group: group law, dilations, difference quotients.

Points are triples (x, y, z) with the product

    (x, y, z) * (x', y', z') = (x + x', y + y', z + z' + 2(y x' - x y')),

anisotropic dilations r.(x, y, z) = (r x, r y, r^2 z), and the horizontality
condition h' = 2(f' g - f g') for curves (f, g, h): one twist, which every
module takes from _twist (on values) and _velocity (on coefficient rows).
"""

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateNodeError,
    LengthMismatchError,
    NodeNotFoundError,
    NonFiniteError,
    ZeroDilationError,
)
from .poly import _mul


@dataclass(frozen=True)
class HPoint:
    x: float
    y: float
    z: float

    def __iter__(self):
        return iter((self.x, self.y, self.z))


ORIGIN = HPoint(0.0, 0.0, 0.0)


def group_mul(p, q):
    """Group product p * q."""
    return HPoint(
        p.x + q.x,
        p.y + q.y,
        p.z + q.z + _twist(p.x, p.y, q.x, q.y),
    )


def inverse(p):
    """Group inverse; (x, y, z)^-1 = (-x, -y, -z)."""
    return HPoint(-p.x, -p.y, -p.z)


def dilate(r, p):
    """Anisotropic dilation delta_r; a group automorphism for r != 0."""
    if r == 0.0:
        raise ZeroDilationError("dilation by 0 collapses the group")
    return HPoint(r * p.x, r * p.y, r * r * p.z)


def _pansu_quotient(pa, pb, a, b):
    """delta_{1/(b-a)}(pa^-1 * pb) on (x, y, z) of floats or arrays: inverse, product, dilation."""
    (xa, ya, za), (xb, yb, zb) = pa, pb
    r = 1.0 / (b - a)
    return r * (-xa + xb), r * (-ya + yb), r * r * (-za + zb + _twist(-xa, -ya, xb, yb))


def _twist(x1, y1, x2, y2):
    """2(y1 x2 - x1 y2), the z-part of (x1, y1, .) * (x2, y2, .); floats or arrays."""
    return 2.0 * (y1 * x2 - x1 * y2)


def _velocity(f, df, g, dg):
    """Rows of 2(f'g - fg') from ascending coefficient rows of f, f', g and g'."""
    return 2.0 * (_mul(df, g) - _mul(f, dg))


def _horizontality_residual(f, df, g, dg, dh):
    """h' - 2(f'g - fg') from values of f, f', g, g' and h' (floats or arrays)."""
    return dh - _twist(f, g, df, dg)


def check_finite(values, what):
    """Raise NonFiniteError unless every value is finite: NaN and +-inf fail."""
    if not np.all(np.isfinite(np.asarray(values, dtype=float))):
        raise NonFiniteError(f"{what} must be finite")


def check_nodes(nodes):
    """Raise unless the nodes are finite and strictly increasing.

    A non-finite node raises NonFiniteError, and the first pair that does
    not increase raises DuplicateNodeError for a repeat and ValueError for
    a decrease.  NaN compares false both ways, so the finiteness check
    comes first.
    """
    t = np.asarray(nodes, dtype=float)
    check_finite(t, "nodes")
    bad = np.flatnonzero(t[1:] <= t[:-1])
    if len(bad):
        a, b = t[bad[0]], t[bad[0] + 1]
        if a == b:
            raise DuplicateNodeError(f"node {float(a)} repeats")
        raise ValueError("nodes must be strictly increasing")


def horizontality_defect(f, g, h, grid):
    """Max over the grid of |h'(t) - 2(f'(t) g(t) - f(t) g'(t))|.

    f, g, h are callables accepting (t, deriv=k) with t a numpy array, as
    PiecewiseCm does; grid is an iterable of parameters.
    """
    ts = np.asarray(grid, dtype=float)
    residual = _horizontality_residual(f(ts), f(ts, 1), g(ts), g(ts, 1), h(ts, 1))
    return float(np.max(np.abs(residual), initial=0.0))


@dataclass(frozen=True)
class CurveJets:
    """Per-node jets of a curve (f, g, h): three (m+1)-vectors per node."""

    nodes: tuple
    fjets: tuple
    gjets: tuple
    hjets: tuple

    def __post_init__(self):
        n = len(self.nodes)
        if not (len(self.fjets) == len(self.gjets) == len(self.hjets) == n):
            raise LengthMismatchError("one jet triple per node required")
        jets = (self.fjets, self.gjets, self.hjets)
        check_finite([v for js in jets for j in js for v in j], "jets")
        check_nodes(self.nodes)
        if n:
            width = len(self.fjets[0])
            for js in jets:
                if any(len(j) != width for j in js):
                    raise LengthMismatchError("all jets must share one length")

    @property
    def order(self):
        return len(self.fjets[0]) - 1 if self.nodes else -1

    def index(self, t):
        i = bisect_left(self.nodes, t)
        if i == len(self.nodes) or self.nodes[i] != t:
            raise NodeNotFoundError(f"{t} is not a node")
        return i

    @classmethod
    def from_polys(cls, nodes, pf, pg, ph, m):
        """Exact jets of a polynomial curve at the given nodes."""
        nodes = tuple(float(t) for t in nodes)
        jets = []
        for p in (pf, pg, ph):
            derivs = [p]
            for _ in range(m):
                derivs.append(derivs[-1].derivative())
            jets.append(tuple(tuple(d(t) for d in derivs) for t in nodes))
        return cls(nodes, *jets)

    def translated(self, p):
        """Jets of the left translate p * curve: the differential of left translation.

        The values move by the group law, and every order picks up the twist
        of p with that order of (f, g).
        """
        f, g, h = (np.array(js, dtype=float).reshape(len(self.nodes), self.order + 1)
                   for js in (self.fjets, self.gjets, self.hjets))
        twist = _twist(p.x, p.y, f, g)
        f[:, :1] += p.x
        g[:, :1] += p.y
        h[:, :1] += p.z
        h += twist
        return CurveJets(self.nodes, *(tuple(map(tuple, c.tolist())) for c in (f, g, h)))
