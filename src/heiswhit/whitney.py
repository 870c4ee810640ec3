"""One-dimensional Whitney fields and a blended extension operator.

A Whitney field assigns a jet (F^0, .., F^m) to every node; the field is
the trace of a C^m function when the Taylor remainders

    R_k(a, b) = |F^k(b) - T_a^{m-k} F^k(b)| / |b - a|^{m-k}

decay as nodes approach each other.  The extension operator here glues the
Taylor polynomials of adjacent nodes with a fixed smooth transition, which
keeps it linear in the field and exact on the jets at the nodes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatchError, TooFewNodesError
from .divdiff import _monomial_rows, _newton_columns
from .heis import check_finite, check_nodes
from .poly import Poly, _deriv, _horner, _mul, _padded, _taylor_rows, _trim_rows
from .profiles import Profile, _BandMax, _pair_blocks, delta_grid


class WhitneyField:
    """Jets (F^0, .., F^m) attached to strictly increasing nodes, held once
    as read-only arrays: _t, the nodes (n,), and _jets, the jets (n, m+1).
    nodes and jets are tuples built from them on each read."""

    __slots__ = ("_t", "_jets")

    def __init__(self, nodes, jets):
        if len(nodes) != len(jets):
            raise LengthMismatchError("one jet per node required")
        if not len(nodes):
            raise TooFewNodesError("a field needs at least one node")
        self._t = np.array(nodes, dtype=float)
        check_nodes(self._t)
        if any(len(j) != len(jets[0]) for j in jets):
            raise LengthMismatchError("all jets must share one length")
        self._jets = np.array(jets, dtype=float)
        check_finite(self._jets, "jets")
        self._t.flags.writeable = self._jets.flags.writeable = False

    nodes = property(lambda self: tuple(self._t.tolist()))
    jets = property(lambda self: tuple(map(tuple, self._jets.tolist())))
    order = property(lambda self: self._jets.shape[1] - 1)
    scale = property(lambda self: float(np.max(np.abs(self._jets))))

    def combine(self, other, ca=1.0, cb=1.0):
        """Linear combination ca * self + cb * other on shared nodes."""
        if not np.array_equal(self._t, other._t) or self.order != other.order:
            raise LengthMismatchError("fields must share nodes and order")
        return WhitneyField(self._t, ca * self._jets + cb * other._jets)


@dataclass(frozen=True)
class ModulusFn:
    """Modulus of continuity: the power law c * t^s."""

    coeff: float = 1.0
    exponent: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.exponent <= 1.0):
            raise ValueError("power modulus needs exponent in (0, 1]")
        if not (0.0 < self.coeff < math.inf):
            raise ValueError("power modulus needs a positive finite coefficient")

    def __call__(self, t):
        """omega(|t|): a float for a scalar t, elementwise for an array."""
        out = self.coeff * np.power(np.abs(np.asarray(t, dtype=float)), self.exponent)
        return out if isinstance(t, np.ndarray) else float(out)


class PiecewiseCm:
    """Piecewise polynomial with local-coordinate pieces.

    Piece i covers (-inf, b_0) for i = 0, [b_{i-1}, b_i) in the middle, and
    [b_last, inf) at the right end, in the local variable u = t - center_i,
    which keeps evaluation stable on short pieces far from the origin.  The
    pieces come as a 2-D array of ascending coefficient rows, kept as one
    zero-padded table with Poly's trailing-coefficient cut.
    Evaluation is one searchsorted plus Horner over its rows, which gives
    each piece's own Horner value bit for bit; breakpoint_jumps measures
    how C^m the pieces were built.
    """

    def __init__(self, breakpoints, centers, pieces, order):
        if len(pieces) != len(breakpoints) + 1 or len(centers) != len(pieces):
            raise LengthMismatchError(
                "need len(pieces) == len(breakpoints) + 1 == len(centers)"
            )
        check_nodes(breakpoints)
        check_finite(centers, "centers")
        check_finite(pieces, "piece coefficients")
        self.breakpoints = np.array(breakpoints, dtype=float)
        self.centers = np.array(centers, dtype=float)
        self.order = int(order)
        self._tables = {0: _trim_rows(pieces.astype(float))}

    def _table(self, deriv):
        """Ascending coefficients of every piece's deriv-th derivative, zero-padded."""
        if deriv not in self._tables:
            self._tables[deriv] = _deriv(self._table(deriv - 1))
        return self._tables[deriv]

    def __call__(self, t, deriv=0):
        i = np.searchsorted(self.breakpoints, t, side="right")
        out = _horner(self._table(deriv)[i], t - self.centers[i])
        return out if isinstance(t, np.ndarray) else float(out)

    def jet(self, t, m):
        """(value, .., m-th derivative) at t, from the active piece."""
        return tuple(self(t, k) for k in range(m + 1))

    def breakpoint_jumps(self, up_to=None):
        """Max |left - right| derivative mismatch per order across breakpoints."""
        up_to = self.order if up_to is None else up_to
        b = self.breakpoints
        jumps = []
        for k in range(up_to + 1):
            table = self._table(k)
            left = _horner(table[:-1], b - self.centers[:-1])
            right = _horner(table[1:], b - self.centers[1:])
            jumps.append(float(np.max(np.abs(left - right), initial=0.0)))
        return jumps


def transition_poly(m):
    """The unique degree-(2m+1) switch S with S(0)=0, S(1)=1 and m flat ends.

    S is the normalized antiderivative of s^m (1-s)^m, so S^(j) vanishes at
    both endpoints for 1 <= j <= m.
    """
    if m < 0:
        raise ValueError("order must be nonnegative")
    base = Poly([0.0, 1.0, -1.0])  # s(1-s)
    bump = Poly([1.0])
    for _ in range(m):
        bump = bump * base
    anti = bump.antiderivative()
    return anti * (1.0 / anti(1.0))


def _shift(c, x):
    """Coefficients of p(u + x) for every row p of c: Newton form, all nodes at -x."""
    return _monomial_rows(c, np.multiply.outer(-np.asarray(x), np.ones(c.shape[-1])))


def _blend(jets_a, jets_b, gaps):
    """T_a + S(s) (T_b - T_a) in the unit variable s = (t - a) / gap.

    One row per gap (a, a + gap); jets_a and jets_b hold one order-m jet
    per row, and T_b is expanded at s = 0 by a Taylor shift of -1.  In s
    the coefficients stay of the size of the values, however short the gap.
    """
    m = jets_a.shape[-1] - 1
    scale = np.power.outer(gaps, np.arange(m + 1))
    ta, tb = _taylor_rows(jets_a) * scale, _shift(_taylor_rows(jets_b) * scale, -1.0)
    out = _mul(np.array(transition_poly(m).coeffs), tb - ta)
    out[..., : m + 1] += ta
    return out


def _unit_to_local(rows, gaps):
    """Rows in the unit variable s = u / gap, rewritten in u."""
    return rows / np.power.outer(gaps, np.arange(rows.shape[-1]))


def _end_rows(jets, width):
    """Taylor rows of the two extreme jets, zero-padded to width."""
    return _padded(_taylor_rows(jets[[0, -1]]), width)


def extend(whitney_field):
    """Blended Whitney extension of the field as a PiecewiseCm.

    On each gap (a, b) the piece is T_a + S((t-a)/(b-a)) (T_b - T_a) in
    local coordinates at a; beyond the extreme nodes it continues the
    Taylor polynomial of the extreme jet.  Linear in the field, exact on
    the jets at every node, degree at most 3m+1.
    """
    t, jets = whitney_field._t, whitney_field._jets
    gaps = np.diff(t)
    blends = _unit_to_local(_blend(jets[:-1], jets[1:], gaps), gaps)
    ends = _end_rows(jets, blends.shape[-1])
    rows = np.concatenate([ends[:1], blends, ends[1:]])
    centers = np.concatenate([t[:1], t[:-1], t[-1:]])
    return PiecewiseCm(t, centers, rows, whitney_field.order)


def _jets(t, values, m):
    """Candidate jets by local interpolation through the m+1 nearest nodes.

    values (.., n) sit at increasing nodes t (n,).  Ties in distance resolve
    toward smaller t, and the zeroth jet component is the sample itself,
    exactly.  Returns the jets, shape (.., n, m+1); every leading row of
    values shares one stencil per node.
    """
    # Grow every stencil [lo, hi] by m steps toward its nearer neighbour.
    n = len(t)
    lo = hi = np.arange(n)
    for _ in range(m):
        left = np.where(lo > 0, t - t[lo - 1], math.inf)
        right = np.where(hi + 1 < n, t[np.minimum(hi + 1, n - 1)] - t, math.inf)
        lo, hi = np.where(left <= right, lo - 1, lo), np.where(left <= right, hi, hi + 1)
    # Interpolate in u = t - a so the jet does not depend on where t = 0 sits,
    # and cut the coefficients as a Poly would.
    stencil = lo[:, None] + np.arange(m + 1)
    u = t[stencil] - t[:, None]
    p = _trim_rows(_monomial_rows(_newton_columns(u, values[..., stencil]), u))
    jets = [values]
    for _ in range(m):
        p = _deriv(p)
        jets.append(p[..., 0])
    return np.stack(jets, axis=-1)


@dataclass(frozen=True)
class FieldReport:
    """Diagnostics from validate_field; informational, never a rejection."""

    per_k: dict
    combined: Profile
    max_remainder: float
    pair_count: int = 0


def validate_field(whitney_field):
    """Taylor-remainder diagnostics of a field.

    Banded decay profiles of R_k per derivative order and combined over
    all ordered pairs of nodes.
    """
    m, t, jet = whitney_field.order, whitney_field._t, whitney_field._jets
    n = len(t)
    if n < 2:
        raise TooFewNodesError("remainder ratios need at least two nodes")
    deltas = delta_grid(t[-1] - t[0], np.diff(t).min())

    # Every ordered pair (a, b) of distinct nodes: each node pair read both
    # ways.  The combined profile is the per-k profiles' band maxima.
    bands, largest = _BandMax(deltas, m + 1), -math.inf
    for i, j in _pair_blocks(n):
        ia, ib = np.concatenate((i, j)), np.concatenate((j, i))
        u = t[ib] - t[ia]
        d = np.abs(u)
        rs = [
            np.abs(jet[ib, k] - _horner(_taylor_rows(jet[ia, k:]), u)) / d ** (m - k)
            for k in range(m + 1)
        ]
        bands.add(d, *rs)
        largest = np.max(rs, initial=largest)
    per_k = {k: bands.profile(k) for k in range(m + 1)}
    return FieldReport(per_k, bands.profile(), float(largest), n * (n - 1))
