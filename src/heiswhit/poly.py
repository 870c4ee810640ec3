"""Dense univariate polynomials: arithmetic, exact calculus, root isolation.

Coefficients are float64, stored ascending (coeffs[k] multiplies x**k).
Degrees stay small everywhere in this package (at most 3m+1), which keeps
plain monomial arithmetic well conditioned as long as evaluation happens
near the expansion point.  Pieces that live far from the origin are
therefore expanded in local coordinates by their owners; this module never
needs to know.

The row kernels index coefficients, cuts, candidates and roots as
c[..., k], the small axis last, but the arrays they allocate are stored in
Fortran order: that small axis slowest in memory, the rows' first axis
fastest.  Each c[..., k] is then one contiguous block, and every numpy
call runs over the many rows instead of over 2 to 6 entries at a time:
on a (7728, 3) array, a max over the last axis took 403 us in C order and
10 us in this order (2-vCPU Xeon, numpy 2.4).  The bits do not change,
since every element sees the same operations in the same order.
"""

import numpy as np

from .errors import RootBudgetError

# Trailing coefficients below TRIM_REL * max|c| are dropped on construction.
TRIM_REL = 1e-14
# Root brackets are solved to ROOT_TOL, in at most ROOT_BUDGET steps.
ROOT_TOL = 1e-12
ROOT_BUDGET = 200


def _trim(coeffs):
    if not coeffs:
        return ()
    top = max(abs(c) for c in coeffs)
    if top == 0.0:
        return ()
    cut = TRIM_REL * top
    n = len(coeffs)
    while n > 0 and abs(coeffs[n - 1]) < cut:
        n -= 1
    return tuple(coeffs[:n])


def _rows(c, *at):
    """c[..., *at, :] in the memory order of the arrays this module allocates."""
    return np.asfortranarray(c[(..., *at, slice(None))])


def _horner(coeffs, u):
    """Horner evaluation along the last axis of ascending coeffs at u."""
    out = np.zeros_like(u, dtype=float)
    for k in range(coeffs.shape[-1] - 1, -1, -1):
        out = out * u + coeffs[..., k]
    return out


def _deriv(c):
    """Derivative along the last axis of ascending coefficients."""
    return c[..., 1:] * np.arange(1, c.shape[-1])


def _antideriv(c):
    """Antiderivative with zero constant term along the last axis."""
    out = np.zeros(c.shape[:-1] + (c.shape[-1] + 1,), order="F")
    out[..., 1:] = c / np.arange(1, c.shape[-1] + 1)
    return out


def _taylor_rows(jets):
    """Ascending Taylor coefficients jet[k] / k! of every row of jets."""
    fact = np.cumprod(np.concatenate([[1.0], np.arange(1.0, jets.shape[-1])]))
    return jets / fact


def _trim_rows(c):
    """Rows of c with Poly's trailing-coefficient cut (see _trim) zeroed."""
    cut = TRIM_REL * np.max(np.abs(c), axis=-1, keepdims=True, initial=0.0)
    small = np.abs(c) < cut
    tail = np.flip(np.logical_and.accumulate(np.flip(small, -1), -1), -1)
    return np.where(tail, 0.0, c)


def _padded(c, width):
    """c zero-padded along the last axis to width."""
    return np.concatenate([c, np.zeros(c.shape[:-1] + (width - c.shape[-1],))], -1)


def _mul(a, b):
    """Product along the last axis; leading axes broadcast."""
    lead = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    out = np.zeros(lead + (a.shape[-1] + b.shape[-1] - 1,), order="F")
    for i in range(a.shape[-1]):
        out[..., i : i + b.shape[-1]] += a[..., i : i + 1] * b
    return out


class Poly:
    """Polynomial in one variable with ascending float coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim([float(c) for c in coeffs])

    @property
    def degree(self):
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    def __call__(self, x):
        """Horner evaluation; accepts scalars or numpy arrays."""
        if isinstance(x, np.ndarray):
            return _horner(np.array(self.coeffs), x)
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Poly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0.0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return Poly(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def derivative(self):
        return Poly([k * c for k, c in enumerate(self.coeffs)][1:])

    def antiderivative(self):
        """Antiderivative with zero constant term, uncut: it keeps every term self kept."""
        anti = Poly()
        if self.coeffs:
            anti.coeffs = (0.0, *(c / (k + 1) for k, c in enumerate(self.coeffs)))
        return anti

    def deriv_at(self, x, order=0):
        """Value of the order-th derivative at x."""
        p = self
        for _ in range(order):
            p = p.derivative()
        return p(x)


def _in_bracket(y, a, b):
    """y where it lies inside the open bracket (a, b), else the midpoint."""
    return np.where((a < y) & (y < b), y, 0.5 * (a + b))


def _solve_brackets(c, a, b, fa, fb, active):
    """Safeguarded Newton on every active bracket [a, b] of rows c.

    Each active row is monotone on its bracket, where its end values fa and
    fb differ in sign.  The first iterate is the secant point, the root
    itself for a row of degree 1.  Each step evaluates p and p' at the
    iterate x, moves the end whose sign p(x) shares to x, and takes
    x - p(x)/p'(x) as the next iterate, or the midpoint when that leaves
    the open bracket or p'(x) is 0 or not finite.  A bracket ends when the
    Newton step is at most ROOT_TOL (p(x) == 0 makes it 0), when b - a <=
    ROOT_TOL, or when the next iterate equals an end (far from 0,
    neighbouring floats lie farther apart than ROOT_TOL).  Returns the
    roots, NaN if inactive.
    """
    root = np.full_like(a, np.nan)
    if not active.any():
        return root
    dc = _deriv(c)
    with np.errstate(all="ignore"):
        x = _in_bracket(a - fa * (b - a) / (fb - fa), a, b)
    for _ in range(ROOT_BUDGET):
        fx = _horner(c, x)
        with np.errstate(all="ignore"):
            step = np.where(fx == 0.0, 0.0, fx / _horner(dc, x))
        left = (fx > 0.0) == (fa > 0.0)
        a, fa = np.where(left, x, a), np.where(left, fx, fa)
        b = np.where(left, b, x)
        near = np.abs(step) <= ROOT_TOL
        y = _in_bracket(x - step, a, b)
        done = active & (near | (b - a <= ROOT_TOL) | (y == a) | (y == b))
        root[done] = np.where(near, np.clip(x - step, a, b), y)[done]
        active = active & ~done
        if not active.any():
            return root
        x = y
    bad = np.argwhere(active)[0]
    raise RootBudgetError(f"root budget exhausted on [{a[tuple(bad)]}, {b[tuple(bad)]}]")


def _roots(c, lo, hi):
    """Roots in [lo, hi] of every row of ascending coefficients c.

    Rows run along the leading axes of c, and lo and hi broadcast against
    them.  The critical points of a row (the roots of its derivative, found
    by this same rule) cut [lo, hi] into pieces on which it is monotone, so
    each piece holds at most one root; a piece whose ends change sign is a
    bracket, closed by _solve_brackets.  With scale the largest |p| over
    the cuts, an end of [lo, hi] where |p| <= 1e-14 (1 + scale) is a root,
    and so is a critical point where |p| <= 1e-10 (1 + scale) that ends no
    bracket: p touches zero there without a sign change to bracket.  Roots
    within ROOT_TOL max(1, |lo|, |hi|) of a smaller one merge into it.
    The candidates come in the order cut 0, bracket 0, cut 1, .., with no
    sort: a bracket's root lies between its cuts, and a cut that ends a
    bracket is no candidate.  Returns the roots of each row sorted along
    the last axis, NaN-padded.
    """
    rows = c.shape[:-1]
    lo = np.broadcast_to(np.asarray(lo, dtype=float), rows)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), rows)
    if c.shape[-1] < 2:
        return np.full(rows + (0,), np.nan)
    crit = _roots(_deriv(c), lo, hi)
    inside = (lo[..., None] < crit) & (crit < hi[..., None])
    n = crit.shape[-1] + 2
    # Critical points off the open interval (and the NaN padding) repeat an
    # end, so the cuts stay sorted and their extra pieces have length zero.
    cuts = np.zeros(rows + (n,), order="F")
    cuts[..., 0], cuts[..., -1] = lo, hi
    cuts[..., 1:-1] = np.clip(np.nan_to_num(crit, nan=np.inf), lo[..., None], hi[..., None])
    c = c[..., None, :]
    vals = _horner(c, cuts)
    scale = np.max(np.abs(vals), axis=-1, keepdims=True)
    zero_cut, touch_tol = 1e-14 * (1.0 + scale), 1e-10 * (1.0 + scale)
    va, vb = vals[..., :-1], vals[..., 1:]
    split = (np.minimum(np.abs(va), np.abs(vb)) > zero_cut) & ((va > 0.0) != (vb > 0.0))
    tols = np.zeros(rows + (n,), order="F")
    tols[..., :1] = tols[..., -1:] = zero_cut
    tols[..., 1:-1] = np.where(inside, touch_tol, -np.inf)
    at_cut = np.abs(vals) <= tols
    at_cut[..., :-1] &= ~split
    at_cut[..., 1:] &= ~split
    candidates = np.zeros(rows + (2 * n - 1,), order="F")
    candidates[..., ::2] = np.where(at_cut, cuts, np.nan)
    candidates[..., 1::2] = _solve_brackets(c, cuts[..., :-1], cuts[..., 1:], va, vb, split)
    merge = ROOT_TOL * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    # A kept candidate goes to the count of candidates kept before it in its row.
    keep, pos = [], []
    last, count = np.full(rows, -np.inf), np.zeros(rows, dtype=int)
    for j in range(2 * n - 1):
        keep.append(candidates[..., j] - last > merge)
        last = np.where(keep[-1], candidates[..., j], last)
        pos.append(count)
        count = count + keep[-1]
    keep = np.array(keep)
    roots = np.full(rows + (count.max(initial=0),), np.nan, order="F")
    j, *at = np.nonzero(keep)
    roots[(*at, np.array(pos)[keep])] = candidates[(*at, j)]
    return roots


def _abs_integral(anti, a, b, roots):
    """Integral of |p| from a to b for rows anti = _antideriv(p), split at p's roots.

    a <= b hold one entry per interval along their last axis; the NaN-padded
    roots of each row along the last axis of roots may reach beyond the intervals.
    """
    r = np.clip(np.nan_to_num(roots[..., None, :], nan=np.inf), a[..., None], b[..., None])
    cuts = np.zeros(r.shape[:-1] + (r.shape[-1] + 2,), order="F")
    cuts[..., 0], cuts[..., 1:-1], cuts[..., -1] = a, r, b
    vals = _horner(anti[..., None, None, :], cuts)
    total = np.abs(vals[..., 1] - vals[..., 0])
    for k in range(2, vals.shape[-1]):
        total = total + np.abs(vals[..., k] - vals[..., k - 1])
    return total

