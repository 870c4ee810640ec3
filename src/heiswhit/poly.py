"""Dense univariate polynomials: arithmetic, exact calculus, root isolation.

Coefficients are float64, stored ascending (coeffs[k] multiplies x**k).
Degrees stay small everywhere in this package (at most 3m+1 with m <= 3 or
so), which keeps plain monomial arithmetic well conditioned as long as
evaluation happens near the expansion point.  Pieces that live far from the
origin are therefore expanded in local coordinates by their owners; this
module never needs to know.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import IdenticallyZeroError, RootBudgetError

# Trailing coefficients below TRIM_REL * max|c| are dropped on construction.
TRIM_REL = 1e-14


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


def _horner(coeffs, u):
    """Horner evaluation along the last axis of ascending coeffs at u."""
    out = np.zeros_like(u, dtype=float)
    for k in range(coeffs.shape[-1] - 1, -1, -1):
        out = out * u + coeffs[..., k]
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
        """Antiderivative with zero constant term."""
        return Poly([0.0] + [c / (k + 1) for k, c in enumerate(self.coeffs)])

    def deriv_at(self, x, order=0):
        """Value of the order-th derivative at x."""
        p = self
        for _ in range(order):
            p = p.derivative()
        return p(x)


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError(f"interval needs lo <= hi, got [{self.lo}, {self.hi}]")

    @property
    def length(self):
        return self.hi - self.lo


def jet_poly(jet):
    """Taylor polynomial of a jet in the local variable u = x - center.

    jet[k] holds the k-th derivative at the center, so the coefficient of
    u**k is jet[k] / k!.
    """
    return Poly([jet[k] / math.factorial(k) for k in range(len(jet))])


def compose_affine(p, c0, c1):
    """The polynomial q(x) = p(c0 + c1 * x)."""
    aff = Poly([c0, c1])
    out = Poly()
    for c in reversed(p.coeffs):
        out = out * aff + Poly([c])
    return out


def signed_integral(p, a, b):
    """Integral of p from a to b, exact up to rounding, any order of a, b."""
    anti = p.antiderivative()
    return anti(b) - anti(a)


def integrate(p, iv):
    """Exact signed integral of p over an Interval."""
    return signed_integral(p, iv.lo, iv.hi)


def _bisect_root(p, a, b, fa, fb, tol, budget=200):
    # Invariant: sign(fa) != sign(fb), so the bracket always contains a root.
    for _ in range(budget):
        if b - a <= tol:
            return 0.5 * (a + b)
        mid = 0.5 * (a + b)
        fm = p(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fa > 0.0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    raise RootBudgetError(f"bisection budget exhausted on [{a}, {b}]")


def real_roots(p, iv, tol=1e-12):
    """Roots of p inside iv, sorted, deduplicated to within tol.

    The critical points of p (the roots of p', found by this same rule)
    cut iv into pieces on which p is monotone, so each piece holds at most
    one root; a piece whose ends change sign is bisected.  With scale the
    largest |p| over the cuts (the maximum of |p| on iv), an end of iv
    where |p| <= 1e-14 (1 + scale) is a root, and so is a critical point
    where |p| <= 1e-10 (1 + scale) that ends no bisected piece: p touches
    zero there without a sign change to bracket.
    """
    if p.is_zero:
        raise IdenticallyZeroError("the zero polynomial vanishes everywhere")
    lo, hi = iv.lo, iv.hi
    if p.degree == 0:
        return []

    crit = [c for c in real_roots(p.derivative(), iv, tol) if lo < c < hi]
    cuts = [lo] + crit + [hi]
    vals = [p(c) for c in cuts]
    scale = max(abs(v) for v in vals)
    zero_cut = 1e-14 * (1.0 + scale)
    touch_tol = 1e-10 * (1.0 + scale)

    candidates, bisected = [], [False] * len(cuts)
    for i in range(len(cuts) - 1):
        va, vb = vals[i], vals[i + 1]
        if min(abs(va), abs(vb)) > zero_cut and (va > 0.0) != (vb > 0.0):
            candidates.append(_bisect_root(p, cuts[i], cuts[i + 1], va, vb, tol))
            bisected[i] = bisected[i + 1] = True
    last = len(cuts) - 1
    for i, (c, v) in enumerate(zip(cuts, vals)):
        if abs(v) <= (zero_cut if i in (0, last) else touch_tol) and not bisected[i]:
            candidates.append(c)

    merge = max(tol, 1e-12 * max(1.0, abs(lo), abs(hi)))
    roots = []
    for r in sorted(candidates):
        if not roots or r - roots[-1] > merge:
            roots.append(r)
    return roots


def abs_integral(p, iv, tol=1e-12):
    """Integral of |p| over iv: split at the roots, sum unsigned pieces."""
    if p.is_zero or iv.hi == iv.lo:
        return 0.0
    return abs_integral_between(p, real_roots(p, iv, tol), iv.lo, iv.hi)


def abs_integral_between(p, roots, a, b):
    """Integral of |p| over [a, b] given roots of p precomputed on a superset.

    Lets callers isolate roots once per polynomial and integrate over many
    subintervals of the hull.
    """
    if p.is_zero or a == b:
        return 0.0
    cuts = [a] + [r for r in roots if a < r < b] + [b]
    total = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        total += abs(signed_integral(p, lo, hi))
    return total
