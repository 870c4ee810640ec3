"""Shared fixture builders and independent oracles.

The oracles recompute quantities under test from their definitions with
different numerics (rational arithmetic, adaptive Simpson subdivision,
the partial-fraction form of divided differences), so agreement is
evidence rather than a comparison of one code path with itself.
"""

import itertools
import json
import math
from fractions import Fraction

import numpy as np

from heiswhit import CurveJets, Poly, SampledCurve
from heiswhit.av import _av
from heiswhit.errors import LengthMismatchError
from heiswhit.horizontal import _horizontalize_gaps
from heiswhit.poly import _horner, _taylor_rows


# fixture builders -----------------------------------------------------------


def circle_rows(n, lo=0.0, hi=1.0):
    ts = np.linspace(lo, hi, n)
    return [(float(t), math.cos(t), math.sin(t), -2.0 * float(t)) for t in ts]


def circle_curve(n, lo=0.0, hi=1.0):
    """(cos t, sin t, -2t): analytic and horizontal; the positive control."""
    return SampledCurve.from_rows(circle_rows(n, lo, hi))


def circle_jets(nodes, m):
    """True jets of (cos t, sin t, -2t) at the given nodes."""

    def hd(t, k):
        if k == 0:
            return -2.0 * t
        return -2.0 if k == 1 else 0.0

    nodes = tuple(float(t) for t in nodes)
    fd = lambda t, k: math.cos(t + 0.5 * math.pi * k)
    gd = lambda t, k: math.sin(t + 0.5 * math.pi * k)
    jets = (tuple(tuple(d(t, k) for k in range(m + 1)) for t in nodes) for d in (fd, gd, hd))
    return CurveJets(nodes, *jets)


def line_curve(n, lo=0.0, hi=1.0):
    """(t, 0, t): the height moves while no area is swept; negative control."""
    ts = np.linspace(lo, hi, n)
    return SampledCurve.from_rows([(float(t), float(t), 0.0, float(t)) for t in ts])


def flat_curve(n, lo=0.0, hi=1.0):
    """(t, 0, 0): trivially horizontal."""
    ts = np.linspace(lo, hi, n)
    return SampledCurve.from_rows([(float(t), float(t), 0.0, 0.0) for t in ts])


def random_poly(rng, deg, scale=1.0):
    return Poly([scale * rng.uniform(-1.0, 1.0) for _ in range(deg + 1)])


def horizontal_triple(rng, deg):
    """Random f, g of the given degree with the exact horizontal h.

    h' = 2(f'g - fg') pushes deg(h) up to 2*deg, so use
    bounded_horizontal_triple when every component must stay at deg <= m.
    """
    pf = random_poly(rng, deg)
    pg = random_poly(rng, deg)
    eta = 2.0 * (pf.derivative() * pg - pf * pg.derivative())
    ph = eta.antiderivative() + Poly([rng.uniform(-1.0, 1.0)])
    return pf, pg, ph


def bounded_horizontal_triple(rng, m):
    """Horizontal triple with every component of degree <= m.

    With g = alpha f + beta the bracket collapses to 2 beta f', so
    h = 2 beta f + const inherits the degree of f.
    """
    pf = random_poly(rng, m)
    alpha = rng.uniform(-1.0, 1.0)
    beta = rng.uniform(0.5, 1.5)
    pg = alpha * pf + Poly([beta])
    ph = 2.0 * beta * pf + Poly([rng.uniform(-1.0, 1.0)])
    return pf, pg, ph


def poly_curve(pf, pg, ph, nodes):
    return SampledCurve.from_rows([(t, pf(t), pg(t), ph(t)) for t in nodes])


def dump_samples_json(curve, path, m=None):
    """Write samples as JSON that the CLI reads back bit-exactly."""
    doc = {
        "samples": [
            {"t": t, "x": p.x, "y": p.y, "z": p.z}
            for t, p in zip(curve.nodes, curve.points)
        ]
    }
    if m is not None:
        doc["m"] = m
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def one_gap(fjet_a, gjet_a, fjet_b, gjet_b, ha, hb, a, b, m):
    """Synthesis's gap step on the single gap (a, b).

    Returns the f, g and h sub-pieces as Polys in t - a, t - mid and t - b,
    and lam, sigma and the area deficit as floats.
    """
    rows = [np.array([jet[: m + 1]], dtype=float) for jet in (fjet_a, gjet_a, fjet_b, gjet_b)]
    ends = (np.array([float(v)]) for v in (ha, hb, a, b))
    f, g, h, *scalars = _horizontalize_gaps(*rows, *ends, m)
    pieces = (tuple(Poly(r) for r in c[0]) for c in (f, g, h))
    return (*pieces, *(float(x[0]) for x in scalars))


def distinct_nodes(rng, count, lo=0.0, hi=1.0, min_gap=None):
    """Sorted draws from [lo, hi] with a guaranteed minimum separation."""
    if min_gap is None:
        min_gap = (hi - lo) * 1e-3
    while True:
        xs = np.sort(rng.uniform(lo, hi, size=count))
        if count == 1 or float(np.min(np.diff(xs))) > min_gap:
            return [float(x) for x in xs]


# oracles --------------------------------------------------------------------


def jet_poly(jet):
    """Taylor polynomial of a jet in the local variable u = x - center.

    jet[k] holds the k-th derivative at the center, so the coefficient of
    u**k is jet[k] / k!.
    """
    return Poly(_taylor_rows(np.asarray(jet, dtype=float)))


def signed_integral(p, a, b):
    """Integral of p from a to b, exact up to rounding, any order of a, b."""
    anti = p.antiderivative()
    return anti(b) - anti(a)


def leibniz_stack(fjet, gjet, m):
    """Derivatives of the horizontal velocity from the jets of f and g.

    Returns [H^1, .., H^m] where

        H^k = 2 * sum_{i=0}^{k-1} C(k-1, i) (F^{k-i} G^i - G^{k-i} F^i),

    the k-th derivative of h when h' = 2(f'g - g'f) and F^j, G^j are the
    j-th derivatives of f and g.
    """
    if len(fjet) < m + 1 or len(gjet) < m + 1:
        raise LengthMismatchError(
            f"jets of length >= {m + 1} required, got {len(fjet)}, {len(gjet)}"
        )
    out = []
    for k in range(1, m + 1):
        acc = 0.0
        for i in range(k):
            acc += math.comb(k - 1, i) * (
                fjet[k - i] * gjet[i] - gjet[k - i] * fjet[i]
            )
        out.append(2.0 * acc)
    return out


def integrate_exact(p, lo, hi):
    """Signed polynomial integral in exact rational arithmetic."""
    flo, fhi = Fraction(lo), Fraction(hi)
    total = Fraction(0)
    for k, c in enumerate(p.coeffs):
        total += Fraction(c) * (fhi ** (k + 1) - flo ** (k + 1)) / (k + 1)
    return float(total)


def adaptive_quad(f, lo, hi, tol=1e-11, depth=48):
    """Recursive adaptive Simpson with Richardson correction."""

    def rec(a, b, fa, fm, fb, whole, tol, depth):
        mid = 0.5 * (a + b)
        lm, rm = 0.5 * (a + mid), 0.5 * (mid + b)
        flm, frm = f(lm), f(rm)
        left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return rec(a, mid, fa, flm, fm, left, 0.5 * tol, depth - 1) + rec(
            mid, b, fm, frm, fb, right, 0.5 * tol, depth - 1
        )

    if hi == lo:
        return 0.0
    mid = 0.5 * (lo + hi)
    fa, fm, fb = f(lo), f(mid), f(hi)
    whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
    return rec(lo, hi, fa, fm, fb, whole, tol, depth)


def abs_quad_oracle(p, lo, hi, tol=1e-12):
    """Adaptive-subdivision Simpson for the integral of |p|.

    Breadth-first over panels with numpy evaluation so a thousand random
    cases stay cheap; a panel is halved until its Simpson refinement moves
    by no more than its width's share of tol.
    """
    if hi <= lo:
        return 0.0
    a = np.array([lo])
    b = np.array([hi])
    total = 0.0
    for _ in range(48):
        mid = 0.5 * (a + b)
        lm, rm = 0.5 * (a + mid), 0.5 * (mid + b)
        fa, fm, fb = np.abs(p(a)), np.abs(p(mid)), np.abs(p(b))
        flm, frm = np.abs(p(lm)), np.abs(p(rm))
        coarse = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
        fine = left + right
        corrected = fine + (fine - coarse) / 15.0
        done = np.abs(fine - coarse) <= 15.0 * tol * (b - a) / (hi - lo)
        total += float(np.sum(corrected[done]))
        keep = ~done
        if not np.any(keep):
            return total
        a = np.concatenate([a[keep], mid[keep]])
        b = np.concatenate([mid[keep], b[keep]])
        last = corrected[keep]
    return total + float(np.sum(last))


def dd_lagrange(nodes, values):
    """Divided difference via the partial-fraction form sum v_i / prod (x_i - x_j)."""
    total = 0.0
    for i, (xi, vi) in enumerate(zip(nodes, values)):
        denom = 1.0
        for j, xj in enumerate(nodes):
            if i != j:
                denom *= xi - xj
        total += vi / denom
    return total


def taylor_av_by_pairs(f, g, h, ia, ib, u, m):
    """A and V of the Taylor pairs at nodes ia against nodes ib, pair by pair.

    f, g and h hold jets (value, first derivative, ..) along the last axis
    and one node per entry of the axis before it; u holds b - a per pair.
    Each pair is its own row of the AV kernel, so its roots are isolated
    between a and b: the anchor kernel's A bit for bit, and its V up to
    where the roots' tolerances land.
    """
    tf, tg = _taylor_rows(f[..., ia, : m + 1]), _taylor_rows(g[..., ia, : m + 1])
    col = u[..., None]
    zero = np.zeros_like(col)
    hull = np.minimum(u, 0.0), np.maximum(u, 0.0)
    area, velocity = _av(
        tf, tg, hull, None, zero, col, h[..., ia, :1], h[..., ib, :1], col, m
    )
    area = (
        area[..., 0]
        + 2.0 * f[..., ia, 0] * (g[..., ib, 0] - _horner(tg, u))
        - 2.0 * g[..., ia, 0] * (f[..., ib, 0] - _horner(tf, u))
    )
    return area, velocity[..., 0]


def area_oracle(jets, a, b, m, tol=1e-12):
    """The area discrepancy recomputed from its definition.

    Global-coordinate Taylor polynomials evaluated term by term and an
    adaptive-quadrature swept-area integral, sharing nothing with the
    polynomial engine under test.
    """
    ia, ib = jets.index(a), jets.index(b)
    fj, gj = jets.fjets[ia], jets.gjets[ia]

    def taylor(jet):
        return lambda x: sum(
            jet[k] / math.factorial(k) * (x - a) ** k for k in range(m + 1)
        )

    def taylor_d(jet):
        return lambda x: sum(
            jet[k] / math.factorial(k - 1) * (x - a) ** (k - 1)
            for k in range(1, m + 1)
        )

    tf, tg = taylor(fj), taylor(gj)
    dtf, dtg = taylor_d(fj), taylor_d(gj)
    swept = adaptive_quad(lambda x: dtf(x) * tg(x) - dtg(x) * tf(x), a, b, tol)
    fa, ga = fj[0], gj[0]
    fb, gb = jets.fjets[ib][0], jets.gjets[ib][0]
    return (
        jets.hjets[ib][0]
        - jets.hjets[ia][0]
        - 2.0 * swept
        + 2.0 * fa * (gb - tg(b))
        - 2.0 * ga * (fb - tf(b))
    )


def _exact_rows(x, values):
    """Exact monomial rows in u = t - x[0] of the interpolant through (x, values).

    x holds Fractions; returns the rows of the interpolant and of its term
    magnitudes.  The Newton coefficients come from the divided-difference
    recursion on the first differences, which float subtraction rounds
    relative to themselves, and (u - u_j) from the nested Newton form: the
    magnitudes use |u_j| and the recursion with every difference of
    differences replaced by a sum of magnitudes.
    """
    v = [Fraction(c) for c in values]
    coef, size = [v[0]], [abs(v[0])]
    col = [(v[i + 1] - v[i]) / (x[i + 1] - x[i]) for i in range(len(x) - 1)]
    mag = [abs(c) for c in col]
    for j in range(2, len(x) + 1):
        coef.append(col[0])
        size.append(mag[0])
        gaps = [x[i + j] - x[i] for i in range(len(col) - 1)]
        col = [(col[i + 1] - col[i]) / d for i, d in enumerate(gaps)]
        mag = [(mag[i + 1] + mag[i]) / d for i, d in enumerate(gaps)]
    rows = ([coef[-1]], [size[-1]])
    for j in range(len(x) - 2, -1, -1):
        shift = x[j] - x[0]
        for row, c, s in zip(rows, (coef[j], size[j]), (-shift, abs(shift))):
            row[:] = [c + s * row[0]] + [a + s * b for a, b in zip(row[:-1], row[1:])] + row[-1:]
    return rows


def exact_discrete_area(nodes, fs, gs, hs, a, b):
    """The discrete area A of the pair (a, b) of a subset, exactly, and its size.

    nodes holds the subset's nodes ascending and fs, gs, hs the samples at
    them, a and b index the pair.  In rational arithmetic on the floats as
    given: the Newton coefficients of the interpolants p and q, their
    monomial rows in u = t - nodes[0], and

        A = h_b - h_a - 2 int_{u_a}^{u_b} (p'q - q'p) du.

    The size is the sum of the magnitudes of A's terms, written out down to
    differences of samples, which float subtraction rounds relative to
    themselves: |h_b - h_a| plus, for every product p_i q_j with i + j >= 1,
    2 |p_i| |q_j| (|u_a|^(i+j) + |u_b|^(i+j)), |p_i| and |q_j| read from the
    magnitude rows of _exact_rows.  Rounding moves a float A by a modest
    multiple of eps times it.
    """
    x = [Fraction(t) for t in nodes]
    (p, pm), (q, qm) = _exact_rows(x, fs), _exact_rows(x, gs)
    ua, ub = x[a] - x[0], x[b] - x[0]
    ha, hb = Fraction(hs[a]), Fraction(hs[b])
    area = hb - ha
    size = abs(area)
    for i, j in itertools.product(range(len(p)), range(len(q))):
        if i + j:
            area -= 2 * Fraction(i - j, i + j) * p[i] * q[j] * (ub ** (i + j) - ua ** (i + j))
            size += 2 * pm[i] * qm[j] * (abs(ua) ** (i + j) + abs(ub) ** (i + j))
    return area, size
