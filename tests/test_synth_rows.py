"""The row-form synthesis against the per-gap Poly path it replaced.

The oracles below are the former implementation, kept verbatim in spirit:
one gap at a time on Poly objects (blends, bump basis, bracket integrals,
the scalar amplitude rule, the h chain and the end pieces), and the
former per-node loop of the sample jets.
"""

import math

import numpy as np
import pytest

from conftest import (
    bounded_horizontal_triple,
    circle_curve,
    distinct_nodes,
    jet_poly,
    one_gap,
    poly_curve,
    signed_integral,
)
from heiswhit import (
    PiecewiseCm,
    SampledCurve,
    synthesize,
    transition_poly,
)
from heiswhit.divdiff import newton_interp
from heiswhit.errors import SynthesisDefectError
from heiswhit.horizontal import _solve_amplitudes
from heiswhit.poly import Poly
from heiswhit.whitney import _jets

# -- oracles: the per-gap Poly path -----------------------------------------


def compose_affine(p, c0, c1):
    """The polynomial q(x) = p(c0 + c1 * x)."""
    aff = Poly([c0, c1])
    out = Poly()
    for c in reversed(p.coeffs):
        out = out * aff + Poly([c])
    return out


def blend_oracle(jet_a, jet_b, gap, s_poly):
    ta = jet_poly(jet_a)
    tb = compose_affine(jet_poly(jet_b), -gap, 1.0)
    s_local = compose_affine(s_poly, 0.0, 1.0 / gap)
    return ta + s_local * (tb - ta)


def bump_basis_oracle(m, gap):
    base = Poly([0.0, 1.0, -1.0])
    b1 = Poly([1.0])
    for _ in range(m + 1):
        b1 = b1 * base
    b2 = b1 * Poly([-1.0, 2.0])
    sixth = gap / 6.0
    return (
        compose_affine(b1, 0.5, 3.0 / gap),
        compose_affine(b2, 0.5, 3.0 / gap),
        -sixth,
        sixth,
    )


def bracket_integral_oracle(p, q, lo, hi):
    return 2.0 * signed_integral(p.derivative() * q - q.derivative() * p, lo, hi)


def solve_amplitude_oracle(a2, b1, b2, deficit, area_tol=0.0):
    if abs(deficit) <= area_tol:
        return 0.0, 1.0
    best = None
    for sigma in (1.0, -1.0):
        lead = sigma * a2
        lin = b1 + sigma * b2
        disc = lin * lin + 4.0 * lead * deficit
        if disc < 0.0:
            continue
        root = math.sqrt(disc)
        q = -0.5 * (lin + math.copysign(root, lin))
        if q == 0.0:
            cands = [0.0]
        else:
            cands = [-deficit / q]
            if lead != 0.0:
                cands.append(q / lead)
        for lam in cands:
            if lam >= 0.0 and (best is None or lam < best[0]):
                best = (lam, sigma)
    if best is None:
        raise SynthesisDefectError("no real bump amplitude closes the gap")
    return best


def gap_oracle(fjet_a, gjet_a, fjet_b, gjet_b, ha, hb, a, b, m):
    """(f pieces, g pieces, h pieces, centers, lam, sigma) of one gap."""
    gap = b - a
    mid = a + 0.5 * gap
    transition = transition_poly(m)
    blend_f = blend_oracle(fjet_a[: m + 1], fjet_b[: m + 1], gap, transition)
    blend_g = blend_oracle(gjet_a[: m + 1], gjet_b[: m + 1], gap, transition)
    deficit = hb - ha - bracket_integral_oracle(blend_f, blend_g, 0.0, gap)
    beta1, beta2, vlo, vhi = bump_basis_oracle(m, gap)
    mid_blend_f = compose_affine(blend_f, 0.5 * gap, 1.0)
    mid_blend_g = compose_affine(blend_g, 0.5 * gap, 1.0)
    a2 = bracket_integral_oracle(beta1, beta2, vlo, vhi)
    b1 = bracket_integral_oracle(beta1, mid_blend_g, vlo, vhi)
    b2 = bracket_integral_oracle(mid_blend_f, beta2, vlo, vhi)
    area_tol = 1e-12 * (1.0 + abs(ha) + abs(hb))
    lam, sigma = solve_amplitude_oracle(a2, b1, b2, deficit, area_tol)
    f_pieces = (blend_f, mid_blend_f + lam * beta1, blend_f)
    g_pieces = (blend_g, mid_blend_g + (lam * sigma) * beta2, blend_g)
    h_pieces = []
    start = ha
    spans = ((0.0, vlo + 0.5 * gap), (vlo, vhi), (vhi + 0.5 * gap, gap))
    for (u0, u1), pf, pg in zip(spans, f_pieces, g_pieces):
        anti = (2.0 * (pf.derivative() * pg - pf * pg.derivative())).antiderivative()
        piece = anti + Poly([start - anti(u0)])
        h_pieces.append(piece)
        start = piece(u1)
    return f_pieces, g_pieces, tuple(h_pieces), (a, mid, a), lam, sigma


def end_h_oracle(fjet, gjet, h0, m):
    tf, tg = jet_poly(fjet[: m + 1]), jet_poly(gjet[: m + 1])
    eta = 2.0 * (tf.derivative() * tg - tf * tg.derivative())
    return eta.antiderivative() + Poly([h0])


def synthesize_oracle(samples, m):
    """The former assembly loop; returns f, g, h and the amplitudes."""
    nodes, hs = samples.nodes, samples.hs
    fj = jets_oracle(nodes, samples.fs, m)
    gj = jets_oracle(nodes, samples.gs, m)
    breaks, centers = [nodes[0]], [nodes[0]]
    f, g, h = [jet_poly(fj[0])], [jet_poly(gj[0])], [end_h_oracle(fj[0], gj[0], hs[0], m)]
    lams = []
    for i in range(len(nodes) - 1):
        a, b = nodes[i], nodes[i + 1]
        fp, gp, hp, cs, lam, _ = gap_oracle(fj[i], gj[i], fj[i + 1], gj[i + 1],
                                            hs[i], hs[i + 1], a, b, m)
        f += fp
        g += gp
        h += hp
        centers += cs
        breaks += [a + (b - a) / 3.0, a + 2.0 * (b - a) / 3.0, b]
        lams.append(lam)
    f.append(jet_poly(fj[-1]))
    g.append(jet_poly(gj[-1]))
    h.append(end_h_oracle(fj[-1], gj[-1], hs[-1], m))
    centers.append(nodes[-1])
    return tuple(PiecewiseCm(breaks, centers, poly_rows(c), m) for c in (f, g, h)), lams


def poly_rows(polys):
    """The ascending coefficients of polys, zero-padded into one row each."""
    width = max(len(p.coeffs) for p in polys)
    return np.array([p.coeffs + (0.0,) * (width - len(p.coeffs)) for p in polys])


def jets_oracle(nodes, values, m):
    """The former per-node loop of the sample jets."""
    n = len(nodes)
    jets = []
    for i, a in enumerate(nodes):
        lo = hi = i
        while hi - lo + 1 < m + 1:
            left_gap = a - nodes[lo - 1] if lo > 0 else math.inf
            right_gap = nodes[hi + 1] - a if hi + 1 < n else math.inf
            if left_gap <= right_gap:
                lo -= 1
            else:
                hi += 1
        dp = newton_interp([t - a for t in nodes[lo : hi + 1]], values[lo : hi + 1])
        jet = [values[i]]
        for _ in range(m):
            dp = dp.derivative()
            jet.append(dp(0.0))
        jets.append(tuple(jet))
    return tuple(jets)


# -- the gap step -------------------------------------------------------------


def _gap_cases(rng, m, independent):
    """Random gaps; independent jets at the two ends, or jets and heights
    that move by O(gap) across the gap, as samples of a curve would."""
    for a in (0.0, 1e3, 2.0**20):
        for gap in (1e-3, 1e-2, 0.1, 1.0):
            fa, ga = rng.uniform(-1.0, 1.0, (2, m + 1))
            ha = rng.uniform(-1.0, 1.0)
            if independent:
                fb, gb = rng.uniform(-1.0, 1.0, (2, m + 1))
                hb = rng.uniform(-1.0, 1.0)
            else:
                fb, gb = (j + gap * rng.uniform(-1.0, 1.0, m + 1) for j in (fa, ga))
                hb = ha + gap * rng.uniform(-1.0, 1.0)
            yield (tuple(fa), tuple(ga), tuple(fb), tuple(gb), ha, hb, a, a + gap)
        zero = (0.0,) * (m + 1)
        yield (zero, zero, zero, zero, 0.0, 1e-4, a, a + 1.0)  # pure height


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("independent", [False, True])
def test_gap_rows_match_the_poly_path(m, independent):
    rng = np.random.default_rng(610 + m)
    for case in _gap_cases(rng, m, independent):
        hb = case[5]
        _, _, h_pieces, got_lam, got_sigma, _ = one_gap(*case, m)
        fp, gp, hp, centers, lam, sigma = gap_oracle(*case, m)
        assert abs(got_lam - lam) <= 1e-9 * abs(lam), case
        assert got_sigma == sigma, case
        # Independent jets need bumps of amplitude up to ~500 at m = 3, and
        # both paths then reach h(b) only to a few 1e-12.
        if not independent:
            h_end = h_pieces[2](0.0)  # the last sub-piece lives in t - b
            assert abs(h_end - hb) <= 1e-12 * (1.0 + abs(hb)), case


def test_gaps_break_in_thirds_with_pieces_at_a_mid_and_b():
    rng = np.random.default_rng(611)
    for *_, ha, hb, a, b in _gap_cases(rng, 1, False):
        two = SampledCurve.from_rows([(a, 0.0, 0.0, ha), (b, 0.0, 0.0, hb)])
        curve = synthesize(two, 1, force=True)
        for ext in (curve.f, curve.g, curve.h):
            assert ext.breakpoints.tolist() == [a, a + (b - a) / 3.0, a + 2.0 * (b - a) / 3.0, b]
            assert ext.centers.tolist() == [a, a, a + 0.5 * (b - a), b, b]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_synthesized_curve_matches_the_poly_path(m):
    rng = np.random.default_rng(620 + m)
    for offset in (0.0, 1e3, 2.0**20):
        nodes = [offset + t for t in sorted(distinct_nodes(rng, 10, min_gap=0.05))]
        rows = [(t, *rng.uniform(-1.0, 1.0, 3)) for t in nodes]
        samples = SampledCurve.from_rows(rows)
        curve = synthesize(samples, m, force=True)
        exts, lams = synthesize_oracle(samples, m)
        assert all(lam > 0.0 for lam in lams)
        for got, want in zip(curve.bump_amplitudes, lams):
            assert abs(got - want) <= 1e-9 * want
        for got, want in zip((curve.f, curve.g, curve.h), exts):
            np.testing.assert_array_equal(got.breakpoints, want.breakpoints)
            ts = np.linspace(nodes[0], nodes[-1], 501)
            for k in range(m + 1):
                scale = 1.0 + np.max(np.abs(want(ts, k)))
                assert np.max(np.abs(got(ts, k) - want(ts, k))) <= 1e-9 * scale


@pytest.mark.parametrize("m", [1, 2, 3])
def test_smooth_curves_have_no_breakpoint_jumps(m):
    rng = np.random.default_rng(630 + m)
    for samples in (circle_curve(33), poly_curve(*bounded_horizontal_triple(rng, m),
                                                  [i / 9.0 for i in range(10)])):
        curve = synthesize(samples, m, force=True)
        ts = np.linspace(0.0, 1.0, 1001)
        for ext in (curve.f, curve.g, curve.h):
            for k, jump in enumerate(ext.breakpoint_jumps(m)):
                assert jump <= 1e-9 * (1.0 + np.max(np.abs(ext(ts, k))))


def test_circle_amplitudes_match_the_poly_path():
    samples = circle_curve(64)
    curve = synthesize(samples, 1)
    _, lams = synthesize_oracle(samples, 1)
    assert all(lam > 0.0 for lam in lams)
    for got, want in zip(curve.bump_amplitudes, lams):
        assert abs(got - want) <= 1e-9 * want


# -- the amplitude rule ---------------------------------------------------


def _solve_each(cases, area_tol=0.0):
    a2, b1, b2, deficit = (np.array(c, dtype=float) for c in zip(*cases))
    lam, sigma = _solve_amplitudes(a2, b1, b2, deficit, np.full(len(cases), area_tol))
    return list(zip(lam.tolist(), sigma.tolist()))


def test_amplitude_rule_equals_the_scalar_rule():
    rng = np.random.default_rng(631)
    cases = [
        (-0.02, 0.0, 0.0, 1e-13),  # within area_tol below
        (-0.02, 0.3, 0.1, 0.0),
        (0.0, 0.5, 0.2, 0.3),  # lead == 0
        (0.0, -0.5, 0.2, 0.3),
        (0.0, 0.0, 0.0, 0.3),  # q == 0
        (0.0, 1.0, -1.0, 0.3),
        (1.0, 0.1, 0.0, -1.0),  # sigma = +1 has a negative discriminant
        (-1.0, 0.1, 0.0, -1.0),  # sigma = -1 has a negative discriminant
        (0.0, 0.5, 0.0, 0.3),  # both sigmas give the same amplitude
        (0.0, -0.5, 0.0, -0.3),
        (-0.02, 0.0, 0.0, 0.01),
        (-0.02, 0.0, 0.0, -0.01),
    ]
    cases += [tuple(rng.normal(size=4)) for _ in range(300)]
    cases += [tuple(rng.integers(-2, 3, size=4).astype(float)) for _ in range(300)]
    want = []
    for c in cases:
        try:
            want.append(solve_amplitude_oracle(*c))
        except SynthesisDefectError:
            want.append(None)
    solvable = [c for c, w in zip(cases, want) if w is not None]
    assert len(solvable) > 500
    assert _solve_each(solvable) == [w for w in want if w is not None]
    assert _solve_each(cases[:1], area_tol=1e-12) == [(0.0, 1.0)]
    assert solve_amplitude_oracle(*cases[0], area_tol=1e-12) == (0.0, 1.0)
    # Ties go to sigma = +1, as the scalar rule's strict comparison does.
    assert [sigma for _, sigma in _solve_each(cases[8:10])] == [1.0, 1.0]


def test_amplitude_rule_raises_for_the_first_unsolvable_gap():
    # With a2 = 0 the area is linear in lam, and here both signs need lam < 0.
    cases = [(-0.02, 0.0, 0.0, 0.01), (0.0, 1.0, 0.0, -1.0), (0.0, 1.0, 0.5, -1.0)]
    with pytest.raises(SynthesisDefectError) as want:
        solve_amplitude_oracle(*cases[1])
    with pytest.raises(SynthesisDefectError) as got:
        _solve_each(cases)
    assert str(got.value) == str(want.value)


# -- jets --------------------------------------------------------------------


def _check_jets(nodes, values, m):
    got = tuple(map(tuple, _jets(np.array(nodes), np.array(values), m).tolist()))
    assert got == jets_oracle(tuple(nodes), tuple(values), m)
    return got


@pytest.mark.parametrize("m", [1, 2, 3])
def test_jets_equal_the_node_by_node_loop(m):
    rng = np.random.default_rng(640 + m)
    uniform = [i / 10.0 for i in range(11)]  # equal left and right gaps
    clustered = sorted(set([0.0, 1e-9, 2e-9, 0.5, 0.5 + 1e-7, 1.0, 1.0 + 1e-12, 2.0]))
    far = [2.0**20 + i / 8.0 for i in range(9)]
    for nodes in (uniform, clustered, far, uniform[: m + 1],
                  sorted(distinct_nodes(rng, 12))):
        _check_jets(nodes, list(rng.uniform(-2.0, 2.0, len(nodes))), m)
        _check_jets(nodes, [math.sin(3.0 * t) for t in nodes], m)
    # Exact polynomials of degree below m: their top coefficients are noise,
    # which the trailing-coefficient cut often zeroes.
    zeroed = 0
    for deg in range(m):
        p = Poly(rng.uniform(-1.0, 1.0, deg + 1))
        for nodes in (uniform, far):
            jets = _check_jets(nodes, [p(t) for t in nodes], m)
            zeroed += sum(jet[m] == 0.0 for jet in jets)
    assert zeroed > 0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_stacked_components_get_each_components_jets(m):
    # One stencil per node serves every row of values, bit for bit.
    rng = np.random.default_rng(650 + m)
    t = np.array(sorted(distinct_nodes(rng, 12)))
    values = rng.uniform(-2.0, 2.0, (3, len(t)))
    for row, jets in zip(values, _jets(t, values, m)):
        assert jets.tolist() == _jets(t, row, m).tolist()
