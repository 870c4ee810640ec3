"""Checkers, gap horizontalization, synthesis, and the finiteness scan."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    bounded_horizontal_triple,
    circle_curve,
    flat_curve,
    leibniz_stack,
    line_curve,
    one_gap,
    poly_curve,
)
from heiswhit import (
    HPoint,
    ModulusFn,
    SampledCurve,
    check_c1,
    check_cm,
    check_cm_via_w,
    finiteness_check,
    group_mul,
    horizontal,
    horizontality_defect,
    synthesize,
)
from heiswhit.heis import ORIGIN, _horizontality_residual
from heiswhit.horizontal import _seminorm
from heiswhit.whitney import _jets
from heiswhit.errors import DuplicateNodeError, SynthesisDefectError, TooFewNodesError

ZERO2 = (0.0, 0.0)


# -- the gap step ------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2])
def test_gap_with_nothing_to_close_is_all_zero(m):
    zero = (0.0,) * (m + 1)
    f, g, h, lam, _, deficit = one_gap(zero, zero, zero, zero, 0.0, 0.0, 0.0, 1.0, m)
    assert lam == 0.0
    assert deficit == 0.0
    assert all(p.is_zero for p in f + g + h)


def test_pure_height_gap_closes_exactly_with_sqrt_amplitude():
    lams = []
    for c in (1e-2, 1e-4, 1e-6):
        _, _, h, lam, _, _ = one_gap(ZERO2, ZERO2, ZERO2, ZERO2, 0.0, c, 0.0, 1.0, 1)
        h_end = h[2](0.0)  # the last sub-piece lives in t - b
        assert abs(h_end - c) <= 1e-12 * (1.0 + c)
        assert lam / math.sqrt(c) == pytest.approx(12.5499, abs=1e-3)
        lams.append(lam)
    for big, small in zip(lams, lams[1:]):
        assert big / small == pytest.approx(10.0, rel=0.5)


def test_consistent_endpoints_need_no_bump():
    rng = np.random.default_rng(71)
    for m in (1, 2, 3):
        pf, pg, ph = bounded_horizontal_triple(rng, m)
        a, b = 0.2, 0.9
        fj = tuple(pf.deriv_at(a, k) for k in range(m + 1))
        gj = tuple(pg.deriv_at(a, k) for k in range(m + 1))
        fj_b = tuple(pf.deriv_at(b, k) for k in range(m + 1))
        gj_b = tuple(pg.deriv_at(b, k) for k in range(m + 1))
        _, _, h, lam, _, _ = one_gap(fj, gj, fj_b, gj_b, ph(a), ph(b), a, b, m)
        assert lam == 0.0
        for us, piece, center in zip(
            ((0.0, 0.1, 0.2), (0.3, 0.35), (0.5, 0.6, 0.7)),
            h,
            (a, 0.5 * (a + b), b),
        ):
            for u in us:
                t = a + u
                want = ph(t)
                assert abs(piece(t - center) - want) <= 1e-10 * (1.0 + abs(want))


def test_degenerate_gap_rejected():
    # Synthesis only meets gaps b > a: the samples refuse any other.
    with pytest.raises(DuplicateNodeError):
        SampledCurve((1.0, 1.0), (ORIGIN, ORIGIN))
    with pytest.raises(ValueError):
        SampledCurve((1.0, 0.5), (ORIGIN, ORIGIN))


# -- check_c1 ----------------------------------------------------------------


def test_c1_flat_motion_consistent():
    verdict = check_c1(flat_curve(16))
    assert verdict.status == "consistent"
    assert verdict.profiles["pansu_xy_osc"].top == 0.0
    assert verdict.profiles["pansu_z"].top == 0.0


def test_c1_vertical_drift_inconsistent():
    verdict = check_c1(line_curve(64))
    assert verdict.status == "inconsistent"
    assert verdict.slopes["pansu_z"] == pytest.approx(-1.0, abs=0.15)
    prof = verdict.profiles["pansu_z"]
    assert prof.terminal > prof.top


def test_c1_circle_consistent_with_decaying_z():
    verdict = check_c1(circle_curve(32))
    assert verdict.status == "consistent"
    assert verdict.slopes["pansu_z"] >= 0.9


# -- check_cm / check_cm_via_w -----------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3])
def test_cm_horizontal_polynomial_consistent(m):
    rng = np.random.default_rng(67 + m)
    pf, pg, ph = bounded_horizontal_triple(rng, m)
    nodes = [i / (m + 5.0) for i in range(m + 6)]
    verdict = check_cm(poly_curve(pf, pg, ph, nodes), m)
    assert verdict.status == "consistent"
    values = [v for prof in verdict.profiles.values() for _, v in prof.points]
    assert max(values) <= 1e-9


@pytest.mark.parametrize("m", [1, 2])
def test_cm_vertical_drift_inconsistent(m):
    verdict = check_cm(line_curve(32), m)
    assert verdict.status == "inconsistent"
    assert verdict.statuses["av_discrete"] == "inconsistent"


def test_cm_needs_enough_nodes():
    curve = SampledCurve.from_rows([(0.0, 0, 0, 0), (0.5, 0, 0, 0), (1.0, 0, 0, 0)])
    with pytest.raises(TooFewNodesError):
        check_cm(curve, 2)
    with pytest.raises(TooFewNodesError):
        check_cm_via_w(curve, 2)


@pytest.mark.parametrize("m", [1, 2])
def test_via_w_agrees_with_direct_check_on_fixtures(m):
    rng = np.random.default_rng(73 + m)
    pf, pg, ph = bounded_horizontal_triple(rng, m)
    fixtures = (
        circle_curve(32),
        line_curve(32),
        poly_curve(pf, pg, ph, [i / 15.0 for i in range(16)]),
    )
    for curve in fixtures:
        assert check_cm_via_w(curve, m).status == check_cm(curve, m).status


def test_verdict_statuses_left_invariant():
    rng = np.random.default_rng(79)
    for curve in (circle_curve(24), line_curve(24)):
        p = HPoint(*rng.uniform(-2.0, 2.0, size=3))
        moved_rows = [
            (t, *group_mul(p, q)) for t, q in zip(curve.nodes, curve.points)
        ]
        moved = SampledCurve.from_rows(moved_rows)
        base = check_cm(curve, 1)
        shifted = check_cm(moved, 1)
        assert shifted.status == base.status
        for name in ("dd_f", "dd_g", "av_discrete"):
            want = base.profiles[name].points
            got = shifted.profiles[name].points
            assert len(want) == len(got)
            for (d1, v1), (d2, v2) in zip(want, got):
                assert d1 == d2
                assert abs(v1 - v2) <= 1e-10 * (1.0 + v1)


def test_removing_nodes_never_raises_sup_profiles():
    curve = circle_curve(16)
    kept = [i for i in range(16) if i % 3 != 1]
    sub_rows = [
        (t, p.x, p.y, p.z)
        for i, (t, p) in enumerate(zip(curve.nodes, curve.points))
        if i in kept
    ]
    sub = SampledCurve.from_rows(sub_rows)
    full = check_cm(curve, 1, window=len(curve.nodes)).profiles
    part = check_cm(sub, 1, window=len(sub.nodes)).profiles
    for name in ("dd_f", "dd_g", "dd_h", "av_discrete"):
        full_by_delta = dict(full[name].points)
        for d, v in part[name].points:
            assert v <= full_by_delta[d] + 1e-12


# -- synthesize --------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2])
def test_synthesis_reproduces_horizontal_polynomials(m):
    rng = np.random.default_rng(83 + m)
    pf, pg, ph = bounded_horizontal_triple(rng, m)
    nodes = [i / 7.0 for i in range(8)]
    curve = synthesize(poly_curve(pf, pg, ph, nodes), m)
    ts = np.linspace(0.0, 1.0, 301)
    scale = 1.0 + max(np.max(np.abs(p(ts))) for p in (pf, pg, ph))
    for t in ts:
        got = curve(float(t))
        want = (pf(t), pg(t), ph(t))
        for gi, wi in zip(got, want):
            assert abs(gi - wi) <= 1e-8 * scale


def test_synthesis_circle_nodes_and_defect():
    samples = circle_curve(16)
    curve = synthesize(samples, 1)
    assert curve.defect <= 1e-8
    for t, p in zip(samples.nodes, samples.points):
        got = curve(t)
        for gi, wi in zip(got, (p.x, p.y, p.z)):
            assert abs(gi - wi) <= 1e-10 * (1.0 + abs(wi))
    assert len(curve.bump_amplitudes) == 15
    assert set(curve.modulus) == {"f", "g", "h"}


def test_synthesis_two_node_vertical_jump():
    rows = [(0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 1.0)]
    curve = synthesize(SampledCurve.from_rows(rows), 1, force=True)
    assert curve.h(1.0) == pytest.approx(1.0, abs=1e-10)
    assert curve.h(0.0) == pytest.approx(0.0, abs=1e-12)
    assert len(curve.bump_amplitudes) == 1
    assert curve.bump_amplitudes[0] > 1.0  # sqrt(1/c0) is over 12 here


def test_synthesis_leibniz_jets_at_nodes():
    samples = circle_curve(16)
    m = 2
    curve = synthesize(samples, m)
    for t in samples.nodes:
        fjet = curve.f.jet(t, m)
        gjet = curve.g.jet(t, m)
        hjet = curve.h.jet(t, m)
        want = leibniz_stack(fjet, gjet, m)
        scale = 1.0 + max(abs(v) for v in want)
        for got, wi in zip(hjet[1:], want):
            assert abs(got - wi) <= 1e-9 * scale


def test_synthesis_gate_and_error_paths(monkeypatch):
    with pytest.raises(SynthesisDefectError):
        synthesize(line_curve(32), 1)
    # force bypasses the gate; an impossible tolerance then trips the audit
    monkeypatch.setattr(horizontal, "DEFECT_TOL", 0.0)
    with pytest.raises(SynthesisDefectError):
        synthesize(circle_curve(8), 1, force=True)
    two = SampledCurve.from_rows([(0.0, 0, 0, 0), (1.0, 1, 0, 0)])
    with pytest.raises(TooFewNodesError):
        synthesize(two, 2, force=True)


def test_synthesized_curve_calls_with_derivatives():
    curve = synthesize(circle_curve(12), 1)
    triple = curve(0.37)
    assert len(triple) == 3
    dx = curve(0.37, 1)
    assert dx[0] == curve.f(0.37, 1)


def _family_curve(family, rng, n):
    """Circle, poly or drift samples on n jittered nodes of [0, 1]."""
    ts = np.linspace(0.0, 1.0, n)
    ts[1:-1] += rng.uniform(-0.25, 0.25, n - 2) / (n - 1)
    if family == "circle":
        r, w, p = rng.uniform(0.5, 2.0), rng.uniform(1.0, 3.0), rng.uniform(0.0, 2.0 * math.pi)
        rows = [(t, r * math.cos(w * t + p), r * math.sin(w * t + p), -2.0 * r * r * w * t)
                for t in ts]
    elif family == "poly":
        pf, pg, ph = bounded_horizontal_triple(rng, 3)
        rows = [(t, pf(t), pg(t), ph(t)) for t in ts]
    else:
        s = rng.uniform(0.5, 2.0)
        rows = [(t, t, 0.0, s * t) for t in ts]
    return SampledCurve.from_rows([tuple(map(float, row)) for row in rows])


def exact_defect(curve, t):
    """h' - 2(f'g - fg') at t, in rational arithmetic on the stored piece rows."""
    i = int(np.searchsorted(curve.f.breakpoints, t, side="right"))
    u = Fraction(float(t)) - Fraction(float(curve.f.centers[i]))

    def rows(ext):
        row = [Fraction(c) for c in ext._table(0)[i].tolist()]
        return row, [j * c for j, c in enumerate(row)][1:]

    def at(row, x):
        return sum(c * x**k for k, c in enumerate(row))

    (f, df), (g, dg), (_, dh) = map(rows, (curve.f, curve.g, curve.h))
    return at(dh, u) - 2 * (at(df, u) * at(g, u) - at(f, u) * at(dg, u))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["circle", "poly", "drift"]), st.integers(1, 3), st.integers(5, 40),
       st.integers(0, 2**32 - 1))
@example("drift", 3, 5, 326900)
@example("circle", 2, 15, 2**31)  # the float-row bound once fell short of |D| here
def test_defect_bound_covers_the_grid_residual(family, m, n, seed):
    curve = synthesize(_family_curve(family, np.random.default_rng(seed), n), m, force=True)
    grid = np.linspace(0.0, 1.0, 10_001)
    fv, dfv, gv, dgv = (c(grid, k) for c in (curve.f, curve.g) for k in (0, 1))
    residual = np.abs(_horizontality_residual(fv, dfv, gv, dgv, curve.h(grid, 1)))
    # Evaluating f, f', g, g' and h' one at a time rounds by itself: on the
    # pinned example, whose h coefficients reach 1e23 on one piece, the float
    # residual passes the bound by 12 eps times the curve's size.  So the
    # bound is held against the exact defect where the float one peaks.
    for t in grid[np.argsort(residual)[-5:]]:
        assert abs(exact_defect(curve, t)) <= curve.defect


def test_defect_bound_catches_a_defect_the_grid_steps_over(monkeypatch):
    # A node 3e-5 past 0.5 makes a gap whose middle third, [0.50001, 0.50002),
    # holds no point of the 10,001-point grid on [0, 1].
    nodes = sorted([i / 8.0 for i in range(9)] + [0.50003])
    samples = SampledCurve.from_rows([(t, math.cos(t), math.sin(t), -2.0 * t) for t in nodes])
    gap = nodes.index(0.5)
    horizontalize = horizontal._horizontalize_gaps

    def planted(*args):
        f, g, h, *rest = horizontalize(*args)
        h = h.copy()
        h[gap, 1, 1] += 1e-3  # h' off by 1e-3 on the gap's middle third
        return (f, g, h, *rest)

    monkeypatch.setattr(horizontal, "_horizontalize_gaps", planted)
    with pytest.raises(SynthesisDefectError, match="horizontality defect"):
        synthesize(samples, 1, force=True)

    monkeypatch.setattr(horizontal, "DEFECT_TOL", math.inf)
    curve = synthesize(samples, 1, force=True)
    piece = 3 * gap + 2
    lo, hi = curve.f.breakpoints[piece - 1 : piece + 1]
    assert curve.audit["defect_piece"] == [piece, lo, hi]
    assert curve.defect >= 1e-3
    assert horizontality_defect(curve.f, curve.g, curve.h, [(lo + hi) / 2.0]) >= 1e-3
    grid = np.linspace(0.0, 1.0, 10_001)
    assert not np.any((lo <= grid) & (grid < hi))
    assert horizontality_defect(curve.f, curve.g, curve.h, grid) <= 1e-12


# -- finiteness_check --------------------------------------------------------


def test_finiteness_circle_stable_under_refinement():
    omega = ModulusFn()
    r8 = finiteness_check(circle_curve(8), 1, omega)
    r16 = finiteness_check(circle_curve(16), 1, omega)
    assert r8.status == "consistent"
    assert r16.status == "consistent"
    assert r8.subsets_scanned == 56  # C(8,3): full enumeration below 20 nodes
    for big, small in ((r8.m_hat, r16.m_hat), (r8.c2_hat, r16.c2_hat)):
        assert 0.5 <= big / small <= 2.0


def test_finiteness_drift_constant_blows_up():
    omega = ModulusFn()
    r8 = finiteness_check(line_curve(8), 1, omega)
    r16 = finiteness_check(line_curve(16), 1, omega)
    assert r16.m_hat >= 4.0 * r8.m_hat
    assert r8.status == "inconsistent"
    assert r16.status == "inconsistent"


@pytest.mark.parametrize("m", [1, 2])
def test_finiteness_recovers_horizontal_polynomials(m):
    rng = np.random.default_rng(61)
    pf, pg, ph = bounded_horizontal_triple(rng, m)
    curve = poly_curve(pf, pg, ph, [i / 9.0 for i in range(10)])
    report = finiteness_check(curve, m, ModulusFn())
    assert report.status == "consistent"
    assert report.m_hat <= 1e-9
    assert report.c2_hat <= 1e-10


def test_finiteness_witness_bookkeeping():
    report = finiteness_check(line_curve(12), 1, ModulusFn())
    assert len(report.worst_subset) == 3
    node_set = set(line_curve(12).nodes)
    assert set(report.worst_subset) <= node_set
    a, b = report.worst_pair
    assert a < b
    assert {a, b} <= set(report.worst_subset)


def seminorm_by_halving(slope, diam, omega):
    """Brute force: sup of |slope| d / omega(d) over 60 halvings of diam."""
    best, d = 0.0, diam
    for _ in range(60):
        w = omega(d)
        if w > 0:
            best = max(best, abs(slope) * d / w)
        d *= 0.5
    return best


def test_seminorm_matches_halving_sup():
    rng = np.random.default_rng(67)
    slope, diam = rng.normal(size=(3, 5)), rng.uniform(0.01, 2.0, 5)
    for omega in (ModulusFn(coeff=2.0, exponent=1.0), ModulusFn(coeff=0.7, exponent=0.3)):
        got = _seminorm(slope, diam, omega)
        for c in range(3):
            for s in range(5):
                want = seminorm_by_halving(slope[c, s], diam[s], omega)
                assert got[c, s] == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("m", [1, 2])
def test_finiteness_of_zero_area_has_no_witness(m):
    # On the x-axis with h = 0 every A is exactly 0, so no ratio is positive.
    report = finiteness_check(flat_curve(9), m, ModulusFn())
    assert (report.m_hat, report.worst_subset, report.worst_pair) == (0.0, (), ())
    assert report.status == "consistent"


def test_finiteness_input_validation():
    curve = circle_curve(8)
    with pytest.raises(TooFewNodesError):
        finiteness_check(SampledCurve.from_rows(
            [(0.0, 0, 0, 0), (1.0, 1, 0, 0)]
        ), 1, ModulusFn())
    with pytest.raises(TooFewNodesError):
        finiteness_check(curve, 1, ModulusFn(), window=2)


@pytest.mark.parametrize("scan", [check_cm, check_cm_via_w, synthesize])
@pytest.mark.parametrize("m,window", [(1, 0), (1, 2), (2, 3)])
def test_order_m_scans_reject_windows_below_m_plus_2(scan, m, window):
    with pytest.raises(TooFewNodesError, match=f"window must be at least {m + 2}"):
        scan(circle_curve(12), m, window=window)


def test_one_row_curve_is_rejected():
    with pytest.raises(TooFewNodesError):
        SampledCurve.from_rows([(0.0, 0.0, 0.0, 0.0)])


# -- translation in t ----------------------------------------------------------


def _offset_circle(count, step, offset):
    # Dyadic nodes keep t + offset exact, so every offset sees the same curve.
    return SampledCurve.from_rows(
        [(i * step + offset, math.cos(i * step), math.sin(i * step), -2.0 * i * step)
         for i in range(count)]
    )


@pytest.mark.parametrize("offset", [1e3, 1e6, 2.0**20])
def test_check_cm_and_finiteness_ignore_where_t_starts(offset):
    base = check_cm(_offset_circle(33, 1 / 32, 0.0), 2)
    moved = check_cm(_offset_circle(33, 1 / 32, offset), 2)
    assert moved.status == base.status
    assert moved.statuses == base.statuses
    for name, prof in base.profiles.items():
        assert moved.profiles[name].points == prof.points

    omega = ModulusFn()
    base = finiteness_check(_offset_circle(9, 1 / 8, 0.0), 2, omega)
    moved = finiteness_check(_offset_circle(9, 1 / 8, offset), 2, omega)
    assert moved.status == base.status
    assert moved.profile.points == base.profile.points
    assert (moved.m_hat, moved.c2_hat) == (base.m_hat, base.c2_hat)
    assert moved.worst_subset == tuple(t + offset for t in base.worst_subset)
    assert moved.worst_pair == tuple(t + offset for t in base.worst_pair)


@pytest.mark.parametrize("offset", [1e3, 2.0**20])
def test_jets_and_bumps_ignore_where_t_starts(offset):
    base = _offset_circle(33, 1 / 32, 0.0)
    moved = _offset_circle(33, 1 / 32, offset)
    want = _jets(np.array(base.nodes), base._xyz, 2)
    assert _jets(np.array(moved.nodes), moved._xyz, 2).tolist() == want.tolist()
    want = synthesize(base, 2).bump_amplitudes
    assert synthesize(moved, 2).bump_amplitudes == want


def test_far_parameters_get_a_verdict_in_every_checker():
    # A horizontal circle sampled at t = 1e5 s: bisection brackets near
    # t = 1e4 narrow to neighbouring floats, which lie farther apart than
    # the root tolerance, and must still end.
    samples = SampledCurve.from_rows(
        [(1e5 * s, math.cos(6 * s), math.sin(6 * s), -12 * s)
         for s in (i / 32 for i in range(33))]
    )
    assert check_cm(samples, 2).status == "consistent"
    assert check_cm_via_w(samples, 2).status == "consistent"
    assert finiteness_check(samples, 2, ModulusFn()).status == "consistent"
