"""Area and velocity functionals, continuous and discrete."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    area_oracle,
    bounded_horizontal_triple,
    circle_curve,
    circle_jets,
    distinct_nodes,
    exact_discrete_area,
    line_curve,
    poly_curve,
    random_poly,
    subset_rows,
    taylor_av_by_pairs,
)
from heiswhit import (
    AVPair,
    CurveJets,
    HPoint,
    ModulusFn,
    SampledCurve,
    av_pair,
    check_cm,
    check_cm_via_w,
    discrete_av_pair,
    finiteness_check,
    group_mul,
)
from heiswhit import av, horizontal
from heiswhit.av import _av, _av_profile, _discrete_av, _taylor_av, area_discrepancy
from heiswhit.divdiff import _subset_table
from heiswhit.errors import (
    BadSubsetError,
    NodeNotFoundError,
    OrderViolationError,
    TooFewNodesError,
)
from heiswhit.poly import Poly
from heiswhit.profiles import delta_grid


def av_profile(jets, m):
    """The Taylor AV profile of jets, as check_cm_via_w takes it from its own jets."""
    t = np.array(jets.nodes)
    f, g, h = (np.array(js) for js in (jets.fjets, jets.gjets, jets.hjets))
    return _av_profile(t, f, g, h[:, 0], m, delta_grid(t[-1] - t[0], np.diff(t).min()))


def drift_jets(nodes, m):
    # (t, 0, t): constant unit drift in x and z.
    return CurveJets.from_polys(
        nodes, Poly((0.0, 1.0)), Poly((0.0,)), Poly((0.0, 1.0)), m
    )


def test_flat_line_pair_is_zero_area():
    jets = CurveJets.from_polys(
        [0.0, 1.0], Poly((0.0, 1.0)), Poly((0.0,)), Poly((0.0,)), 1
    )
    pair = av_pair(jets, 0.0, 1.0, 1)
    assert pair.area == pytest.approx(0.0, abs=1e-15)
    assert pair.velocity == pytest.approx(2.0, abs=1e-12)
    assert pair.ratio == pytest.approx(0.0, abs=1e-15)


def test_drift_line_pair_is_half():
    pair = av_pair(drift_jets([0.0, 1.0], 1), 0.0, 1.0, 1)
    assert pair.area == pytest.approx(1.0, abs=1e-12)
    assert pair.velocity == pytest.approx(2.0, abs=1e-12)
    assert pair.ratio == pytest.approx(0.5, abs=1e-12)


def test_circle_ratio_vanishes_linearly():
    ratios = []
    for h in (0.4, 0.2, 0.1, 0.05, 0.025):
        jets = circle_jets([0.0, h], 2)
        pair = av_pair(jets, 0.0, h, 2)
        want_area = area_oracle(jets, 0.0, h, 2)
        assert abs(pair.area - want_area) <= 1e-12 * (1.0 + abs(want_area))
        assert abs(pair.ratio) <= 0.01 * h
        ratios.append(abs(pair.ratio))
    for big, small in zip(ratios, ratios[1:]):
        assert small <= 0.6 * big


def test_area_matches_oracle_on_random_jets():
    rng = np.random.default_rng(7)
    for m in (1, 2, 3):
        for _ in range(25):
            pf = random_poly(rng, m + 2)
            pg = random_poly(rng, m + 2)
            ph = random_poly(rng, m + 2)
            nodes = distinct_nodes(rng, 4)
            jets = CurveJets.from_polys(nodes, pf, pg, ph, m)
            a, b = nodes[0], nodes[-1]
            want = area_oracle(jets, a, b, m)
            got = av_pair(jets, a, b, m).area
            assert abs(got - want) <= 1e-10 * (1.0 + abs(want))


def test_area_swap_antisymmetry_for_low_degree():
    rng = np.random.default_rng(11)
    for m in (1, 2, 3):
        for _ in range(67):
            pf = random_poly(rng, m)
            pg = random_poly(rng, m)
            ph = random_poly(rng, m)
            nodes = distinct_nodes(rng, 3)
            jets = CurveJets.from_polys(nodes, pf, pg, ph, m)
            a, b = nodes[0], nodes[2]
            fwd = area_discrepancy(jets, a, b, m)
            rev = area_discrepancy(jets, b, a, m)
            assert abs(fwd + rev) <= 1e-10 * (1.0 + abs(fwd))


def test_area_discrepancy_isolates_no_root(monkeypatch):
    # A needs no sign change of p' or q', so area_discrepancy gives the same
    # value, in either orientation, with the root isolation made to fail.
    rng = np.random.default_rng(19)
    pairs = []
    for m in (1, 2, 3):
        nodes = distinct_nodes(rng, 3)
        jets = CurveJets.from_polys(nodes, *(random_poly(rng, m + 2) for _ in "fgh"), m)
        pairs += [(jets, nodes[0], nodes[2], m), (jets, nodes[2], nodes[0], m)]
    want = [area_discrepancy(*pair) for pair in pairs]

    def fail(*_):
        raise AssertionError("area_discrepancy isolated roots")

    monkeypatch.setattr(av, "_roots", fail)
    assert [area_discrepancy(*pair) for pair in pairs] == want


def test_av_left_invariance():
    rng = np.random.default_rng(13)
    for m in (1, 2, 3):
        for _ in range(20):
            pf = random_poly(rng, m + 2)
            pg = random_poly(rng, m + 2)
            ph = random_poly(rng, m + 2)
            nodes = distinct_nodes(rng, 3)
            jets = CurveJets.from_polys(nodes, pf, pg, ph, m)
            p = HPoint(*rng.uniform(-2.0, 2.0, size=3))
            base = av_pair(jets, nodes[0], nodes[-1], m)
            moved = av_pair(jets.translated(p), nodes[0], nodes[-1], m)
            assert abs(moved.area - base.area) <= 1e-10 * (1.0 + abs(base.area))
            assert abs(moved.velocity - base.velocity) <= 1e-10 * (
                1.0 + base.velocity
            )


def test_velocity_lower_bound():
    rng = np.random.default_rng(17)
    for m in (1, 2, 3):
        for _ in range(30):
            pf = random_poly(rng, m + 1)
            pg = random_poly(rng, m + 1)
            ph = random_poly(rng, m + 1)
            nodes = distinct_nodes(rng, 2)
            jets = CurveJets.from_polys(nodes, pf, pg, ph, m)
            a, b = nodes
            pair = av_pair(jets, a, b, m)
            assert pair.velocity >= (b - a) ** (2 * m)


def test_av_pair_rejects_bad_endpoints():
    jets = drift_jets([0.0, 0.5, 1.0], 1)
    with pytest.raises(OrderViolationError):
        av_pair(jets, 1.0, 0.0, 1)
    with pytest.raises(OrderViolationError):
        av_pair(jets, 0.5, 0.5, 1)
    with pytest.raises(NodeNotFoundError):
        av_pair(jets, 0.0, 0.25, 1)
    with pytest.raises(OrderViolationError):  # jets of order 1 at m = 2
        av_pair(jets, 0.0, 1.0, 2)
    with pytest.raises(OrderViolationError):
        area_discrepancy(jets, 0.5, 0.5, 1)


def test_avpair_requires_positive_velocity():
    with pytest.raises(ValueError):
        AVPair(1.0, 0.0)


def anchor_node_sets(rng, n):
    """Spread nodes, clustered nodes (gaps near 1e-6) and nodes near 1e3."""
    gaps = np.where(rng.random(n - 1) < 0.5, 1e-6 * rng.uniform(0.5, 2.0, n - 1), 0.1)
    return (
        np.sort(rng.uniform(0.0, 1.0, n)),
        np.concatenate([[0.0], np.cumsum(gaps)]),
        1e3 + np.sort(rng.uniform(0.0, 1.0, n)),
    )


@pytest.mark.parametrize("m", [1, 2, 3])
def test_anchor_kernel_matches_the_per_pair_oracle(m):
    # The anchor kernel isolates each node's roots once, on the hull of
    # its pairs; the oracle isolates them per pair.  The rows and the
    # Horner are the same, so A agrees bit for bit; V only moves where the
    # roots' tolerances land.
    rng = np.random.default_rng(60 + m)
    for n in (2, 3, 4, 5, 8, 13, 21, 40):
        for t in anchor_node_sets(rng, n):
            f, g, h = rng.uniform(-1.0, 1.0, (3, n, m + 1))
            ia, ib = np.triu_indices(n, 1)
            u = t[ib] - t[ia]
            want_area, want_velocity = taylor_av_by_pairs(f, g, h, ia, ib, u, m)
            values = np.stack([f[:, 0], g[:, 0], h[:, 0]])
            area, velocity = _taylor_av(t, f[:-1], g[:-1], values, ia, ib, m)
            assert np.array_equal(area, want_area)
            np.testing.assert_allclose(velocity, want_velocity, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_finiteness_anchors_match_the_per_pair_oracle(monkeypatch, m):
    # The scan's own layout: m + 1 anchors per subset, each with the hull
    # [0, u_last - u_anchor], and derivative jets at the anchors only.
    calls = []

    def recording(*args):
        calls.append((args, _taylor_av(*args)))
        return calls[-1][1]

    monkeypatch.setattr(horizontal, "_taylor_av", recording)
    rng = np.random.default_rng(67 + m)
    nodes = distinct_nodes(rng, 9)
    curve = SampledCurve.from_rows([(t, *rng.uniform(-1.0, 1.0, 3)) for t in nodes])
    finiteness_check(curve, m, ModulusFn(1.0, 1.0), full_enum=True)
    ((t, f, g, values, got_ia, got_ib, _), (area, velocity)), = calls
    ia, ib = np.triu_indices(m + 2, 1)
    assert np.array_equal(got_ia, ia) and np.array_equal(got_ib, ib)
    # The last node anchors no pair: its jets need only their values.
    full = np.zeros((2,) + values.shape[1:] + (m + 1,))
    full[:, :, :-1], full[:, :, -1, 0] = (f, g), values[:2, :, -1]
    u = t[:, ib] - t[:, ia]
    want_area, want_velocity = taylor_av_by_pairs(*full, values[2][..., None], ia, ib, u, m)
    assert np.array_equal(area, want_area)
    np.testing.assert_allclose(velocity, want_velocity, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_reversed_pair_area_matches_the_per_pair_oracle(m):
    rng = np.random.default_rng(64 + m)
    for t in anchor_node_sets(rng, 6):
        f, g, h = rng.uniform(-1.0, 1.0, (3, len(t), m + 1))
        jets = CurveJets(tuple(t.tolist()), *(tuple(map(tuple, j)) for j in (f, g, h)))
        # (j, i) is the reversed pair: u = t[i] - t[j] < 0, hull [u, 0].
        for i, j in itertools.combinations(range(len(t)), 2):
            for a, b in ((i, j), (j, i)):
                want, _ = taylor_av_by_pairs(f, g, h, [a], [b], t[[b]] - t[[a]], m)
                assert area_discrepancy(jets, float(t[a]), float(t[b]), m) == want[0]


def test_anchor_kernel_isolates_roots_once_per_anchor(monkeypatch):
    # One _roots row per anchor and derivative (p' and q'), not per pair:
    # 3 anchors in each of the C(13, 4) subsets at m = 2, n - 1 anchors on
    # the nodes of check_cm_via_w.
    rows = []

    def counting_roots(c, lo, hi):
        rows.append(int(np.prod(c.shape[:-1])))
        return roots(c, lo, hi)

    roots = av._roots
    monkeypatch.setattr(av, "_roots", counting_roots)
    finiteness_check(circle_curve(13), 2, ModulusFn(1.0, 1.0), full_enum=True)
    assert sum(rows) == 2 * 715 * 3
    rows.clear()
    check_cm_via_w(circle_curve(33), 2)
    assert sum(rows) == 2 * 32


def test_discrete_drift_pair_frozen():
    curve = SampledCurve.from_rows([(0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 0.0, 1.0)])
    pair = discrete_av_pair(curve, [0.0, 1.0], 0.0, 1.0, 1)
    assert pair.area == pytest.approx(1.0, abs=1e-12)
    assert pair.velocity == pytest.approx(2.0, abs=1e-12)


def test_discrete_horizontal_poly_area_vanishes():
    rng = np.random.default_rng(19)
    for m in (1, 2, 3):
        pf, pg, ph = bounded_horizontal_triple(rng, m)
        nodes = [i / 7.0 for i in range(8)]
        curve = poly_curve(pf, pg, ph, nodes)
        for lo in range(len(nodes) - m):
            x = nodes[lo : lo + m + 1]
            pair = discrete_av_pair(curve, x, x[0], x[-1], m)
            assert abs(pair.area) <= 1e-10


def test_discrete_left_invariance():
    rng = np.random.default_rng(23)
    for m in (1, 2, 3):
        pf = random_poly(rng, m + 2)
        pg = random_poly(rng, m + 2)
        ph = random_poly(rng, m + 2)
        nodes = sorted(distinct_nodes(rng, m + 3))
        rows = [(t, pf(t), pg(t), ph(t)) for t in nodes]
        p = HPoint(*rng.uniform(-2.0, 2.0, size=3))
        moved_rows = [
            (t, *group_mul(p, HPoint(x, y, z))) for t, x, y, z in rows
        ]
        curve = SampledCurve.from_rows(rows)
        moved = SampledCurve.from_rows(moved_rows)
        x = nodes[: m + 1]
        base_pair = discrete_av_pair(curve, x, x[0], x[-1], m)
        moved_pair = discrete_av_pair(moved, x, x[0], x[-1], m)
        assert abs(moved_pair.area - base_pair.area) <= 1e-10 * (
            1.0 + abs(base_pair.area)
        )
        assert abs(moved_pair.velocity - base_pair.velocity) <= 1e-10 * (
            1.0 + base_pair.velocity
        )


@pytest.mark.parametrize("m", [1, 2, 3])
def test_discrete_pair_equals_the_scan_kernel_on_its_table_row(m):
    # discrete_av_pair builds its rows as the scan's Newton table does, so
    # its A and V are the kernel's on the table row, bit for bit, wherever
    # the nodes sit.  A random scale takes the nodes off numpy's 2**-53
    # grid, where every node difference would be exact.  The diameter goes
    # in as an array, as in the scan: a NumPy scalar's ** rounds otherwise.
    rng = np.random.default_rng(41 + m)
    for offset in (0.0, *rng.uniform(-1e3, 1e3, 5)):
        scale = rng.uniform(0.1, 10.0)
        nodes = [offset + scale * t for t in distinct_nodes(rng, m + 4)]
        curve = SampledCurve.from_rows([(t, *rng.uniform(-1.0, 1.0, 3)) for t in nodes])
        table = _subset_table(curve, subset_rows(len(nodes), m, len(nodes)))
        (pf, pg), u, hs = table.polys(2), table.u, np.array(curve.hs)[table.idx]
        rows = rng.choice(len(u), 5, replace=False)
        for s, (i, j) in itertools.product(rows, itertools.combinations(range(m + 1), 2)):
            hull = u[s, 0], u[s, -1]
            area, velocity = _av(
                pf[s], pg[s], hull, None, u[s, [i]], u[s, [j]], hs[s, [i]], hs[s, [j]], u[s, -1:], m
            )
            x = table.xs[s].tolist()
            pair = discrete_av_pair(curve, x, x[i], x[j], m)
            assert (pair.area, pair.velocity) == (area[0], velocity[0])


def _subset_samples(family, layout, m, rng):
    """m + 1 samples of a circle, poly or drift curve, on nodes spread over an
    interval, clustered in it, or far from t = 0."""
    lo = rng.uniform(-1.0, 1.0)
    if layout == "far":
        lo = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(2.0, 6.0)
    gaps = rng.uniform(0.1, 1.0, m)
    if layout == "clustered":
        gaps *= np.where(rng.random(m) < 0.5, 10.0 ** rng.uniform(-9.0, -5.0, m), 1.0)
    ts = lo + 10.0 ** rng.uniform(-3.0, 0.0) * np.cumsum([0.0, *gaps]) / gaps.sum()
    if family == "circle":
        r, w, phase = rng.uniform(0.5, 2.0), rng.uniform(1.0, 3.0), rng.uniform(0.0, 6.3)
        rows = [(t, r * np.cos(w * t + phase), r * np.sin(w * t + phase), -2.0 * r * r * w * t)
                for t in ts]
    elif family == "poly":
        pf, pg, ph = bounded_horizontal_triple(rng, 3)
        rows = [(t, pf(t - lo), pg(t - lo), ph(t - lo)) for t in ts]
    else:
        s = rng.uniform(0.5, 2.0)
        rows = [(t, t, 0.0, s * t) for t in ts]
    return SampledCurve.from_rows([tuple(map(float, row)) for row in rows])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["circle", "poly", "drift"]),
       st.sampled_from(["spread", "clustered", "far"]), st.integers(1, 3),
       st.integers(0, 2**32 - 1))
def test_discrete_area_is_the_exact_area_to_first_order(family, layout, m, seed):
    # The scan's A against exact rational arithmetic on the same float
    # samples.  8 (m + 1) eps times the size of A's terms generously counts
    # the roundings one term passes through: the divided-difference levels,
    # the Newton-to-monomial steps, the product sums and the two Horner
    # passes.  18,900 subsets from this generator stayed below 0.82 eps times it.
    curve = _subset_samples(family, layout, m, np.random.default_rng(seed))
    table = _subset_table(curve, np.arange(m + 1)[None])
    ia, ib = np.triu_indices(m + 1, 1)
    area, _ = _discrete_av(table, np.array(curve.hs), ia, ib, m)
    bound = 8 * (m + 1) * Fraction(np.finfo(float).eps)
    for got, a, b in zip(area[0].tolist(), ia, ib):
        exact, size = exact_discrete_area(curve.nodes, curve.fs, curve.gs, curve.hs, a, b)
        assert abs(Fraction(got) - exact) <= bound * size


def test_discrete_pair_rejects_bad_subsets():
    curve = line_curve(5)
    nodes = curve.nodes
    with pytest.raises(BadSubsetError):
        discrete_av_pair(curve, nodes[:3], nodes[0], nodes[2], 1)
    with pytest.raises(BadSubsetError):
        discrete_av_pair(curve, [nodes[0], 0.123], nodes[0], 0.123, 1)
    with pytest.raises(BadSubsetError):
        discrete_av_pair(curve, nodes[:2], nodes[0], nodes[2], 1)
    with pytest.raises(OrderViolationError):
        discrete_av_pair(curve, nodes[:2], nodes[1], nodes[0], 1)


def test_discrete_pair_rejects_nodes_outside_the_samples():
    # The node lookup is a searchsorted: a value past the last node lands at
    # index n, which is clamped to the last node and must not match it.
    curve = line_curve(5)
    nodes = curve.nodes
    for outside in (nodes[-1] + 0.5, nodes[0] - 0.5):
        subset = sorted([nodes[0] if outside > nodes[0] else nodes[-1], outside])
        with pytest.raises(BadSubsetError):
            discrete_av_pair(curve, subset, *subset, 1)


def test_profile_single_pair_is_the_ratio():
    jets = circle_jets([0.0, 0.3], 1)
    prof = av_profile(jets, 1)
    pair = av_pair(jets, 0.0, 0.3, 1)
    assert len(prof.points) == 1
    assert prof.points[0][1] == pytest.approx(abs(pair.ratio), rel=1e-12)


def test_profiles_vanish_for_horizontal_polynomials():
    rng = np.random.default_rng(29)
    for m in (1, 2, 3):
        pf, pg, ph = bounded_horizontal_triple(rng, m)
        nodes = [i / 31.0 for i in range(32)]
        jets = CurveJets.from_polys(nodes, pf, pg, ph, m)
        cont = av_profile(jets, m)
        assert all(v <= 1e-9 for _, v in cont.points)
        disc = check_cm(poly_curve(pf, pg, ph, nodes), m).profiles["av_discrete"]
        assert all(v <= 1e-9 for _, v in disc.points)


def test_drift_profiles_stay_bounded_below():
    curve = line_curve(17)
    disc = check_cm(curve, 1).profiles["av_discrete"]
    assert disc.points
    assert all(v >= 0.4 for _, v in disc.points)
    jets = drift_jets([i / 16.0 for i in range(17)], 1)
    cont = av_profile(jets, 1)
    assert all(v >= 0.4 for _, v in cont.points)


def test_profiles_reject_too_few_nodes():
    curve = line_curve(3)
    with pytest.raises(TooFewNodesError):
        check_cm(curve, 3)
    with pytest.raises(TooFewNodesError):
        check_cm_via_w(curve, 3)


def test_profile_deltas_strictly_decrease():
    curve = line_curve(33)
    prof = check_cm(curve, 1).profiles["av_discrete"]
    deltas = [d for d, _ in prof.points]
    assert all(big > small for big, small in zip(deltas, deltas[1:]))
