"""The shared subset scan of check_cm and the single horizontality residual.

check_cm's dd profiles pair two (m+1)-subsets when their union spans fewer
than the window width; the oracle here pairs them window by window instead,
the way the scan used to, and both must give the same profiles bit for bit.
The same goes for the subsets themselves (collected window by window into a
set) and for check_c1 (one Pansu quotient per node pair, from the group law).  Its discrete AV profile
is checked against one discrete_av_pair per subset and endpoint pair.
"""

import csv
import itertools
import math

import numpy as np
import pytest

from conftest import (
    bounded_horizontal_triple, circle_curve, dump_samples_json, line_curve, poly_curve,
)
from heiswhit import (
    ModulusFn, SampledCurve, ThresholdPolicy, check_c1, check_cm, check_cm_via_w,
    discrete_av_pair, finiteness_check, synthesize,
)
from heiswhit.cli import RunConfig, run
from heiswhit import divdiff
from heiswhit.divdiff import _scan, dd_windows, divided_difference
from heiswhit.errors import TooFewNodesError
from heiswhit.heis import _horizontality_residual, dilate, group_mul, horizontality_defect, inverse
from heiswhit.profiles import banded_sup, delta_grid


def dd_profile_by_windows(samples, m, window, deltas):
    """Brute force: every pair of subsets that share one sliding window."""
    nodes = samples.nodes
    n = len(nodes)
    width = min(n, window)
    comps = {"f": samples.fs, "g": samples.gs, "h": samples.hs}
    dd, pairs = {}, set()
    for start in range(max(1, n - width + 1)):
        window_nodes = range(start, min(start + width, n))
        local = list(itertools.combinations(window_nodes, m + 1))
        for sub in local:
            x = [nodes[i] for i in sub]
            dd[sub] = {
                c: divided_difference([v[i] for i in sub], x) for c, v in comps.items()
            }
        pairs.update(itertools.combinations(local, 2))
    items = {c: [] for c in comps}
    for s1, s2 in pairs:
        d = nodes[max(s1[-1], s2[-1])] - nodes[min(s1[0], s2[0])]
        for c in comps:
            items[c].append((d, abs(dd[s1][c] - dd[s2][c])))
    return {c: banded_sup(items[c], deltas, name=f"dd_{c}") for c in comps}


def av_profile_by_subsets(samples, m, window, deltas):
    """Brute force: one discrete_av_pair per subset and endpoint pair."""
    nodes = samples.nodes
    items = []
    for sub in dd_windows_by_set(len(nodes), m, window)[0]:
        x = [nodes[i] for i in sub]
        for a, b in itertools.combinations(x, 2):
            items.append((x[-1] - x[0], abs(discrete_av_pair(samples, x, a, b, m).ratio)))
    return banded_sup(items, deltas, name="discrete_av_ratio")


def dd_of(verdict):
    return {c: verdict.profiles[f"dd_{c}"] for c in "fgh"}


def rough_curve(n, seed):
    """Jittered nodes with random samples, so no two subsets tie by accident."""
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 1.0, n)
    ts[1:-1] += rng.uniform(-0.25, 0.25, n - 2) / (n - 1)
    return SampledCurve.from_rows([(t, *rng.normal(size=3)) for t in ts])


def smooth_curve(n):
    ts = np.linspace(0.0, 1.0, n) + 3.0
    return SampledCurve.from_rows(
        [(float(t), math.sin(2 * t), math.cos(3 * t), t ** 3) for t in ts]
    )


def sizes(m):
    width = 2 * m + 4
    return {"m+2": m + 2, "width-1": width - 1, "width": width,
            "width+1": width + 1, "3*width": 3 * width}


# Full enumeration (a window of n) at n = 3 * width would pair C(K, 2) ~ 10^8
# subsets for m = 3 in the oracle, so it covers the sizes up to width + 1.
CASES = [
    (m, label, full_enum)
    for m in (1, 2, 3)
    for label in sizes(m)
    for full_enum in (False, True)
    if not (full_enum and label == "3*width")
]


def dd_windows_by_set(n, m, window):
    """Brute force: every window's combinations, deduplicated and sorted."""
    width = min(n, window)
    seen = set()
    for start in range(0, max(1, n - width + 1)):
        idx = range(start, min(start + width, n))
        for sub in itertools.combinations(idx, m + 1):
            seen.add(sub)
    return sorted(seen), width


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("full_enum", [False, True])
def test_dd_windows_match_the_window_by_window_set(m, full_enum):
    for n in sizes(m).values():
        width = n if full_enum else min(n, 2 * m + 4)
        subsets, span = dd_windows(n, m, width)
        assert (list(map(tuple, subsets.tolist())), span) == dd_windows_by_set(n, m, width)


def pansu_dq(pa, pb, a, b):
    """The Pansu quotient delta_{1/(b-a)}(pa^-1 * pb), from the group law."""
    return dilate(1.0 / (b - a), group_mul(inverse(pa), pb))


def check_c1_by_pairs(samples, deltas):
    """Brute force: one pansu_dq per node pair, items collected one by one."""
    nodes, points = samples.nodes, samples.points
    n = len(nodes)
    steps = [pansu_dq(points[i], points[i + 1], nodes[i], nodes[i + 1]) for i in range(n - 1)]
    means = []
    for i in range(n):
        qs = steps[max(i - 1, 0) : i + 1]
        means.append((sum(q.x for q in qs) / len(qs), sum(q.y for q in qs) / len(qs)))
    xy_items, z_items = [], []
    for i, j in itertools.combinations(range(n), 2):
        q = pansu_dq(points[i], points[j], nodes[i], nodes[j])
        d = nodes[j] - nodes[i]
        z_items.append((d, abs(q.z)))
        for anchor in (i, j):
            mx, my = means[anchor]
            xy_items.append((d, max(abs(q.x - mx), abs(q.y - my))))
    return {
        "pansu_xy_osc": banded_sup(xy_items, deltas, name="pansu_xy_osc"),
        "pansu_z": banded_sup(z_items, deltas, name="pansu_z"),
    }


@pytest.mark.parametrize("family", ["circle", "poly", "drift"])
@pytest.mark.parametrize("n", [2, 3, 40])
def test_check_c1_matches_one_quotient_per_pair(family, n):
    if family == "poly":
        triple = bounded_horizontal_triple(np.random.default_rng(n), 2)
        samples = poly_curve(*triple, [i / max(n - 1, 1) + 0.3 for i in range(n)])
    else:
        samples = (circle_curve if family == "circle" else line_curve)(n)
    verdict = check_c1(samples)
    deltas = delta_grid(samples.diam, samples.min_gap)
    want = check_c1_by_pairs(samples, deltas)
    assert verdict.profiles == want
    assert verdict.statuses == {k: ThresholdPolicy().classify(p)[0] for k, p in want.items()}


@pytest.mark.parametrize("m,label,full_enum", CASES)
def test_dd_profile_matches_window_by_window_pairing(m, label, full_enum):
    n = sizes(m)[label]
    samples = rough_curve(n, seed=10 * m + n)
    deltas = delta_grid(samples.diam, samples.min_gap)
    got = dd_of(check_cm(samples, m, window=n if full_enum else None))
    want = dd_profile_by_windows(samples, m, n if full_enum else 2 * m + 4, deltas)
    assert got == want


@pytest.mark.parametrize("window", [3, 5, 9, 40])
def test_dd_profile_matches_window_by_window_pairing_for_given_window(window):
    samples = smooth_curve(15)
    deltas = delta_grid(samples.diam, samples.min_gap)
    if window < 4:  # a window below m + 2 nodes holds no pair to compare
        with pytest.raises(TooFewNodesError):
            check_cm(samples, 2, window=window)
        return
    got = dd_of(check_cm(samples, 2, window=window))
    assert got == dd_profile_by_windows(samples, 2, window, deltas)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("window,full_enum,n", [(None, False, 14), (9, False, 14),
                                                (None, True, 11)])
def test_check_cm_profiles_equal_the_standalone_profiles(m, window, full_enum, n):
    if full_enum:
        window = n
    width = 2 * m + 4 if window is None else window
    for samples in (circle_curve(n), smooth_curve(n), rough_curve(n, seed=m)):
        verdict = check_cm(samples, m, window=window)
        deltas = delta_grid(samples.diam, samples.min_gap)
        assert dd_of(verdict) == dd_profile_by_windows(samples, m, width, deltas)
    # One discrete_av_pair per subset and pair takes about 1 ms at m = 3
    # (3,276 calls here), so only on the last curve, the rough one, and up
    # to m = 2.  A pair's roots are bracketed on its own hull there and on
    # the subset's in the scan, so the values agree to rounding.
    if m < 3:
        got = verdict.profiles["av_discrete"].points
        want = av_profile_by_subsets(samples, m, width, deltas).points
        assert [d for d, _ in got] == [d for d, _ in want]
        for (_, v), (_, w) in zip(got, want):
            assert abs(v - w) <= 1e-12 * w


# One subset-family rule: a window of at least n spans every node.  The
# checkers enumerate fully with window=n; finiteness_check's full_enum is that
# window, and by default it enumerates fully up to 20 nodes.
FAMILY_SCANS = {
    "check_cm": lambda s, **kw: check_cm(s, 2, **kw),
    "check_cm_via_w": lambda s, **kw: check_cm_via_w(s, 2, **kw),
    "finiteness_check": lambda s, **kw: finiteness_check(
        s, 1, ModulusFn(), **{"full_enum": False, **kw}
    ),
}


@pytest.mark.parametrize("scan", FAMILY_SCANS.values(), ids=FAMILY_SCANS)
def test_full_enum_equals_a_window_spanning_every_node(scan):
    n = 12
    samples = smooth_curve(n)
    full = scan(samples, window=n)
    assert scan(samples, window=n + 5) == full
    if scan is FAMILY_SCANS["finiteness_check"]:
        assert scan(samples, full_enum=True) == full
        with pytest.raises(TooFewNodesError):  # a window below m + 2 is not widened
            scan(samples, full_enum=True, window=2)


def test_dd_windows_default_to_the_scan_window():
    def table(n, m, window):
        return _scan(smooth_curve(n), m, window)[0]

    for m in (1, 2, 3):
        got, (want, width) = table(30, m, None), dd_windows(30, m, 2 * m + 4)
        assert got.width == width and np.array_equal(got.idx, want)
        assert table(12, m, None).width < table(12, m, 12).width == 12


@pytest.mark.parametrize("window,full_enum", [(None, False), (9, False), (None, True)])
def test_check_cm_via_w_reads_the_dd_profiles_of_check_cm(window, full_enum):
    for samples in (smooth_curve(14), rough_curve(14, seed=3)):
        if full_enum:
            window = len(samples.nodes)
        cm = check_cm(samples, 2, window=window)
        via_w = check_cm_via_w(samples, 2, window=window)
        for name in ("dd_f", "dd_g", "dd_h"):
            assert via_w.profiles[name] == cm.profiles[name]


def test_scan_readers_expand_only_the_rows_they_read(monkeypatch):
    # The table holds Newton coefficients: the dd profiles read their top
    # column, check_cm expands f and g for its discrete AV, and the
    # finiteness scan all three.
    calls = []

    def recording(coeffs, xs):
        calls.append(coeffs.shape[0])
        return monomial_rows(coeffs, xs)

    monomial_rows = divdiff._monomial_rows
    monkeypatch.setattr(divdiff, "_monomial_rows", recording)
    samples = smooth_curve(14)
    check_cm_via_w(samples, 2)
    assert calls == []
    check_cm(samples, 2)
    assert calls == [2]
    calls.clear()
    finiteness_check(samples, 1, ModulusFn())
    assert calls == [3]


def test_readers_take_the_sample_arrays_and_nobody_writes_them(monkeypatch):
    # SampledCurve builds its node and value arrays once, and every reader
    # takes those: none reads the sample tuples fs, gs and hs.
    samples = circle_curve(14)
    nodes = samples.nodes

    def synthesized():
        curve = synthesize(samples, 2)
        tables = [ext._table(0).tolist() for ext in (curve.f, curve.g, curve.h)]
        return curve.defect, curve.bump_amplitudes, curve.modulus, curve.audit, tables

    calls = {
        "check_c1": lambda: check_c1(samples),
        "check_cm": lambda: check_cm(samples, 2),
        "check_cm_via_w": lambda: check_cm_via_w(samples, 2),
        "synthesize": synthesized,
        "finiteness_check": lambda: finiteness_check(samples, 2, ModulusFn()),
        "discrete_av_pair": lambda: discrete_av_pair(samples, nodes[3:6], nodes[3], nodes[5], 2),
    }
    want = {name: call() for name, call in calls.items()}

    def unread(self):
        raise AssertionError("a sample tuple was read")

    for name in ("fs", "gs", "hs"):
        monkeypatch.setattr(SampledCurve, name, property(unread))
    assert {name: call() for name, call in calls.items()} == want
    for array in (samples._t, samples._xyz):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


@pytest.mark.parametrize("n", [20, 21])
def test_finiteness_enumerates_fully_up_to_20_nodes(n):
    samples, omega = smooth_curve(n), ModulusFn()
    default = finiteness_check(samples, 1, omega)
    assert default == finiteness_check(samples, 1, omega, full_enum=n <= 20)
    assert (default.subsets_scanned == math.comb(n, 3)) == (n <= 20)


def test_grid_defect_column_is_the_heis_residual(tmp_path):
    samples = circle_curve(12)
    input_path = tmp_path / "circle.json"
    grid_path = tmp_path / "grid.csv"
    dump_samples_json(samples, str(input_path))
    config = RunConfig(
        mode="synthesize",
        input_path=str(input_path),
        m=2,
        report_path=str(tmp_path / "report.json"),
        grid_out=str(grid_path),
        grid_samples=257,
    )
    assert run(config) == 0
    with open(grid_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    ts = np.array([float(r[0]) for r in rows])
    defect = [float(r[4]) for r in rows]
    curve = synthesize(samples, 2)
    residual = _horizontality_residual(
        curve.f(ts), curve.f(ts, 1), curve.g(ts), curve.g(ts, 1), curve.h(ts, 1)
    )
    assert defect == np.abs(residual).tolist()
    assert max(defect) == horizontality_defect(curve.f, curve.g, curve.h, ts)
