"""dd profiles from interval extrema against the pair scan they replace.

_DDProfiles reads each index interval's largest |gamma[X] - gamma[Y]| from
running extrema, fed the scan's table in slices.  The oracle here lists
every qualifying pair of rows of the whole table the way the scan used to,
and both must give the same profiles bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heiswhit.cli import main
from heiswhit.divdiff import SampledCurve, _DDProfiles, _Scan, _subset_table, dd_windows
from heiswhit.profiles import banded_sup, delta_grid

from conftest import circle_curve, dump_samples_json


def dd_profiles_by_pairs(table, deltas):
    """Brute force: one item per pair of rows whose union spans < width indices.

    Rows are sorted, so the union of row i and a later row j starts at
    idx[i, 0], and only rows before stop[i] can qualify.
    """
    idx, width, xs = table.idx, table.width, table.xs
    first, rows = idx[:, 0], np.arange(len(idx))
    stop = np.searchsorted(first, first + width)
    offsets = np.arange(1, (stop - rows).max())
    i, k = np.nonzero(rows[:, None] + offsets < stop[:, None])
    j = i + offsets[k]
    keep = idx[j, -1] - first[i] < width
    i, j = i[keep], j[keep]
    diams = np.maximum(xs[i, -1], xs[j, -1]) - xs[i, 0]
    top = table.dd[..., -1]
    return {
        f"dd_{name}": banded_sup(
            np.column_stack((diams, np.abs(top[c, i] - top[c, j]))), deltas, name=f"dd_{name}"
        )
        for c, name in enumerate("fgh")
    }


def sample(family, n, seed):
    """Jittered nodes in [0, 1]: a horizontal circle, random values, or drift."""
    rng = np.random.default_rng(seed)
    ts = np.linspace(0.0, 1.0, n)
    ts[1:-1] += rng.uniform(-0.25, 0.25, n - 2) / (n - 1)
    if family == "circle":
        rows = [(t, math.cos(2 * t), math.sin(2 * t), -4.0 * t) for t in ts]
    elif family == "rough":
        rows = [(t, *rng.normal(size=3)) for t in ts]
    else:  # drift (t, 0, s t): f and h linear, so the items are rounding noise
        s = rng.uniform(0.5, 2.0)
        rows = [(t, t, 0.0, s * t) for t in ts]
    return SampledCurve.from_rows(rows)


def width_of(n, m, window):
    """The scan's width: window nodes, 2m+4 by default, at most n."""
    return min(n, 2 * m + 4 if window is None else window)


def both(samples, m, window=None):
    """The dd profiles fed in slices of 7 subsets, and the oracle's on the whole table."""
    width = width_of(len(samples.nodes), m, window)
    scan = _Scan(samples, dd_windows(len(samples.nodes), m, width)[0], width, 7)
    deltas = delta_grid(samples.diam, samples.min_gap)
    dd = _DDProfiles(scan)
    for table in scan.tables():
        dd.add(table)
    table = _subset_table(samples, scan.idx, width)
    return dd.profiles(deltas), dd_profiles_by_pairs(table, deltas)


# The oracle's pair mask has about K * min(K, width * C(width - 1, m)) entries
# for K subsets; larger cases shrink n until it fits.
MASK_BUDGET = 2_000_000


def mask_size(n, m, window):
    width = width_of(n, m, window)
    per_first = math.comb(width - 1, m)
    subsets = min(n * per_first, math.comb(n, m + 1))
    return subsets * min(subsets, width * per_first)


@st.composite
def scans(draw):
    m = draw(st.sampled_from((1, 2, 3)))
    n = draw(st.integers(m + 2, 60))
    window = draw(st.none() | st.integers(m + 2, n + 2))
    full_enum = draw(st.booleans())  # a window spanning every node
    while mask_size(n, m, n if full_enum else window) > MASK_BUDGET:
        n -= 1
    family = draw(st.sampled_from(("circle", "rough", "drift")))
    return sample(family, n, draw(st.integers(0, 2**16))), m, n if full_enum else window


@settings(max_examples=50, deadline=None)
@given(scans())
def test_interval_extrema_equal_the_pair_scan(scan):
    samples, m, window = scan
    got, want = both(samples, m, window)
    assert got == want


# Drift at m=1 with window 9: a rule that only pairs the rows starting at s
# with the rows ending at e misses the band where the largest item pairs a
# row spanning [s, e] with one strictly inside it.
@pytest.mark.parametrize("n,seed", [(64, 1), (12, 7)])
def test_drift_window_9_needs_the_spanning_rows(n, seed):
    got, want = both(sample("drift", n, seed), 1, window=9)
    assert got == want


@pytest.mark.parametrize("family", ["circle", "rough", "drift"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_smallest_window_pairs_only_intervals_of_span_m_plus_1(family, m):
    got, want = both(sample(family, 30, m), m, window=m + 2)
    assert got == want
    assert all(len(p) > 0 for p in got.values())


@pytest.mark.parametrize("m", [1, 2, 3])
def test_intervals_holding_one_subset_give_no_item(m):
    # A window of m + 1 nodes holds consecutive subsets only, no pair of them
    # fits, and an interval holding one subset must not put a 0 in a band.
    samples = sample("rough", 20, m)
    got, want = both(samples, m, window=m + 1)
    assert got == want
    assert all(len(p) == 0 for p in got.values())
    # m + 2 nodes: every pair's union is the whole interval, one item.
    got, want = both(sample("rough", m + 2, m), m, window=m + 2)
    assert got == want
    assert all(len(p) == 1 for p in got.values())


def test_signed_zero_samples_give_the_pair_scan_zeros():
    rows = [(i / 11, -0.0 if i % 3 else 0.0, 0.0 * (-1) ** i, 1.0) for i in range(12)]
    got, want = both(SampledCurve.from_rows(rows), 1)
    assert repr(got) == repr(want)


# The pair mask once held K x K entries for K subsets under full
# enumeration: n=30 at m=3 ran out of memory and n=40 at m=2 took 13 s.
@pytest.mark.parametrize("n,m", [(30, 3), (40, 2)])
def test_full_enumeration_check_cm_fits(tmp_path, n, m):
    path = tmp_path / "circle.json"
    dump_samples_json(circle_curve(n), str(path))
    argv = ["--mode", "check-cm", "--m", str(m), "--full-enum", "--input", str(path),
            "--report", str(tmp_path / "report.json")]
    assert main(argv) == 0
