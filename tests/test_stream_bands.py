"""The streamed band reducer: chunking never moves a profile, and memory stays flat.

Every profile builder feeds profiles._BandMax in chunks of at most
CHUNK_PAIRS node pairs.  Band maxima, the finiteness witness and its
running constants do not depend on where the chunks split, so every
budget must give the same report, bit for bit; and the peak memory of a
scan must not grow with its pair or subset count.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import band_max_by_item
from heiswhit import (
    ModulusFn,
    SampledCurve,
    WhitneyField,
    check_c1,
    check_cm,
    check_cm_via_w,
    finiteness_check,
    profiles,
    validate_field,
)
from heiswhit.profiles import _BandMax, _pair_blocks, delta_grid
from heiswhit.whitney import _jets

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


inputs = load(ROOT / "perfbench" / "inputs.py")


def reports(samples, m):
    """repr of every builder's result on the samples at order m: repr is exact on floats."""
    field = WhitneyField(samples.nodes, _jets(samples._t, samples._xyz[0], m))
    omega = ModulusFn(1.0, 1.0)
    return {
        "check_c1": repr(check_c1(samples)),
        "check_cm": repr(check_cm(samples, m)),
        "check_cm_via_w": repr(check_cm_via_w(samples, m)),
        "finiteness_full": repr(finiteness_check(samples, m, omega, full_enum=True)),
        "finiteness_window": repr(finiteness_check(samples, m, omega, window=m + 3)),
        "validate_field": repr(validate_field(field)),
    }


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("family", ["circle", "poly", "drift"])
def test_every_budget_gives_the_same_reports(monkeypatch, family, m):
    samples = SampledCurve.from_rows(inputs.make_rows(5, "stream", family, 9))
    want = reports(samples, m)
    for budget in (1, 7):
        monkeypatch.setattr(profiles, "CHUNK_PAIRS", budget)
        assert reports(samples, m) == want


def test_a_budget_below_the_scan_splits_it(monkeypatch):
    # The finiteness witness and constants run across chunks: on 9 nodes a
    # budget of 7 pairs splits every scan above into many chunks.
    samples = SampledCurve.from_rows(inputs.make_rows(5, "stream", "circle", 9))
    seen = []
    monkeypatch.setattr(profiles, "CHUNK_PAIRS", 7)
    real_add = _BandMax.add

    def counting(self, diams, *values):
        seen.append(len(diams))
        return real_add(self, diams, *values)

    monkeypatch.setattr(_BandMax, "add", counting)
    report = finiteness_check(samples, 2, ModulusFn(1.0, 1.0), full_enum=True)
    assert report.subsets_scanned == math.comb(9, 4)
    assert len(seen) == math.comb(9, 4) and set(seen) == {6}


@st.composite
def chunked_items(draw):
    """Items (diam, value) on a grid, split into chunks, some of them empty.

    Diameters come from the grid itself (ties with the band edges), from
    above its top and from below its bottom; values hold ties, zeros, inf
    and NaN.
    """
    deltas = delta_grid(1.0, draw(st.sampled_from((1.0, 0.3, 2.0**-6))))
    edges = st.sampled_from(deltas + [0.0, 2.0, 1e300])
    diams = st.one_of(edges, st.floats(0.0, 4.0))
    values = st.one_of(st.sampled_from((0.0, 0.5, 1.0, math.inf, math.nan)), st.floats(0.0, 10.0))
    items = draw(st.lists(st.tuples(diams, values), max_size=40))
    cuts = sorted(draw(st.lists(st.integers(0, len(items)), max_size=6)))
    return deltas, items, cuts


@settings(max_examples=200, deadline=None)
@given(chunked_items())
def test_reducer_equals_banded_sup_over_any_chunks(case):
    deltas, items, cuts = case
    bands = _BandMax(deltas)
    for lo, hi in zip([0, *cuts], [*cuts, len(items)]):
        chunk = np.array(items[lo:hi], dtype=float).reshape(-1, 2)
        bands.add(chunk[:, 0], chunk[:, 1])
    assert repr(bands.profile()) == repr(band_max_by_item(items, deltas))


def test_series_share_the_bands_and_combine_by_fmax():
    deltas = delta_grid(1.0, 0.125)
    diams = np.array([1.0, 0.6, 0.3, 0.2, 0.1, 5.0])
    a = np.array([1.0, math.nan, 2.0, 0.5, 0.0, 3.0])
    b = np.array([0.5, 4.0, math.nan, 0.25, math.nan, 1.0])
    bands = _BandMax(deltas, 2)
    bands.add(diams, a, b)
    assert bands.profile(0) == band_max_by_item(zip(diams, a), deltas)
    assert bands.profile(1) == band_max_by_item(zip(diams, b), deltas)
    both = zip(np.tile(diams, 2), np.concatenate((a, b)))
    assert bands.profile() == band_max_by_item(both, deltas)


@pytest.mark.parametrize("budget", [1, 7, 8192])
def test_pair_blocks_are_whole_anchors_within_the_budget(monkeypatch, budget):
    monkeypatch.setattr(profiles, "CHUNK_PAIRS", budget)
    for n in range(2, 41):
        blocks = list(_pair_blocks(n))
        i, j = (np.concatenate(k) for k in zip(*blocks))
        want_i, want_j = np.triu_indices(n, 1)
        assert np.array_equal(i, want_i) and np.array_equal(j, want_j)
        for bi, bj in blocks:
            # A block holds every pair of each of its anchors, and only those.
            anchors = np.arange(bi[0], bi[-1] + 1)
            assert len(bi) == sum(n - 1 - anchors)
            assert len(bi) <= budget or len(anchors) == 1


scan_memory = load(ROOT / "scripts" / "scan_memory.py")


def test_scan_memory_does_not_grow_with_the_pair_or_subset_count():
    # Each call runs in a fresh interpreter, which reads its own peak
    # resident set.  check_c1 on 2048 nodes has 16 times the pairs of 512
    # nodes; the window-40 scan at m=3 has 310,726 subsets, held as one
    # position each.
    small, large = (scan_memory.measure("check_c1", 1, n) for n in (512, 2048))
    assert large["peak_mb"] <= small["peak_mb"] + 4.0
    window = scan_memory.measure("check_cm", 3, 64, 40)
    assert window["peak_mb"] <= window["base_mb"] + 10.0
