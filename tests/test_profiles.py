"""Scale profiles, banding, slope fits, and the threshold policy."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import band_max_by_item, banded
from heiswhit.profiles import (
    CONSISTENT,
    INCONCLUSIVE,
    INCONSISTENT,
    Profile,
    ThresholdPolicy,
    combine_statuses,
    delta_grid,
    fit_loglog_slope,
)


def test_delta_grid_geometric():
    assert delta_grid(1.0, 0.13) == [1.0, 0.5, 0.25]
    assert delta_grid(1.0, 1.0) == [1.0]
    assert delta_grid(8.0, 1.0) == [8.0, 4.0, 2.0, 1.0]


def test_delta_grid_validation():
    with pytest.raises(ValueError):
        delta_grid(0.0, 0.1)
    with pytest.raises(ValueError):
        delta_grid(1.0, -0.1)


def test_banded_sup_assigns_half_open_bands():
    deltas = [1.0, 0.5, 0.25]
    items = [(0.75, 2.0), (0.5, 3.0), (0.26, 1.0), (0.1, 4.0)]
    prof = banded(items, deltas)
    assert prof.points == ((1.0, 2.0), (0.5, 3.0), (0.25, 4.0))


def test_banded_sup_folds_oversize_into_top():
    prof = banded([(1.5, 9.0), (0.75, 2.0)], [1.0, 0.5])
    assert prof.points == ((1.0, 9.0),)


def test_banded_sup_drops_empty_bands():
    prof = banded([(0.1, 1.0)], [1.0, 0.5, 0.25])
    assert prof.points == ((0.25, 1.0),)


_DELTA = st.sampled_from([2.0, 1.0, 0.5, 0.25, 0.1]) | st.floats(1e-3, 10.0)
_VALUE = st.floats(0.0, 1e6) | st.just(math.inf)


@st.composite
def _bands_and_items(draw):
    deltas = draw(st.lists(_DELTA, min_size=1, max_size=8))
    lo, hi = min(deltas), max(deltas)
    diam = (
        st.sampled_from(deltas)
        | st.floats(hi, 2.0 * hi)
        | st.floats(0.0, lo)
        | st.floats(0.0, 2.0 * hi)
    )
    items = draw(st.lists(st.tuples(diam, _VALUE), max_size=40))
    return deltas, items


@given(_bands_and_items())
@example(([1.0, 0.5, 0.5, 0.25], []))
@example(([0.5, 1.0, 0.25], [(1.0, 1.0), (0.5, math.inf), (0.25, 2.0), (4.0, 3.0)]))
@settings(max_examples=300, deadline=None)
def test_banded_sup_matches_per_item_scan(case):
    deltas, items = case
    assert banded(items, deltas) == band_max_by_item(items, deltas)


def test_profile_invariants():
    with pytest.raises(ValueError):
        Profile(((0.5, 1.0), (1.0, 1.0)))
    with pytest.raises(ValueError):
        Profile(((1.0, -0.5),))
    prof = Profile(((1.0, 3.0), (0.5, 1.0)))
    assert len(prof) == 2
    assert prof.top == 3.0
    assert prof.terminal == 1.0


def test_slope_sign_conventions():
    decay = Profile(((1.0, 1.0), (0.5, 0.5), (0.25, 0.25)))
    assert decay.slope() == pytest.approx(1.0, abs=1e-9)
    growth = Profile(((1.0, 1.0), (0.5, 2.0), (0.25, 4.0)))
    assert growth.slope() == pytest.approx(-1.0, abs=1e-9)
    assert Profile(((1.0, 0.0), (0.5, 0.0))).slope() == pytest.approx(0.0)
    assert fit_loglog_slope([(1.0, 1.0)]) == 0.0


def test_slope_window_ignores_coarse_scales():
    points = ((1000.0, 1.0), (1.0, 1.0), (0.1, 0.1))
    assert fit_loglog_slope(points) == pytest.approx(1.0, abs=1e-9)


def test_slope_of_one_repeated_scale_is_flat():
    assert fit_loglog_slope(((1.0, 1.0), (1.0, 4.0))) == 0.0


def test_policy_collapsed_is_consistent():
    policy = ThresholdPolicy()
    prof = Profile(((1.0, 1e-12), (0.5, 1e-13)))
    status, _ = policy.classify(prof)
    assert status == CONSISTENT


def test_policy_decaying_is_consistent():
    policy = ThresholdPolicy()
    points = tuple((0.5**i, 0.8 * 0.5**i) for i in range(8))
    status, slope = policy.classify(Profile(points))
    assert status == CONSISTENT
    assert slope == pytest.approx(1.0, abs=1e-6)


def test_policy_growth_is_inconsistent():
    policy = ThresholdPolicy()
    points = tuple((0.5**i, 2.0**i) for i in range(8))
    status, slope = policy.classify(Profile(points))
    assert status == INCONSISTENT
    assert slope == pytest.approx(-1.0, abs=1e-6)


def test_policy_middle_ground_is_inconclusive():
    policy = ThresholdPolicy()
    prof = Profile(tuple((0.5**i, 0.6) for i in range(6)))
    status, _ = policy.classify(prof)
    assert status == INCONCLUSIVE
    assert policy.classify(Profile(()))[0] == INCONCLUSIVE
    assert policy.bounded(Profile(())) == (INCONCLUSIVE, 0.0)


@pytest.mark.parametrize("values", [(math.inf, math.inf), (1.0, math.inf)])
def test_policy_never_reads_an_infinite_terminal_as_collapsed(values):
    # An inf terminal once passed zero_tol * max(1, top) when the top was inf too.
    prof = Profile(((1.0, values[0]), (0.5, values[1])))
    policy = ThresholdPolicy()
    assert policy.classify(prof)[0] == policy.bounded(prof)[0] == INCONCLUSIVE


def test_policy_never_reads_a_profile_under_an_infinite_top_as_collapsed():
    # A finite terminal once passed zero_tol * max(1, top) when the top was
    # inf, and both rules returned (consistent, nan).
    prof = Profile(((1.0, math.inf), (0.5, 1e-12)))
    policy = ThresholdPolicy()
    for status, slope in (policy.classify(prof), policy.bounded(prof)):
        assert status == INCONCLUSIVE
        assert math.isnan(slope)


@pytest.mark.parametrize("rate, slope", [(1, 1.0), (-1, -1.0)])
def test_policy_judges_no_rule_under_an_infinite_top(rate, slope):
    # An inf top outside the slope window once made every terminal small
    # (decay: consistent) and none large (growth: inconclusive where a top
    # of 1 is inconsistent) against the scale max(1, top).
    points = tuple((2.0**-i, math.inf if i == 0 else 2.0 ** (-rate * i)) for i in range(11))
    policy = ThresholdPolicy()
    assert policy.classify(Profile(points)) == (INCONCLUSIVE, slope)
    assert policy.bounded(Profile(points)) == (INCONCLUSIVE, slope)


def test_combine_statuses_worst_wins():
    assert combine_statuses([CONSISTENT, CONSISTENT]) == CONSISTENT
    assert combine_statuses([CONSISTENT, INCONCLUSIVE]) == INCONCLUSIVE
    assert combine_statuses([INCONCLUSIVE, INCONSISTENT]) == INCONSISTENT
    assert combine_statuses([]) == INCONCLUSIVE
