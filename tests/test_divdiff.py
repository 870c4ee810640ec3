"""Divided differences, Hermite-Genocchi quadrature, Newton interpolation."""

import math

import numpy as np
import pytest

from conftest import dd_lagrange, distinct_nodes, random_poly
from heiswhit import SampledCurve, check_cm, profiles
from heiswhit.divdiff import (
    _subset_count,
    dd_windows,
    divided_difference,
    hermite_genocchi,
    newton_interp,
)
from heiswhit.errors import DuplicateNodeError, QuadratureBudgetError, TooFewNodesError


def test_dd_of_square_is_leading_coefficient():
    assert divided_difference([0.0, 1.0, 4.0], [0.0, 1.0, 2.0]) == pytest.approx(1.0)


def test_dd_of_cube_is_leading_coefficient():
    values = [t**3 for t in (0.0, 1.0, 2.0, 3.0)]
    assert divided_difference(values, [0.0, 1.0, 2.0, 3.0]) == pytest.approx(1.0)


def test_dd_of_constant_vanishes():
    assert divided_difference([7.0, 7.0, 7.0], [0.0, 0.3, 1.0]) == 0.0


def test_dd_rejects_duplicate_nodes():
    with pytest.raises(DuplicateNodeError):
        divided_difference([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])


def test_dd_permutation_symmetry():
    rng = np.random.default_rng(21)
    for _ in range(50):
        k = int(rng.integers(2, 6))
        nodes = distinct_nodes(rng, k, lo=-1.0, hi=1.0, min_gap=0.05)
        values = [float(v) for v in rng.uniform(-1.0, 1.0, size=k)]
        base = divided_difference(values, nodes)
        perm = rng.permutation(k)
        shuffled = divided_difference(
            [values[i] for i in perm], [nodes[i] for i in perm]
        )
        assert abs(base - shuffled) <= 1e-12 * (1.0 + abs(base))


def test_dd_recursion_identity():
    rng = np.random.default_rng(22)
    for _ in range(50):
        k = int(rng.integers(3, 7))
        nodes = distinct_nodes(rng, k, lo=0.0, hi=1.0, min_gap=0.05)
        values = [float(v) for v in rng.uniform(-1.0, 1.0, size=k)]
        full = divided_difference(values, nodes)
        left = divided_difference(values[:-1], nodes[:-1])
        right = divided_difference(values[1:], nodes[1:])
        want = (right - left) / (nodes[-1] - nodes[0])
        assert abs(full - want) <= 1e-12 * (1.0 + abs(full) + abs(left) + abs(right))


def test_dd_matches_partial_fraction_oracle():
    rng = np.random.default_rng(23)
    for _ in range(100):
        k = int(rng.integers(2, 7))
        nodes = distinct_nodes(rng, k, lo=-1.0, hi=1.0, min_gap=0.05)
        values = [float(v) for v in rng.uniform(-2.0, 2.0, size=k)]
        want = dd_lagrange(nodes, values)
        got = divided_difference(values, nodes)
        assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_hermite_genocchi_of_power_is_one(m):
    nodes = [0.1 * i + 0.05 for i in range(m + 1)]
    fm = lambda x: float(math.factorial(m))
    assert hermite_genocchi(fm, nodes) == pytest.approx(1.0, abs=1e-9)


def test_hermite_genocchi_matches_recursion_on_exp():
    nodes = [0.0, 0.1, 0.3]
    want = divided_difference([math.exp(t) for t in nodes], nodes)
    got = hermite_genocchi(math.exp, nodes, tol=1e-10)
    assert abs(got - want) <= 1e-9


def test_hermite_genocchi_confluent_limit():
    a = 0.2
    got = hermite_genocchi(math.exp, [a, a, a], tol=1e-10)
    assert got == pytest.approx(math.exp(a) / 2.0, abs=1e-9)


def test_hermite_genocchi_raises_when_budget_or_depth_runs_out():
    # Five evaluations cover one refinement, so a budget of four runs out in it.
    with pytest.raises(QuadratureBudgetError, match="budget"):
        hermite_genocchi(math.exp, [0.0, 1.0], budget=4)
    # A jump off the dyadic points leaves an error of its own size in every
    # halving, so the refinement reaches its depth limit first.
    step = lambda x: float(x > 1.0 / 3.0)
    with pytest.raises(QuadratureBudgetError, match="depth"):
        hermite_genocchi(step, [0.0, 1.0])


def test_hermite_genocchi_agrees_with_dd_on_random_polys():
    rng = np.random.default_rng(24)
    for m in (1, 2, 3):
        for _ in range(10):
            p = random_poly(rng, m + 3)
            nodes = distinct_nodes(rng, m + 1, min_gap=0.02)
            fm = p
            for _ in range(m):
                fm = fm.derivative()
            want = divided_difference([p(t) for t in nodes], nodes)
            got = hermite_genocchi(fm, nodes)
            assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


def test_newton_interp_through_two_points():
    assert newton_interp([0.0, 1.0], [0.0, 2.0]) == newton_interp(
        [0.0, 2.0], [0.0, 4.0]
    )
    p = newton_interp([0.0, 1.0], [0.0, 2.0])
    assert p.coeffs == pytest.approx([0.0, 2.0])


def test_newton_interp_recovers_parabola():
    p = newton_interp([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
    assert p.coeffs == pytest.approx([0.0, 0.0, 1.0], abs=1e-14)


def test_newton_interp_recovers_polynomial_coefficients():
    rng = np.random.default_rng(25)
    for _ in range(50):
        deg = int(rng.integers(0, 6))
        q = random_poly(rng, deg)
        nodes = distinct_nodes(rng, deg + 1, lo=-1.0, hi=1.0, min_gap=0.05)
        p = newton_interp(nodes, [q(t) for t in nodes])
        pc = list(p.coeffs) + [0.0] * (deg + 1)
        for a, b in zip(pc, q.coeffs):
            assert abs(a - b) <= 1e-10


def test_newton_interp_reproduces_inputs():
    rng = np.random.default_rng(26)
    for _ in range(50):
        k = int(rng.integers(2, 8))
        nodes = distinct_nodes(rng, k, min_gap=0.02)
        values = [float(v) for v in rng.uniform(-3.0, 3.0, size=k)]
        p = newton_interp(nodes, values)
        bound = 1e-10 * (1.0 + max(abs(v) for v in values))
        assert all(abs(p(t) - v) <= bound for t, v in zip(nodes, values))


def power_curve(power, n, lo, hi):
    ts = np.linspace(lo, hi, n)
    return SampledCurve.from_rows([(float(t), float(t) ** power, 0.0, 0.0) for t in ts])


@pytest.mark.parametrize("m", [1, 2, 3])
def test_dd_profile_constant_for_exact_degree(m):
    prof = check_cm(power_curve(m, 24, 0.0, 1.0), m).profiles
    assert all(v <= 1e-10 for _, v in prof["dd_f"].points)
    assert all(v == 0.0 for _, v in prof["dd_g"].points)


@pytest.mark.parametrize("m", [1, 2])
def test_dd_profile_linear_decay_one_degree_up(m):
    prof = check_cm(power_curve(m + 1, 33, 0.0, 1.0), m).profiles["dd_f"]
    # m-th divided difference of x^(m+1) is the node sum, so the spread
    # within a window is at most (m+1) times the window diameter.
    for delta, value in prof.points:
        assert value <= (m + 1) * delta * (1.0 + 1e-9)
    assert prof.slope() >= 0.8


@pytest.mark.parametrize("m", [1, 2])
def test_dd_profile_half_order_kink(m, monkeypatch):
    # Geometric clustering at the kink populates bands across many scales,
    # and the slope is fitted over five decades of them.
    monkeypatch.setattr(profiles, "SLOPE_DECADES", 5.0)
    ks = range(14)
    ts = sorted({0.0} | {2.0**-k for k in ks} | {-(2.0**-k) for k in ks})
    rows = [(t, abs(t) ** (m + 0.5), 0.0, 0.0) for t in ts]
    prof = check_cm(SampledCurve.from_rows(rows), m).profiles["dd_f"]
    assert 0.4 <= prof.slope() <= 0.6


def test_dd_profile_needs_enough_nodes():
    with pytest.raises(TooFewNodesError):
        check_cm(power_curve(1, 3, 0.0, 1.0), 2)


def test_subset_count_closed_form_matches_dd_windows():
    for n in range(2, 15):
        for m in range(1, 5):
            for window in range(2, 17):
                subsets, width = dd_windows(n, m, min(n, window))
                assert _subset_count(n, m, width) == len(subsets)


def test_subset_count_closed_form_matches_the_sum_at_large_n():
    # Every first node heads C(nodes after it in its window, m) subsets.
    n, m, width = 100_003, 3, 517
    total = sum(math.comb(min(width, n - first) - 1, m) for first in range(n))
    assert _subset_count(n, m, width) == total
