"""Polynomial engine: arithmetic, calculus, root isolation, |p| integrals."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import abs_quad_oracle, integrate_exact, random_poly
from heiswhit import Interval, Poly, abs_integral, integrate, real_roots
from heiswhit.errors import IdenticallyZeroError

EPS = np.finfo(float).eps

coeff_lists = st.lists(
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=9,
)


def test_mul_difference_of_squares():
    assert Poly([1.0, 1.0]) * Poly([1.0, -1.0]) == Poly([1.0, 0.0, -1.0])


def test_mul_degree_adds():
    p = Poly([1.0, 2.0, 3.0])
    q = Poly([0.0, 1.0, 0.0, 5.0])
    assert (p * q).degree == p.degree + q.degree


@given(coeff_lists)
def test_add_zero_is_identity(coeffs):
    p = Poly(coeffs)
    assert p + Poly() == p


def test_scalar_multiple():
    assert 3.0 * Poly([0.0, 0.0, 1.0]) == Poly([0.0, 0.0, 3.0])


def test_derivative_of_cube():
    assert Poly([0.0, 0.0, 0.0, 1.0]).derivative() == Poly([0.0, 0.0, 3.0])


def test_antiderivative_of_square_slope():
    assert Poly([0.0, 0.0, 3.0]).antiderivative() == Poly([0.0, 0.0, 0.0, 1.0])


def test_derivative_of_constant_is_zero():
    assert Poly([5.0]).derivative() == Poly()
    assert Poly([5.0]).derivative().is_zero


@given(coeff_lists)
def test_derivative_undoes_antiderivative(coeffs):
    p = Poly(coeffs)
    back = p.antiderivative().derivative()
    assert len(back.coeffs) <= len(p.coeffs) + 1
    scale = max(1.0, max(abs(c) for c in coeffs))
    assert all(
        abs(a - b) <= 1e-12 * scale
        for a, b in zip(list(back.coeffs) + [0.0] * 9, list(p.coeffs) + [0.0] * 9)
    )


def test_integrate_square_unit_interval():
    assert integrate(Poly([0.0, 0.0, 1.0]), Interval(0.0, 1.0)) == pytest.approx(
        1.0 / 3.0, abs=1e-15
    )


def test_integrate_odd_symmetry():
    assert integrate(Poly([0.0, 1.0]), Interval(-1.0, 1.0)) == pytest.approx(
        0.0, abs=1e-15
    )


@given(coeff_lists, st.floats(-5.0, 5.0, allow_nan=False))
def test_integrate_degenerate_interval(coeffs, a):
    assert integrate(Poly(coeffs), Interval(a, a)) == 0.0


@given(coeff_lists, coeff_lists)
def test_integrate_linearity(pc, qc):
    p, q = Poly(pc), Poly(qc)
    iv = Interval(-1.0, 2.0)
    lhs = integrate(p + q, iv)
    rhs = integrate(p, iv) + integrate(q, iv)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs) + abs(rhs))


def test_integrate_matches_rational_oracle():
    rng = np.random.default_rng(4)
    for _ in range(200):
        p = random_poly(rng, int(rng.integers(0, 9)), scale=2.0)
        lo = float(rng.uniform(-2.0, 1.0))
        hi = lo + float(rng.uniform(0.0, 3.0))
        want = integrate_exact(p, lo, hi)
        got = integrate(p, Interval(lo, hi))
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_roots_of_shifted_square():
    roots = real_roots(Poly([-1.0, 0.0, 1.0]), Interval(-2.0, 2.0))
    assert roots == pytest.approx([-1.0, 1.0], abs=1e-10)


def test_roots_none_when_positive():
    assert real_roots(Poly([1.0, 0.0, 1.0]), Interval(-2.0, 2.0)) == []


def test_double_root_found_by_deflation():
    # x(x-1)^2: the touch at 1 has no sign change and must come from the
    # derivative recursion.
    p = Poly([0.0, 1.0, -2.0, 1.0])
    roots = real_roots(p, Interval(-1.0, 2.0))
    assert roots == pytest.approx([0.0, 1.0], abs=1e-9)


def test_roots_1e4_apart_are_both_found():
    p = Poly([-0.5, 1.0]) * Poly([-0.5001, 1.0])
    assert real_roots(p, Interval(0.0, 1.0)) == pytest.approx([0.5, 0.5001], abs=1e-9)


def test_root_near_2e4_ends_its_bisection():
    # Neighbouring floats near 2e4 lie 3.6e-12 apart, farther than tol, and
    # p is nonzero at both ends of the last bracket.
    p = Poly([60001.28477690172, -3.0])
    assert real_roots(p, Interval(0.0, 3e4)) == pytest.approx(
        [60001.28477690172 / 3.0], rel=1e-15
    )


def _separated(roots, gap=1e-2):
    roots = sorted(roots)
    return all(b - a >= gap for a, b in zip(roots, roots[1:]))


# The example's local extrema lie within 1e-10 * (1 + max|p|) of zero, yet
# p changes sign around each of them, so none of them is a touch.
@settings(deadline=None)
@example([0.0, 0.01, 0.0200001, 0.0300002, 0.0400003])
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5).filter(_separated))
def test_roots_of_separated_linear_factors(roots):
    p = Poly([1.0])
    for r in roots:
        p = p * Poly([-r, 1.0])
    got = real_roots(p, Interval(-0.5, 1.5))
    assert got == sorted(got)
    assert len(got) == len(roots)
    for g, r in zip(got, sorted(roots)):
        # Rounding in the monomial coefficients moves a root by about
        # eps * sum|c_k r^k| / |p'(r)|, which clustered roots amplify.
        cond = sum(abs(c * r**k) for k, c in enumerate(p.coeffs))
        slope = math.prod(abs(r - q) for q in roots if q != r)
        assert abs(g - r) <= 1e-9 + 8.0 * EPS * cond / slope


def test_roots_of_zero_poly_rejected():
    with pytest.raises(IdenticallyZeroError):
        real_roots(Poly(), Interval(0.0, 1.0))


def test_abs_integral_of_x():
    assert abs_integral(Poly([0.0, 1.0]), Interval(-1.0, 1.0)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_abs_integral_with_interior_sign_change():
    # |x^2-1| on [0,2]: 2/3 below the root plus 4/3 above it.
    got = abs_integral(Poly([-1.0, 0.0, 1.0]), Interval(0.0, 2.0))
    assert got == pytest.approx(2.0, abs=1e-11)


@given(coeff_lists)
def test_abs_integral_of_nonnegative_is_signed(coeffs):
    p = Poly(coeffs)
    sq = p * p
    iv = Interval(-1.0, 1.5)
    if sq.is_zero:
        return
    want = integrate(sq, iv)
    assert abs_integral(sq, iv) == pytest.approx(want, rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, st.floats(-2.0, 1.0), st.floats(0.01, 3.0))
def test_abs_integral_dominates_signed(coeffs, lo, width):
    p = Poly(coeffs)
    if p.is_zero:
        return
    iv = Interval(lo, lo + width)
    assert abs_integral(p, iv) + 1e-10 >= abs(integrate(p, iv))


def test_abs_integral_against_subdivision_oracle():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        deg = int(rng.integers(0, 9))
        p = random_poly(rng, deg, scale=2.0)
        if p.is_zero:
            continue
        lo = float(rng.uniform(-2.0, 1.0))
        hi = lo + float(rng.uniform(0.05, 3.0))
        want = abs_quad_oracle(p, lo, hi, tol=1e-12)
        got = abs_integral(p, Interval(lo, hi))
        assert abs(got - want) <= 1e-9 * (1.0 + abs(want))
