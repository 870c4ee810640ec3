"""Polynomial engine: arithmetic, calculus, root isolation, |p| integrals."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import abs_quad_oracle, circle_curve, integrate_exact, random_poly, signed_integral
from heiswhit import ModulusFn, Poly, finiteness_check, poly
from heiswhit.errors import RootBudgetError

EPS = np.finfo(float).eps


def roots_on(p, lo, hi):
    """Roots of p in [lo, hi], as the AV kernel isolates them."""
    return poly._roots(np.array(p.coeffs), lo, hi).tolist()


def abs_integral_on(p, lo, hi):
    """Integral of |p| over [lo, hi], as the AV kernel takes it: split at p's roots."""
    c, a, b = np.array(p.coeffs), np.array([lo]), np.array([hi])
    return float(poly._abs_integral(poly._antideriv(c), a, b, poly._roots(c, lo, hi))[0])


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
    assert signed_integral(Poly([0.0, 0.0, 1.0]), 0.0, 1.0) == pytest.approx(
        1.0 / 3.0, abs=1e-15
    )


def test_integrate_odd_symmetry():
    assert signed_integral(Poly([0.0, 1.0]), -1.0, 1.0) == pytest.approx(
        0.0, abs=1e-15
    )


@given(coeff_lists, st.floats(-5.0, 5.0, allow_nan=False))
def test_integrate_degenerate_interval(coeffs, a):
    assert signed_integral(Poly(coeffs), a, a) == 0.0


# The antiderivative once cut its terms again, relative to its own largest:
# of p + q it cut an x^9 term that q's kept, and in the second draw kept one
# that p's cut.
@example([2.0], [10.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 1e-12])
@example([12.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0, 1e-12], [-2.0])
@given(coeff_lists, coeff_lists)
def test_integrate_linearity(pc, qc):
    p, q = Poly(pc), Poly(qc)
    lo, hi = -1.0, 2.0
    lhs = signed_integral(p + q, lo, hi)
    rhs = signed_integral(p, lo, hi) + signed_integral(q, lo, hi)
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs) + abs(rhs))


def test_integrate_matches_rational_oracle():
    rng = np.random.default_rng(4)
    for _ in range(200):
        p = random_poly(rng, int(rng.integers(0, 9)), scale=2.0)
        lo = float(rng.uniform(-2.0, 1.0))
        hi = lo + float(rng.uniform(0.0, 3.0))
        want = integrate_exact(p, lo, hi)
        got = signed_integral(p, lo, hi)
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_roots_of_shifted_square():
    roots = roots_on(Poly([-1.0, 0.0, 1.0]), -2.0, 2.0)
    assert roots == pytest.approx([-1.0, 1.0], abs=1e-10)


def test_roots_none_when_positive():
    assert roots_on(Poly([1.0, 0.0, 1.0]), -2.0, 2.0) == []


def test_double_root_found_by_deflation():
    # x(x-1)^2: the touch at 1 has no sign change and must come from the
    # derivative recursion.
    p = Poly([0.0, 1.0, -2.0, 1.0])
    roots = roots_on(p, -1.0, 2.0)
    assert roots == pytest.approx([0.0, 1.0], abs=1e-9)


def test_roots_1e4_apart_are_both_found():
    p = Poly([-0.5, 1.0]) * Poly([-0.5001, 1.0])
    assert roots_on(p, 0.0, 1.0) == pytest.approx([0.5, 0.5001], abs=1e-9)


def test_root_near_2e4_ends_its_bisection():
    # Neighbouring floats near 2e4 lie 3.6e-12 apart, farther than tol, and
    # p is nonzero at both ends of the last bracket.
    p = Poly([60001.28477690172, -3.0])
    assert roots_on(p, 0.0, 3e4) == pytest.approx(
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
    got = roots_on(p, -0.5, 1.5)
    assert got == sorted(got)
    assert len(got) == len(roots)
    for g, r in zip(got, sorted(roots)):
        # Rounding in the monomial coefficients moves a root by about
        # eps * sum|c_k r^k| / |p'(r)|, which clustered roots amplify.
        cond = sum(abs(c * r**k) for k, c in enumerate(p.coeffs))
        slope = math.prod(abs(r - q) for q in roots if q != r)
        assert abs(g - r) <= 1e-9 + 8.0 * EPS * cond / slope


def test_abs_integral_of_x():
    assert abs_integral_on(Poly([0.0, 1.0]), -1.0, 1.0) == pytest.approx(
        1.0, abs=1e-12
    )


def test_abs_integral_with_interior_sign_change():
    # |x^2-1| on [0,2]: 2/3 below the root plus 4/3 above it.
    got = abs_integral_on(Poly([-1.0, 0.0, 1.0]), 0.0, 2.0)
    assert got == pytest.approx(2.0, abs=1e-11)


@given(coeff_lists)
def test_abs_integral_of_nonnegative_is_signed(coeffs):
    p = Poly(coeffs)
    sq = p * p
    lo, hi = -1.0, 1.5
    if sq.is_zero:
        return
    want = signed_integral(sq, lo, hi)
    assert abs_integral_on(sq, lo, hi) == pytest.approx(want, rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, st.floats(-2.0, 1.0), st.floats(0.01, 3.0))
def test_abs_integral_dominates_signed(coeffs, lo, width):
    p = Poly(coeffs)
    if p.is_zero:
        return
    hi = lo + width
    assert abs_integral_on(p, lo, hi) + 1e-10 >= abs(signed_integral(p, lo, hi))


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
        got = abs_integral_on(p, lo, hi)
        assert abs(got - want) <= 1e-9 * (1.0 + abs(want))


# -- the bracket solver against plain bisection ---------------------------------


def bisect_brackets(c, a, b, fa, fb, active):
    """The bisection the Newton bracket solver replaced, kept as its oracle.

    Halves every active bracket until b - a <= ROOT_TOL, the midpoint hits
    a zero, or the midpoint equals one of the ends; returns the midpoints.
    """
    root = np.full(a.shape, np.nan)
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = poly._horner(c, mid)
        done = active & ((b - a <= poly.ROOT_TOL) | (mid == a) | (mid == b) | (fm == 0.0))
        root[done] = mid[done]
        active = active & ~done
        if not active.any():
            return root
        left = (fm > 0.0) == (fa > 0.0)
        a, fa = np.where(left, mid, a), np.where(left, fm, fa)
        b = np.where(left, b, mid)
    raise AssertionError("bisection did not close a bracket in 200 steps")


def oracle_roots(c, lo, hi):
    """poly._roots with every bracket bisected instead."""
    with mock.patch.object(poly, "_solve_brackets", bisect_brackets):
        return poly._roots(c, lo, hi)


def root_noise(c, r):
    """How far rounding in evaluating p can move a computed root r of row c.

    With eta = eps * sum |c_k r^k| the rounding in p near r, a root can sit
    anywhere |p| <= eta: within eta / |p'(r)| of r, and within
    sqrt(2 eta / |p''(r)|) where p' vanishes (touches, close pairs).
    """
    ar = np.abs(r) ** np.arange(c.size)
    eta = EPS * (np.abs(c) @ ar)
    if not eta:
        return 0.0  # p is exact at r
    dc = np.polynomial.polynomial.polyder(c)
    slope = abs(np.polynomial.polynomial.polyval(r, dc))
    curv = abs(np.polynomial.polynomial.polyval(r, np.polynomial.polynomial.polyder(dc)))
    with np.errstate(divide="ignore"):
        return min(eta / slope, math.sqrt(2.0 * eta / curv) if curv else math.inf)


@st.composite
def root_rows(draw):
    """(coefficients, lo, hi) of rows of degree 1-4 built from their roots.

    Roots lie at least 1e-2 apart in [-1, 1], or in [2e4 - 1, 2e4 + 1]
    (degree 1 and 2), where neighbouring floats lie farther apart than
    ROOT_TOL.  A row near 0 may also hold one of: a close pair (1e-5 to
    1e-2 apart), a double root (a touch), or a factor with two complex
    roots.
    """
    far = draw(st.booleans())
    deg = draw(st.integers(1, 2 if far else 4))
    special = draw(st.sampled_from(["close", "touch", "complex", None]))
    unit = st.floats(-1.0, 1.0)
    roots = []
    if special == "close" and deg >= 2 and not far:
        roots = [0.0, 10.0 ** draw(st.floats(-5.0, -2.0))]
    elif special == "touch" and deg >= 2 and not far:
        roots = [0.0, 0.0]
    elif special == "complex" and deg >= 3:
        roots = [complex(0.0, draw(st.floats(0.1, 1.0))), complex(0.0, -1.0)]
        roots[1] = roots[0].conjugate()
    shift = draw(unit) if roots else 0.0
    free = draw(st.lists(unit, min_size=deg - len(roots), max_size=deg - len(roots)))
    real = [x.real + shift for x in roots[:1]] + free
    assume(_separated(real))
    c = np.polynomial.polynomial.polyfromroots(
        np.array([x + shift for x in roots] + free) + (2e4 if far else 0.0)
    )
    c = np.real(c) * draw(st.floats(0.1, 10.0)) * draw(st.sampled_from([1.0, -1.0]))
    return (c, 2e4 - 1.5, 2e4 + 1.5) if far else (c, -1.5, 1.5)


@settings(max_examples=300, deadline=None)
@example((np.array([60001.28477690172, -3.0]), 0.0, 3e4))
@example((np.polynomial.polynomial.polyfromroots([0.5, 0.5001]), 0.0, 1.0))
@example((np.polynomial.polynomial.polyfromroots([0.0, 1.0, 1.0]), -1.0, 2.0))
@given(root_rows())
def test_newton_roots_match_bisection(row):
    c, lo, hi = row
    got, want = poly._roots(c, lo, hi), oracle_roots(c, lo, hi)
    assert got.shape == want.shape
    for g, r in zip(got, want):
        assert abs(g - r) <= poly.ROOT_TOL * max(1.0, abs(r)) + 8.0 * root_noise(c, r)
    # |p| integrates the same to a few ulps of its antiderivative's size.
    a, b, anti = np.array([lo]), np.array([hi]), poly._antideriv(c)
    size = np.abs(anti) @ max(abs(lo), abs(hi)) ** np.arange(c.size + 1)
    got_int, want_int = (poly._abs_integral(anti, a, b, r)[0] for r in (got, want))
    assert abs(got_int - want_int) <= 4.0 * EPS * size


@settings(max_examples=200, deadline=None)
@given(st.lists(root_rows(), min_size=2, max_size=6), st.data())
def test_root_kernels_give_each_row_of_a_stack_its_own_bits(rows, data):
    # Rows of one degree, each on its own part of its interval, so their
    # critical point and root counts differ: stacked, each row's roots and
    # |p| integral keep the bits the row gets alone (ascending, no NaN), and
    # NaN pads it to the stack's width.
    rows = [r for r in rows if r[0].size == rows[0][0].size]
    c = np.array([r[0] for r in rows])
    ends = [sorted(data.draw(st.lists(st.floats(lo, hi), min_size=2, max_size=2)))
            for _, lo, hi in rows]
    lo, hi = np.array(ends).T
    roots = poly._roots(c, lo, hi)
    ints = poly._abs_integral(poly._antideriv(c), lo[:, None], hi[:, None], roots)
    for k, row in enumerate(c):
        alone = poly._roots(row, lo[k], hi[k])
        assert np.all(np.diff(alone) > 0.0)
        assert roots[k, : alone.size].tobytes() == alone.tobytes()
        assert np.isnan(roots[k, alone.size :]).all()
        one = poly._abs_integral(poly._antideriv(row), lo[k : k + 1], hi[k : k + 1], alone)
        assert ints[k].tobytes() == one.tobytes()


def test_three_steps_resolve_degree_1_rows(monkeypatch):
    # The first iterate, the secant point, is the root of a degree-1 row up
    # to rounding, so its step ends the bracket; rows with roots near 1e4
    # can take two more steps, since floats there lie farther apart than
    # ROOT_TOL.
    rng = np.random.default_rng(5)
    r = rng.uniform(-1e3, 1e3, 2000)
    slope = rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-3.0, 3.0, 2000)
    lo = r - 10.0 ** rng.uniform(-3.0, 4.0, 2000)
    hi = r + 10.0 ** rng.uniform(-3.0, 4.0, 2000)
    c = np.column_stack((-r * slope, slope))
    want = oracle_roots(c, lo, hi)
    monkeypatch.setattr(poly, "ROOT_BUDGET", 3)
    got = poly._roots(c, lo, hi)
    assert got.shape == want.shape == (2000, 1)
    assert np.all(np.abs(got - want) <= poly.ROOT_TOL * np.maximum(1.0, np.abs(want)))


def test_three_steps_resolve_the_degree_2_rows_of_the_av_kernel(monkeypatch):
    # At m = 2 every row the AV kernel integrates |p'| of is p' of a
    # degree-2 Taylor or interpolant row: degree 1, so three steps suffice.
    curve, omega = circle_curve(13), ModulusFn(1.0, 1.0)
    want = finiteness_check(curve, 2, omega, full_enum=True)
    monkeypatch.setattr(poly, "ROOT_BUDGET", 3)
    got = finiteness_check(curve, 2, omega, full_enum=True)
    assert got.profile.points == want.profile.points
    assert (got.m_hat, got.worst_pair) == (want.m_hat, want.worst_pair)


def test_root_budget_error_when_a_bracket_needs_more_steps(monkeypatch):
    # x^2 - 2 on [0, 2]: one bracket, Newton from the secant point 1 needs
    # several steps to reach sqrt(2).
    monkeypatch.setattr(poly, "ROOT_BUDGET", 1)
    with pytest.raises(RootBudgetError):
        roots_on(Poly([-2.0, 0.0, 1.0]), 0.0, 2.0)
    monkeypatch.setattr(poly, "ROOT_BUDGET", 200)
    assert roots_on(Poly([-2.0, 0.0, 1.0]), 0.0, 2.0) == pytest.approx(
        [math.sqrt(2.0)], abs=1e-15
    )
