"""Group algebra, Pansu quotients, the Leibniz stack, horizontality defect."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bounded_horizontal_triple, circle_jets, horizontal_triple, leibniz_stack
from heiswhit import (
    CurveJets,
    HPoint,
    PiecewiseCm,
    Poly,
    SampledCurve,
    WhitneyField,
    dilate,
    group_mul,
    horizontality_defect,
    inverse,
)
from heiswhit.divdiff import divided_difference, newton_interp
from heiswhit.errors import (
    DuplicateNodeError,
    LengthMismatchError,
    NonFiniteError,
    TooFewNodesError,
    ZeroDilationError,
)
from heiswhit.heis import ORIGIN, _pansu_quotient, _velocity
from heiswhit.poly import _deriv, _padded

coords = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
points = st.builds(HPoint, coords, coords, coords)


def close(p, q, tol=1e-12):
    return all(abs(a - b) <= tol for a, b in zip(p, q))


def test_group_mul_twists_z():
    assert group_mul(HPoint(1.0, 0.0, 0.0), HPoint(0.0, 1.0, 0.0)) == HPoint(
        1.0, 1.0, -2.0
    )


def test_inverse_is_negation():
    p = HPoint(1.0, 2.0, 3.0)
    assert inverse(p) == HPoint(-1.0, -2.0, -3.0)
    assert group_mul(p, inverse(p)) == ORIGIN


@given(coords, coords)
def test_center_is_abelian(z, zp):
    got = group_mul(HPoint(0.0, 0.0, z), HPoint(0.0, 0.0, zp))
    assert close(got, HPoint(0.0, 0.0, z + zp))


@given(points, points, points)
def test_associativity(p, q, r):
    lhs = group_mul(group_mul(p, q), r)
    rhs = group_mul(p, group_mul(q, r))
    assert close(lhs, rhs, tol=1e-12 * (1.0 + max(abs(v) for v in lhs)))


def test_dilation_doubles_and_squares():
    assert dilate(2.0, HPoint(1.0, 1.0, 1.0)) == HPoint(2.0, 2.0, 4.0)


@given(points)
def test_unit_dilation_is_identity(p):
    assert dilate(1.0, p) == p


@given(st.floats(0.1, 3.0), points, points)
def test_dilation_is_automorphism(r, p, q):
    lhs = dilate(r, group_mul(p, q))
    rhs = group_mul(dilate(r, p), dilate(r, q))
    assert close(lhs, rhs, tol=1e-11 * (1.0 + max(abs(v) for v in lhs)))


def test_zero_dilation_rejected():
    with pytest.raises(ZeroDilationError):
        dilate(0.0, HPoint(1.0, 0.0, 0.0))


@given(st.floats(0.001, 2.0))
def test_pansu_dq_of_flat_line(h):
    got = _pansu_quotient(HPoint(0.0, 0.0, 0.0), HPoint(h, 0.0, 0.0), 0.0, h)
    assert close(got, HPoint(1.0, 0.0, 0.0), tol=1e-12)


@given(st.floats(0.001, 2.0))
def test_pansu_dq_of_vertical_drift_diverges(h):
    got = _pansu_quotient(HPoint(0.0, 0.0, 0.0), HPoint(h, 0.0, h), 0.0, h)
    assert close(got, HPoint(1.0, 0.0, 1.0 / h), tol=1e-9 * (1.0 + 1.0 / h))


def test_pansu_dq_of_circle_z_decays_linearly():
    def gamma(t):
        return HPoint(math.cos(t), math.sin(t), -2.0 * t)

    for h in (1e-1, 1e-2, 1e-3, 1e-4):
        z = _pansu_quotient(gamma(0.0), gamma(h), 0.0, h)[2]
        # exact value 2(sin h - h)/h^2, about -h/3
        assert abs(z) <= h
        assert abs(z) >= h / 6.0


@given(points, points, points, st.floats(-1.0, 1.0), st.floats(0.01, 1.0))
def test_pansu_dq_left_invariant(p, ga, gb, a, dt):
    b = a + dt
    direct = _pansu_quotient(ga, gb, a, b)
    shifted = _pansu_quotient(group_mul(p, ga), group_mul(p, gb), a, b)
    scale = 1.0 + max(abs(v) for v in direct)
    assert close(direct, shifted, tol=1e-9 * scale)


@given(st.lists(coords, min_size=2, max_size=5))
def test_leibniz_stack_vanishes_on_diagonal(jet):
    m = len(jet) - 1
    assert leibniz_stack(tuple(jet), tuple(jet), m) == pytest.approx(
        [0.0] * m, abs=1e-12
    )


def test_leibniz_stack_first_order():
    assert leibniz_stack((0.0, 1.0), (1.0, 0.0), 1) == pytest.approx([2.0])


def test_leibniz_stack_circle_at_zero():
    # f = cos, g = sin at t = 0: jets (1, 0, -1) and (0, 1, 0).
    got = leibniz_stack((1.0, 0.0, -1.0), (0.0, 1.0, 0.0), 2)
    assert got == pytest.approx([-2.0, 0.0], abs=1e-15)


def test_leibniz_stack_length_check():
    with pytest.raises(LengthMismatchError):
        leibniz_stack((0.0, 1.0), (1.0, 0.0), 2)


def test_leibniz_stack_reproduces_horizontal_h_jets():
    rng = np.random.default_rng(3)
    for m in (1, 2, 3):
        for _ in range(20):
            pf, pg, ph = horizontal_triple(rng, m)
            t = float(rng.uniform(-1.0, 1.0))
            fjet = tuple(pf.deriv_at(t, k) for k in range(m + 1))
            gjet = tuple(pg.deriv_at(t, k) for k in range(m + 1))
            want = [ph.deriv_at(t, k) for k in range(1, m + 1)]
            got = leibniz_stack(fjet, gjet, m)
            scale = 1.0 + max(abs(v) for v in want)
            assert got == pytest.approx(want, abs=1e-10 * scale)


def piecewise_line(coeffs, order=1):
    return PiecewiseCm((), (0.0,), np.array([coeffs], dtype=float), order)


def test_defect_of_flat_line_is_zero():
    f = piecewise_line([0.0, 1.0])
    g = piecewise_line([0.0])
    h = piecewise_line([0.0])
    grid = np.linspace(0.0, 1.0, 101)
    assert horizontality_defect(f, g, h, grid) == 0.0


def test_defect_of_vertical_drift_is_one():
    f = piecewise_line([0.0, 1.0])
    g = piecewise_line([0.0])
    h = piecewise_line([0.0, 1.0])
    grid = np.linspace(0.0, 1.0, 101)
    assert horizontality_defect(f, g, h, grid) == pytest.approx(1.0, abs=1e-15)


def test_curve_jets_translation_matches_pointwise_group_law():
    # p * (f, g, h) is the polynomial curve (f + x, g + y, h + z + 2(y f - x g)),
    # so the translated jets are its exact jets at every order.  Jets at no
    # nodes translate to jets at no nodes.
    rng = np.random.default_rng(9)
    pf, pg, ph = horizontal_triple(rng, 2)
    p = HPoint(0.3, -0.7, 0.2)
    moved_polys = (pf + Poly([p.x]), pg + Poly([p.y]),
                   ph + Poly([p.z]) + 2.0 * (p.y * pf - p.x * pg))
    for nodes in ((0.0, 0.4, 1.0), ()):
        jets = CurveJets.from_polys(nodes, pf, pg, ph, 2)
        moved = jets.translated(p)
        for i, t in enumerate(nodes):
            base = HPoint(jets.fjets[i][0], jets.gjets[i][0], jets.hjets[i][0])
            want = group_mul(p, base)
            got = HPoint(moved.fjets[i][0], moved.gjets[i][0], moved.hjets[i][0])
            assert close(got, want, tol=1e-12)
        want = CurveJets.from_polys(nodes, *moved_polys, 2)
        assert moved.nodes == want.nodes
        for got_js, want_js in zip((moved.fjets, moved.gjets, moved.hjets),
                                   (want.fjets, want.gjets, want.hjets)):
            assert len(got_js) == len(nodes)
            assert np.allclose(got_js, want_js, rtol=0.0, atol=1e-12)


def test_velocity_rows_are_those_of_h_prime():
    # Both conftest triples are horizontal, so 2(f'g - fg') is h' row for row.
    rng = np.random.default_rng(13)
    for triple, m in itertools.product((horizontal_triple, bounded_horizontal_triple), (1, 2, 3)):
        for _ in range(10):
            pf, pg, ph = triple(rng, m)
            f, g = np.array(pf.coeffs), np.array(pg.coeffs)
            got = _velocity(f, _deriv(f), g, _deriv(g))
            want = np.array(ph.derivative().coeffs)
            width = max(len(got), len(want))
            scale = 1.0 + np.max(np.abs(want))
            assert np.allclose(_padded(got, width), _padded(want, width), rtol=0.0,
                               atol=1e-14 * scale)


def test_sampled_curve_translation_is_the_group_law_sample_by_sample():
    rng = np.random.default_rng(17)
    nodes = tuple(np.sort(rng.uniform(-3.0, 3.0, 12)).tolist())
    points = tuple(HPoint(*rng.uniform(-2.0, 2.0, 3).tolist()) for _ in nodes)
    curve = SampledCurve(nodes, points)
    for _ in range(5):
        p = HPoint(*rng.uniform(-5.0, 5.0, 3).tolist())
        moved = curve.translated(p)
        assert moved.nodes == curve.nodes
        assert moved.points == tuple(group_mul(p, q) for q in curve.points)


def test_from_rows_sorts_shuffled_rows():
    rng = np.random.default_rng(19)
    rows = [(float(t), *map(float, rng.uniform(-1.0, 1.0, 3))) for t in range(10)]
    curve = SampledCurve.from_rows([rows[i] for i in rng.permutation(len(rows))])
    assert curve.nodes == tuple(r[0] for r in rows)
    assert curve.points == tuple(HPoint(*r[1:]) for r in rows)
    assert (curve.fs, curve.gs, curve.hs) == tuple(zip(*rows))[1:]


# Each container on two nodes, with its arrays named.
CONTAINERS = {
    "SampledCurve": lambda: SampledCurve((0.0, 1.0), (ORIGIN, HPoint(1.0, 2.0, 3.0))),
    "CurveJets": lambda: circle_jets((0.0, 1.0), 2),
    "WhitneyField": lambda: WhitneyField((0.0, 1.0), ((1.0, 2.0), (3.0, 4.0))),
}


@pytest.mark.parametrize("entry", CONTAINERS)
def test_containers_hold_only_read_only_arrays(entry):
    obj = CONTAINERS[entry]()
    assert not hasattr(obj, "__dict__")
    for name in type(obj).__slots__:
        array = getattr(obj, name)
        assert isinstance(array, np.ndarray)
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 7.0
    assert isinstance(obj.nodes, tuple)


def replaced(jets, field, i, k, value):
    """jets with entry k of the jet of field ("fjets", ..) at node i set to value."""
    rows = [list(j) for j in getattr(jets, field)]
    rows[i][k] = value
    return {"nodes": jets.nodes, "fjets": jets.fjets, "gjets": jets.gjets,
            "hjets": jets.hjets, field: tuple(map(tuple, rows))}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field,k", [("fjets", 0), ("gjets", 2), ("hjets", 1)])
def test_curve_jets_reject_non_finite_jets(field, k, value):
    # A NaN f value at t = 1/2 once passed, and the AV profile dropped its pairs.
    jets = circle_jets((0.0, 0.25, 0.5, 0.75, 1.0), 2)
    with pytest.raises(NonFiniteError):
        CurveJets(**replaced(jets, field, 2, k, value))


def test_curve_jets_reject_mismatched_jets():
    jets = circle_jets((0.0, 0.5, 1.0), 1)
    with pytest.raises(LengthMismatchError):  # two f jets for three nodes
        CurveJets(jets.nodes, jets.fjets[:2], jets.gjets, jets.hjets)
    with pytest.raises(LengthMismatchError):  # one h jet of order 2
        CurveJets(jets.nodes, jets.fjets, jets.gjets, jets.hjets[:2] + ((0.0, 1.0, 2.0),))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_curve_jets_reject_non_finite_nodes(value):
    jets = circle_jets((0.0, 0.5, 1.0), 1)
    with pytest.raises(NonFiniteError):
        CurveJets((0.0, 0.5, value), jets.fjets, jets.gjets, jets.hjets)


def test_curve_jets_reject_repeated_and_decreasing_nodes():
    jets = circle_jets((0.0, 0.5, 1.0), 1)
    with pytest.raises(DuplicateNodeError):
        CurveJets((0.0, 0.5, 0.5), jets.fjets, jets.gjets, jets.hjets)
    with pytest.raises(ValueError):
        CurveJets((0.0, 1.0, 0.5), jets.fjets, jets.gjets, jets.hjets)


# Every constructor and function that takes sorted nodes, called on nodes t.
NODE_RULE = {
    "SampledCurve": lambda t: SampledCurve(t, (ORIGIN,) * len(t)),
    "CurveJets": lambda t: CurveJets(t, *[((0.0,),) * len(t)] * 3),
    "WhitneyField": lambda t: WhitneyField(t, ((0.0, 1.0),) * len(t)),
    "PiecewiseCm": lambda t: PiecewiseCm(t, (0.0,) * (len(t) + 1), np.ones((len(t) + 1, 1)), 1),
    "divided_difference": lambda t: divided_difference([0.0] * len(t), t),
    "newton_interp": lambda t: newton_interp(t, [0.0] * len(t)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", NODE_RULE)
def test_node_rule_rejects_a_non_finite_interior_node(entry, value):
    # A NaN node compares false both ways, so WhitneyField and PiecewiseCm
    # once took it, and the divided differences returned NaN.
    with pytest.raises(NonFiniteError):
        NODE_RULE[entry]((0.0, value, 1.0))


@pytest.mark.parametrize("entry", NODE_RULE)
def test_node_rule_rejects_repeats_and_decreases(entry):
    with pytest.raises(DuplicateNodeError):
        NODE_RULE[entry]((0.0, 0.5, 0.5, 1.0))
    if entry not in ("divided_difference", "newton_interp"):  # these sort their nodes
        with pytest.raises(ValueError):
            NODE_RULE[entry]((0.0, 1.0, 0.5))


# Every constructor and function that takes values, called with one value v.
VALUE_RULE = {
    "SampledCurve": lambda v: SampledCurve((0.0, 0.5, 1.0), (ORIGIN, HPoint(0.0, v, 0.0), ORIGIN)),
    "CurveJets": lambda v: CurveJets((0.0, 1.0), ((0.0, v), (0.0, 1.0)), *[((0.0, 0.0),) * 2] * 2),
    "WhitneyField": lambda v: WhitneyField((0.0, 1.0), ((0.0, 1.0), (v, 1.0))),
    "divided_difference": lambda v: divided_difference([0.0, v, 1.0], [0.0, 0.5, 1.0]),
    "newton_interp": lambda v: newton_interp([0.0, 0.5, 1.0], [0.0, v, 1.0]),
    "PiecewiseCm centers": lambda v: PiecewiseCm((0.0, 1.0), (0.0, v, 1.0), np.ones((3, 1)), 1),
    "PiecewiseCm pieces": lambda v: PiecewiseCm(
        (0.0, 1.0), (0.0, 0.5, 1.0), np.array([[1.0, 0.0], [1.0, v], [1.0, 0.0]]), 1
    ),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", VALUE_RULE)
def test_value_rule_rejects_a_non_finite_value(entry, value):
    # The divided differences once returned NaN, newton_interp NaN and -inf
    # coefficients, and PiecewiseCm evaluated and reported NaN jumps.
    with pytest.raises(NonFiniteError):
        VALUE_RULE[entry](value)


# Every constructor and function that pairs nodes with values, called on n
# nodes and k values.
COUNT_RULE = {
    "SampledCurve": lambda n, k: SampledCurve(tuple(map(float, range(n))), (ORIGIN,) * k),
    "WhitneyField": lambda n, k: WhitneyField(tuple(map(float, range(n))), ((0.0,),) * k),
    "divided_difference": lambda n, k: divided_difference([0.0] * k, list(map(float, range(n)))),
    "newton_interp": lambda n, k: newton_interp(list(map(float, range(n))), [0.0] * k),
}


@pytest.mark.parametrize("entry", COUNT_RULE)
def test_count_rule_rejects_no_nodes_and_a_count_mismatch(entry):
    # The divided differences once raised a bare ValueError on no nodes, and
    # SampledCurve and the divided differences TooFewNodesError on a mismatch.
    with pytest.raises(TooFewNodesError):
        COUNT_RULE[entry](0, 0)
    with pytest.raises(LengthMismatchError):
        COUNT_RULE[entry](3, 2)
