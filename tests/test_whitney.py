"""Whitney fields, validation, jet recovery, and the blended extension."""

import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import distinct_nodes, jet_poly, random_poly
from heiswhit import (
    ModulusFn,
    PiecewiseCm,
    WhitneyField,
    extend,
    transition_poly,
    validate_field,
)
from heiswhit.errors import (
    DuplicateNodeError,
    LengthMismatchError,
    NonFiniteError,
    TooFewNodesError,
)
from heiswhit.poly import Poly
from heiswhit.profiles import banded_sup, delta_grid
from heiswhit.whitney import _jets


def sample_field(nodes, values, m):
    """The field of jets that synthesize takes from samples of values at nodes."""
    jets = _jets(np.array(nodes, dtype=float), np.array(values, dtype=float), m)
    return WhitneyField(tuple(nodes), tuple(map(tuple, jets.tolist())))


def poly_field(p, nodes, m):
    jets = tuple(
        tuple(p.deriv_at(a, k) for k in range(m + 1)) for a in nodes
    )
    return WhitneyField(tuple(nodes), jets)


# -- WhitneyField ------------------------------------------------------------


def test_field_rejects_bad_inputs():
    with pytest.raises(TooFewNodesError):
        WhitneyField((), ())
    with pytest.raises(DuplicateNodeError):
        WhitneyField((0.0, 0.0), ((1.0,), (1.0,)))
    with pytest.raises(ValueError):
        WhitneyField((1.0, 0.0), ((1.0,), (1.0,)))
    with pytest.raises(LengthMismatchError):
        WhitneyField((0.0, 1.0), ((1.0,),))
    with pytest.raises(LengthMismatchError):
        WhitneyField((0.0, 1.0), ((1.0,), (1.0, 2.0)))
    with pytest.raises(NonFiniteError):
        WhitneyField((0.0, 1.0), ((1.0,), (math.nan,)))


def test_field_order_scale_combine():
    fa = WhitneyField((0.0, 1.0), ((1.0, 2.0), (3.0, -4.0)))
    fb = WhitneyField((0.0, 1.0), ((0.0, 1.0), (1.0, 0.0)))
    assert fa.order == 1
    assert fa.scale == 4.0
    both = fa.combine(fb, 2.0, 3.0)
    assert both.jets == ((2.0, 7.0), (9.0, -8.0))
    other = WhitneyField((0.0, 2.0), ((0.0, 1.0), (1.0, 0.0)))
    with pytest.raises(LengthMismatchError):
        fa.combine(other)


# -- transition_poly ---------------------------------------------------------


def test_transition_poly_frozen_low_orders():
    assert transition_poly(1).coeffs == pytest.approx((0.0, 0.0, 3.0, -2.0))
    assert transition_poly(2).coeffs == pytest.approx(
        (0.0, 0.0, 0.0, 10.0, -15.0, 6.0)
    )


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_transition_poly_conditions(m):
    s = transition_poly(m)
    assert s.degree == 2 * m + 1
    assert s(0.0) == pytest.approx(0.0, abs=1e-14)
    assert s(1.0) == pytest.approx(1.0, abs=1e-12)
    assert s(0.5) == pytest.approx(0.5, abs=1e-12)
    for j in range(1, m + 1):
        assert s.deriv_at(0.0, j) == pytest.approx(0.0, abs=1e-12)
        assert s.deriv_at(1.0, j) == pytest.approx(0.0, abs=1e-10)


# -- validate_field ----------------------------------------------------------


def test_remainders_vanish_for_taylor_exact_fields():
    rng = np.random.default_rng(31)
    for m in (1, 2, 3):
        p = random_poly(rng, m)
        nodes = distinct_nodes(rng, 5)
        report = validate_field(poly_field(p, nodes, m))
        assert report.max_remainder <= 1e-10 * (1.0 + p.deriv_at(0.0, 0))
        assert all(
            v <= 1e-10 for prof in report.per_k.values() for _, v in prof.points
        )


@pytest.mark.parametrize("m", [1, 2, 3])
def test_remainder_of_next_power_is_the_gap(m):
    p = Poly([0.0] * (m + 1) + [1.0])  # x^(m+1)
    for a, b in ((0.0, 1.0), (0.2, 0.9), (0.5, 0.625)):
        report = validate_field(poly_field(p, (a, b), m))
        top = report.per_k[0].points[0][1]
        assert top == pytest.approx(b - a, rel=1e-9)


def test_single_pair_top_order_remainder():
    field = WhitneyField((0.0, 0.7), ((1.0, 2.0, 5.0), (0.0, 1.0, -3.0)))
    report = validate_field(field)
    assert report.per_k[2].points[0][1] == pytest.approx(8.0, rel=1e-12)


def validate_field_by_pairs(field):
    """Brute force: one Taylor polynomial per node and order, pair by pair."""
    m, nodes, jets = field.order, field.nodes, field.jets
    deltas = delta_grid(nodes[-1] - nodes[0], min(np.diff(nodes)))
    items, worst, pairs = {k: [] for k in range(m + 1)}, 0.0, 0
    for ia, a in enumerate(nodes):
        truncated = [jet_poly(jets[ia][k:]) for k in range(m + 1)]
        for ib, b in enumerate(nodes):
            if ib == ia:
                continue
            d = abs(b - a)
            pairs += 1
            for k in range(m + 1):
                r = abs(jets[ib][k] - truncated[k](b - a)) / d ** (m - k)
                items[k].append((d, r))
                worst = max(worst, r)
    per_k = {k: banded_sup(items[k], deltas, name=f"remainder_k{k}") for k in items}
    combined = banded_sup([i for k in items for i in items[k]], deltas, name="remainders")
    return per_k, combined, worst, pairs


@pytest.mark.parametrize("m", [1, 2, 3])
def test_validate_field_matches_pair_by_pair_loop(m):
    rng = np.random.default_rng(70 + m)
    nodes = tuple(sorted(distinct_nodes(rng, 9)))
    field = WhitneyField(nodes, tuple(tuple(rng.uniform(-2.0, 2.0, m + 1)) for _ in nodes))
    got = validate_field(field)
    assert (got.per_k, got.combined, got.max_remainder, got.pair_count) == (
        validate_field_by_pairs(field)
    )


def test_validate_field_needs_two_nodes():
    with pytest.raises(TooFewNodesError):
        validate_field(WhitneyField((0.0,), ((0.0, 1.0),)))


# -- sample jets (_jets) -----------------------------------------------------


def test_jets_recover_low_degree_polynomials():
    rng = np.random.default_rng(37)
    for m in (1, 2, 3):
        p = random_poly(rng, m)
        nodes = distinct_nodes(rng, m + 3)
        field = sample_field(nodes, [p(t) for t in nodes], m)
        for a, jet in zip(field.nodes, field.jets):
            for k in range(m + 1):
                want = p.deriv_at(a, k)
                assert abs(jet[k] - want) <= 1e-9 * (1.0 + abs(want))


def test_jets_two_nodes_slope():
    field = sample_field([0.0, 1.0], [0.0, 1.0], 1)
    assert field.jets == ((0.0, 1.0), (1.0, 1.0))


def test_jets_keep_samples_exactly():
    rng = np.random.default_rng(41)
    nodes = distinct_nodes(rng, 9)
    values = list(rng.uniform(-5.0, 5.0, size=9))
    field = sample_field(nodes, values, 2)
    assert [jet[0] for jet in field.jets] == values


def test_jets_of_sine_converge_per_order():
    nodes = [i / 31.0 for i in range(32)]
    h = 1.0 / 31.0
    field = sample_field(nodes, [math.sin(t) for t in nodes], 2)
    worst = [0.0, 0.0, 0.0]
    for a, jet in zip(field.nodes, field.jets):
        true = (math.sin(a), math.cos(a), -math.sin(a))
        for k in range(3):
            worst[k] = max(worst[k], abs(jet[k] - true[k]))
    for k in range(3):
        assert worst[k] <= 2.0 * h ** (3 - k)


# -- extend ------------------------------------------------------------------


def test_extension_of_identity_jets_is_identity():
    ext = extend(poly_field(Poly((0.0, 1.0)), (0.0, 1.0), 1))
    for t in (-0.5, 0.0, 0.25, 0.5, 0.9, 1.0, 1.7):
        assert ext(t) == pytest.approx(t, abs=1e-13)
        assert ext(t, 1) == pytest.approx(1.0, abs=1e-12)


def test_extension_of_zero_field_is_zero():
    field = WhitneyField((0.0, 0.5, 1.0), ((0.0, 0.0),) * 3)
    ext = extend(field)
    ts = np.linspace(-1.0, 2.0, 301)
    assert np.max(np.abs(ext(ts))) == 0.0


def test_extension_is_linear():
    rng = np.random.default_rng(43)
    ts = np.linspace(-0.2, 1.2, 401)
    for m in (1, 2, 3):
        nodes = tuple(sorted(distinct_nodes(rng, 8)))
        fa = WhitneyField(
            nodes,
            tuple(tuple(rng.uniform(-3.0, 3.0, m + 1)) for _ in nodes),
        )
        fb = WhitneyField(
            nodes,
            tuple(tuple(rng.uniform(-3.0, 3.0, m + 1)) for _ in nodes),
        )
        lhs = extend(fa.combine(fb, 2.0, 3.0))
        ea, eb = extend(fa), extend(fb)
        diff = np.abs(lhs(ts) - (2.0 * ea(ts) + 3.0 * eb(ts)))
        assert float(np.max(diff)) <= 1e-10 * (1.0 + fa.scale + fb.scale)


def test_extension_reproduces_jets_at_nodes():
    rng = np.random.default_rng(47)
    for m in (1, 2, 3):
        # Moderate gaps: blend coefficients grow like gap^-(2m+1), so very
        # short gaps turn roundoff into visible breakpoint jumps.
        nodes = tuple(sorted(distinct_nodes(rng, 6, min_gap=0.12)))
        field = WhitneyField(
            nodes,
            tuple(tuple(rng.uniform(-4.0, 4.0, m + 1)) for _ in nodes),
        )
        ext = extend(field)
        for a, jet in zip(field.nodes, field.jets):
            got = ext.jet(a, m)
            for k in range(m + 1):
                assert abs(got[k] - jet[k]) <= 1e-9 * (1.0 + abs(jet[k]))
        jumps = ext.breakpoint_jumps()
        assert all(j <= 1e-9 * (1.0 + field.scale) for j in jumps)


def test_extension_self_consistent_remainders():
    rng = np.random.default_rng(53)
    for m in (1, 2):
        nodes = tuple(sorted(distinct_nodes(rng, 6)))
        field = WhitneyField(
            nodes,
            tuple(tuple(rng.uniform(-2.0, 2.0, m + 1)) for _ in nodes),
        )
        base = validate_field(field)
        resampled = WhitneyField(
            nodes, tuple(extend(field).jet(a, m) for a in nodes)
        )
        again = validate_field(resampled)
        for k in range(m + 1):
            want = dict(base.per_k[k].points)
            got = dict(again.per_k[k].points)
            assert set(want) == set(got)
            for d in want:
                assert abs(want[d] - got[d]) <= 1e-9 * (1.0 + want[d])


def test_extension_error_decays_with_grid():
    for m in (1, 2):
        errs, hs = [], []
        for n in (8, 16, 32, 64):
            nodes = [i / (n - 1) for i in range(n)]
            field = sample_field(nodes, [math.sin(t) for t in nodes], m)
            ts = np.linspace(0.0, 1.0, 2003)
            errs.append(float(np.max(np.abs(extend(field)(ts) - np.sin(ts)))))
            hs.append(1.0 / (n - 1))
        slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        assert slope >= m


def test_single_node_field_extends_to_its_taylor_poly():
    ext = extend(WhitneyField((0.5,), ((1.0, 2.0, 4.0),)))
    for t in (-1.0, 0.5, 2.0):
        u = t - 0.5
        assert ext(t) == pytest.approx(1.0 + 2.0 * u + 2.0 * u * u, rel=1e-12)


# -- ModulusFn ---------------------------------------------------------------


def test_power_modulus_basics():
    w = ModulusFn(coeff=3.0, exponent=0.5)
    assert w(0.0) == 0.0
    assert w(4.0) == pytest.approx(6.0, rel=1e-12)
    assert w(-4.0) == w(4.0)
    with pytest.raises(ValueError):
        ModulusFn(exponent=1.5)
    with pytest.raises(ValueError):
        ModulusFn(exponent=0.0)
    with pytest.raises(ValueError):
        ModulusFn(coeff=0.0)
    # An infinite coefficient once made every finiteness ratio 0.
    for coeff in (math.inf, math.nan):
        with pytest.raises(ValueError):
            ModulusFn(coeff=coeff)


def scalar_modulus(omega, t):
    """omega(t) as ModulusFn computed it one Python float at a time."""
    return omega.coeff * abs(float(t)) ** omega.exponent


MODULI = (
    ModulusFn(),
    ModulusFn(coeff=2.0, exponent=0.5),
    ModulusFn(coeff=0.7, exponent=0.3),
    ModulusFn(coeff=2.0, exponent=1.0),
    ModulusFn(coeff=1e-3, exponent=0.75),
)


@pytest.mark.parametrize("omega", MODULI)
def test_modulus_on_an_array_matches_scalar_calls(omega):
    rng = np.random.default_rng(31)
    special = [0.0, -0.0, -0.05, -2.0, 1e-9, 0.05, 0.1, 0.5, 1.0, 2.0, 3.0, 3.5, 1e6, -1e6]
    ts = np.concatenate([special, rng.uniform(-4.0, 4.0, 58)]).reshape(8, 9)
    got = omega(ts)
    assert got.shape == ts.shape
    for t, w in zip(ts.ravel().tolist(), got.ravel().tolist()):
        assert type(omega(t)) is float and omega(t) == w
        # numpy's array pow may round the last bit unlike the C library's
        want = scalar_modulus(omega, t)
        assert abs(w - want) <= np.spacing(want)


@given(
    st.floats(0.0, 50.0),
    st.floats(0.0, 50.0),
    st.floats(0.1, 1.0),
    st.floats(0.1, 5.0),
)
@settings(max_examples=60, deadline=None)
def test_power_modulus_monotone(t1, t2, s, c):
    w = ModulusFn(coeff=c, exponent=s)
    lo, hi = sorted((t1, t2))
    assert w(lo) <= w(hi) + 1e-12


# -- PiecewiseCm -------------------------------------------------------------


def test_piecewise_vector_matches_scalar():
    field = sample_field([0.0, 0.3, 0.7, 1.0], [0.0, 0.09, 0.49, 1.0], 1)
    mixed = PiecewiseCm(
        (0.0, 0.5, 1.0),
        (-1.0, 0.0, 0.5, 2.0),
        np.array([[1.0, -2.0, 0.5, 3.0], [0.0] * 4, [0.25, 1.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]]),
        2,
    )
    for ext in (extend(field), mixed):
        bps = [float(b) for b in ext.breakpoints]
        centers = [float(c) for c in ext.centers]

        def direct(j, t, k):
            return Poly(ext._table(0)[j]).deriv_at(t - centers[j], k)

        # Breakpoints belong to the piece on their right; beyond the hull the
        # end pieces continue.
        ts = np.concatenate([np.linspace(-0.3, 1.3, 57), bps, [-1e3, 1e3]])
        for k in range(ext.order + 2):
            vec = ext(ts, k)
            for t, v in zip(ts.tolist(), vec):
                assert v == ext(t, k) == direct(bisect_right(bps, t), t, k)
        for t in ts.tolist():
            jet = ext.jet(t, ext.order + 1)
            assert jet == tuple(ext(t, k) for k in range(ext.order + 2))

        jumps = ext.breakpoint_jumps(ext.order + 1)
        assert len(jumps) == ext.order + 2
        for k, jump in enumerate(jumps):
            assert jump == max(
                abs(direct(j, b, k) - direct(j + 1, b, k)) for j, b in enumerate(bps)
            )
    assert mixed(0.25) == 0.0 and mixed(0.5) == 0.25


def test_piecewise_shape_validation():
    p = (0.0, 1.0)
    with pytest.raises(LengthMismatchError):
        PiecewiseCm((0.0,), (0.0,), np.array([p]), 1)
    with pytest.raises(ValueError):
        PiecewiseCm((1.0, 0.0), (0.0, 0.0, 0.0), np.array([p, p, p]), 1)
    single = PiecewiseCm((), (2.0,), np.array([p]), 1)
    assert single(3.0) == 1.0
