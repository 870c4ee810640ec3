"""Horizontality checking and horizontal curve synthesis.

The pipeline: decide from samples whether a horizontal C^m interpolant is
plausible (decay profiles of divided differences, area/velocity ratios,
group difference quotients), then actually build one by blending Taylor
polynomials of locally fitted jets and closing each gap's signed-area
deficit with a compactly supported bump pair in the middle third of the
gap.  The bump amplitude scales like the square root of the deficit, which
is exactly the mechanism that costs half an order of modulus in the
guarantee.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .av import _discrete_av_profile, _taylor_av, av_profile
from .divdiff import (
    _dd_profiles, _monomial_rows, _newton_table, _window_width, dd_profile,
)
from .errors import (
    DegenerateGapError,
    OrderMismatchError,
    SynthesisDefectError,
    TooFewNodesError,
)
from .heis import CurveJets, _horizontality_residual, leibniz_stack
from .poly import Poly, _deriv, _horner, compose_affine, jet_poly, signed_integral
from .profiles import (
    CONSISTENT,
    INCONCLUSIVE,
    INCONSISTENT,
    Profile,
    ThresholdPolicy,
    banded_sup,
    combine_statuses,
    delta_grid,
)
from .whitney import (
    PiecewiseCm,
    WhitneyField,
    _blend,
    jets_from_samples,
    transition_poly,
    validate_field,
)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a check: combined status plus per-profile evidence."""

    status: str
    profiles: dict
    statuses: dict
    slopes: dict
    policy: ThresholdPolicy
    constants: dict = field(default_factory=dict)


@dataclass(frozen=True)
class HorizontalCurve:
    """A synthesized horizontal interpolant with its audit numbers."""

    f: PiecewiseCm
    g: PiecewiseCm
    h: PiecewiseCm
    order: int
    nodes: tuple
    defect: float
    bump_amplitudes: tuple
    modulus: dict

    def __call__(self, t, deriv=0):
        return (self.f(t, deriv), self.g(t, deriv), self.h(t, deriv))


@dataclass(frozen=True)
class GapPieces:
    """One horizontalized gap: three sub-pieces per component.

    The outer sub-pieces live in local coordinates u = t - a; the middle
    one is centered at the bump midpoint so its Horner terms stay tame
    even when the bump amplitude is large on a short gap.
    """

    breaks: tuple  # (a + L/3, a + 2L/3); both sub-breakpoints interior
    f_pieces: tuple
    g_pieces: tuple
    h_pieces: tuple
    centers: tuple
    lam: float
    sigma: float
    deficit: float


def _verdict(profiles, policy, constants=None):
    statuses, slopes = {}, {}
    for name, prof in profiles.items():
        status, slope = policy.classify(prof)
        statuses[name] = status
        slopes[name] = slope
    return Verdict(
        combine_statuses(list(statuses.values())),
        profiles,
        statuses,
        slopes,
        policy,
        constants or {},
    )


def horizontal_jet_completion(f_ext, g_ext, nodes, hvals, m):
    """Complete h-samples to jets forced by horizontality.

    H^0 is the sample; H^k for k >= 1 is the (k-1)-th derivative of the
    horizontal velocity 2(f'g - g'f) of the given extensions at the node.
    Returns the completed field together with its Taylor-remainder report.
    """
    if f_ext.order < m or g_ext.order < m:
        raise OrderMismatchError(
            f"extensions carry order {min(f_ext.order, g_ext.order)}, need {m}"
        )
    if len(nodes) != len(hvals):
        raise TooFewNodesError("one h sample per node required")
    jets = []
    for a, h0 in zip(nodes, hvals):
        fjet = f_ext.jet(a, m)
        gjet = g_ext.jet(a, m)
        jets.append((float(h0), *leibniz_stack(fjet, gjet, m)))
    hfield = WhitneyField(tuple(nodes), tuple(jets))
    return hfield, validate_field(hfield, "cm")


def _bump_basis(m, gap):
    """Bump pair on the middle third of a gap, centered at its midpoint.

    beta1(s) = (s(1-s))^{m+1} and beta2 = beta1 * (2s - 1) on s in [0, 1],
    with s = 1/2 + 3v/gap and v the offset from the gap midpoint; both
    vanish to order m+1 at the ends of the support, so adding them keeps
    the curve C^m.  Centering keeps |3v/gap| <= 1/2 on the support, which
    avoids the cancellation a start-anchored chart suffers on short gaps.
    """
    base = Poly([0.0, 1.0, -1.0])
    b1 = Poly([1.0])
    for _ in range(m + 1):
        b1 = b1 * base
    b2 = b1 * Poly([-1.0, 2.0])
    sixth = gap / 6.0
    return (
        compose_affine(b1, 0.5, 3.0 / gap),
        compose_affine(b2, 0.5, 3.0 / gap),
        -sixth,
        sixth,
    )


def _bracket_integral(p, q, lo, hi):
    """2 * int (p' q - p q') over [lo, hi]."""
    return 2.0 * signed_integral(p.derivative() * q - q.derivative() * p, lo, hi)


def _solve_amplitude(a2, b1, b2, deficit, area_tol=0.0):
    """Smallest lam >= 0 and sigma in {+1,-1} closing the area deficit.

    Adding (lam beta1, lam sigma beta2) changes the enclosed area by
    sigma a2 lam^2 + (b1 + sigma b2) lam; we need that to equal deficit.
    A deficit within area_tol is left uncorrected: the nearest exact root
    can sit just below zero at roundoff scale, and chasing it across the
    sign constraint would select the far root of the quadratic, a large
    bump closing a negligible area.  The discriminant is nonnegative for
    sigma = -sign(deficit) sign(a2), so a solution always exists; with
    zero blends it reduces to lam = sqrt(|deficit| / |a2|).
    """
    if abs(deficit) <= area_tol:
        return 0.0, 1.0
    best = None
    for sigma in (1.0, -1.0):
        lead = sigma * a2
        lin = b1 + sigma * b2
        disc = lin * lin + 4.0 * lead * deficit
        if disc < 0.0:
            continue
        root = math.sqrt(disc)
        q = -0.5 * (lin + math.copysign(root, lin))
        if q == 0.0:
            cands = [0.0]
        else:
            cands = [-deficit / q]
            if lead != 0.0:
                cands.append(q / lead)
        for lam in cands:
            if lam >= 0.0 and (best is None or lam < best[0]):
                best = (lam, sigma)
    if best is None:
        raise SynthesisDefectError("no real bump amplitude closes the gap")
    return best


def gap_horizontalize(fjet_a, gjet_a, fjet_b, gjet_b, ha, hb, a, b, m):
    """Horizontalize one gap: blend the jets, bump away the area deficit.

    Returns GapPieces whose h sub-pieces are exact antiderivatives of the
    horizontal velocity, chained continuously from h(a) and hitting h(b)
    at the far end by choice of the bump amplitude.
    """
    if not (b > a):
        raise DegenerateGapError(f"need b > a, got a={a}, b={b}")
    gap = b - a
    mid = a + 0.5 * gap
    transition = transition_poly(m)
    blend_f = _blend(fjet_a[: m + 1], fjet_b[: m + 1], gap, transition)
    blend_g = _blend(gjet_a[: m + 1], gjet_b[: m + 1], gap, transition)

    deficit = hb - ha - _bracket_integral(blend_f, blend_g, 0.0, gap)

    # Middle third in coordinates v = t - mid; the bump support is
    # [-gap/6, gap/6] there, and the blends shift to tame polynomials.
    beta1, beta2, vlo, vhi = _bump_basis(m, gap)
    mid_blend_f = compose_affine(blend_f, 0.5 * gap, 1.0)
    mid_blend_g = compose_affine(blend_g, 0.5 * gap, 1.0)
    a2 = _bracket_integral(beta1, beta2, vlo, vhi)
    b1 = _bracket_integral(beta1, mid_blend_g, vlo, vhi)
    b2 = _bracket_integral(mid_blend_f, beta2, vlo, vhi)
    area_tol = 1e-12 * (1.0 + abs(ha) + abs(hb))
    lam, sigma = _solve_amplitude(a2, b1, b2, deficit, area_tol)

    mid_f = mid_blend_f + lam * beta1
    mid_g = mid_blend_g + (lam * sigma) * beta2
    f_pieces = (blend_f, mid_f, blend_f)
    g_pieces = (blend_g, mid_g, blend_g)

    h_pieces = []
    start = ha
    spans = ((0.0, vlo + 0.5 * gap), (vlo, vhi), (vhi + 0.5 * gap, gap))
    for (u0, u1), pf, pg in zip(spans, f_pieces, g_pieces):
        eta = 2.0 * (pf.derivative() * pg - pf * pg.derivative())
        anti = eta.antiderivative()
        piece = anti + Poly([start - anti(u0)])
        h_pieces.append(piece)
        start = piece(u1)

    return GapPieces(
        (a + gap / 3.0, a + 2.0 * gap / 3.0),
        f_pieces,
        g_pieces,
        tuple(h_pieces),
        (a, mid, a),
        lam,
        sigma,
        deficit,
    )


def _end_h_piece(fjet, gjet, h0, m):
    """Horizontal h continuation from a jet pair at an extreme node."""
    tf, tg = jet_poly(fjet[: m + 1]), jet_poly(gjet[: m + 1])
    eta = 2.0 * (tf.derivative() * tg - tf * tg.derivative())
    return eta.antiderivative() + Poly([h0])


def synthesize(
    samples,
    m,
    force=False,
    policy=None,
    window=None,
    full_enum=False,
    ratio=0.5,
    audit_points=10_001,
    defect_tol=1e-9,
):
    """Build a horizontal C^m interpolant of the samples.

    Fits jets to f and g, then horizontalizes every gap: f and g blend the
    end jets, h integrates 2(f'g - fg') from the sampled height, and a bump
    pair closes the area deficit.  Unless force is set, check_cm must not
    come back inconsistent.  The result is audited for node reproduction
    and horizontality defect on a dense grid; failure raises
    SynthesisDefectError.
    """
    nodes = samples.nodes
    n = len(nodes)
    if n < m + 1:
        raise TooFewNodesError(f"need at least {m + 1} nodes for order {m}")
    if not force:
        gate = check_cm(
            samples, m, window=window, policy=policy, ratio=ratio,
            full_enum=full_enum,
        )
        if gate.status == INCONSISTENT:
            raise SynthesisDefectError(
                "samples judged inconsistent with a horizontal C^m curve; "
                "pass force=True to synthesize anyway"
            )

    hs = samples.hs
    f_field = jets_from_samples(nodes, samples.fs, m)
    g_field = jets_from_samples(nodes, samples.gs, m)

    breakpoints = [nodes[0]]
    f_pieces = [jet_poly(f_field.jets[0])]
    g_pieces = [jet_poly(g_field.jets[0])]
    h_pieces = [_end_h_piece(f_field.jets[0], g_field.jets[0], hs[0], m)]
    centers = [nodes[0]]
    amplitudes = []
    for i in range(n - 1):
        gp = gap_horizontalize(
            f_field.jets[i],
            g_field.jets[i],
            f_field.jets[i + 1],
            g_field.jets[i + 1],
            hs[i],
            hs[i + 1],
            nodes[i],
            nodes[i + 1],
            m,
        )
        amplitudes.append(gp.lam)
        f_pieces.extend(gp.f_pieces)
        g_pieces.extend(gp.g_pieces)
        h_pieces.extend(gp.h_pieces)
        centers.extend(gp.centers)
        breakpoints.extend([gp.breaks[0], gp.breaks[1], nodes[i + 1]])
    f_pieces.append(jet_poly(f_field.jets[-1]))
    g_pieces.append(jet_poly(g_field.jets[-1]))
    h_pieces.append(
        _end_h_piece(f_field.jets[-1], g_field.jets[-1], hs[-1], m)
    )
    centers.append(nodes[-1])

    f_ext = PiecewiseCm(breakpoints, centers, f_pieces, m)
    g_ext = PiecewiseCm(breakpoints, centers, g_pieces, m)
    h_ext = PiecewiseCm(breakpoints, centers, h_pieces, m)

    grid = np.linspace(nodes[0], nodes[-1], audit_points)
    fv, dfv = f_ext(grid), f_ext(grid, 1)
    gv, dgv = g_ext(grid), g_ext(grid, 1)
    dhv = h_ext(grid, 1)
    residual = _horizontality_residual(fv, dfv, gv, dgv, dhv)
    scale = 1.0 + float(
        np.max(np.abs(dhv)) + 2.0 * np.max(np.abs(dfv * gv)) + 2.0 * np.max(np.abs(fv * dgv))
    )
    defect = float(np.max(np.abs(residual)))
    if defect > defect_tol * scale:
        raise SynthesisDefectError(
            f"horizontality defect {defect:.3e} exceeds {defect_tol:.1e} * {scale:.3e}"
        )
    # One row per node, so argwhere meets failures node by node.
    got = np.array([ext(np.array(nodes)) for ext in (f_ext, g_ext, h_ext)]).T
    want = np.array([samples.fs, samples.gs, hs]).T
    failed = np.argwhere(np.abs(got - want) > 1e-10 * (1.0 + np.abs(want)))
    if len(failed):
        i, c = failed[0]
        raise SynthesisDefectError(
            f"node reproduction failed at t={nodes[i]}: {got[i, c]} vs {want[i, c]}"
        )

    modulus = _empirical_modulus((f_ext, g_ext, h_ext), m, nodes)
    return HorizontalCurve(
        f_ext,
        g_ext,
        h_ext,
        m,
        nodes,
        defect,
        tuple(amplitudes),
        modulus,
    )


def _empirical_modulus(exts, m, nodes, points=513):
    """Banded oscillation of the m-th derivatives on a uniform grid."""
    grid = np.linspace(nodes[0], nodes[-1], points)
    step = grid[1] - grid[0]
    deltas = delta_grid(nodes[-1] - nodes[0], step)
    out = {}
    for name, ext in zip(("f", "g", "h"), exts):
        vals = ext(grid, m)
        items = []
        lag = 1
        while lag < points:
            diff = np.abs(vals[lag:] - vals[:-lag])
            items.append((lag * step, float(diff.max())))
            lag *= 2
        out[name] = banded_sup(items, deltas, name=f"modulus_{name}")
    return out


def check_c1(samples, policy=None, deltas=None, ratio=0.5):
    """First-order check: group difference quotients must settle.

    Profiles the oscillation of the planar parts of the Pansu difference
    quotients around a local mean at each anchor, and the size of the
    vertical part; a curve with a C^1 horizontal interpolant drives both
    to zero, while a genuinely non-horizontal sample keeps the vertical
    part of order 1/delta.
    """
    policy = policy or ThresholdPolicy()
    nodes = samples.nodes
    n = len(nodes)
    if deltas is None:
        deltas = delta_grid(samples.diam, samples.min_gap, ratio)

    t = np.array(nodes)
    x, y, z = (np.array(c) for c in (samples.fs, samples.gs, samples.hs))

    def quotients(i, j):
        # pansu_dq(points[i], points[j], t[i], t[j]) for index arrays, with
        # its order of operations: inverse, group product, dilation.
        r = 1.0 / (t[j] - t[i])
        return (
            r * (-x[i] + x[j]),
            r * (-y[i] + y[j]),
            r * r * (-z[i] + z[j] + 2.0 * (-y[i] * x[j] - -x[i] * y[j])),
        )

    # Local means of the adjacent quotients around each node.
    steps = quotients(np.arange(n - 1), np.arange(1, n))
    lo, hi = np.maximum(np.arange(n) - 1, 0), np.minimum(np.arange(n), n - 2)
    mx, my = (np.where(lo == hi, s[lo], (s[lo] + s[hi]) / 2) for s in steps[:2])

    i, j = np.triu_indices(n, 1)
    qx, qy, qz = quotients(i, j)
    d = t[j] - t[i]
    z_items = np.column_stack((d, np.abs(qz)))
    osc = [np.maximum(np.abs(qx - mx[k]), np.abs(qy - my[k])) for k in (i, j)]
    xy_items = np.column_stack((np.concatenate((d, d)), np.concatenate(osc)))

    profiles = {
        "pansu_xy_osc": banded_sup(xy_items, deltas, name="pansu_xy_osc"),
        "pansu_z": banded_sup(z_items, deltas, name="pansu_z"),
    }
    return _verdict(profiles, policy)


def check_cm(
    samples, m, window=None, policy=None, deltas=None, ratio=0.5, full_enum=False
):
    """Order-m check from raw samples.

    Divided-difference decay per component plus the decay of the discrete
    area/velocity ratio, both read off one Newton table of the windowed
    subsets.
    """
    policy = policy or ThresholdPolicy()
    if len(samples.nodes) < m + 2:
        raise TooFewNodesError(f"need at least {m + 2} nodes for order {m}")
    if deltas is None:
        deltas = delta_grid(samples.diam, samples.min_gap, ratio)
    table = _newton_table(samples, m, window, full_enum)
    profiles = {f"dd_{c}": p for c, p in _dd_profiles(table, deltas).items()}
    profiles["av_discrete"] = _discrete_av_profile(samples, m, table, deltas)
    return _verdict(profiles, policy)


def check_cm_via_w(
    samples, m, window=None, policy=None, deltas=None, ratio=0.5, full_enum=False
):
    """Order-m check through the extension operator.

    Fits jets to all three components, and profiles the continuous
    area/velocity ratio of the fitted jets alongside the raw
    divided-difference decay.
    """
    policy = policy or ThresholdPolicy()
    nodes = samples.nodes
    if len(nodes) < m + 2:
        raise TooFewNodesError(f"need at least {m + 2} nodes for order {m}")
    if deltas is None:
        deltas = delta_grid(samples.diam, samples.min_gap, ratio)
    f_field = jets_from_samples(nodes, samples.fs, m)
    g_field = jets_from_samples(nodes, samples.gs, m)
    h_field = jets_from_samples(nodes, samples.hs, m)
    jets = CurveJets(tuple(nodes), f_field.jets, g_field.jets, h_field.jets)
    dd = dd_profile(samples, m, window=window, deltas=deltas, ratio=ratio,
                    full_enum=full_enum)
    profiles = {
        "dd_f": dd["f"],
        "dd_g": dd["g"],
        "dd_h": dd["h"],
        "av_w": av_profile(jets, m, deltas=deltas, ratio=ratio),
    }
    return _verdict(profiles, policy)


@dataclass(frozen=True)
class FinitenessReport:
    """Constants extracted from the finite-subset scan."""

    m_hat: float
    c2_hat: float
    worst_subset: tuple
    worst_pair: tuple
    profile: Profile
    status: str
    subsets_scanned: int


def _seminorm(slope, diam, omega):
    """C^{m,omega} seminorms of interpolants with affine m-th derivatives.

    |p^(m)(b) - p^(m)(a)| = |slope| |b - a|; slope (.., S) and diam (S,).
    """
    if omega.kind == "power":
        return np.abs(slope) * diam ** (1.0 - omega.exponent) / omega.coeff
    d = diam * 0.5 ** np.arange(60)[:, None]  # 60 halvings of each diam
    w = np.vectorize(omega, otypes=[float])(d)
    out = np.zeros(np.shape(slope)[:-1] + d.shape)
    return np.divide(np.abs(slope)[..., None, :] * d, w, out=out, where=w > 0).max(-2)


def finiteness_check(
    samples, m, omega, window=None, policy=None, full_enum=None, ratio=0.5
):
    """Scan (m+2)-point subsets for the finiteness-principle constants.

    For each subset X the curve Gamma_X is the componentwise interpolant;
    the scan records M_hat, the largest |A|/(V * omega(b-a)) over endpoint
    pairs in X, and C2_hat, the largest C^{m,omega} seminorm of Gamma_X
    over its hull.  Bounded constants under refinement are the evidence
    that a horizontal extension with modulus sqrt(omega) exists.
    """
    nodes = samples.nodes
    n = len(nodes)
    if n < m + 2:
        raise TooFewNodesError(f"need at least {m + 2} nodes for order {m}")
    window = _window_width(window, m)
    if window < m + 2:
        raise TooFewNodesError(f"window must be at least {m + 2}")
    if full_enum is None:
        full_enum = n <= 20
    deltas = delta_grid(samples.diam, samples.min_gap, ratio)

    _, _, xs, coeffs = _newton_table(samples, m + 1, window, full_enum)
    # Interpolants and their jets live in u = t - x[0]; node values and
    # separations are read off the global x.
    u = xs - xs[:, :1]
    polys = _monomial_rows(coeffs, u)
    jets, p = [], polys
    for _ in range(m + 1):
        jets.append(_horner(p[..., None, :], u))
        p = _deriv(p)
    f, g, h = np.stack(jets, axis=-1)
    ia, ib = np.triu_indices(m + 2, 1)
    area, velocity = _taylor_av(f, g, h, ia, ib, u[:, ib] - u[:, ia], m)
    # Bin at the pair separation, not diam(X): a short pair inside a wide
    # window would otherwise hide growth in the top bands.
    sep = xs[:, ib] - xs[:, ia]
    w = np.array([omega(s) for s in sep.ravel().tolist()]).reshape(sep.shape)
    ratios = np.full(sep.shape, math.inf)
    np.divide(np.abs(area), velocity * w, out=ratios, where=w > 0)
    items = np.column_stack((sep.ravel(), ratios.ravel()))
    # The first largest ratio in (subset, pair) order is the witness.
    s, k = divmod(int(np.argmax(ratios)), len(ia))
    m_hat, worst_subset = float(ratios[s, k]), tuple(xs[s].tolist())
    worst_pair = (float(xs[s, ia[k]]), float(xs[s, ib[k]]))
    if not m_hat > 0.0:
        m_hat, worst_subset, worst_pair = 0.0, (), ()
    slope = polys[..., m + 1] * math.factorial(m + 1)
    c2_hat = float(np.max(_seminorm(slope, xs[:, -1] - xs[:, 0], omega), initial=0.0))

    profile = banded_sup(items, deltas, name="finiteness_ratio")
    status = _bounded_status(profile, policy or ThresholdPolicy())
    return FinitenessReport(
        m_hat, c2_hat, worst_subset, worst_pair, profile, status, len(xs)
    )


def _bounded_status(profile, policy):
    """Boundedness verdict: collapsed, flat, or decaying is fine; growth is not."""
    if len(profile) == 0:
        return INCONCLUSIVE
    if profile.terminal <= policy.zero_tol * max(1.0, profile.top):
        return CONSISTENT
    slope = profile.slope(policy.decades)
    top = max(profile.top, policy.zero_tol)
    if slope <= -policy.slope_consistent and profile.terminal >= policy.deadband * top:
        return INCONSISTENT
    if slope >= -policy.slope_flat * 2.0:
        return CONSISTENT
    return INCONCLUSIVE
