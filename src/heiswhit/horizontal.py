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
from dataclasses import dataclass

import numpy as np

from .av import _av_profile, _discrete_av_ratios, _taylor_av
from .divdiff import _DDProfiles, _full_window, _scan
from .errors import SynthesisDefectError, TooFewNodesError
from .heis import _pansu_quotient, _velocity
from .poly import _antideriv, _deriv, _horner, _mul, _padded
from .profiles import (
    INCONSISTENT,
    Profile,
    ThresholdPolicy,
    _anchor_blocks,
    _BandMax,
    banded_sup,
    combine_statuses,
    delta_grid,
)
from .whitney import (
    PiecewiseCm,
    _blend,
    _end_rows,
    _jets,
    _shift,
    _unit_to_local,
)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a check: combined status plus per-profile evidence."""

    status: str
    profiles: dict
    statuses: dict
    slopes: dict


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
    audit: dict

    def __call__(self, t, deriv=0):
        return (self.f(t, deriv), self.g(t, deriv), self.h(t, deriv))


# Synthesis fails on a horizontality defect bound above DEFECT_TOL relative
# to the size of h' and 2(f'g - fg') (see _defect_bounds).
DEFECT_TOL = 1e-9


def _verdict(profiles):
    policy = ThresholdPolicy()
    statuses, slopes = {}, {}
    for name, prof in profiles.items():
        statuses[name], slopes[name] = policy.classify(prof)
    return Verdict(combine_statuses(list(statuses.values())), profiles, statuses, slopes)


def _bracket(f, g, lo, hi):
    """2 * int (f' g - f g') over [lo, hi], per row."""
    anti = _antideriv(_velocity(f, _deriv(f), g, _deriv(g)))
    return _horner(anti, hi) - _horner(anti, lo)


def _solve_amplitudes(a2, b1, b2, deficit, area_tol):
    """Smallest lam >= 0 and sigma in {+1,-1} closing each gap's area deficit.

    Adding (lam beta1, lam sigma beta2) changes the enclosed area by
    sigma a2 lam^2 + (b1 + sigma b2) lam, which must equal the deficit.  Of
    the roots for sigma = +1, then -1, the first smallest wins.  A deficit
    within area_tol is left uncorrected: chasing a roundoff-scale root
    across the sign constraint would pick a large bump for a negligible area.
    """
    cands = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for sigma in (1.0, -1.0):
            lead = sigma * a2
            lin = b1 + sigma * b2
            disc = lin * lin + 4.0 * lead * deficit
            q = -0.5 * (lin + np.copysign(np.sqrt(disc), lin))
            near = np.where(q == 0.0, 0.0, -deficit / q)
            far = np.where((q == 0.0) | (lead == 0.0), np.nan, q / lead)
            cands += [np.where(disc < 0.0, np.nan, c) for c in (near, far)]
    cands = np.stack(cands, -1)
    cands[~(cands >= 0.0)] = np.inf
    pick = np.argmin(cands, -1)
    lam = np.take_along_axis(cands, pick[..., None], -1)[..., 0]
    small = np.abs(deficit) <= area_tol
    if np.any(np.isinf(lam) & ~small):
        raise SynthesisDefectError("no real bump amplitude closes the gap")
    return np.where(small, 0.0, lam), np.where(small | (pick < 2), 1.0, -1.0)


def _bump_rows(m):
    """beta1 = (r(1-r))^{m+1} and beta2 = beta1 (2r - 1), r = 1/2 + 3w, in w.

    Both vanish to order m+1 at the ends of their support |w| <= 1/6.
    """
    b1 = np.ones(1)
    for _ in range(m + 1):
        b1 = _mul(b1, np.array([0.25, 0.0, -9.0]))
    return b1, _mul(b1, np.array([0.0, 6.0]))


def _horizontalize_gaps(fa, ga, fb, gb, ha, hb, a, b, m):
    """Horizontalize every gap at once, one row of jets per gap (a, b).

    f and g blend the Taylor polynomials of the end jets, a bump pair
    closes the area deficit, and h integrates the horizontal velocity,
    chained from h(a) and reaching h(b) by choice of the bump amplitude.
    Area integrals are invariant under affine changes of variable, so the
    work runs in s = (t - a) / gap, where coefficients stay tame on short
    gaps.  Returns the rows of the sub-pieces in t - a, t - mid and t - b,
    shape (gaps, 3, width), and lam, sigma and the deficit per gap.
    """
    gap = b - a
    blend_f, blend_g = _blend(fa, fb, gap), _blend(ga, gb, gap)
    # Centered at the midpoint the monomial rows cancel far less, so the
    # deficit is integrated there too.
    mid_f, mid_g = _shift(blend_f, 0.5), _shift(blend_g, 0.5)
    deficit = hb - ha - _bracket(mid_f, mid_g, -0.5, 0.5)

    beta1, beta2 = _bump_rows(m)
    sixth = 1.0 / 6.0
    a2 = _bracket(beta1, beta2, -sixth, sixth)
    b1 = _bracket(beta1, mid_g, -sixth, sixth)
    b2 = _bracket(mid_f, beta2, -sixth, sixth)
    area_tol = 1e-12 * (1.0 + np.abs(ha) + np.abs(hb))
    lam, sigma = _solve_amplitudes(a2, b1, b2, deficit, area_tol)

    width = max(blend_f.shape[-1], beta2.shape[-1])
    mid_f = _padded(mid_f, width) + lam[:, None] * _padded(beta1, width)
    mid_g = _padded(mid_g, width) + (lam * sigma)[:, None] * _padded(beta2, width)
    f = np.stack([_padded(c, width) for c in (blend_f, mid_f, _shift(blend_f, 1.0))], 1)
    g = np.stack([_padded(c, width) for c in (blend_g, mid_g, _shift(blend_g, 1.0))], 1)

    # The last third is expanded at b (s - 1); h is chained across the
    # three sub-pieces, each integrated near its own center.
    h = _antideriv(_velocity(f, _deriv(f), g, _deriv(g)))
    start = ha
    for j, (s0, s1) in enumerate(((0.0, 1.0 / 3.0), (-sixth, sixth), (-1.0 / 3.0, 0.0))):
        h[:, j, 0] = start - _horner(h[:, j], s0)
        start = _horner(h[:, j], s1)
    f, g, h = (_unit_to_local(c, gap[:, None]) for c in (f, g, h))
    return f, g, h, lam, sigma, deficit


def synthesize(samples, m, force=False, window=None):
    """Build a horizontal C^m interpolant of the samples.

    Fits jets to f and g, then horizontalizes every gap: f and g blend the
    end jets, h integrates 2(f'g - fg') from the sampled height, and a bump
    pair closes the area deficit.  Unless force is set, check_cm must not
    come back inconsistent.  The result is audited for node reproduction
    and for a bound on its horizontality defect, read off the coefficients
    of every piece (see _defect_bounds); failure raises SynthesisDefectError.
    """
    nodes = samples.nodes
    if len(nodes) < m + 1:
        raise TooFewNodesError(f"need at least {m + 1} nodes for order {m}")
    if not force:
        gate = check_cm(samples, m, window=window)
        if gate.status == INCONSISTENT:
            raise SynthesisDefectError(
                "samples judged inconsistent with a horizontal C^m curve; "
                "pass force=True to synthesize anyway"
            )

    t, hs = samples._t, samples._xyz[2]
    fj, gj = _jets(t, samples._xyz[:2], m)
    f, g, h, lam, _, _ = _horizontalize_gaps(
        fj[:-1], gj[:-1], fj[1:], gj[1:], hs[:-1], hs[1:], t[:-1], t[1:], m
    )
    # Beyond the extreme nodes: the end jets' Taylor polynomials, and h
    # integrating their horizontal velocity from the end samples.
    end_f, end_g = _end_rows(fj, f.shape[-1]), _end_rows(gj, g.shape[-1])
    end_h = _antideriv(_velocity(end_f, _deriv(end_f), end_g, _deriv(end_g)))
    end_h[:, 0] += hs[[0, -1]]
    a, gap = t[:-1], np.diff(t)
    breaks = np.column_stack([a + gap / 3.0, a + 2.0 * gap / 3.0, t[1:]]).ravel()
    centers = np.column_stack([a, a + 0.5 * gap, t[1:]]).ravel()
    exts = tuple(
        PiecewiseCm(np.concatenate([t[:1], breaks]), np.concatenate([t[:1], centers, t[-1:]]),
                    np.concatenate([ends[:1], rows.reshape(-1, rows.shape[-1]), ends[1:]]), m)
        for ends, rows in ((end_f, f), (end_g, g), (end_h, h))
    )

    bounds, scale = _defect_bounds(*exts)
    piece = int(np.argmax(bounds))
    defect = float(bounds[piece])
    if defect > DEFECT_TOL * scale:
        raise SynthesisDefectError(
            f"horizontality defect {defect:.3e} exceeds {DEFECT_TOL:.1e} * {scale:.3e}"
        )
    # One row per node, so argwhere meets failures node by node.
    got = np.array([ext(t) for ext in exts]).T
    want = samples._xyz.T
    failed = np.argwhere(np.abs(got - want) > 1e-10 * (1.0 + np.abs(want)))
    if len(failed):
        i, c = failed[0]
        raise SynthesisDefectError(
            f"node reproduction failed at t={nodes[i]}: {got[i, c]} vs {want[i, c]}"
        )

    top = int(np.argmax(lam))
    audit = {
        "node_error": float(np.max(np.abs(got - want))),
        "breakpoint_jumps": {c: ext.breakpoint_jumps(m) for c, ext in zip("fgh", exts)},
        "defect_piece": [piece, *_piece_spans(exts[0])[:, piece].tolist()],
        "max_bump": float(lam[top]),
        "max_bump_gap": [nodes[top], nodes[top + 1]],
    }
    modulus = _empirical_modulus(exts, m, nodes)
    return HorizontalCurve(*exts, m, nodes, defect, tuple(lam.tolist()), modulus, audit)


def _piece_spans(ext):
    """(lo, hi) of every piece of ext: its breakpoints, an end piece its one node."""
    b = ext.breakpoints
    ends = np.concatenate([b[:1], b, b[-1:]])
    return np.stack([ends[:-1], ends[1:]])


def _defect_bounds(f, g, h):
    """Bounds on |h' - 2(f'g - fg')| per piece of three PiecewiseCm, and a scale.

    f, g and h share breakpoints and centers, and h's rows are as wide as
    the products of f's and g's, as synthesize builds them.  So on each
    piece the defect D is a polynomial in the local variable u, and
    sum_k |d_k| r^k bounds it where |u| <= r.  r is the largest |u| over
    the piece's span: the whole piece between two breakpoints, and only
    the attachment node for the two unbounded end pieces.  Each float d_k
    is at most w + 3 roundings (w = d's width) from the exact one, so adding
    gamma = (w + 4) eps/2 times S = |h'| + 2(|f'| |g| + |f| |g'|), each row
    read as sum_k |c_k| r^k, and the factor 1 + 3 gamma for the rounding of r
    and the Horner sums make the bound strict for the stored rows.  The
    scale is 1 + max|h'| + 2 max|f'g| + 2 max|fg'| at the breakpoints and centers.
    """
    f0, f1, g0, g1, h1 = f._table(0), f._table(1), g._table(0), g._table(1), h._table(1)
    d = h1 - _velocity(f0, f1, g0, g1)
    r = np.max(np.abs(_piece_spans(f) - f.centers), axis=0)
    af, adf, ag, adg, adh, ad = (_horner(np.abs(c), r) for c in (f0, f1, g0, g1, h1, d))
    gamma = (d.shape[-1] + 4) * np.finfo(float).eps / 2.0
    ts = np.union1d(f.breakpoints, f.centers)
    fv, dfv, gv, dgv, dhv = f(ts), f(ts, 1), g(ts), g(ts, 1), h(ts, 1)
    scale = 1.0 + float(
        np.max(np.abs(dhv)) + 2.0 * np.max(np.abs(dfv * gv)) + 2.0 * np.max(np.abs(fv * dgv))
    )
    return (ad + gamma * (adh + 2.0 * (adf * ag + af * adg))) * (1.0 + 3.0 * gamma), scale


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


def check_c1(samples):
    """First-order check: group difference quotients must settle.

    Profiles the oscillation of the planar parts of the Pansu difference
    quotients around a local mean at each anchor, and the size of the
    vertical part; a curve with a C^1 horizontal interpolant drives both
    to zero, while a genuinely non-horizontal sample keeps the vertical
    part of order 1/delta.
    """
    t, xyz = samples._t, samples._xyz
    n = len(t)
    deltas = delta_grid(samples.diam, samples.min_gap)

    # Local means of the adjacent quotients around each node.
    steps = _pansu_quotient(xyz[:, :-1], xyz[:, 1:], t[:-1], t[1:])
    lo, hi = np.maximum(np.arange(n) - 1, 0), np.minimum(np.arange(n), n - 2)
    mx, my = (np.where(lo == hi, s[lo], (s[lo] + s[hi]) / 2) for s in steps[:2])

    # Pairs i < j by blocks of anchors i; a pair's oscillation is the larger
    # of its two ends', both banded at its diameter.
    bands = _BandMax(deltas, 2)
    for a, b in _anchor_blocks(np.arange(n - 1, 0, -1)):
        i, j = np.nonzero(np.arange(a, b)[:, None] < np.arange(n))
        i += a
        pa, pb = np.take(xyz, i, axis=1), np.take(xyz, j, axis=1)
        qx, qy, qz = _pansu_quotient(pa, pb, t[i], t[j])
        osc = (np.maximum(np.abs(qx - mx[k]), np.abs(qy - my[k])) for k in (i, j))
        bands.add(t[j] - t[i], np.fmax(*osc), np.abs(qz))
    names = ("pansu_xy_osc", "pansu_z")
    return _verdict({name: bands.profile(name, k) for k, name in enumerate(names)})


def check_cm(samples, m, window=None):
    """Order-m check from raw samples.

    Divided-difference decay per component plus the decay of the discrete
    area/velocity ratio, both read off one Newton table of the windowed
    subsets, slice by slice.
    """
    scan, deltas = _scan(samples, m, window)
    dd, av = _DDProfiles(scan), _BandMax(deltas)
    for table in scan.tables():
        dd.add(table)
        av.add(*_discrete_av_ratios(table, samples._xyz[2], m))
    profiles = dd.profiles(deltas)
    profiles["av_discrete"] = av.profile("discrete_av_ratio")
    return _verdict(profiles)


def check_cm_via_w(samples, m, window=None):
    """Order-m check through the extension operator.

    Fits jets to f and g, and profiles the continuous area/velocity ratio
    of the fitted jets and the sampled h alongside the raw
    divided-difference decay.
    """
    scan, deltas = _scan(samples, m, window)
    dd = _DDProfiles(scan)
    for table in scan.tables():
        dd.add(table)
    t, xyz = samples._t, samples._xyz
    f, g = _jets(t, xyz[:2], m)
    profiles = dd.profiles(deltas)
    profiles["av_w"] = _av_profile(t, f, g, xyz[2], m, deltas)
    return _verdict(profiles)


@dataclass(frozen=True)
class FinitenessReport:
    """Constants extracted from the finite-subset scan."""

    m_hat: float
    c2_hat: float
    worst_subset: tuple
    worst_pair: tuple
    profile: Profile
    status: str
    slope: float  # the profile's, with status from ThresholdPolicy.bounded
    subsets_scanned: int


def _seminorm(slope, diam, omega):
    """C^{m,omega} seminorms of interpolants with affine m-th derivatives.

    |p^(m)(b) - p^(m)(a)| = |slope| |b - a|; slope (.., S) and diam (S,).
    Under omega = c t^s the sup of |slope| d / omega(d) over d <= diam is
    reached at d = diam, since s <= 1.  A tiny c may overflow it to inf.
    """
    with np.errstate(over="ignore"):
        return np.abs(slope) * diam ** (1.0 - omega.exponent) / omega.coeff


def finiteness_check(samples, m, omega, window=None, full_enum=None):
    """Scan (m+2)-point subsets for the finiteness-principle constants.

    For each subset X the curve Gamma_X is the componentwise interpolant;
    the scan records M_hat, the largest |A|/(V * omega(b-a)) over endpoint
    pairs in X, and C2_hat, the largest C^{m,omega} seminorm of Gamma_X
    over its hull.  Bounded constants under refinement are the evidence
    that a horizontal extension with modulus sqrt(omega) exists.  full_enum
    scans every subset as divdiff._full_window rules; None, the default, does
    so when no window is given and there are at most 20 nodes.
    """
    if full_enum is None:
        full_enum = window is None and len(samples._t) <= 20
    window = _full_window(len(samples._t), m, window, full_enum)
    scan, deltas = _scan(samples, m, window, order=m + 1)
    bands, worst, c2_hat = _BandMax(deltas), None, 0.0
    for table in scan.tables():
        # Interpolants and their jets live in u; node values and separations
        # are read off the global nodes xs.  The Taylor kernel reads the
        # values at every node, the derivatives only at its anchors: every
        # node but the last.
        xs, u, p = table.xs, table.u, table.polys()
        values = _horner(p[:, :, None, :], u)
        jets, p = [values[:2, :, :-1]], p[:2]
        for _ in range(m):
            p = _deriv(p)
            jets.append(_horner(p[..., None, :], u[:, :-1]))
        ia, ib, area, velocity = _taylor_av(u, *np.stack(jets, axis=-1), values, m)
        # Bin at the pair separation, not diam(X): a short pair inside a wide
        # window would otherwise hide growth in the top bands.
        sep = xs[:, ib] - xs[:, ia]
        w = omega(sep)
        ratios = np.full(sep.shape, math.inf)
        # A tiny coefficient can underflow velocity * w to 0 or overflow the
        # ratio; either gives inf, which the verdict never reads as collapsed.
        with np.errstate(divide="ignore", over="ignore"):
            np.divide(np.abs(area), velocity * w, out=ratios, where=w > 0)
        bands.add(sep.ravel(), ratios.ravel())
        # The witness is np.argmax's over the whole scan in (subset, pair)
        # order: the first NaN, else the first largest ratio.
        s, k = divmod(int(np.argmax(ratios)), len(ia))
        ratio = float(ratios[s, k])
        if worst is None or not (math.isnan(worst[0]) or ratio <= worst[0]):
            worst = ratio, tuple(xs[s].tolist()), (float(xs[s, ia[k]]), float(xs[s, ib[k]]))
        slope = table.dd[..., m + 1] * math.factorial(m + 1)
        c2_hat = np.max(_seminorm(slope, xs[:, -1] - xs[:, 0], omega), initial=c2_hat)
    m_hat, worst_subset, worst_pair = worst
    if not m_hat > 0.0:
        m_hat, worst_subset, worst_pair = 0.0, (), ()

    profile = bands.profile("finiteness_ratio")
    status, slope = ThresholdPolicy().bounded(profile)
    return FinitenessReport(
        m_hat, float(c2_hat), worst_subset, worst_pair, profile, status, slope, len(scan.idx)
    )
