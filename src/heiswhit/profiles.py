"""Scale profiles and the slope-based verdict policy.

A profile records, for a geometric grid of scales delta, the largest value
of some quantity measured over configurations whose diameter falls in the
band (delta * DELTA_RATIO, delta].  Banding (rather than a cumulative sup
over all diameters below delta) keeps growth visible: a quantity behaving
like 1/diam shows up as a profile with log-log slope -1 instead of
saturating at the smallest configuration available.
"""

import math
from dataclasses import dataclass

import numpy as np

# Slopes are fitted over the smallest SLOPE_DECADES decades of delta, and
# each scale of a grid is DELTA_RATIO times the one before it.
SLOPE_DECADES = 3.0
DELTA_RATIO = 0.5
# Profile builders feed the band reducer in chunks of at most CHUNK_PAIRS
# node pairs (a Newton-table slice holds as many subsets as have that many
# pairs), so a scan's peak memory does not grow with its pair or subset count.
CHUNK_PAIRS = 8192


@dataclass(frozen=True)
class Profile:
    """Scale profile: (delta, value) points with delta strictly decreasing."""

    points: tuple

    def __post_init__(self):
        deltas = [d for d, _ in self.points]
        if any(b >= a for a, b in zip(deltas, deltas[1:])):
            raise ValueError("profile deltas must be strictly decreasing")
        if any(v < 0 for _, v in self.points):
            raise ValueError("profile values must be nonnegative")

    def __len__(self):
        return len(self.points)

    @property
    def top(self):
        """Value at the largest scale."""
        return self.points[0][1] if self.points else 0.0

    @property
    def terminal(self):
        """Value at the smallest scale."""
        return self.points[-1][1] if self.points else 0.0

    def slope(self):
        """Least-squares log-log slope over the smallest SLOPE_DECADES of delta.

        Positive slope means decay toward small scales.  Values are floored
        slightly above zero so an identically tiny profile fits flat.
        """
        return fit_loglog_slope(self.points)


def delta_grid(diam, min_gap):
    """Geometric scale grid from diam down to min_gap, shrinking by DELTA_RATIO."""
    if diam <= 0 or min_gap <= 0:
        raise ValueError("diam and min_gap must be positive")
    out = []
    d = diam
    while d >= min_gap * (1.0 - 1e-12):
        out.append(d)
        d *= DELTA_RATIO
    return out or [diam]


class _BandMax:
    """Running per-band maxima of value series fed chunk by chunk.

    Every series shares one scale grid and one diameter per item, so a
    chunk's bands are found once for all of them.  Band i collects
    diameters in (deltas[i+1], deltas[i]]; the last band keeps everything at
    or below the smallest delta, and diameters above the top fold into the
    top band.  NaN values and empty bands are dropped.  np.fmax skips NaN
    and is exact, so any split of the items into chunks gives the same
    profile bit for bit.
    """

    def __init__(self, deltas, series=1):
        self._ascending = np.unique(np.asarray(deltas, dtype=float))
        self._sups = np.full((series, len(self._ascending)), np.nan)

    def add(self, diams, *values):
        """Fold one chunk in: diameters (N,), and one (N,) array per series."""
        top = len(self._ascending) - 1
        band = np.maximum(top - np.searchsorted(self._ascending, diams), 0)
        for sups, v in zip(self._sups, values):
            np.fmax.at(sups, band, v)

    def profile(self, *series):
        """Profile of the given series' per-band maxima (all of them by default)."""
        sups = np.fmax.reduce(self._sups[list(series) or slice(None)], axis=0)
        keep = ~np.isnan(sups)
        return Profile(tuple(zip(self._ascending[::-1][keep].tolist(), sups[keep].tolist())))


def _chunk_rows(pairs):
    """Rows to a chunk when every row holds pairs node pairs: CHUNK_PAIRS
    pairs at most, but never fewer than one row."""
    return max(1, CHUNK_PAIRS // max(pairs, 1))


def _pair_blocks(n):
    """Index arrays (i, j) of every node pair i < j of n nodes, i-major, in
    blocks of consecutive anchors i: CHUNK_PAIRS pairs at most, but never
    fewer than one anchor."""
    pairs = np.arange(n - 1, 0, -1)
    ends = np.cumsum(pairs)
    a = 0
    while a < n - 1:
        b = int(np.searchsorted(ends, ends[a] - pairs[a] + CHUNK_PAIRS, side="right"))
        b = max(b, a + 1)
        i, j = np.nonzero(np.arange(a, b)[:, None] < np.arange(n))
        yield i + a, j
        a = b


def fit_loglog_slope(points):
    """Slope of log(value) against log(delta) over the smallest SLOPE_DECADES.

    Returns 0.0 when fewer than two usable points remain.
    """
    if len(points) < 2:
        return 0.0
    dmin = min(d for d, _ in points)
    dmax_fit = dmin * 10.0 ** SLOPE_DECADES
    sel = [(d, v) for d, v in points if d <= dmax_fit * (1.0 + 1e-12)]
    if len(sel) < 2:
        sel = sorted(points)[ : 2]
    vmax = max(v for _, v in sel)
    floor = max(vmax, 1e-300) * 1e-16
    xs = [math.log(d) for d, _ in sel]
    ys = [math.log(max(v, floor)) for _, v in sel]
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        return 0.0
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


CONSISTENT = "consistent"
INCONSISTENT = "inconsistent"
INCONCLUSIVE = "inconclusive"


class ThresholdPolicy:
    """Maps a profile to consistent / inconsistent / inconclusive.

    classify judges a profile that must decay, bounded one that need only
    stay bounded.  Both judge against the scale max(1, top), so a profile
    whose top is not finite is inconclusive under both.  Under classify a
    profile is consistent when it has already collapsed (a terminal below
    zero_tol relative to scale) or decays with a healthy slope down to a
    terminal value small relative to scale.  It is inconsistent when it is
    flat or growing while the terminal value stays large.  Everything in
    between is inconclusive.
    The numbers are policy, chosen so the stock fixtures separate cleanly
    at 32 nodes and beyond.
    """

    rel_tol = 0.25
    slope_consistent = 0.25
    slope_flat = 0.05
    zero_tol = 1e-9
    deadband = 10.0

    def classify(self, profile):
        """Return (status, slope) for one profile."""
        if len(profile) == 0:
            return INCONCLUSIVE, 0.0
        slope = profile.slope()
        term, scale = profile.terminal, max(1.0, profile.top)
        if not math.isfinite(profile.top):
            return INCONCLUSIVE, slope
        if term <= self.zero_tol * scale:
            return CONSISTENT, slope
        if slope >= self.slope_consistent and term <= self.rel_tol * scale:
            return CONSISTENT, slope
        if slope <= self.slope_flat and term >= self.deadband * self.rel_tol * scale:
            return INCONSISTENT, slope
        return INCONCLUSIVE, slope

    def bounded(self, profile):
        """Return (status, slope) for a profile that need only stay bounded.

        Collapsed, flat or decaying is consistent; growth toward small
        scales to a terminal value deadband times the top is inconsistent.
        """
        if len(profile) == 0:
            return INCONCLUSIVE, 0.0
        slope = profile.slope()
        term, top = profile.terminal, profile.top
        if not math.isfinite(top):
            return INCONCLUSIVE, slope
        if term <= self.zero_tol * max(1.0, top):
            return CONSISTENT, slope
        growing = slope <= -self.slope_consistent
        if growing and term >= self.deadband * max(top, self.zero_tol):
            return INCONSISTENT, slope
        if slope >= -self.slope_flat * 2.0:
            return CONSISTENT, slope
        return INCONCLUSIVE, slope


def combine_statuses(statuses):
    """Worst-wins combination of per-profile statuses."""
    if any(s == INCONSISTENT for s in statuses):
        return INCONSISTENT
    if any(s == INCONCLUSIVE for s in statuses):
        return INCONCLUSIVE
    return CONSISTENT if statuses else INCONCLUSIVE
