"""Axis intervals and the covering interval of a segment.

The covering interval of a segment s at radius R is the set of axis
abscissas x whose L_p ball of radius R centered at (x, 0) touches s.
Distance to a segment is convex in x, so this set is a closed interval
(possibly empty). Solvers combine these intervals by intersection
(enclosing problems) or union (empty-ball problems).

Both radius bisections evaluate covering intervals at every step, with
SegmentArray over the rows that survive their pruning (covering_slack
bounds how far the array kernel may stray, which is what makes that
pruning exact). The largest-empty-ball search does so at every N and
combines the intervals by union_covers_arrays. The enclosing search
does so from ARRAY_MIN_SEGMENTS segments on and intersects them by
intersect_arrays; below that the per-call cost of numpy outweighs the
loop, and it runs covering_interval and intersect_all over every
segment. The scalar union cover, _reference.union_covers, is the
reference that union_covers_arrays is tested against.

Both bisections are one radius search: bisect_radius, which the
enclosing one reaches through least_radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import NormP, Segment, Tolerance, segment_columns


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; the empty interval is (+inf, -inf)."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo, hi = float(self.lo), float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval bounds must not be NaN")
        if lo > hi and not (lo == math.inf and hi == -math.inf):
            raise ValueError(f"interval bounds out of order: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def empty(cls) -> "Interval":
        return cls(math.inf, -math.inf)

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    @property
    def width(self) -> float:
        return 0.0 if self.is_empty else self.hi - self.lo

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return (not self.is_empty) and self.lo - slack <= x <= self.hi + slack


def _halfwidth(R: float, y: float, p: float):
    """Half-extent in x of the radius-R ball test against height y.

    Returns the largest h with lp(h, y) <= R, or None when |y| > R.
    A slightly negative base only arises from rounding at |y| = R and
    is clamped to the boundary.
    """
    y = abs(y)
    if R == 0.0:
        return 0.0 if y == 0.0 else None
    ratio = y / R
    # the array kernel's rule base >= -1e-9, decided before the power
    # can overflow: ratio > 1 + 1e-9 gives ratio ** p > 1 + 1e-9
    if ratio > 1.0 + 1e-9:
        return None
    base = 1.0 - ratio ** p
    if base < 0.0:
        if base < -1e-9:
            return None
        base = 0.0
    return R * base ** (1.0 / p)


def _ystar_ratio(ux: float, uy: float, p: float) -> float:
    """ystar / R: where the slopes of qx and of the halfwidth balance.

    Needs p > 1 and ux, uy nonzero; independent of the radius.
    """
    try:
        mu = (abs(ux) / abs(uy)) ** (p / (p - 1.0))
    except OverflowError:
        mu = math.inf
    ratio = 1.0 if math.isinf(mu) else mu / (1.0 + mu)
    return ratio ** (1.0 / p)


def covering_interval(s: Segment, R: float, norm: NormP) -> Interval:
    """All x on the axis with distance((x,0), s) <= R.

    The result is not clipped to [0, L]; callers intersect with the
    feasible range themselves. The bounds are the extremes of
    qx(t) -+ halfwidth(qy(t)) over closed-form candidate parameters t;
    the tests cross-check them against the boundary bisection
    _reference._covering_bisect.
    """
    if R < 0.0 or not math.isfinite(R):
        raise ValueError("radius must be finite and nonnegative")
    p = norm.p
    ax, ay = s.a.x, s.a.y
    ux, uy = s.b.x - ax, s.b.y - ay
    # segment parameters t whose point can be reached at all: |qy(t)| <= R
    if uy == 0.0:
        if abs(ay) > R:
            return Interval.empty()
        tA, tB = 0.0, 1.0
    else:
        t1 = (-R - ay) / uy
        t2 = (R - ay) / uy
        tA = max(min(t1, t2), 0.0)
        tB = min(max(t1, t2), 1.0)
        if tA > tB:
            return Interval.empty()
    cands = [tA, tB]
    if uy != 0.0:
        t0 = -ay / uy
        if tA < t0 < tB:
            cands.append(t0)
    # interior extrema of qx(t) -+ halfwidth(qy(t)) exist only for p > 1
    # and occur where |qy| equals ystar below (balance of slopes)
    if p > 1.0 and ux != 0.0 and uy != 0.0 and R > 0.0:
        ystar = R * _ystar_ratio(ux, uy, p)
        for ys in (ystar, -ystar):
            t = (ys - ay) / uy
            if tA < t < tB:
                cands.append(t)
    lo, hi = math.inf, -math.inf
    for t in cands:
        h = _halfwidth(R, ay + t * uy, p)
        if h is None:
            continue
        x = ax + t * ux
        if x - h < lo:
            lo = x - h
        if x + h > hi:
            hi = x + h
    if lo > hi:
        return Interval.empty()
    return Interval(lo, hi)


def intersect_all(intervals) -> Interval:
    """Intersection of one or more intervals."""
    items = list(intervals)
    if not items:
        raise ValueError("need at least one interval")
    lo = max(iv.lo for iv in items)
    hi = min(iv.hi for iv in items)
    if lo > hi:
        return Interval.empty()
    return Interval(lo, hi)


# Segment count from which min_enclosing uses SegmentArray: the fixed
# cost of its numpy calls per step outweighs the scalar loop below it.
# On a 2-vCPU Xeon VM with numpy 2.4.6 the two routes break even near
# 20 segments; at 12 the array route takes 1.4-2.8 times as long as the
# loop, at 32 about half as long. max_empty_binsearch takes the array
# route at every N.
ARRAY_MIN_SEGMENTS = 24


_UNIT_ROUNDOFF = 2.0 ** -53


def covering_slack(R: float, scale: float, p: float):
    """(eta, c) with SegmentArray.covering(R) between exact intervals.

    For every row whose coordinates, like L, are at most scale in
    magnitude, the computed covering interval at R contains the exact
    covering interval at R - e and lies inside the one at R + e, where
    e = eta * R + c; c also bounds the error of the array distance
    estimates (geometry.axis_distances) that the pruning rules compare
    with R. eta is inf where no bound is claimed: R <= 0, rounding
    beyond the kernel's clamp, or scale outside (2^-200, 2^200), where
    squares and products of coordinates can underflow or overflow and
    the rounding below is no longer relative. As R grows, eta falls and eta * R grows,
    at a rate below eta; so R + e grows with R, and so does R - e while
    eta < 1.

    Derivation. An endpoint is qx(t) -+ h at a candidate t, with
    h = R * max(base, 0)^(1/p) and base = 1 - (|qy|/R)^p, and the kernel
    admits a candidate whose computed base is at least -1e-9.
    - Rounding |qy| (a few ulp of scale), the quotient, the power and
      the subtraction leaves base off by at most rnd = 16 p u (scale/R
      + 2), u the unit roundoff. An admitted candidate has an exact
      base >= -beta, beta = 1e-9 + rnd; and while rnd <= 1e-9, no
      candidate with an exact base >= 0 is rejected. Only the inner
      half of the bound needs the latter: the outer half (inside the
      interval at R + e) holds at every R > 0, with e from the same
      formula, which grows with R.
    - t -> t^(1/p) is subadditive, so h is within R beta^(1/p) of the
      exact halfwidth, and an admitted point of the segment lies within
      R (1 + beta)^(1/p) <= R (1 + beta^(1/p)) of (qx, 0). As distance
      along the axis is 1-Lipschitz, both give eta = 2 beta^(1/p).
    - Abscissas qx = ax + t ux carry a few ulp of scale. At the ends
      tA, tB of the reachable range a parameter error dt moves qx by
      |ux| dt <= 4 u scale^2 / |uy|, and a row that matters to a margin
      m has |uy| >= m, so the move stays below m once m >= 2^-22 scale;
      the array distance estimates are within a few ulp of the value.
      Interior candidates are stationary, so their parameter errors
      enter to second order. c = 2^-22 scale covers all of these with
      room to spare.
    """
    if not (R > 0.0 and 2.0 ** -200 < scale < 2.0 ** 200):
        return math.inf, math.inf
    rnd = 16.0 * p * _UNIT_ROUNDOFF * (scale / R + 2.0)
    if not rnd <= 1e-9:
        return math.inf, math.inf
    return 2.0 * (1e-9 + rnd) ** (1.0 / p), scale * 2.0 ** -22


class SegmentArray:
    """Segments as float64 columns ax, ay, ux, uy, for one norm.

    Built from an (N, 4) array of rows [ax, ay, bx, by] or from Segment
    objects (geometry.segment_columns). The radius bisections build it
    over the rows they keep after pruning, so its per-row ystar ratio,
    a scalar call per row, is paid for those rows only.

    covering(R) evaluates, for every segment at once, the candidates of
    the scalar kernel: the ends tA, tB of the reachable parameter range,
    the axis crossing t0 and the two points where |qy| = ystar, masked
    where the scalar kernel branches. Parameters and abscissas come out
    bit for bit as in the scalar kernel; the powers in the halfwidth may
    differ from Python's in the last ulp.
    """

    def __init__(self, segments, norm: NormP):
        coords = segment_columns(segments)
        p = norm.p
        self.p = p
        self.ax, self.ay = coords[:, 0], coords[:, 1]
        # coordinates near the float range overflow here as Python floats
        # do in the scalar kernel, to inf without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            self.ux = coords[:, 2] - self.ax
            self.uy = coords[:, 3] - self.ay
            self.flat = self.uy == 0.0
            # flat rows divide by 1 instead of 0 and are masked afterwards
            self.uy_div = np.where(self.flat, 1.0, self.uy)
            self.t0 = np.where(self.flat, np.nan, -self.ay / self.uy_div)
        # radius-independent ystar / R; NaN fails every range test below
        self.star = None
        if p > 1.0:
            self.star = np.array([_ystar_ratio(ux, uy, p) if ux != 0.0 and uy != 0.0
                                  else math.nan
                                  for ux, uy in zip(self.ux.tolist(), self.uy.tolist())])

    def covering(self, R: float):
        """Arrays (lo, hi) of the covering intervals at radius R.

        Empty intervals are (+inf, -inf), as Interval.empty().
        """
        if R < 0.0 or not math.isfinite(R):
            raise ValueError("radius must be finite and nonnegative")
        p, ay, uy = self.p, self.ay, self.uy
        with np.errstate(over="ignore", invalid="ignore"):
            t1 = (-R - ay) / self.uy_div
            t2 = (R - ay) / self.uy_div
            tA = np.where(self.flat, 0.0, np.maximum(np.minimum(t1, t2), 0.0))
            tB = np.where(self.flat, 1.0, np.minimum(np.maximum(t1, t2), 1.0))
            reachable = np.where(self.flat, np.abs(ay) <= R, tA <= tB)
            cands = [tA, tB, self.t0]
            if self.star is not None and R > 0.0:
                ystar = R * self.star
                cands += [(ystar - ay) / self.uy_div, (-ystar - ay) / self.uy_div]
            t = np.stack(cands)
            ok = np.empty(t.shape, dtype=bool)
            ok[:2] = reachable
            ok[2:] = (tA < t[2:]) & (t[2:] < tB)
            y = np.abs(ay + t * uy)
            if R == 0.0:
                ok &= y == 0.0
                h = 0.0
            else:
                base = 1.0 - (y / R) ** p
                ok &= base >= -1e-9
                h = R * np.maximum(base, 0.0) ** (1.0 / p)
            x = self.ax + t * self.ux
            lo = np.where(ok, x - h, math.inf).min(axis=0)
            hi = np.where(ok, x + h, -math.inf).max(axis=0)
        return lo, hi


def intersect_arrays(lo, hi, domain: Interval) -> Interval:
    """intersect_all of the intervals [lo[i], hi[i]] and domain."""
    a = max(float(lo.max()), domain.lo)
    b = min(float(hi.min()), domain.hi)
    if a > b:
        return Interval.empty()
    return Interval(a, b)


def union_covers_arrays(lo, hi, domain: Interval):
    """Whether the intervals [lo[i], hi[i]] cover domain; else a witness.

    Returns (True, None) or (False, x) with x a point of domain no
    interval contains. A gap at the start reports domain.lo itself,
    interior and trailing gaps report the gap midpoint.

    The scalar scan of the reference, _reference.union_covers, visits
    the intervals sorted by (lo, hi), skipping empty ones and ones
    ending before domain.lo. Its reach before each visit is a running
    maximum of hi, so the first gap and the first visit that reaches
    domain.hi are found by comparisons on arrays, and the witness is
    computed from the same values as in the scan.
    """
    if domain.is_empty:
        return True, None
    keep = (lo <= hi) & (hi >= domain.lo)
    lo, hi = lo[keep], hi[keep]
    if len(lo) == 0:
        return False, domain.lo
    order = np.lexsort((hi, lo))
    lo, hi = lo[order], hi[order]
    # reach[i] is the scan's reach before visiting interval i
    reach = np.maximum.accumulate(np.concatenate(([domain.lo], hi)))
    gap = lo > reach[:-1]
    done = reach[1:] >= domain.hi
    g = int(gap.argmax()) if gap.any() else len(lo)
    c = int(done.argmax()) if done.any() else len(lo)
    if c < g:
        return True, None
    if g == 0:
        return False, domain.lo
    if g == len(lo):
        return False, 0.5 * (float(reach[-1]) + domain.hi)
    gap_end = float(lo[g]) if lo[g] < domain.hi else domain.hi
    return False, 0.5 * (float(reach[g]) + gap_end)


def bisect_radius(lo: float, hi: float, fits, tol: Tolerance):
    """Bisect [lo, hi] at the sign of fits, monotone in R, with lo
    infeasible and hi feasible; returns the final (lo, hi).

    hi is first nudged up by max(eps, 1e-12 hi), so that a bound
    computed exactly at the boundary is strictly feasible. The search
    stops once hi - lo <= tol.eps or after tol.max_iters steps.
    """
    hi = hi + max(tol.eps, 1e-12 * hi)
    it = 0
    while hi - lo > tol.eps and it < tol.max_iters:
        mid = 0.5 * (lo + hi)
        if fits(mid):
            hi = mid
        else:
            lo = mid
        it += 1
    return lo, hi


def least_radius(lo: float, hi: float, region_at, tol: Tolerance):
    """Least radius R of an enclosing search; returns (region_at(R), R).

    region_at(R) is the region of centers, (a, b) or None where empty.
    R is lo, a certified lower bound, when it fits, else the final hi
    of bisect_radius from the feasible hi. Its region is empty only if
    the untried nudged hi fails too: then R moves up 4 eps once, and
    if that fails as well this raises the ValueError that PlacedCircle
    raises for the NaN center of an empty region.
    """
    region = region_at(lo)
    if region is not None:
        return region, lo
    hi = bisect_radius(lo, hi, lambda R: region_at(R) is not None, tol)[1]
    region = region_at(hi)
    if region is None:
        hi = hi + 4.0 * tol.eps
        region = region_at(hi)
        if region is None:
            raise ValueError("circle parameters must be finite")
    return region, hi
