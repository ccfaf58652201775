"""Axis intervals and the covering interval of a segment.

The covering interval of a segment s at radius R is the set of axis
abscissas x whose L_p ball of radius R centered at (x, 0) touches s.
Distance to a segment is convex in x, so this set is a closed interval
(possibly empty). Solvers combine these intervals by intersection
(enclosing problems) or union (empty-ball problems).

Both radius bisections evaluate all N intervals at every step. From
ARRAY_MIN_SEGMENTS segments on they do so with SegmentArray and the
array forms of the intersection and the union cover; below it the
per-call cost of numpy outweighs the loop, and the scalar kernel runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import NormP, Point, Segment, Tolerance, _profile_min_unclamped, \
    point_segment_distance


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
    base = 1.0 - (y / R) ** p
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


def _covering_analytic(s: Segment, R: float, norm: NormP) -> Interval:
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


def _covering_bisect(s: Segment, R: float, norm: NormP, tol: Tolerance) -> Interval:
    def d(x: float) -> float:
        return point_segment_distance(Point(x, 0.0), s, norm, tol)

    xm, dm = _profile_min_unclamped(s)
    if dm > R:
        return Interval.empty()
    # outside [min_x - R, max_x + R] the x-offset alone already exceeds R
    lo0 = min(s.a.x, s.b.x) - R
    hi0 = max(s.a.x, s.b.x) + R

    def boundary(a: float, b: float, increasing: bool) -> float:
        # invariant: d(a) and d(b) straddle R with the covered side at b
        it = 0
        while b - a > tol.eps / 2.0 and it < tol.max_iters:
            m = 0.5 * (a + b)
            inside = d(m) <= R
            if inside == increasing:
                b = m
            else:
                a = m
            it += 1
        return 0.5 * (a + b)

    u = lo0 if d(lo0) <= R else boundary(lo0, xm, True)
    v = hi0 if d(hi0) <= R else boundary(xm, hi0, False)
    return Interval(u, v)


def covering_interval(s: Segment, R: float, L: float, norm: NormP, tol: Tolerance,
                      method: str = "analytic") -> Interval:
    """All x on the axis with distance((x,0), s) <= R.

    The result is not clipped to [0, L]; callers intersect with the
    feasible range themselves. Two routes are provided: a closed-form
    candidate evaluation (default) and a convexity-based boundary
    bisection, kept as an independent cross-check.
    """
    if R < 0.0 or not math.isfinite(R):
        raise ValueError("radius must be finite and nonnegative")
    if method == "analytic":
        return _covering_analytic(s, R, norm)
    if method == "bisect":
        return _covering_bisect(s, R, norm, tol)
    raise ValueError(f"unknown method {method!r}")


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


def union_covers(intervals, domain: Interval):
    """Whether the union of intervals covers domain; else a witness.

    Returns (True, None) or (False, x) with x a point of domain no
    interval contains. A gap at the start reports domain.lo itself,
    interior and trailing gaps report the gap midpoint.
    """
    if domain.is_empty:
        return True, None
    items = sorted((iv for iv in intervals if not iv.is_empty),
                   key=lambda iv: (iv.lo, iv.hi))
    reach = domain.lo
    touched = False
    for iv in items:
        if iv.hi < domain.lo:
            continue
        if iv.lo > reach:
            if not touched:
                return False, domain.lo
            gap_end = iv.lo if iv.lo < domain.hi else domain.hi
            return False, 0.5 * (reach + gap_end)
        touched = True
        if iv.hi > reach:
            reach = iv.hi
        if reach >= domain.hi:
            return True, None
    if not touched:
        return False, domain.lo
    return False, 0.5 * (reach + domain.hi)


# Segment count from which the bisections use SegmentArray: the fixed
# cost of its numpy calls per step outweighs the scalar loop below it.
# On a 2-vCPU Xeon VM with numpy 2.4.6, max_empty_binsearch on spread
# segments and rmin_on_axis on near-line points break even near 20;
# at 12 the array route takes 1.4-2.8 times as long as the loop, at 32
# about half as long.
ARRAY_MIN_SEGMENTS = 24


class SegmentArray:
    """Segments as float64 columns ax, ay, ux, uy, for one norm.

    covering(R) evaluates, for every segment at once, the candidates of
    the scalar kernel: the ends tA, tB of the reachable parameter range,
    the axis crossing t0 and the two points where |qy| = ystar, masked
    where the scalar kernel branches. Parameters and abscissas come out
    bit for bit as in the scalar kernel; the powers in the halfwidth may
    differ from Python's in the last ulp.
    """

    def __init__(self, segments, norm: NormP):
        coords = np.array([(s.a.x, s.a.y, s.b.x, s.b.y) for s in segments],
                          dtype=np.float64).reshape(-1, 4)
        p = norm.p
        self.p = p
        self.ax, self.ay = coords[:, 0], coords[:, 1]
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
    """union_covers of the intervals [lo[i], hi[i]] over domain.

    The scalar scan visits the intervals sorted by (lo, hi), skipping
    empty ones and ones ending before domain.lo. Its reach before each
    visit is a running maximum of hi, so the first gap and the first
    visit that reaches domain.hi are found by comparisons on arrays,
    and the witness is computed from the same values as in the scan.
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


def covering_intersection(segments, L: float, norm: NormP, tol: Tolerance):
    """The function R -> intersection of [0, L] and every covering interval.

    Evaluates through SegmentArray from ARRAY_MIN_SEGMENTS segments on,
    else through covering_interval and intersect_all.
    """
    domain = Interval(0.0, L)
    if len(segments) < ARRAY_MIN_SEGMENTS:
        def region(R: float) -> Interval:
            ivs = [covering_interval(s, R, L, norm, tol) for s in segments]
            ivs.append(domain)
            return intersect_all(ivs)
        return region
    arr = SegmentArray(segments, norm)
    return lambda R: intersect_arrays(*arr.covering(R), domain)


def covering_union(segments, L: float, norm: NormP, tol: Tolerance):
    """The function R -> union_covers(covering intervals at R, [0, L]).

    Evaluates through SegmentArray from ARRAY_MIN_SEGMENTS segments on,
    else through covering_interval and union_covers.
    """
    domain = Interval(0.0, L)
    if len(segments) < ARRAY_MIN_SEGMENTS:
        def gaps(R: float):
            return union_covers([covering_interval(s, R, L, norm, tol) for s in segments],
                                domain)
        return gaps
    arr = SegmentArray(segments, norm)
    return lambda R: union_covers_arrays(*arr.covering(R), domain)
