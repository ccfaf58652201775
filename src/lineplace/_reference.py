"""Second routes to quantities the solvers compute, kept for the tests.

Each function here reaches a result of the production code by an
independent method (bisection, golden-section search, candidate
evaluation), so the tests can compare the two. Not exported, and no
solver module imports it.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from .errors import NoCrossing
from .geometry import NormP, Point, Segment, Tolerance, _lp_pair, _profile_min_unclamped, \
    point_segment_distance, segment_ox_intersection
from .intervals import Interval
from .obnoxious import LowerEnvelope

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _min_distance_search(q: Point, s: Segment, norm: NormP, tol: Tolerance) -> float:
    """Golden-section minimisation over the segment parameter.

    Distance to a convex set is convex, hence unimodal in t. Reference
    for point_segment_distance; the width target is scaled by the
    segment extent so the value error stays below tol.eps.
    """
    p = norm.p
    ax, ay = s.a.x, s.a.y
    ux, uy = s.b.x - ax, s.b.y - ay
    A, B = q.x - ax, q.y - ay
    if ux == 0.0 and uy == 0.0:
        return _lp_pair(A, B, p)

    def f(t: float) -> float:
        return _lp_pair(A - t * ux, B - t * uy, p)

    lo, hi = 0.0, 1.0
    target = tol.eps / max(1.0, _lp_pair(ux, uy, p))
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    it = 0
    while hi - lo > target and it < tol.max_iters:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - _GOLDEN * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _GOLDEN * (hi - lo)
            fd = f(d)
        it += 1
    return min(f(lo), fc, fd, f(hi))


def distance_argmin_on_axis(s: Segment, L: float, norm: NormP, tol: Tolerance,
                            strategy: str = "candidates"):
    """Minimise x -> distance((x,0), s) over [0, L].

    Returns (xmin, dmin); reference for geometry.axis_argmin_exact. The
    profile is convex, so the minimiser is the clamp of the
    unconstrained plateau; ties resolve to the smallest x. Two
    strategies are provided and must agree on the minimum value: direct
    evaluation of the geometric candidates {0, L, endpoint abscissas,
    axis crossing}, and a binary search on an approximate derivative
    sign.
    """
    if L < 0.0:
        raise ValueError("L must be nonnegative")
    if strategy == "candidates":
        xs = {0.0, L}
        for x in (s.a.x, s.b.x):
            if 0.0 <= x <= L:
                xs.add(x)
        hit = segment_ox_intersection(s)
        if hit is not None and 0.0 <= hit[0] <= L:
            xs.add(hit[0])
        best_x, best = 0.0, math.inf
        for x in sorted(xs):
            d = point_segment_distance(Point(x, 0.0), s, norm, tol)
            if d < best:
                best_x, best = x, d
        return best_x, best
    if strategy == "derivative":
        def d(x: float) -> float:
            return point_segment_distance(Point(x, 0.0), s, norm, tol)

        lo, hi = 0.0, L
        it = 0
        while hi - lo > tol.eps and it < tol.max_iters:
            m = 0.5 * (lo + hi)
            probe = min(L, m + tol.eps)
            # strictly decreasing at m means the minimiser lies right of m
            if d(probe) < d(m):
                lo = m
            else:
                hi = m
            it += 1
        x = 0.5 * (lo + hi)
        return x, d(x)
    raise ValueError(f"unknown strategy {strategy!r}")


def equal_distance_point(s1: Segment, s2: Segment, u: float, v: float,
                         norm: NormP, tol: Tolerance) -> float:
    """Binary search the x in [u, v] equidistant from s1 and s2.

    Reference for the ownership boundaries of the envelope merge.
    Requires the signed difference of the two distances to change sign
    across the bracket (an exact zero at an endpoint short-circuits),
    else raises NoCrossing. Profiles are 1-Lipschitz in x, so bisecting
    to eps/4 leaves the distance mismatch at the returned point below
    tol.eps.
    """
    def g(x: float) -> float:
        q = Point(x, 0.0)
        return (point_segment_distance(q, s1, norm, tol)
                - point_segment_distance(q, s2, norm, tol))

    gu, gv = g(u), g(v)
    if gu == 0.0:
        return u
    if gv == 0.0:
        return v
    if (gu > 0.0) == (gv > 0.0):
        raise NoCrossing(f"no sign change on [{u}, {v}]")
    pos_u = gu > 0.0
    it = 0
    while v - u > tol.eps / 4.0 and it < tol.max_iters:
        m = 0.5 * (u + v)
        gm = g(m)
        if gm == 0.0:
            return m
        if (gm > 0.0) == pos_u:
            u = m
        else:
            v = m
        it += 1
    return 0.5 * (u + v)


def _covering_bisect(s: Segment, R: float, norm: NormP, tol: Tolerance) -> Interval:
    """Covering interval by bisecting each boundary of the convex profile.

    Reference for intervals.covering_interval.
    """
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


def envelope_value(le: LowerEnvelope, segments, x: float, norm: NormP, tol: Tolerance) -> float:
    """Distance at x to the owning segment of the piece containing x."""
    starts = [pc.a for pc in le.pieces]
    i = bisect_right(starts, x) - 1
    if i < 0:
        i = 0
    return point_segment_distance(Point(x, 0.0), segments[le.pieces[i].seg_index], norm, tol)
