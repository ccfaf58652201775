"""Second routes to quantities the solvers compute, kept for the tests.

Each quantity has one production route, at most one test reference
here beside what an acceptance criterion reads, and lineplace.verify's
routes. A reference stays where some mutant of the production route
that tools/mutants/ lists is killed only by the tests over it, or
where it is an independent route that the roadmap's north star names;
every other reference went with the tests over it.

quantity             production route           test reference here          criterion
-------------------  -------------------------  ---------------------------  ---------
covering interval    SegmentArray.covering      _covering_bisect (boundary   1, 2
                                                bisection); the criteria
                                                read covering_interval, the
                                                scalar kernel, with
                                                _halfwidth and _ystar_ratio
                                                (the only killer of
                                                star-inf)
row intersection     intervals.intersect_rows,  none: hand-worked cases and  -
and union            union_covers_rows          the postconditions
radius bisection     intervals.bisect_radius    bisect_sequential (the only  -
                                                killer of bisect-nudge)
one-center search    one_center.min_enclosing   min_enclosing_scalar         -
constrained argmin   axis_argmin_abscissas      axis_argmin_exact (the only  -
                                                killer of argmin-crossing
                                                and argmin-plateau); and
                                                distance_argmin_on_axis, the
                                                derivative search that the
                                                north star names, which
                                                kills no mutant alone
point-segment        point_segment_distance     none: verify.segment_        -
distance                                        distances, golden section
envelope crossing    obnoxious._subcell_roots   none: the equal-distance     -
                                                postcondition
envelope build       compute_lower_envelope     envelope_one_off, the one-   3, 7;
                                                off fold (_fold_one,         compact and
                                                _fold_windows,               envelope_value
                                                _envelope_peak)              4
k-cover pair circle  k_cover._binding_radii     two_point_circle             -
k-cover DP           k_cover._relax_blocks      dp_scan, relax_scan          -
k-cover run circle   k_cover._run_circles       none: verify's min_enclosing rmin_on_axis 5

Beside them sit the entry points that only the tests call: the k-cover
run table gathered from its column blocks (run_radii) and the circle of
one k-cover run (run_circle). Not exported, and no solver module
imports it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import itemgetter

import numpy as np

from .errors import EmptyInput, SolverError
from .geometry import NormP, Point, Segment, Tolerance, _lp_pair, \
    axis_argmin_abscissas, point_segment_distance, segment_columns, segment_rows, \
    segments_from_columns
from .intervals import PASS_CELLS, Interval, SegmentArray, covering_slack, least_radius
from .k_cover import AggSpec, CoverSolution, PointSet, _no_finite_cover, _run_circles, \
    _run_columns
from .obnoxious import EnvelopePiece, LowerEnvelope, _build_profile, \
    _compact_pieces, _merge_raw, compute_lower_envelope
from .one_center import PlacedCircle

def axis_argmin_exact(s: Segment, L: float, norm: NormP, tol: Tolerance):
    """Closed-form constrained argmin, one segment at a time.

    Returns (xmin, dmin); exact. The unconstrained minimisers, the rule
    of geometry.axis_argmin_abscissas, are the x-range of a level
    segment, else an end on the axis, the axis crossing, or the end
    with the smaller |y|; they are clamped to [0, L] with ties at the
    smallest x. Reference for axis_argmin_abscissas, which must pick
    the same abscissa bit for bit; the tests compare it with
    distance_argmin_on_axis.
    """
    xa, ya, xb, yb = s.a.x, s.a.y, s.b.x, s.b.y
    if ya == yb:
        plo, phi = min(xa, xb), max(xa, xb)
    elif ya == 0.0:
        plo = phi = xa
    elif yb == 0.0:
        plo = phi = xb
    elif (ya > 0.0) != (yb > 0.0):
        plo = phi = xa + ya / (ya - yb) * (xb - xa)
    else:
        plo = phi = xa if abs(ya) < abs(yb) else xb
    if phi < 0.0:
        x = 0.0
    elif plo > L:
        x = L
    else:
        x = max(0.0, plo)
    return x, point_segment_distance(Point(x, 0.0), s, norm, tol)


def distance_argmin_on_axis(s: Segment, L: float, norm: NormP, tol: Tolerance):
    """Minimise x -> distance((x,0), s) over [0, L] by bisecting on the
    sign of a forward difference of the distance.

    Returns (xmin, dmin); reference for axis_argmin_exact. The profile
    is convex, so a distance that still falls eps to the right of m puts
    the minimiser right of m; the bracket halves until it is within
    tol.eps, and its midpoint is the answer.
    """
    if L < 0.0:
        raise ValueError("L must be nonnegative")

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


def _profile_min_unclamped(s: Segment):
    """Exact minimiser of x -> distance((x,0), s) over the whole axis.

    The minimum value equals min_t |qy(t)| for every norm, attained
    below the segment point of smallest |y|. Plateaus (horizontal or
    on-axis segments) resolve to the smallest x. Returns (xmin, dmin).
    """
    xa, ya, xb, yb = s.a.x, s.a.y, s.b.x, s.b.y
    if ya == 0.0 and yb == 0.0:
        return min(xa, xb), 0.0
    if ya == 0.0:
        return xa, 0.0
    if yb == 0.0:
        return xb, 0.0
    if (ya > 0.0) != (yb > 0.0):
        return xa + ya / (ya - yb) * (xb - xa), 0.0
    if abs(ya) < abs(yb):
        return xa, abs(ya)
    if abs(yb) < abs(ya):
        return xb, abs(yb)
    return min(xa, xb), abs(ya)


def _halfwidth(R: float, y: float, p: float):
    """Half-extent in x of the radius-R ball test against height y.

    Returns the largest h with lp(h, y) <= R, or None when |y| > R.
    A slightly negative base only arises from rounding at |y| = R and
    is clamped to the boundary. The scalar rule of covering_interval:
    reference for the halfwidth of SegmentArray.covering,
    which admits the same bases, and, where R >= |y|, for the strict
    halfwidth of k_cover._meeting, which takes the same operations.
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

    Needs p > 1 and ux, uy nonzero; independent of the radius. The
    scalar rule of covering_interval: reference for SegmentArray.star,
    which takes numpy's powers.
    """
    try:
        mu = (abs(ux) / abs(uy)) ** (p / (p - 1.0))
    except OverflowError:
        mu = math.inf
    ratio = 1.0 if math.isinf(mu) else mu / (1.0 + mu)
    return ratio ** (1.0 / p)


def covering_interval(s: Segment, R: float, norm: NormP) -> Interval:
    """All x on the axis with distance((x,0), s) <= R.

    The scalar kernel, one segment and one radius a call: reference for
    intervals.SegmentArray.covering, which evaluates the same candidates
    over arrays with numpy's powers and matches this kernel within
    rounding. The result is not clipped to [0, L]. The bounds are the
    extremes of qx(t) -+ _halfwidth(qy(t)) over closed-form candidate
    parameters t, with the ystar candidates from _ystar_ratio; the tests
    also cross-check them against the boundary bisection
    _covering_bisect.
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


def min_enclosing_scalar(segments, L: float, norm: NormP, tol: Tolerance) -> PlacedCircle:
    """one_center.min_enclosing by the scalar kernel, one radius a pass:
    covering_interval over every segment, with no rows pruned, and the
    intersection of those intervals with [0, L] folded as Python's max
    and min fold. Reference for min_enclosing's array route. The search
    is the same intervals.least_radius between the same bounds: lo the
    largest point_segment_distance at the constrained minimisers of
    axis_argmin_abscissas, hi the largest at x = 0.
    """
    cols = segment_rows(segments, L)
    segs = segments_from_columns(cols)
    xm = axis_argmin_abscissas(cols, L)
    lo = max(0.0, *(point_segment_distance(Point(x, 0.0), s, norm, tol)
                    for x, s in zip(xm.tolist(), segs)))
    hi = max(point_segment_distance(Point(0.0, 0.0), s, norm, tol) for s in segs)

    def region_at(radii):
        (R,) = radii.tolist()
        ivs = [covering_interval(s, R, norm) for s in segs]
        a = max(max(iv.lo for iv in ivs), 0.0)
        b = min(min(iv.hi for iv in ivs), L)
        return np.array([a]), np.array([b])

    (a, b), R = least_radius(lo, hi, region_at, tol)
    return PlacedCircle(0.5 * (a + b), R)


def _covering_bisect(s: Segment, R: float, norm: NormP, tol: Tolerance) -> Interval:
    """Covering interval by bisecting each boundary of the convex profile.

    Reference for covering_interval.
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


def bisect_sequential(lo: float, hi: float, fits, tol: Tolerance):
    """Bisect [lo, hi] at the sign of fits(R), one midpoint at a time;
    returns the final (lo, hi). Reference for intervals.bisect_radius,
    which asks about many midpoints a pass and must end at the same
    bracket after as many steps as this loop takes.

    hi is first nudged up by max(eps, 1e-12 hi). The loop stops once
    hi - lo <= tol.eps or after tol.max_iters steps.
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


# -- the one-off fold of the lower envelope ----------------------------
#
# The second route to obnoxious.compute_lower_envelope: the segments
# join the running envelope one at a time, each newcomer's one piece
# merged over its whole window by the build's own scalar merge
# (obnoxious._merge_raw) over the build's profiles
# (obnoxious._build_profile), where the build merges halves.


def _spans(le: LowerEnvelope) -> list:
    """The pieces as the (a, b, seg_index) tuples the envelope build carries."""
    return [(pc.a, pc.b, pc.seg_index) for pc in le.pieces]


def _wrap(spans) -> LowerEnvelope:
    return LowerEnvelope(tuple(EnvelopePiece(a, b, s) for a, b, s in spans))


def compact(le: LowerEnvelope, tol: Tolerance) -> LowerEnvelope:
    """Fuse same-owner neighbours and absorb sub-resolution pieces.

    Every piece of the result is a maximal ownership run. Pieces
    narrower than half of tol.eps fold into a neighbour, since boundary
    roots are only refined to a quarter of tol.eps. A fully degenerate
    envelope (L = 0) keeps one zero-width piece. Idempotent.
    """
    return _wrap(_compact_pieces(_spans(le), tol))


def envelope_value(le: LowerEnvelope, segments, x: float, norm: NormP, tol: Tolerance) -> float:
    """Distance at x to the owning segment of the piece containing x."""
    starts = [pc.a for pc in le.pieces]
    i = bisect_right(starts, x) - 1
    if i < 0:
        i = 0
    return point_segment_distance(Point(x, 0.0), segments[le.pieces[i].seg_index], norm, tol)


def _envelope_peak(env, cols: np.ndarray, norm: NormP, tol: Tolerance) -> float:
    """Exact maximum of the envelope value over its span.

    Each piece's distance profile is convex, so the maximum of the
    pointwise minimum sits at a piece boundary or a domain end. This
    folds point_segment_distance from both ends of every piece to its
    owner's row of cols, in piece order from 0, keeping a value only
    when it is larger; Segment objects are made for the owners alone,
    as obnoxious._largest_empty makes them.
    """
    used = sorted({s for _, _, s in env})
    segs = dict(zip(used, segments_from_columns(cols[used])))
    peak = 0.0
    for a, b, s in env:
        for x in (a, b):
            d = point_segment_distance(Point(x, 0.0), segs[s], norm, tol)
            if d > peak:
                peak = d
    return peak


def _fold_one(env, i: int, lo_x: float, hi_x: float, profiles, tol: Tolerance) -> list:
    """Merge segment i, whose own envelope is one piece, into env inside
    [lo_x, hi_x] only, and return the new env.

    The caller guarantees the new segment strictly loses outside the
    window, so pieces there are spliced through untouched. The newcomer
    is merged over every piece that meets the window, and compaction
    runs on those plus two flanking pieces on each side, which bounds
    how far same-owner fusion can propagate.
    """
    m = len(env)
    ilo = min(bisect_right(env, lo_x, key=itemgetter(1)), m - 1)
    ihi = min(max(bisect_left(env, hi_x, key=itemgetter(0)) - 1, ilo), m - 1)
    raw = _merge_raw(env[ilo:ihi + 1], [(env[ilo][0], env[ihi][1], i)], profiles, tol)
    head, tail = max(ilo - 2, 0), min(ihi + 3, m)
    return env[:head] + _compact_pieces(env[head:ilo] + raw + env[ihi + 1:tail], tol) + env[tail:]


def _fold_windows(arr: SegmentArray, peak: float, scale: float, L: float):
    """The windows of newcomers of the fold under the envelope peak
    peak: lists (lo, hi) over the rows of arr, each row's covering
    interval at R = (peak + c) / (1 - eta), (eta, c) =
    covering_slack(peak), clipped to [0, L], from one
    SegmentArray.covering call; a window is empty where lo > hi. Where
    no bound is claimed (eta >= 1, or R not finite) every window is all
    of [0, L].
    """
    eta, c = covering_slack(peak, scale, arr.p)
    R = (peak + c) / (1.0 - eta) if eta < 1.0 else math.inf
    if not math.isfinite(R):
        return [0.0] * len(arr.ax), [L] * len(arr.ax)
    (lo,), (hi,) = arr.covering(np.array([R]))
    return np.maximum(lo, 0.0).tolist(), np.minimum(hi, L).tolist()


def envelope_one_off(segments, L: float, norm: NormP, tol: Tolerance) -> LowerEnvelope:
    """The lower envelope of obnoxious.compute_lower_envelope, by folding
    the segments into the running envelope one at a time instead of
    merging halves. Where eps is fine against the gaps between
    crossings, the two give the same owners with ends within root
    refinement tolerance. At a coarse eps the two orders of merges can
    leave different slivers to fold away (obnoxious._compact_pieces), so
    the piece lists can differ; each is still a list of maximal
    ownership runs tiling [0, L], each wider than eps / 2.

    A newcomer can only beat envelope values, which are at most the
    envelope's peak (_envelope_peak, a fold of exact distances over the
    piece ends), so the fold contests only the abscissas within the peak of
    it: its covering interval at R = (peak + c) / (1 - eta), (eta, c) =
    covering_slack(peak), clipped to [0, L]. That computed interval
    holds the exact one at peak, by the margin that
    obnoxious._owning_rows takes. The peak is refreshed at the start
    and after every 32 accepted newcomers. The windows come from the
    kernel that covering_slack bounds (_fold_windows): one
    SegmentArray over the next PASS_CELLS newcomers after each refresh,
    and one more for each further PASS_CELLS that pass before the next
    refresh; R is the same between refreshes, so these are the windows
    at the current peak. A newcomer whose window is empty is skipped;
    where no bound is claimed (eta >= 1, or R not finite) the fold
    contests all of [0, L], and every other newcomer is merged over the
    pieces its window meets (_fold_one). A fold needs a window of
    positive width, so at L = 0 compute_lower_envelope builds the
    envelope; it also raises what an empty input or a bad L raises.
    """
    cols = segment_columns(segments)
    n = len(cols)
    if not (0.0 < L < math.inf and n):
        return compute_lower_envelope(cols, L, norm, tol)
    profiles = [_build_profile(ax, ay, bx, by, norm.p) for ax, ay, bx, by in cols.tolist()]
    scale = max(float(np.abs(cols).max()), L)
    env = [(0.0, L, 0)]
    peak = _envelope_peak(env, cols, norm, tol)
    accepted = 0
    # rows first..stop-1 have their windows at the current peak
    stop = 1
    for i in range(1, n):
        if i == stop:
            first, stop = i, min(i + PASS_CELLS, n)
            lo_w, hi_w = _fold_windows(SegmentArray(cols[first:stop], norm), peak, scale, L)
        lo_x, hi_x = lo_w[i - first], hi_w[i - first]
        if lo_x > hi_x:
            continue
        env = _fold_one(env, i, lo_x, hi_x, profiles, tol)
        accepted += 1
        if accepted % 32 == 0:
            peak = _envelope_peak(env, cols, norm, tol)
            stop = i + 1
    return _wrap(env)


class NoBisectorRoot(SolverError):
    """Two points admit no equidistant center on the axis; only
    two_point_circle raises it."""


def two_point_circle(pts: PointSet, i: int, j: int, norm: NormP, tol: Tolerance):
    """Center on the axis equidistant from points i <= j, and the radius.

    For i == j this is the smallest ball pinned at the point. Equal
    abscissas admit a center only when the |y| match. For p = 1 the
    distance difference plateaus, so a center may not exist either;
    the nonexistent cases raise NoBisectorRoot. At other p the bracket
    [x_i, x_j] widens by doubling steps toward a center outside it,
    where Python's ** may overflow, then bisects to eps/4. The scalar
    kernel of one pair, for the tests: k_cover._binding_radii takes the
    same closed forms at p = 2 and solves only the pairs whose center
    lies in [x_i, x_j], within that span, and binds the others at 0.
    """
    if not 0 <= i <= j < len(pts):
        raise ValueError("need 0 <= i <= j < len(points)")
    xi, yi = pts.xy[i].tolist()
    xj, yj = pts.xy[j].tolist()
    p = norm.p
    if i == j:
        return xi, abs(yi)
    if xi == xj:
        if yi * yi == yj * yj:
            return xi, abs(yi)
        raise NoBisectorRoot(f"points {i} and {j} share x but not |y|")
    if p == 2.0:
        xc = (xj * xj + yj * yj - xi * xi - yi * yi) / (2.0 * (xj - xi))
        return xc, math.hypot(xc - xi, yi)

    target = abs(yj) ** p - abs(yi) ** p

    def F(x: float) -> float:
        return abs(x - xi) ** p - abs(x - xj) ** p

    if p == 1.0:
        span = xj - xi
        if target > span or target < -span:
            raise NoBisectorRoot(f"no equidistant axis point for {i}, {j} under p=1")
        if target == span:
            return xj, _lp_pair(xj - xi, yi, p)
        if target == -span:
            return xi, abs(yi)
        lo, hi = xi, xj
    else:
        lo, hi = xi, xj
        step = max(1.0, xj - xi)
        it = 0
        while F(lo) > target and it < tol.max_iters:
            lo -= step
            step *= 2.0
            it += 1
        step = max(1.0, xj - xi)
        it = 0
        while F(hi) < target and it < tol.max_iters:
            hi += step
            step *= 2.0
            it += 1
    it = 0
    while hi - lo > tol.eps / 4.0 and it < tol.max_iters:
        mid = 0.5 * (lo + hi)
        if F(mid) < target:
            lo = mid
        else:
            hi = mid
        it += 1
    xc = 0.5 * (lo + hi)
    return xc, _lp_pair(xc - xi, yi, p)


def rmin_on_axis(pts: PointSet, i: int, j: int, norm: NormP, tol: Tolerance):
    """Smallest axis-centered ball covering points i..j; returns (cx, r),
    from the run's own radius table (run_radii), as dp_solve reads the
    circles of its chosen runs."""
    if not 0 <= i <= j < len(pts):
        raise ValueError("need 0 <= i <= j < len(points)")
    xy = pts.xy[i:j + 1]
    return run_circle(xy, run_radii(xy, norm.p, tol)[0, -1], norm.p)


def run_circle(xy, r, p: float):
    """(center, radius) of the one run xy of radius r by
    k_cover._run_circles, as dp_solve reads each chosen run's circle."""
    return _run_circles(xy, [(0, len(xy) - 1)], [r], p)[0]


def relax_scan(row_prev, weights, is_sum: bool):
    """Best (value, break) of a DP cell whose last run starts at a break
    b < len(weights) and weighs weights[b]: row_prev[b] + weights[b], or
    the larger of the two, scanned in break order, the first strictly
    smaller value winning; (inf, None) where every value is inf.
    Reference for k_cover._best_breaks.
    """
    best, brk = math.inf, None
    for b, w in enumerate(weights):
        prev = row_prev[b]
        val = prev + w if is_sum else (prev if prev >= w else w)
        if val < best:
            best, brk = val, b
    return best, brk


def dp_scan(pts: PointSet, K, norm: NormP, tol: Tolerance, agg: AggSpec) -> CoverSolution:
    """The k-cover DP by the plain recursion over the run table
    (run_radii), one relax_scan per DP cell, row after row: O(K N^2)
    scalar steps. Reference for the relaxation of k_cover._relax_blocks
    (a whole budget row per array pass and block for an integer K, a
    few columns per array pass and a scalar scan for K = None), which
    gives the same solution: the same weights radius ** q, and the same
    first break of the least value. The circles of the chosen runs come
    from rmin_on_axis.
    """
    n = len(pts)
    if n == 0:
        raise EmptyInput("need at least one point")
    if K is not None:
        K = min(K, n)
    q = agg.q
    is_sum = agg.kind == "sum"
    radius = run_radii(pts.xy, norm.p, tol).T.tolist()
    weights = [[r ** q for r in row[:j + 1]] for j, row in enumerate(radius)]
    rows, back = (1, 0) if K is None else (K, 1)
    opt = [[0.0] + [math.inf] * n for _ in range(rows + 1)]
    par = [[None] * (n + 1) for _ in range(rows + 1)]
    for k in range(1, rows + 1):
        for j in range(1, n + 1):
            opt[k][j], par[k][j] = relax_scan(opt[k - back], weights[j - 1], is_sum)
    if opt[rows][n] == math.inf:
        raise _no_finite_cover()
    runs = []
    k, j = rows, n
    while j > 0:
        left = par[k][j]
        runs.append((left, j - 1))
        j = left
        k -= back
    runs.reverse()
    circles = [PlacedCircle(*rmin_on_axis(pts, left, right, norm, tol)) for left, right in runs]
    powers = [c.radius ** q for c in circles]
    objective = math.fsum(powers) if is_sum else max(powers)
    return CoverSolution(tuple(runs), tuple(circles), objective)


def run_radii(xy, p: float, tol: Tolerance):
    """The least radius of every run of the sorted points xy, as an
    N x N table: entry [l, r], l <= r, is the radius of the smallest
    ball centered on the axis that covers points l..r; the column blocks
    of k_cover._run_columns gathered into one table. Entries below the
    diagonal are 0."""
    n = len(xy)
    table = np.zeros((n, n))
    for c0, R in _run_columns(xy, p, tol):
        table[:R.shape[1], c0:c0 + len(R)] = R.T
    return table
