"""Cover points by at most K balls centered on the axis.

An optimal solution may be chosen so that each ball covers an index
run of the x-sorted points, so the problem reduces to a shortest-path
style DP over candidate runs. Candidates are generated from circles
through one or two points: build_lists_naive computes all O(N^2) pair
circles at once over numpy arrays (in closed form at p = 1 and p = 2,
and by a lockstep safeguarded Newton iteration, rtsafe, on each pair's
own power-of-two scale at other p) and grows their runs with work in
proportion to the run lengths; a plane sweep builds the same lists at
p = 2. Both hand their runs to one grouping (_group_lists), and a list
is the same plain data whichever builds it: for each right end r, a
tuple of (left, radius) pairs in ascending left, one per run left..r,
at the smallest radius found for it. The DP makes N column
relaxations; each relaxes all K rows at once by suffix minima in
O(K·N) array work, so it does O(K·N^2) work in all. The circle of
each chosen run comes from the one-center bisection specialised to
points (_rmin_points): the radius search that every solver shares,
intervals.least_radius, over a region kernel on plain floats.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, UnsupportedNorm
from .geometry import NormP, Tolerance, _lp_pair, _np_lp
from .intervals import _halfwidth, least_radius
from .one_center import PlacedCircle

_INF = math.inf


@dataclass(frozen=True)
class PointSet:
    """Demand points, sorted by (x, y) on construction.

    All indices used by the solvers refer to this sorted order.
    """

    pts: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "pts",
                           tuple(sorted(self.pts, key=lambda q: (q.x, q.y))))

    def __len__(self) -> int:
        return len(self.pts)


@dataclass(frozen=True)
class AggSpec:
    """How run radii combine: sum or max of radius**q, q >= 1."""

    q: float = 1.0
    kind: str = "sum"

    def __post_init__(self) -> None:
        if not (isinstance(self.q, (int, float)) and math.isfinite(self.q) and self.q >= 1.0):
            raise ValueError("q must be a finite real >= 1")
        if self.kind not in ("sum", "max"):
            raise ValueError(f"agg kind must be 'sum' or 'max', got {self.kind!r}")
        object.__setattr__(self, "q", float(self.q))


@dataclass(frozen=True)
class CoverSolution:
    intervals: tuple
    circles: tuple
    objective: float


def _cover_slack(R: float, eps: float) -> float:
    """How far beyond radius R a point still counts as covered.

    Follows R's scale: a pair circle through two points whose abscissas
    almost coincide has a huge radius, and rounding in its center and
    radius then exceeds any absolute slack, so that the circle would
    miss its own points.
    """
    return eps * max(1.0, R)


def _power_gap(x, a, b, t, p: float):
    """F(x) - t and F'(x) for F(x) = |x - a|^p - |x - b|^p, from one
    power per side: |d|^(p-1), then times |d|. Works in place on its
    own temporaries, so that a call on all pairs allocates little."""
    da, db = x - a, x - b
    f, g = np.abs(da), np.abs(db)
    ma, mb = f ** (p - 1.0), g ** (p - 1.0)
    f *= ma
    g *= mb
    f -= g
    f -= t
    np.copysign(ma, da, out=ma)
    np.copysign(mb, db, out=mb)
    ma -= mb
    ma *= p
    return f, ma


def _rtsafe_pairs(a, b, t, lo, hi, s, quarter: float, p: float, max_iters: int):
    """Root of F - t in [lo, hi] for every pair at once, by the bracketed
    Newton iteration rtsafe (Numerical Recipes, section 9.4).

    F (see _power_gap) increases, so F(lo) <= t <= F(hi) brackets the
    root, and each evaluation moves one end of the bracket. A Newton
    step is taken when it lands in the closed bracket and is at most
    half the step before the last one; otherwise the bracket is halved.
    A pair stops at an exact root, at a Newton step of at most
    quarter, at the bisection of a bracket at most quarter wide (whose
    midpoint lies within quarter / 2 of the root, as a plain bisection
    to that width gives), or once its iterate stops moving: a Newton
    step that rounds to no step, or a bracket whose ends are adjacent
    floats. The pairs are scaled by s, so a pair's tolerance is
    quarter * s. Returns the iterates.
    """
    x = 0.5 * (lo + hi)
    dx = hi - lo
    dxold = dx.copy()
    act = None
    for _ in range(max_iters):
        act = _rtsafe_step(act, x, a, b, t, lo, hi, dx, dxold, s, quarter, p)
        if not len(act):
            break
    return x


def _rtsafe_step(act, x, a, b, t, lo, hi, dx, dxold, s, quarter: float, p: float):
    """One step of _rtsafe_pairs for the running pairs act (None: all of
    them), in place; returns the pairs still running. Its temporaries
    span those pairs and are freed on return."""
    if act is None:
        act = np.arange(len(x))
        xa = x
        f, df = _power_gap(x, a, b, t, p)
    else:
        xa = x[act]
        f, df = _power_gap(xa, a[act], b[act], t[act], p)
    below = f < 0.0
    lo[act[below]] = xa[below]
    hi[act[~below]] = xa[~below]
    lo_a, hi_a = lo[act], hi[act]
    # Newton where (x - hi) F' - f and (x - lo) F' - f share no sign, so
    # that the step lands in the closed bracket, and where |f / F'| is at
    # most half the step before the last; an exact root stays put
    exact = f == 0.0
    newton = ((((xa - hi_a) * df - f) * ((xa - lo_a) * df - f) <= 0.0)
              & (np.abs(2.0 * f) <= np.abs(dxold[act] * df)) & ~exact)
    dxold[act] = dx[act]
    q = quarter * s[act]
    step = hi_a - lo_a
    done = step <= q
    step *= 0.5
    np.divide(f, df, out=step, where=newton)
    xn = lo_a + step
    np.subtract(xa, step, out=xn, where=newton)
    stuck = np.where(newton, xn == xa, (xn == lo_a) | (xn == hi_a))
    np.less_equal(np.abs(step), q, out=done, where=newton)
    np.copyto(xn, xa, where=exact)
    dx[act] = step
    x[act] = xn
    return act[~(done | stuck | exact)]


@np.errstate(over="ignore", invalid="ignore")
def _pair_circles(X, Y, I, J, p: float, tol: Tolerance):
    """Center on the axis equidistant from points I[k] <= J[k], and the
    radius, for every pair at once.

    X, Y are the sorted abscissas and ordinates. Returns (xc, R, ok).
    For i == j the circle is the smallest ball pinned at the point.
    Equal abscissas admit a center only when the |y| match, and at
    p = 1 the distance difference plateaus, so a center may not exist
    either; ok is False there, and where the radius is not finite (a
    pair circle of coordinates near the float range, which the DP could
    never choose). Between the plateaus the p = 1 difference is 2x - xi
    - xj, so the center is the closed form (xi + xj + |yj| - |yi|) / 2;
    p = 2 takes its closed-form center and math.hypot. Other p solve
    F(x) = |x - xi|^p - |x - xj|^p = |yj|^p - |yi|^p, F increasing, on
    each pair's own power-of-two scale: its largest |xj - xi|, |yi|,
    |yj| brought into [1/2, 1), which is exact and keeps the powers in
    range even for a point far from the axis; the center is scaled
    back. The bracket [xi, xj] widens by doubling steps until it holds
    the root (or until x - xi and x - xj round alike, where F is 0),
    then rtsafe (_rtsafe_pairs) runs on all pairs in lockstep to eps/4.
    Its accepted Newton steps at least halve every second step and its
    other steps halve the bracket, so a pair stops within about twice
    the steps of a bisection to the same width, or sooner where the
    bracket ends become adjacent floats: a center whose ulp exceeds
    eps/4 stops there. On the benchmark's point sets no pair takes 64
    steps or more, against the default cap of 200. The scalar kernel
    of one pair, which the tests compare against, is
    _reference.two_point_circle: it bisects at every p != 2, so the
    values of p = 2, of i == j, of equal abscissas and of the p = 1
    plateaus equal its bit for bit, and the others agree within its
    eps/8 bracket and the rounding of F. The powers run under
    np.errstate(over="raise", invalid="raise"), so no inf - inf steers
    a search. Other arithmetic overflows to inf, silently, as Python
    float arithmetic does.
    """
    xi, yi, xj, yj = X[I], Y[I], X[J], Y[J]
    ok = np.ones(len(I), dtype=bool)
    # i == j is the pinned ball; equal abscissas need equal |y|
    tie = (I != J) & (xi == xj)
    ok[tie] = yi[tie] * yi[tie] == yj[tie] * yj[tie]
    g = np.flatnonzero(xi != xj)
    xi, yi, xj, yj = xi[g], yi[g], xj[g], yj[g]
    if p == 2.0:
        c = (xj * xj + yj * yj - xi * xi - yi * yi) / (2.0 * (xj - xi))
        r = np.fromiter(map(math.hypot, (c - xi).tolist(), yi.tolist()),
                        dtype=float, count=len(g))
    else:
        if p == 1.0:
            # |x - xi| - |x - xj| is 2x - xi - xj on [xi, xj] and
            # plateaus at -span and +span outside, where the center is
            # the plateau's end
            target = np.abs(yj) - np.abs(yi)
            span = xj - xi
            ok[g[(target > span) | (target < -span)]] = False
            c = np.where(target == span, xj,
                         np.where(target == -span, xi, 0.5 * (xi + xj + target)))
        else:
            # each pair on its own power-of-two scale, its largest
            # |xj - xi|, |yi|, |yj| in [1/2, 1) (below it for subnormal
            # pairs, so that the scale stays finite): exact, and the
            # powers stay in range
            m = np.maximum(xj - xi, np.maximum(np.abs(yi), np.abs(yj)))
            s = np.ldexp(1.0, -np.maximum(np.frexp(m)[1], -1021))
            a, b = xi * s, xj * s
            with np.errstate(over="raise", invalid="raise"):
                target = np.abs(yj * s) ** p - np.abs(yi * s) ** p
                # only the scaled pairs stay live during the search
                del xi, yi, xj, yj
                lo, hi = a.copy(), b.copy()
                # widen lo while F(lo) > target and hi while F(hi) <
                # target, doubling the step; F is evaluated once more at
                # the cap, as the scalar loop's `F(lo) > target and it <
                # max_iters` does. Where x - xi and x - xj round alike F
                # is 0 there and beyond, so widening cannot change its sign
                for x, sign, outside in ((lo, -1.0, np.greater), (hi, 1.0, np.less)):
                    act = np.flatnonzero(outside(_power_gap(x, a, b, target, p)[0], 0.0))
                    step = np.maximum(1.0, b[act] - a[act])
                    for _ in range(tol.max_iters):
                        if not len(act):
                            break
                        x[act] += sign * step
                        step *= 2.0
                        xa = x[act]
                        gap = _power_gap(xa, a[act], b[act], target[act], p)[0]
                        keep = outside(gap, 0.0) & (xa - a[act] != xa - b[act])
                        act, step = act[keep], step[keep]
                c = _rtsafe_pairs(a, b, target, lo, hi, s, tol.eps / 4.0, p, tol.max_iters)
            c /= s
            xi, yi = X[I[g]], Y[I[g]]
        r = _np_lp(c - xi, yi, p)
    xc, R = X[I], np.abs(Y[I])
    xc[g], R[g] = c, r
    return xc, R, ok & np.isfinite(R)


@np.errstate(over="ignore", invalid="ignore")
def _expand_runs(X, Y, I, J, xc, R, p: float, eps: float):
    """Grow each pair circle's run from its smaller index both ways.

    All pairs step in lockstep, and each tests only the next point
    beyond its run, so the work is proportional to the run lengths.
    """
    n = len(X)
    slack = eps * np.maximum(1.0, R)  # _cover_slack
    if p == 2.0:
        thr = (R + slack) * (R + slack)

        def cov(k, a):
            dx = X[k] - xc[a]
            return dx * dx + Y[k] * Y[k] <= thr[a]
    else:
        reach = R + slack

        def cov(k, a):
            return _np_lp(X[k] - xc[a], Y[k], p) <= reach[a]
    left = I.copy()
    right = I.copy()
    for end, step, stop in ((left, -1, 0), (right, 1, n - 1)):
        act = np.flatnonzero(end != stop)
        while len(act):
            act = act[cov(end[act] + step, act)]
            end[act] += step
            act = act[end[act] != stop]
    # every point of a run was tested on the way out except the pair's
    # own point i, so a run that reached the far point j needs only that
    far = np.flatnonzero(right >= J)
    assert cov(I[far], far).all()
    return left, right


def _group_lists(right, left, rad, absy):
    """The candidate lists of the runs left..right at radius rad.

    right, left and rad are parallel arrays, one entry per circle found;
    absy holds |y| of the sorted points. Adds the pinned single-point
    circle of every point (the run k..k at radius |y_k|), drops radii
    that are not finite (pair circles of coordinates near the float
    range, which the DP could never choose) and keeps the smallest
    radius of each (right, left). Returns, for each right end, a tuple
    of (left, radius) pairs in ascending left.
    """
    n = len(absy)
    fin = np.isfinite(rad)
    key = np.concatenate((right[fin] * n + left[fin], np.arange(n) * (n + 1)))
    rad = np.concatenate((rad[fin], absy))
    order = np.argsort(key)
    key, rad = key[order], rad[order]
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    rights, lefts = np.divmod(key[first], n)
    radii = np.minimum.reduceat(rad, first).tolist()
    lefts = lefts.tolist()
    bounds = np.searchsorted(rights, np.arange(n + 1)).tolist()
    return tuple(tuple(zip(lefts[a:b], radii[a:b])) for a, b in zip(bounds, bounds[1:]))


def build_lists_naive(pts: PointSet, norm: NormP, tol: Tolerance):
    """Candidate lists by direct enumeration of all point pairs.

    Each pair circle is expanded from its smaller index in both
    directions while points stay covered; the resulting run and radius
    join the list of the run's right end, and each (right, left) group
    keeps its smallest radius (_group_lists). All O(N^2) pair circles
    are computed at once over numpy arrays: in closed form at p = 1 and
    p = 2, and at other p by a lockstep rtsafe (Newton steps inside a
    sign bracket, falling back to bisection) on each pair's own
    power-of-two scale, which stops even where a center's ulp exceeds
    eps/4: in fewer than 64 steps on the benchmark's point sets, about
    5 on average (_pair_circles). The expansion then costs the sum of
    the run lengths, O(N^3) only when most runs span most points.
    """
    P = pts.pts
    n = len(P)
    if n == 0:
        raise EmptyInput("need at least one point")
    p = norm.p
    X = np.array([q.x for q in P], dtype=float)
    Y = np.array([q.y for q in P], dtype=float)
    I, J = np.triu_indices(n)
    xc, R, ok = _pair_circles(X, Y, I, J, p, tol)
    I, J, xc, R = I[ok], J[ok], xc[ok], R[ok]
    left, right = _expand_runs(X, Y, I, J, xc, R, p, tol.eps)
    return _group_lists(right, left, R, np.abs(Y))


def _sweep_pass(X, Y, eps: float, mirrored: bool, n: int, sugg) -> None:
    """One directional pass; X, Y are already mirrored when asked.

    Maintains the points seen so far ordered by current squared
    distance to the sweep position, plus suffix index-sets for
    uncovered-neighbour queries. Event types: 1 swap of adjacent
    ranks, 2 point insertion (also queries its pinned circle), 3 pair
    circle query.
    """
    events = []
    seq = 0
    for k in range(n):
        events.append((X[k], 2, seq, k, -1))
        seq += 1
    for i in range(n):
        for j in range(i + 1, n):
            if X[i] == X[j]:
                if Y[i] * Y[i] == Y[j] * Y[j]:
                    events.append((X[i], 3, seq, i, j))
                    seq += 1
                continue
            xc = (X[j] * X[j] + Y[j] * Y[j] - X[i] * X[i] - Y[i] * Y[i]) \
                / (2.0 * (X[j] - X[i]))
            events.append((xc, 3, seq, i, j))
            seq += 1
    heapq.heapify(events)

    order = []
    rank = {}
    bt = [[]]

    def d2(k: int, x: float) -> float:
        dx = x - X[k]
        return dx * dx + Y[k] * Y[k]

    def enqueue_swap(pos: int, xnow: float) -> None:
        nonlocal seq
        if pos < 0 or pos + 1 >= len(order):
            return
        a, b = order[pos], order[pos + 1]
        if X[a] == X[b]:
            return
        xs = (X[b] * X[b] + Y[b] * Y[b] - X[a] * X[a] - Y[a] * Y[a]) \
            / (2.0 * (X[b] - X[a]))
        if xs > xnow:
            heapq.heappush(events, (xs, 1, seq, a, b))
            seq += 1

    def record(i: int, j: int, xc: float) -> None:
        # anchor = the point whose ORIGINAL index is the smaller one
        anchor = i if not mirrored else j
        if i == j:
            R = abs(Y[i])
        elif X[i] == X[j]:
            R = abs(Y[anchor])
        else:
            R = math.hypot(xc - X[anchor], Y[anchor])
        slack = _cover_slack(R, eps)
        thr = (R + slack) * (R + slack)
        lo, hi = 0, len(order)
        while lo < hi:
            mid = (lo + hi) // 2
            if d2(order[mid], xc) <= thr:
                lo = mid + 1
            else:
                hi = mid
        unc = bt[lo]
        ip = bisect_left(unc, anchor)
        pred = unc[ip - 1] if ip > 0 else None
        iq = bisect_right(unc, anchor)
        succ = unc[iq] if iq < len(unc) else None
        if not mirrored:
            key = (i, j)
            pl = pred + 1 if pred is not None else None
            pr = succ - 1 if succ is not None else None
        else:
            key = (n - 1 - j, n - 1 - i)
            pl = (n - 1 - succ) + 1 if succ is not None else None
            pr = (n - 1 - pred) - 1 if pred is not None else None
        entry = sugg.setdefault(key, [None, None])
        if pl is not None:
            entry[0] = pl if entry[0] is None else max(entry[0], pl)
        if pr is not None:
            entry[1] = pr if entry[1] is None else min(entry[1], pr)

    while events:
        x, typ, _s, a, b = heapq.heappop(events)
        if typ == 1:
            ra = rank.get(a)
            if ra is None or ra + 1 >= len(order) or order[ra + 1] != b:
                continue
            order[ra], order[ra + 1] = b, a
            rank[a] = ra + 1
            rank[b] = ra
            lst = bt[ra + 1]
            del lst[bisect_left(lst, b)]
            insort(lst, a)
            enqueue_swap(ra - 1, x)
            enqueue_swap(ra + 1, x)
        elif typ == 2:
            k = a
            key = (d2(k, x), k)
            lo, hi = 0, len(order)
            while lo < hi:
                mid = (lo + hi) // 2
                ko = order[mid]
                if (d2(ko, x), ko) < key:
                    lo = mid + 1
                else:
                    hi = mid
            pos = lo
            order.insert(pos, k)
            rank.clear()
            rank.update((kid, idx) for idx, kid in enumerate(order))
            suffix = bt[pos][:]
            insort(suffix, k)
            bt.insert(pos, suffix)
            for kk in range(pos):
                insort(bt[kk], k)
            enqueue_swap(pos - 1, x)
            enqueue_swap(pos, x)
            record(k, k, x)
        else:
            record(a, b, x)


def build_lists_sweep(pts: PointSet, norm: NormP, tol: Tolerance):
    """Candidate lists via two mirrored distance-order sweeps (p = 2).

    Each pass sees the points on its side of a pair event and suggests
    how far the pair circle's run extends toward that side; merging
    the passes reproduces the naive expansion exactly. The runs are
    grouped as build_lists_naive groups its own (_group_lists).
    """
    if norm.p != 2.0:
        raise UnsupportedNorm("the sweep builder requires p = 2")
    P = pts.pts
    n = len(P)
    if n == 0:
        raise EmptyInput("need at least one point")
    X = [q.x for q in P]
    Y = [q.y for q in P]
    sugg = {}
    _sweep_pass(X, Y, tol.eps, False, n, sugg)
    Xm = [-X[n - 1 - k] for k in range(n)]
    Ym = [Y[n - 1 - k] for k in range(n)]
    _sweep_pass(Xm, Ym, tol.eps, True, n, sugg)

    rights, lefts, radii = [], [], []
    for (i, j), (pl, pr) in sugg.items():
        lefts.append(pl if pl is not None else 0)
        rights.append(pr if pr is not None else n - 1)
        if i == j or X[i] == X[j]:
            radii.append(abs(Y[i]))
        else:
            xc = (X[j] * X[j] + Y[j] * Y[j] - X[i] * X[i] - Y[i] * Y[i]) \
                / (2.0 * (X[j] - X[i]))
            radii.append(math.hypot(xc - X[i], Y[i]))
    return _group_lists(np.array(rights, dtype=np.intp), np.array(lefts, dtype=np.intp),
                        np.array(radii, dtype=float), np.abs(np.array(Y, dtype=float)))


def rmin_on_axis(pts: PointSet, i: int, j: int, norm: NormP, tol: Tolerance):
    """Smallest axis-centered ball covering points i..j; returns (cx, r)."""
    P = pts.pts
    if not 0 <= i <= j < len(P):
        raise ValueError("need 0 <= i <= j < len(points)")
    return _rmin_points(P[i:j + 1], norm, tol)


def _rmin_points(points, norm: NormP, tol: Tolerance):
    """Smallest ball centered anywhere on the axis covering the points.

    The center is not held to any stretch [0, L]: it ranges over the
    whole line. A center left or right of every point gets nearer to
    all of them by moving toward them, so the optimum lies in
    [min x, max x]. The search is min_enclosing's, the shared
    intervals.least_radius, over the window [min x - max|y|,
    max x + max|y|] shifted to [0, L], with a region kernel on plain
    floats. Each point's nearest abscissa lies in the window, at
    distance |y|, so the lower bound is max|y|; at every radius R
    tried, R >= |y|, a point covers the abscissas within
    intervals._halfwidth of its own, as covering_interval gives for a
    point segment, and the window clips their intersection. The center
    and radius are min_enclosing's bit for bit on the scalar route
    that it takes below intervals.ARRAY_MIN_SEGMENTS segments.
    """
    p = norm.p
    ys = [abs(q.y) for q in points]
    xs = [q.x for q in points]
    maxy = max(ys)
    shift, end = min(xs) - maxy, max(xs) + maxy
    if end <= shift:
        shift, end = min(xs), max(xs)
    L = end - shift
    xs = [x - shift for x in xs]
    if not math.isfinite(L):
        # a shifted abscissa or L beyond the float range, with the
        # errors that Point and min_enclosing raise for them
        raise ValueError("point coordinates must be finite" if not math.isfinite(max(xs))
                         else "L must be finite and nonnegative")

    def region_at(R: float):
        """(lo, hi) where the points' covering intervals and [0, L]
        meet at radius R, or None where they do not."""
        if not math.isfinite(R):
            raise ValueError("radius must be finite and nonnegative")
        lo, hi = -_INF, _INF
        for x, y in zip(xs, ys):
            h = _halfwidth(R, y, p)
            if x - h > lo:
                lo = x - h
            if x + h < hi:
                hi = x + h
        if 0.0 > lo:
            lo = 0.0
        if L < hi:
            hi = L
        return None if lo > hi else (lo, hi)

    hi = max(_lp_pair(x, y, p) for x, y in zip(xs, ys))
    (a, b), R = least_radius(maxy, hi, region_at, tol)
    return 0.5 * (a + b) + shift, R


@np.errstate(over="ignore")  # m + w overflows to inf, as Python floats do
def _relax(prev, j: int, lefts, weights, is_sum: bool):
    """Best value and candidate of a last run ending at point j - 1,
    for every row of prev at once.

    lefts are the left ends of list j - 1's candidates, ascending, and
    weights their radius ** q, both numpy arrays; prev holds one
    previous DP row per row to relax, of which only prev[:, :j] is
    read. The nested scan over every candidate and break
    (_reference.relax_scan) keeps the first (candidate, break) in scan
    order with the smallest value. Rounding is monotone, so over its
    breaks a candidate's smallest value is its value at the range
    minimum m of prev[r, left:j], m + w or max(m, w): one backward pass
    of suffix minima along each row prices every candidate, and argmin
    picks the first of the cheapest. Returns (best, cand), arrays over
    the rows; _break recovers the scan's break of a row.
    """
    suffix_min = np.minimum.accumulate(prev[:, lefts[0]:j][:, ::-1], axis=1)
    m = suffix_min[:, j - 1 - lefts]
    vals = m + weights if is_sum else np.maximum(m, weights)
    return vals.min(axis=1), vals.argmin(axis=1)


@np.errstate(over="ignore")
def _break(row_prev, j: int, left: int, w: float, best: float, is_sum: bool) -> int:
    """The break the scan keeps for a candidate run left..j-1 of weight w
    whose best value is best: the first prev whose value equals it,
    even where prev + w rounds two different prev to the same sum.
    """
    run = row_prev[left:j]
    hit = (run + w if is_sum else np.maximum(run, w)) == best
    return left + int(np.argmax(hit))


def _no_finite_cover() -> OverflowError:
    # the smallest circle around any run is a candidate, so every K
    # has a finite optimum unless radii or their sum overflow
    return OverflowError("no cover by the allowed runs has a finite objective")


def dp_solve(pts: PointSet, K, norm: NormP, tol: Tolerance, agg: AggSpec,
             lists: str = "naive") -> CoverSolution:
    """Optimal cover of the points by at most K runs (K=None: unlimited).

    The DP scans candidate runs ending at each point. A candidate may
    be entered at any break inside its run: its circle covers every
    sub-run with the same right end, and some optimal partition has
    every block's circle stopping exactly at the block's right end, so
    this break relaxation is both sound and complete. Unused budget is
    free because zero points always cost zero, and a budget beyond n
    runs changes nothing, so K is clamped to n. Circles are re-derived
    for the chosen runs, so the reported objective reflects the tight
    per-run radii.

    Centers range over the whole axis, the line through the constraint;
    no stretch [0, L] bounds them, and none is taken.

    Cost: the lists (see build_lists_naive and build_lists_sweep), then
    N column relaxations, each of which relaxes all K rows (one row for
    K = None) at once in O(K·N) array work (see _relax), so O(K·N^2)
    in all; the break of a cell is recovered only along the chosen
    path (_break); then one rmin_on_axis per chosen run.
    """
    n = len(pts)
    if n == 0:
        raise EmptyInput("need at least one point")
    if K is not None and not (isinstance(K, int) and K >= 1):
        raise ValueError("K must be None or an integer >= 1")
    if K is not None:
        K = min(K, n)
    if lists == "naive":
        cls = build_lists_naive(pts, norm, tol)
    elif lists == "sweep":
        cls = build_lists_sweep(pts, norm, tol)
    else:
        raise ValueError(f"unknown lists {lists!r}")
    q = agg.q
    is_sum = agg.kind == "sum"

    cand_lefts = [np.array([left for left, _ in cl]) for cl in cls]
    cand_weights = [np.array([radius ** q for _, radius in cl]) for cl in cls]

    # row k relaxes from row k - 1; with K = None the one row relaxes
    # from itself, which is sound because _relax reads only columns < j
    rows, back = (1, 0) if K is None else (K, 1)
    opt = np.full((rows + 1, n + 1), _INF)
    cand = np.zeros((rows + 1, n + 1), dtype=np.intp)
    opt[:, 0] = 0.0
    for j in range(1, n + 1):
        opt[1:, j], cand[1:, j] = _relax(opt[1 - back:rows + 1 - back], j, cand_lefts[j - 1],
                                         cand_weights[j - 1], is_sum)
    if opt[rows][n] == _INF:
        raise _no_finite_cover()
    runs = []
    k, j = rows, n
    while j > 0:
        c = cand[k][j]
        left = _break(opt[k - back], j, int(cand_lefts[j - 1][c]), cand_weights[j - 1][c],
                      opt[k][j], is_sum)
        runs.append((left, j - 1))
        j = left
        k -= back
    runs.reverse()
    circles = []
    weights = []
    for left, right in runs:
        cx, rad = rmin_on_axis(pts, left, right, norm, tol)
        circles.append(PlacedCircle(cx, rad))
        weights.append(rad ** q)
    objective = math.fsum(weights) if is_sum else max(weights)
    return CoverSolution(tuple(runs), tuple(circles), objective)
