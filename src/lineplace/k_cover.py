"""Cover points by at most K balls centered on the axis.

An optimal solution may be chosen so that each ball covers an index
run of the x-sorted points, so the problem reduces to a shortest-path
style DP over candidate runs. Candidates are generated from circles
through one or two points: build_lists_naive computes all O(N^2) pair
circles at once over numpy arrays (in closed form at p = 1 and p = 2,
and by a lockstep safeguarded Newton iteration, rtsafe, on each pair's
own power-of-two scale at other p). A pair's center is also the
threshold beyond which a circle through one of its points covers the
other, so O(N^2) certified thresholds (_certified_thresholds) let
O(N^2 log N) searches jump every run past the points it surely covers,
and exact coverage tests grow the runs only over the points that are
left, about one per pair on the benchmark's point sets. A plane sweep
builds the same lists at p = 2. Both hand their runs to one grouping
(_group_lists), and a list is the same plain data whichever builds it:
for each right end r, a tuple of (left, radius) pairs in ascending
left, one per run left..r, at the smallest radius found for it. The DP
makes N column relaxations; each relaxes all K rows at once by suffix
minima in O(K·N) array work, so it does O(K·N^2) work in all. The
circle of each chosen run comes from the same pair circles, by Helly's
theorem on the line (_run_circle): no radius search runs after the
lists.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, UnsupportedNorm
from .geometry import NormP, Tolerance, _np_lp
from .intervals import _halfwidth
from .one_center import PlacedCircle

_INF = math.inf
_U = 2.0 ** -53
_TINY = 2.0 ** -1074
_SLICE = 4096  # pairs per slice of _certified_thresholds


@dataclass(frozen=True, eq=False)
class PointSet:
    """Demand points as a read-only (N, 2) float64 array xy of rows
    [x, y], sorted by (x, y) with a stable np.lexsort: rows with equal
    keys (duplicates, 0.0 and -0.0) keep their input order, as in a
    sort by that key. A sequence of Point is read once, as
    geometry.segment_columns reads Segments. All indices used by the
    solvers refer to this sorted order.
    """

    xy: np.ndarray

    def __post_init__(self) -> None:
        xy = self.xy
        if not isinstance(xy, np.ndarray):
            xy = [(q.x, q.y) for q in xy]
        xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
        xy = xy[np.lexsort((xy[:, 1], xy[:, 0]))]
        xy.flags.writeable = False
        object.__setattr__(self, "xy", xy)

    def __len__(self) -> int:
        return len(self.xy)


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


_SLACK_FLOOR = 2.0 ** -40  # the least eps of _cover_slack


def _cover_slack(R: float, eps: float) -> float:
    """How far beyond radius R a point still counts as covered.

    Follows R's scale: a pair circle through two points whose abscissas
    almost coincide has a huge radius, and rounding in its center and
    radius then exceeds any absolute slack, so that the circle would
    miss its own points. eps is floored at 2^-40, which exceeds that
    rounding, so that a pair circle covers its own points at any eps;
    at eps >= 2^-40 the floor changes nothing.
    """
    # a conditional, not max(): the sweep calls this once per event
    return (eps if eps > _SLACK_FLOOR else _SLACK_FLOOR) * max(1.0, R)


def _power_gap(x, a, b, t, p: float, size: bool = False):
    """F(x) - t and F'(x) for F(x) = |x - a|^p - |x - b|^p, from one
    power per side: |d|^(p-1), then times |d|. Works in place on its
    own temporaries, so that a call on all pairs allocates little. With
    size, also returns |x - a|^p + |x - b|^p as computed, which bounds
    the rounding of F (_certified_thresholds)."""
    da, db = x - a, x - b
    f, g = np.abs(da), np.abs(db)
    ma, mb = f ** (p - 1.0), g ** (p - 1.0)
    f *= ma
    g *= mb
    total = f + g if size else None
    f -= g
    f -= t
    np.copysign(ma, da, out=ma)
    np.copysign(mb, db, out=mb)
    ma -= mb
    ma *= p
    return (f, ma, total) if size else (f, ma)


def _pair_scale(xi, yi, xj, yj):
    """Each pair's own power-of-two scale: it brings the pair's largest
    |xj - xi|, |yi|, |yj| into [1/2, 1) (below it for subnormal pairs, so
    that the scale stays finite). Scaling is then exact, and powers of
    the scaled coordinates stay in range."""
    m = np.maximum(xj - xi, np.maximum(np.abs(yi), np.abs(yj)))
    return np.ldexp(1.0, -np.maximum(np.frexp(m)[1], -1021))


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
            s = _pair_scale(xi, yi, xj, yj)
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


def _certified_thresholds(X, Y, I, J, xc, p: float):
    """Certified coverage thresholds of the pairs I <= J (none for i == j).

    For points i < k, a center c on the axis is at least as near to k as
    to i exactly when F(c) = |c - xi|^p - |c - xk|^p >= |yk|^p - |yi|^p.
    F is nondecreasing for every p >= 1, so if that holds at t, every
    circle through i centered at c >= t covers k, and if the reverse
    inequality holds at t', every circle through k centered at c <= t'
    covers i. Returns (right, left) in the order of I: right = t, or inf
    where none is certified, and left = -t', or inf, so that both read
    "+-c >= threshold". The exact test of _expand_runs passes wherever
    that exact inequality does: the slack max(eps, 2^-40) max(1, R)
    (_cover_slack) exceeds the test's rounding, below 2^-47 R at every p
    (a distance and R each err by about 20 u, u = 2^-53), whatever eps.

    Each pair is evaluated on its own power-of-two scale s (_pair_scale,
    as in _pair_circles; exact, but for subnormal results), with a =
    xi s, b = xk s and the target |yk s|^p - |yi s|^p.

    Bound. Let e = expm1(p u) >= p u. On the scaled data, _power_gap at
    T forms each |T - a|^p as |d|^(p-1) |d|: the rounding of d = T - a,
    a factor within 1 +- u, becomes one within 1 +- e in |d|^p, the
    power function adds at most 4 ulps (8 u) and the product u. The
    target's powers err by 8 u, and each of the three subtractions by u
    times at most S, the sum of the four powers. So F(T) - target is
    computed within (e + 12 u) S. Subnormal results add at most (p + 5)
    2^-1074 per power: a scaled input off by 2^-1075 moves |d|^p by p
    2^-1074 while |d| <= 1, and an underflowing power errs by 4 ulps.
    The bound 8 (e + 12 u) S + 8 (p + 5) 2^-1074, with S as computed,
    covers that with room, and once e >= 1/4 it exceeds |F(T) - target|
    <= S (1 + 3 u) itself, so nothing is certified; a non-finite value
    is never certified either.

    Margin. The center c is a root of F - target only up to the rounding
    above (closed forms) or rtsafe's eps/4. One evaluation at c gives
    f = F(c) - target, F'(c) and the bound B there; the threshold is c
    moved by the Newton step to F - target = +-2 B, or c itself where f
    clears B already (F' = 0 on ties and p = 1 plateaus), which leaves
    about B of room over the bound at the moved point. One more
    evaluation there keeps it only if the computed sign clears that
    point's bound. Pairs whose root is ill-conditioned (F' tiny against
    S, as for far centers of nearly equal abscissas) fail that check,
    so their points are left to the exact test.
    """
    right = np.empty(len(I))
    left = np.empty(len(I))
    # slice by slice, so that the temporaries stay small
    for lo in range(0, len(I), _SLICE):
        part = slice(lo, lo + _SLICE)
        right[part], left[part] = _certify(X, Y, I[part], J[part], xc[part], p)
    return right, left


@np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore")
def _certify(X, Y, I, J, xc, p: float):
    """_certified_thresholds of the pairs I, J with centers xc."""
    xi, yi, xj, yj = X[I], Y[I], X[J], Y[J]
    s = _pair_scale(xi, yi, xj, yj)
    a, b = xi * s, xj * s
    pj, pi = np.abs(yj * s) ** p, np.abs(yi * s) ** p
    target = pj - pi
    rel = 8.0 * (math.expm1(p * _U) + 12.0 * _U)
    # the part of the bound that does not depend on x
    floor = rel * (pj + pi) + 8.0 * (p + 5.0) * _TINY
    c = xc * s
    f, df, size = _power_gap(c, a, b, target, p, size=True)
    bound = rel * size + floor
    out = []
    for sign in (1.0, -1.0):
        step = np.where(sign * f > bound, 0.0, (sign * 2.0 * bound - f) / df)
        t = (c + step) / s
        ft, _, size = _power_gap(t * s, a, b, target, p, size=True)
        out.append(np.where(sign * ft > rel * size + floor, sign * t, _INF))
    return out


def _running_max(group, values):
    """Running maximum of values that restarts wherever group changes;
    group is nondecreasing. numpy orders complex numbers by real part,
    then imaginary part, so one accumulate over group + i*values does
    every group at once."""
    z = np.empty(len(values), dtype=complex)
    z.real, z.imag = group, values
    return np.maximum.accumulate(z, out=z).imag


def _jump_ends(I, xc, right_thr, left_thr, n: int):
    """Both ends of every run after its certified jump.

    I holds each circle's own point, ascending, and xc its center;
    right_thr and left_thr are _certified_thresholds over the pairs of
    np.triu_indices(n). Along row i (pairs (i, k), k = i + 1, ...) the
    running maximum of right_thr is the least center that covers every
    point up to k, so one searchsorted per row moves the right end of
    each circle through i past every point that it certifiably covers.
    The left end does the same along column i (pairs (k, i), k = i - 1
    down to 0) with left_thr and -xc. Rows and columns are gathered
    from the triu-ordered arrays, so no N x N array is formed.
    """
    tri = np.arange(n + 1)
    first = tri * n - tri * (tri - 1) // 2  # triu position of pair (i, i)
    # pairs (i, k), k > i, row by row: all but the diagonal
    by_row = _running_max(np.repeat(tri[:-1], n - 1 - tri[:-1]),
                          np.delete(right_thr, first[:-1]))
    row_start = (first - tri).tolist()
    # pairs (k, j), k < j, column j = n - 1 down to 1, each from k = j - 1
    # down to 0; column j starts at col_start[j]
    col, k = (a[::-1] for a in np.tril_indices(n, -1))
    # their triu positions first[k] + col - k, with few temporaries
    at = first[k]
    at += col
    at -= k
    del k
    by_col = _running_max(-col, left_thr[at])
    del at
    col_start = (len(col) - tri * (tri + 1) // 2).tolist()
    bounds = np.searchsorted(I, tri).tolist()
    ahead = np.empty_like(I)
    behind = np.empty_like(I)
    neg = -xc
    for i in range(n):
        lo, hi = bounds[i], bounds[i + 1]
        ahead[lo:hi] = by_row[row_start[i]:row_start[i + 1]].searchsorted(xc[lo:hi], "right")
        behind[lo:hi] = by_col[col_start[i]:col_start[i] + i].searchsorted(neg[lo:hi], "right")
    return I - behind, I + ahead


@np.errstate(over="ignore", invalid="ignore")
def _expand_runs(X, Y, I, J, xc, R, p: float, eps: float, left, right):
    """Grow each pair circle's run from the ends left..right both ways.

    The ends start at the pair's smaller index, or beyond it where
    _jump_ends has certified the points between. All pairs step in
    lockstep, and each tests only the next point beyond its run, so the
    work is proportional to the points added here, plus one failing
    test per end: with the jumps, O(N^2) tests in all on the
    benchmark's point sets, where most runs pass only their pair's far
    point exactly. left and right are updated in place and returned.
    """
    n = len(X)
    slack = max(eps, _SLACK_FLOOR) * np.maximum(1.0, R)  # _cover_slack
    if p == 2.0:
        thr = (R + slack) * (R + slack)

        def cov(k, a):
            dx = X[k] - xc[a]
            return dx * dx + Y[k] * Y[k] <= thr[a]
    else:
        reach = R + slack

        def cov(k, a):
            return _np_lp(X[k] - xc[a], Y[k], p) <= reach[a]
    for end, step, stop in ((left, -1, 0), (right, 1, n - 1)):
        act = np.flatnonzero(end != stop)
        while len(act):
            act = act[cov(end[act] + step, act)]
            end[act] += step
            act = act[end[act] != stop]
    # every point of a run was tested on the way out, or certified to
    # pass, except the pair's own point i, so a run that reached the far
    # point j needs only that
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
    5 on average (_pair_circles). The expansion then takes O(N^2)
    certification (_certified_thresholds), O(N^2 log N) searches that
    jump each run past every point it certifiably covers (_jump_ends),
    and the exact coverage tests of the points left (_expand_runs):
    about one per pair on the benchmark's point sets, where stepping
    every point takes 39 per pair near the line and 13 spread. A jump
    passes only points that the exact test passes, so the lists are
    those of stepping point by point, bit for bit.
    """
    if len(pts) == 0:
        raise EmptyInput("need at least one point")
    return _naive_lists(pts.xy, norm.p, tol)[0]


def _pair_table(xy, p: float, tol: Tolerance):
    """(X, Y, I, J, xc, R, ok, binding): the abscissas and ordinates of
    the sorted points xy, as contiguous columns, the pair circles
    (_pair_circles) of all pairs I <= J in np.triu_indices(n) order, and
    each pair's share of the radius of a run that holds it (_run_circle):
    R where its center lies in [X[I], X[J]], else 0. A radius that is
    not finite is kept, so that no run over its pair passes it silently.
    """
    X, Y = xy.T.copy()
    I, J = np.triu_indices(len(xy))
    xc, R, ok = _pair_circles(X, Y, I, J, p, tol)
    binding = np.where((ok & (X[I] <= xc) & (xc <= X[J])) | ~np.isfinite(R), R, 0.0)
    return X, Y, I, J, xc, R, ok, binding


def _naive_lists(xy, p: float, tol: Tolerance):
    """build_lists_naive over the sorted points xy, and the binding
    radii of its _pair_table, which dp_solve keeps for its circles."""
    X, Y, I, J, xc, R, ok, binding = _pair_table(xy, p, tol)
    thresholds = _certified_thresholds(X, Y, I, J, xc, p)
    I, J, xc, R = I[ok], J[ok], xc[ok], R[ok]
    left, right = _jump_ends(I, xc, *thresholds, len(X))
    del thresholds  # not held while the runs grow and group
    left, right = _expand_runs(X, Y, I, J, xc, R, p, tol.eps, left, right)
    return _group_lists(right, left, R, np.abs(Y)), binding


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
    n = len(pts)
    if n == 0:
        raise EmptyInput("need at least one point")
    X, Y = pts.xy.T.tolist()
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
                        np.array(radii, dtype=float), np.abs(pts.xy[:, 1]))


def rmin_on_axis(pts: PointSet, i: int, j: int, norm: NormP, tol: Tolerance):
    """Smallest axis-centered ball covering points i..j; returns (cx, r),
    from the run's own _pair_table."""
    if not 0 <= i <= j < len(pts):
        raise ValueError("need 0 <= i <= j < len(points)")
    xy = pts.xy[i:j + 1]
    return _run_circle(xy, _pair_table(xy, norm.p, tol)[-1], norm.p)


def _run_circle(xy, binding, p: float):
    """Smallest ball centered anywhere on the axis covering the points,
    the rows [x, y] of xy, from the binding radii of all their pairs.

    Each distance f_k(c) = (|c - x_k|^p + |y_k|^p)^(1/p) is convex, so
    the centers within R of a point form an interval, and by Helly's
    theorem on the line these meet iff every two do. So the least
    radius is the largest min_c max(f_i, f_j) over pairs: |y_i| for i =
    j, and for i < j the pair circle's radius where its center lies in
    [x_i, x_j]; elsewhere f_i - f_j keeps one sign there, and the larger
    |y| alone sets it. It is as exact as the pair radii (closed forms at
    p = 1 and 2). The center is the midpoint where the intervals meet
    at that radius (intervals._halfwidth). A radius that is not finite
    raises the ValueError of PlacedCircle.
    """
    r = float(binding.max())
    if not r < _INF:
        raise ValueError("circle parameters must be finite")
    lo, hi = -_INF, _INF
    for x, y in xy.tolist():
        h = _halfwidth(r, y, p)
        if x - h > lo:
            lo = x - h
        if x + h < hi:
            hi = x + h
    return 0.5 * (lo + hi), r


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

    Cost: the pair table and the lists (see _pair_table,
    build_lists_naive and build_lists_sweep), then N column relaxations,
    each of which relaxes all K rows (one row for K = None) at once in
    O(K·N) array work (see _relax), so O(K·N^2) in all; the break of a
    cell is recovered only along the chosen path (_break); then each
    chosen run's circle from a slice of the pair table (_run_circle).
    """
    n = len(pts)
    if n == 0:
        raise EmptyInput("need at least one point")
    if K is not None and not (isinstance(K, int) and K >= 1):
        raise ValueError("K must be None or an integer >= 1")
    if K is not None:
        K = min(K, n)
    p = norm.p
    if lists == "naive":
        cls, pair_binding = _naive_lists(pts.xy, p, tol)
    elif lists == "sweep":
        cls = build_lists_sweep(pts, norm, tol)
        pair_binding = _pair_table(pts.xy, p, tol)[-1]
    else:
        raise ValueError(f"unknown lists {lists!r}")
    # binding[i, j], i <= j, is pair (i, j)'s share of a run's radius
    binding = np.zeros((n, n))
    binding[np.triu_indices(n)] = pair_binding
    del pair_binding
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
        run = slice(left, right + 1)
        cx, rad = _run_circle(pts.xy[run], binding[run, run], p)
        circles.append(PlacedCircle(cx, rad))
        weights.append(rad ** q)
    objective = math.fsum(weights) if is_sum else max(weights)
    return CoverSolution(tuple(runs), tuple(circles), objective)
