"""Cover points by at most K balls centered on the axis.

An optimal solution may be chosen so that each ball covers an index
run of the x-sorted points, so the problem reduces to a DP over the
runs. By Helly's theorem on the line, the least radius of a run is the
largest minimax radius of its pairs (_run_columns): the circles through
one point, and through two points whose equidistant center lies
between them (_binding_radii). The pairs are tested over numpy arrays:
p = 2 by its closed-form center, other p by one inside test of their
span, and the centers inside come in closed form at p = 1 and from a
lockstep safeguarded Newton iteration, rtsafe, at other p, each on its
own power-of-two scale. The run table streams into the DP in blocks of
columns of at most PAIR_BUDGET pairs: running maxima extend it by each
block, exactly. The DP relaxes each block's columns over the breaks
before them (_relax_blocks): for an integer K one array pass per
budget row and block, for K = None an array pass over the breaks
before every few columns and a scalar scan of those among them. A
solve holds one block and O(K·N) DP cells, which record their last
run's radius, so that the circle of each chosen run is read off them
(_run_circles), with no radius search. The run table is the only run
weight that dp_solve takes. `lineplace solve --verify` above 10 points
(lineplace.verify.certify_run_table) reads the same blocks and checks
every entry by Helly's theorem on the point intervals alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput
from .geometry import NormP, Tolerance, _np_lp, _rtsafe
from .one_center import PlacedCircle

_INF = math.inf


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


_SLACK_FLOOR = 2.0 ** -40  # see _center_slack, and verify._cover_slack


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


def _pair_scale(xi, yi, xj, yj):
    """Each pair's own power-of-two scale: it brings the pair's largest
    |xj - xi|, |yi|, |yj| into [1/2, 1) (below it for subnormal pairs, so
    that the scale stays finite). Scaling is then exact, and powers of
    the scaled coordinates stay in range."""
    m = np.maximum(xj - xi, np.maximum(np.abs(yi), np.abs(yj)))
    return np.ldexp(1.0, -np.maximum(np.frexp(m)[1], -1021))


@np.errstate(over="ignore", invalid="ignore")
def _binding_radii(X, Y, I, J, p: float, tol: Tolerance):
    """Each pair's share of the least radius of a run that holds both its
    points, for the points I[k] <= J[k] of the sorted abscissas X and
    ordinates Y, all pairs at once:

    - |y_i| for i == j, the ball pinned at the point;
    - 0 for equal abscissas, and for a pair whose equidistant center
      lies outside [x_i, x_j]: there f_i - f_j keeps one sign on the
      span, so the larger |y| alone sets the pair's minimax, and the
      diagonal holds it;
    - the pair circle's radius where its center lies inside;
    - inf where the center or that radius is not finite (coordinates
      near the float range), and at p not in {1, 2} where the span
      x_j - x_i overflows, so that no run over the pair passes it
      silently.

    F(x) = |x - x_i|^p - |x - x_j|^p increases from F(x_i) = -S to
    F(x_j) = S, S = span^p for the span x_j - x_i, so the center, the
    root of F(x) = t with t = |y_j|^p - |y_i|^p, lies in [x_i, x_j] iff
    |t| <= S: one inside test for every p != 2, and only the pairs inside
    are solved. At p = 1, S is the span and F is 2x - x_i - x_j between
    the ends, so the center is the closed form (x_i + x_j + t) / 2; p = 2
    takes its closed-form center for every pair. Both closed forms keep
    the test x_i <= c <= x_j on the computed center. Other p take t and
    the span on each pair's own power-of-two scale (_pair_scale: exact,
    and the powers do not overflow even for a point far from the axis),
    and S as span^(p-1) span, the product _power_gap forms at either end:
    as IEEE subtraction is monotone and rounds no nonzero difference to
    0, these are exactly the pairs whose _power_gap F - t is <= 0 at x_i
    and >= 0 at x_j. rtsafe (geometry._rtsafe, whose only caller this
    is) solves them in lockstep, F - t by _power_gap, to the
    tolerance eps/4 of each pair's own scale within their own [x_i, x_j];
    the center is scaled back. Its accepted Newton steps at least halve
    every second step and its other steps halve the bracket, so a pair
    stops within about twice the steps of a bisection to the same width,
    or sooner where the bracket ends become adjacent floats. At every p
    the radius of a pair inside is _np_lp of c - x_i and y_i. The scalar
    kernel of one pair, which the tests compare against, is
    _reference.two_point_circle: it bisects at every p != 2, so the
    values of i == j and the centers of p = 2 equal its bit for bit, the
    radii of p = 2 agree within rounding (np.hypot against math.hypot),
    and the others agree within its eps/8 bracket and the rounding of F.
    The powers run under np.errstate(over="raise", invalid="raise"), so
    no inf - inf steers a search. Other arithmetic overflows to inf,
    silently, as Python float arithmetic does.
    """
    binding = np.where(I == J, np.abs(Y[I]), 0.0)
    g = np.flatnonzero(X[I] != X[J])
    xi, yi, xj, yj = X[I[g]], Y[I[g]], X[J[g]], Y[J[g]]
    if p == 2.0:
        c = (xj * xj + yj * yj - xi * xi - yi * yi) / (2.0 * (xj - xi))
    else:
        if p == 1.0:
            target, span = np.abs(yj) - np.abs(yi), xj - xi
            h = np.flatnonzero(np.abs(target) <= span)
            target, span, a, b = target[h], span[h], xi[h], xj[h]
            c = np.where(target == span, b, np.where(target == -span, a, 0.5 * (a + b + target)))
        else:
            far = np.isinf(xj - xi)
            binding[g[far]] = _INF
            g, xi, yi, xj, yj = g[~far], xi[~far], yi[~far], xj[~far], yj[~far]
            s = _pair_scale(xi, yi, xj, yj)
            a, b = xi * s, xj * s
            with np.errstate(over="raise", invalid="raise"):
                target, span = np.abs(yj * s) ** p - np.abs(yi * s) ** p, b - a
                h = np.flatnonzero(np.abs(target) <= span ** (p - 1.0) * span)
                s, a, b, target = s[h], a[h], b[h], target[h]

                def gap(x, act):
                    return _power_gap(x, a[act], b[act], target[act], p)

                c = _rtsafe(gap, a.copy(), b.copy(), tol.eps / 4.0 * s, tol.max_iters)[0]
            c /= s
        g, xi, yi, xj = g[h], xi[h], yi[h], xj[h]
    inside = (xi <= c) & (c <= xj)
    r = _np_lp(c[inside] - xi[inside], yi[inside], p)
    share = np.where(np.isfinite(c), 0.0, _INF)
    share[inside] = np.where(np.isfinite(r), r, _INF)
    binding[g] = share
    return binding


# Pairs of the run table that one block of columns solves at once
# (_column_blocks); a block's temporaries hold about ten floats a pair.
# In-process at the benchmark's sizes (N 100-260, numpy 2.4.6, 2-vCPU
# VM) dp_solve took least time from 4096 to 8192 pairs, up to 1.2 times
# more at 2048; 4096 holds the least memory of those.
PAIR_BUDGET = 4096
# Columns that a K = None relaxation settles by one array pass over
# the breaks before them, before a scalar scan of the breaks among
# them (_relax_blocks).
_SCAN_COLUMNS = 16


def _column_blocks(n: int):
    """(c0, c1) of consecutive blocks of the run table's columns c0..c1-1,
    each holding at most PAIR_BUDGET pairs (column c holds c + 1) and at
    least one column."""
    c0 = 0
    while c0 < n:
        # the largest c1 with c1 (c1 + 1) <= 2 PAIR_BUDGET + c0 (c0 + 1)
        c1 = (math.isqrt(8 * PAIR_BUDGET + 4 * c0 * (c0 + 1) + 1) - 1) // 2
        c1 = min(n, max(c1, c0 + 1))
        yield c0, c1
        c0 = c1


def _run_columns(xy, p: float, tol: Tolerance):
    """The run table of the sorted points xy, one block of columns at a
    time (_column_blocks): yields (c0, R), where row k of R holds
    column c0 + k of the table over the left ends l < c1, R[k, l] the
    least radius of the run l..c0+k, and 0 at l > c0 + k.

    Each distance f_k(c) = (|c - x_k|^p + |y_k|^p)^(1/p) is convex, so
    the centers within R of a point form an interval, and by Helly's
    theorem on the line these meet iff every two do. So the least
    radius of a run is the largest min_c max(f_i, f_j) over its pairs,
    which is the largest of its pairs' binding radii (_binding_radii)
    and its points' |y|. A block solves the pairs (i, j) of its columns
    and takes, down each column toward smaller i, the running maximum
    of their binding radii, then along the block toward larger j the
    running maximum of those and of the column before the block:
    R(l, j) = max(R(l, j - 1), max over l <= i <= j of b(i, j)). A
    maximum is exact, so every entry has the bits of a 2-D running
    maximum over the whole table, and as exact as the pair radii
    (closed forms at p = 1 and 2). Memory is O(PAIR_BUDGET + N)
    floats; the blocks cost O(N^2) pairs in all.
    """
    n = len(xy)
    X, Y = xy.T.copy()
    prev = np.zeros(0)
    for c0, c1 in _column_blocks(n):
        lefts = np.arange(c1)
        tri = lefts <= np.arange(c0, c1)[:, None]
        K, I = np.nonzero(tri)
        J = K + c0
        R = np.zeros((c1 - c0, c1))
        R[tri] = _binding_radii(X, Y, I, J, p, tol)
        R = np.maximum.accumulate(R[:, ::-1], axis=1)[:, ::-1]
        R[:, :c0] = np.maximum(R[:, :c0], prev)
        np.maximum.accumulate(R, axis=0, out=R)
        yield c0, R
        prev = R[-1]


def _center_slack(r: float, span: float) -> float:
    """How far rounding may leave a point of a run outside radius r from
    the midpoint of _meeting, for span the run's largest |x|: the
    coverage-slack floor grown with the run's abscissas,
    2^-40 max(r, span). A pair circle's center
    rounds at the scale of its abscissas, not of r: at p = 2 the
    closed form through (97.992753, -0.274142) and (99.000195,
    -0.658268) leaves a point 1.4e-12 outside r = 0.73. No absolute
    term, so that a run and its power-of-two scaling take the same
    branch of _run_circles."""
    return _SLACK_FLOOR * max(r, span)


def _meeting(xy, r: float, p: float):
    """(lo, hi) of the intersection of the points' intervals at a radius
    r at least every |y|; they meet where lo <= hi. A point's interval
    is x -+ r (1 - (|y|/r)^p)^(1/p), and 0 wide at r = 0: the strict
    halfwidth, which has no slack for |y| above r, since no run radius
    lies below a |y| of its run."""
    lo, hi = -_INF, _INF
    inv = 1.0 / p
    for x, y in xy.tolist():
        h = r * (1.0 - (abs(y) / r) ** p) ** inv if r else 0.0
        if x - h > lo:
            lo = x - h
        if x + h < hi:
            hi = x + h
    return lo, hi


def _midpoint(lo: float, hi: float) -> float:
    """0.5 (lo + hi), or 0.5 lo + 0.5 hi where the sum overflows: ends
    near the float maximum keep a finite midpoint, and every other pair
    keeps the bits of 0.5 (lo + hi)."""
    mid = 0.5 * (lo + hi)
    return mid if math.isfinite(mid) else 0.5 * lo + 0.5 * hi


def _run_circles(xy, runs, radii, p: float) -> list:
    """(center, radius) of the smallest ball centered on the axis that
    covers each run (l, r) of the sorted points xy, the runs tiling
    xy[runs[0][0]:runs[-1][1] + 1] in order, given their least radii
    (_run_columns). A center is the midpoint of the intersection of the
    run's intervals at its radius (_meeting). A radius that is not
    finite raises the ValueError of PlacedCircle.

    At large p a point's interval widens steeply just above its |y|,
    so at an r equal to the largest |y| to the last bit that point's
    interval has width 0 while one float more gives it a wide one; the
    intervals may then cross, and their midpoint can miss a point far.
    Every point's distance from its run's midpoint comes from one
    _np_lp pass, and each run's largest from np.maximum.reduceat. Where
    it leaves a point outside r by more than _center_slack, the center
    comes from the intervals at the least float radius >= r at which
    they meet (_wider_meeting); the radius stays r.
    """
    radii = [float(r) for r in radii]
    if not all(r < _INF for r in radii):
        raise ValueError("circle parameters must be finite")
    centers = [_midpoint(*_meeting(xy[left:right + 1], r, p))
               for (left, right), r in zip(runs, radii)]
    first = runs[0][0]
    pts = xy[first:runs[-1][1] + 1]
    starts = [left - first for left, _ in runs]
    sizes = [right - left + 1 for left, right in runs]
    reach = np.maximum.reduceat(_np_lp(pts[:, 0] - np.repeat(centers, sizes), pts[:, 1], p),
                                starts)
    span = np.maximum.reduceat(np.abs(pts[:, 0]), starts)
    out = []
    for (left, right), r, center, far, x in zip(runs, radii, centers, reach.tolist(),
                                                span.tolist()):
        if far - r > _center_slack(r, x):
            center = _wider_meeting(xy[left:right + 1], r, p, center)
        out.append((center, r))
    return out


def _wider_meeting(xy, r: float, p: float, center: float) -> float:
    """The midpoint of the points' intervals at the least float radius
    >= r at which they meet, found by doubling a step of ulps and then
    bisecting; center where no finite radius above r is left."""
    below, step = r, math.ulp(r)
    while True:
        above = r + step
        if not math.isfinite(above):
            return center
        meet = _meeting(xy, above, p)
        if meet[0] <= meet[1]:
            break
        below, step = above, 2.0 * step
    while True:
        mid = 0.5 * (below + above)
        if not below < mid < above:
            break
        lo, hi = _meeting(xy, mid, p)
        if lo <= hi:
            above, meet = mid, (lo, hi)
        else:
            below = mid
    return _midpoint(*meet)


def _best_breaks(prev, w, is_sum: bool):
    """Best value and break of the last run of a block of DP cells at
    once: prev is the previous DP row over the breaks b, and row i of w
    holds the weight w[i, b] of cell i's last run from break b (inf
    where the cell has no run from b). The value of break b is
    prev[b] + w[i, b] or max(prev[b], w[i, b]); the first break of the
    smallest value wins. Returns (best, break), arrays over the rows of
    w. prev + w overflows to inf, as Python floats do, so callers run it
    under np.errstate(over="ignore")."""
    vals = prev + w if is_sum else np.maximum(prev, w)
    brk = vals.argmin(axis=1)
    return vals[np.arange(len(vals)), brk], brk


def _no_finite_cover() -> OverflowError:
    # the smallest circle around any run is a candidate, so every K
    # has a finite optimum unless radii or their sum overflow
    return OverflowError("no cover by the allowed runs has a finite objective")


def _relax_blocks(xy, K, blocks, p: float, agg: AggSpec) -> CoverSolution:
    """Optimal cover of the sorted points xy by at most K runs (K=None:
    unlimited, else an integer >= 1), over the run weights that blocks
    yields one block of table columns at a time: (c0, radius, weights),
    row k of each holding column c0 + k over the left ends b < c1 (the
    block's end), the run b..c0+k's radius and weight. Entries b > c0 + k
    are never read.

    Some optimal cover serves contiguous runs of the x-sorted points, so
    the DP relaxes the last run b..j-1 of every prefix 0..j-1 over each
    break b (_best_breaks), the first break of the smallest value
    winning. A block settles the DP cells c0 + 1..c1 over the breaks
    b < c1 only, with inf at b >= j. For an integer K each budget row k
    relaxes from row k - 1 in one array pass per block, K passes per
    block. With K = None the one row relaxes from itself: each
    _SCAN_COLUMNS columns of a block take their breaks before them in
    one array pass and those among them by a scalar scan in break
    order, with the same strict first-minimum rule. Either way the DP
    is O(K·N^2) and holds a block and O(K·N) besides: each DP cell
    records the radius of its last run, so no table is kept. Unused
    budget is free because zero points always cost zero, and a budget
    beyond n runs changes nothing, so K is clamped to n. The circles
    reported are the exact ones of the chosen runs (_run_circles), and
    the objective is the fsum or max of their radius ** q.
    """
    n = len(xy)
    if K is not None:
        K = min(K, n)
    q = agg.q
    is_sum = agg.kind == "sum"
    rows, back = (1, 0) if K is None else (K, 1)
    opt = np.full((rows + 1, n + 1), _INF)
    brk = np.zeros((rows + 1, n + 1), dtype=np.intp)
    rad = np.zeros((rows + 1, n + 1))
    opt[:, 0] = 0.0
    with np.errstate(over="ignore"):
        for c0, radius, weights in blocks:
            width, c1 = radius.shape
            cells = slice(c0 + 1, c1 + 1)
            # inf at the breaks b >= j, where the table may hold any value
            w = np.where(np.arange(c1) <= np.arange(c0, c1)[:, None], weights, _INF)
            if K is not None:
                at = np.arange(width)
                for k in range(1, K + 1):
                    opt[k, cells], brk[k, cells] = _best_breaks(opt[k - 1, :c1], w, is_sum)
                    rad[k, cells] = radius[at, brk[k, cells]]
                continue
            for s0 in range(0, width, _SCAN_COLUMNS):
                s1 = min(s0 + _SCAN_COLUMNS, width)
                top = c0 + s0 + 1  # the breaks b < top are settled
                best, left = _best_breaks(opt[1, :top], w[s0:s1, :top], is_sum)
                for s, v, b in zip(range(s0, s1), best.tolist(), left.tolist()):
                    for t, (o, wt) in enumerate(zip(opt[1, top:c0 + s + 1].tolist(),
                                                    w[s, top:c0 + s + 1].tolist()), top):
                        val = o + wt if is_sum else (o if o >= wt else wt)
                        if val < v:
                            v, b = val, t
                    opt[1, c0 + s + 1], brk[1, c0 + s + 1] = v, b
                    rad[1, c0 + s + 1] = radius[s, b]
    if opt[rows, n] == _INF:
        raise _no_finite_cover()
    runs, radii = [], []
    k, j = rows, n
    while j > 0:
        left = int(brk[k, j])
        runs.append((left, j - 1))
        radii.append(rad[k, j])
        j = left
        k -= back
    runs.reverse()
    radii.reverse()
    circles = [PlacedCircle(*c) for c in _run_circles(xy, runs, radii, p)]
    powers = [c.radius ** q for c in circles]
    objective = math.fsum(powers) if is_sum else max(powers)
    return CoverSolution(tuple(runs), tuple(circles), objective)


def dp_solve(pts: PointSet, K, norm: NormP, tol: Tolerance, agg: AggSpec,
             lists: str = "naive") -> CoverSolution:
    """Optimal cover of the points by at most K runs (K=None: unlimited).

    Centers range over the whole axis, the line through the constraint;
    no stretch [0, L] bounds them, and none is taken.

    Every run weighs its least radius (_run_columns) to the power q, so
    the DP (_relax_blocks) minimises the objective it reports. The run
    table streams into the DP one block of columns at a time, so no
    N x N array is held.

    lists selects nothing: "naive" and "sweep" both weigh runs by the
    run table, and any other value raises ValueError. It stays only for
    the callers under bench/ that still pass it, and goes with them in
    the benchmark change of ROADMAP item 1b.

    Cost: O(N^2) pair circles, the O(N^2) running maxima, and the DP's
    O(K·N^2); memory O(PAIR_BUDGET + K·N) floats.
    """
    n = len(pts)
    if n == 0:
        raise EmptyInput("need at least one point")
    if K is not None and not (isinstance(K, int) and K >= 1):
        raise ValueError("K must be None or an integer >= 1")
    if lists not in ("naive", "sweep"):
        raise ValueError(f"unknown lists {lists!r}")

    def blocks():
        for c0, radius in _run_columns(pts.xy, norm.p, tol):
            with np.errstate(over="ignore"):
                weights = radius ** agg.q
            yield c0, radius, weights

    return _relax_blocks(pts.xy, K, blocks(), norm.p, agg)
