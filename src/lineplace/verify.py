"""The cross-checks of `lineplace solve --verify`; not exported, and
only the CLI imports it.

cross_check runs a second route to a solve's objective and reports the
gap: a grid scan for the one-center, the lower envelope for the
largest empty circle (one scalar merge of halves, whose crossings
share no root kernel with the solvers), and for k-cover at p = 2 the DP over the runs of
the sweep's candidate lists (dp_solve_sweep) where the solve weighs
runs by the exact run table, else an exhaustive minimum over all
partitions of the points; a k-cover is also checked to cover every
point by its run's circle. The grid distances come from numpy
code (geometry._np_lp) that shares nothing with the exact scalar
routines: the closed-form projection at p = 2, else a golden-section
search over the segment parameter, all abscissas of a chunk in
lockstep with one evaluation a step. The grid and the partition oracle
refuse inputs beyond their caps with TooLarge, which the report turns
into "ok": null (false when a point is not covered).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, TooLarge
from .geometry import NormP, Point, Segment, Tolerance, _np_lp, segments_from_columns
from .intervals import Interval
from .k_cover import _SLACK_FLOOR, AggSpec, CoverSolution, PointSet, _center_slack, \
    _relax_blocks, _run_columns
from .obnoxious import max_empty_envelope
from .one_center import PlacedCircle, min_enclosing

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_CHUNK = 4096
# The scans hold _CHUNK abscissas at a time, so this limit bounds their
# time, not their memory: 1e7 steps (a constraint of length 1e4 at the
# CLI's step 1e-3) took 0.55 s for two segments at p = 2 and 109 s at
# p = 3, where a golden-section search runs per abscissa (2-vCPU Xeon
# VM, numpy 2.4; peak RSS 29 MiB, against 106 MiB when all abscissas
# were built at once).
MAX_GRID_STEPS = 10_000_000
_GRID_STEP = 1e-3
_GRID_TOL = 2e-3
_OBJECTIVE_TOL = 1e-6


# -- grid oracles -------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    """Evaluation abscissas: domain.lo, steps of `step`, then domain.hi."""

    step: float
    domain: Interval

    def __post_init__(self) -> None:
        if not (isinstance(self.step, (int, float)) and math.isfinite(self.step)
                and self.step > 0.0):
            raise ValueError("step must be a finite positive real")
        if self.domain.is_empty:
            raise ValueError("domain must be nonempty")
        object.__setattr__(self, "step", float(self.step))

    def chunks(self):
        """The abscissas in order, as arrays of at most _CHUNK values.

        Memory stays O(_CHUNK) whatever the domain length; the values
        are those of abscissas(), bit for bit.
        """
        lo, hi = self.domain.lo, self.domain.hi
        n = int(math.floor((hi - lo) / self.step + 1e-9)) + 1
        last = None
        for start in range(0, n, _CHUNK):
            xs = lo + self.step * np.arange(start, min(start + _CHUNK, n), dtype=float)
            xs = xs[xs <= hi]  # only the last step can pass hi
            if len(xs):
                last = xs[-1]
                yield xs
        if last is None or last < hi:
            yield np.array([hi])

    def abscissas(self) -> np.ndarray:
        return np.concatenate(tuple(self.chunks()))


def segment_distances(xs: np.ndarray, seg: Segment, norm: NormP) -> np.ndarray:
    """Distance from (x, 0) to the segment for every x in xs."""
    xs = np.asarray(xs, dtype=float)
    p = norm.p
    ax, ay = seg.a.x, seg.a.y
    bx, by = seg.b.x, seg.b.y
    ux, uy = bx - ax, by - ay
    if ux == 0.0 and uy == 0.0:
        return _np_lp(xs - ax, np.full_like(xs, ay), p)
    if p == 2.0:
        # the projection on the direction's own power-of-two scale, where
        # its squares neither underflow nor overflow; the scaling is
        # exact, so t keeps its bits wherever the unscaled form stays in
        # range
        s = math.ldexp(1.0, -max(math.frexp(max(abs(ux), abs(uy)))[1], -1021))
        vx, vy = ux * s, uy * s
        t = ((xs - ax) * vx + (0.0 - ay) * vy) / (vx * vx + vy * vy) * s
        t = np.clip(t, 0.0, 1.0)
        return np.hypot(xs - (ax + t * ux), ay + t * uy)

    def f(t: np.ndarray) -> np.ndarray:
        return _np_lp(xs - (ax + t * ux), ay + t * uy, p)

    # golden-section search in lockstep over the abscissas: the interior
    # point that survives a step is the next step's other interior point,
    # so each step evaluates f once, at the one new point of each search
    lo = np.zeros_like(xs)
    hi = np.ones_like(xs)
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(80):
        left = fc <= fd
        # keep [lo, d] with c as its upper point, or [c, hi] with d as its lower
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        kept, fkept = np.where(left, c, d), np.where(left, fc, fd)
        new = np.where(left, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo))
        fnew = f(new)
        c, fc = np.where(left, new, kept), np.where(left, fnew, fkept)
        d, fd = np.where(left, kept, new), np.where(left, fkept, fnew)
    mid = 0.5 * (lo + hi)
    return np.minimum(np.minimum(f(lo), f(hi)), f(mid))


def _scan(segments, grid: GridSpec, norm: NormP, maximize: bool):
    if not segments:
        raise EmptyInput("need at least one segment")
    ratio = (grid.domain.hi - grid.domain.lo) / grid.step  # may be inf
    if ratio > MAX_GRID_STEPS:
        raise TooLarge(f"grid of {ratio:.3g} steps exceeds the limit of {MAX_GRID_STEPS:.0e}")
    inner = np.minimum if maximize else np.maximum
    pick = np.argmax if maximize else np.argmin
    best_x = None
    best_val = None
    for chunk in grid.chunks():
        vals = None
        for seg in segments:
            d = segment_distances(chunk, seg, norm)
            vals = d if vals is None else inner(vals, d)
        i = int(pick(vals))
        v = float(vals[i])
        # strict improvement keeps the smallest abscissa on ties
        if best_val is None or (v > best_val if maximize else v < best_val):
            best_val = v
            best_x = float(chunk[i])
    return best_x, best_val


def grid_one_center(segments, grid: GridSpec, norm: NormP) -> PlacedCircle:
    """Grid minimiser of the farthest-segment distance."""
    x, val = _scan(segments, grid, norm, maximize=False)
    return PlacedCircle(x, val)


def grid_obnoxious_center(segments, grid: GridSpec, norm: NormP) -> PlacedCircle:
    """Grid maximiser of the nearest-segment distance."""
    x, val = _scan(segments, grid, norm, maximize=True)
    return PlacedCircle(x, val)


# -- partition oracle ---------------------------------------------------


@dataclass(frozen=True)
class OraclePartition:
    """Best partition found by exhaustive enumeration.

    blocks may be non-contiguous, which CoverSolution cannot express,
    hence the separate record type.
    """

    objective: float
    blocks: tuple
    contiguous: bool


def enumerate_partitions(n: int, kmax: int):
    """Yield all partitions of range(n) into at most kmax unlabeled blocks."""
    if n == 0:
        yield ()
        return
    labels = [0] * n

    def rec(i: int, mx: int):
        if i == n:
            blocks = [[] for _ in range(mx + 1)]
            for idx, lab in enumerate(labels):
                blocks[lab].append(idx)
            yield tuple(tuple(b) for b in blocks)
            return
        top = min(mx + 1, kmax - 1)
        for lab in range(top + 1):
            labels[i] = lab
            yield from rec(i + 1, mx if lab <= mx else lab)

    yield from rec(1, 0)


def _enclosing_circle(points, norm: NormP, tol: Tolerance):
    """(cx, radius) of the smallest axis-centered ball covering the
    points, pairs (x, y) of floats, by min_enclosing over point
    segments in the window [min x - max|y|, max x + max|y|], which
    holds the optimum. The oracle prices its blocks here, on the
    covering intervals of intervals.SegmentArray, as every
    min_enclosing does. It shares nothing with the k-cover circles
    (k_cover._run_circles, from pair circles), and with their bisecting
    reference (_reference._rmin_points, on scalar halfwidths) only
    intervals.least_radius; the grid oracle shares neither. A window
    wider than the float range raises TooLarge."""
    maxy = max(abs(y) for _, y in points)
    xs = [x for x, _ in points]
    lo = min(xs) - maxy
    hi = max(xs) + maxy
    if not math.isfinite(hi - lo):
        raise TooLarge(f"window [{lo:.3g}, {hi:.3g}] is wider than the float range")
    segs = [Segment(Point(x - lo, y), Point(x - lo, y)) for x, y in points]
    c = min_enclosing(segs, hi - lo, norm, tol)
    return c.cx + lo, c.radius


def set_partition_oracle(pts: PointSet, K, norm: NormP, tol: Tolerance,
                         agg: AggSpec) -> OraclePartition:
    """Exhaustive minimum over all point partitions into <= K blocks.

    Block cost is the smallest axis-centered ball radius to the power
    q; blocks need not be contiguous. Guarded to 10 points, which bounds
    every K: K = None enumerates all 115,975 partitions of 10 points.
    """
    rows = pts.xy.tolist()
    n = len(rows)
    if n == 0:
        raise EmptyInput("need at least one point")
    if n > 10:
        raise TooLarge(f"oracle limited to 10 points, got {n}")
    kmax = n if K is None else min(K, n)
    q = agg.q
    is_sum = agg.kind == "sum"
    memo = {}

    def block_cost(idx) -> float:
        key = tuple(idx)
        got = memo.get(key)
        if got is None:
            got = _enclosing_circle([rows[k] for k in idx], norm, tol)[1] ** q
            memo[key] = got
        return got

    best = None
    best_blocks = None
    for blocks in enumerate_partitions(n, kmax):
        costs = [block_cost(b) for b in blocks]
        val = math.fsum(costs) if is_sum else max(costs)
        if best is None or val < best:
            best = val
            best_blocks = blocks
    contiguous = all(b[-1] - b[0] + 1 == len(b) for b in best_blocks)
    return OraclePartition(best, best_blocks, contiguous)


# -- the p = 2 sweep lists ----------------------------------------------


def _cover_slack(R: float, eps: float) -> float:
    """How far beyond radius R a point still counts as covered.

    Follows R's scale: a pair circle through two points whose abscissas
    almost coincide has a huge radius, and rounding in its radius then
    exceeds any absolute slack, so that the circle would miss its own
    points. eps is floored at 2^-40, above the rounding of the coverage
    test (under 2^-47 R), so that the slack does not vanish at tiny eps;
    at eps >= 2^-40 the floor changes nothing. The floor follows R, not
    the points' abscissas, and a pair circle's center rounds at the
    scale of its abscissas: at p = 2 the closed-form center of a pair
    near x = 98 with R = 0.73 leaves a point 1.4e-12 outside R, above
    2^-40 max(1, R). That rounding is what k_cover._center_slack
    covers.
    """
    return (eps if eps > _SLACK_FLOOR else _SLACK_FLOOR) * max(1.0, R)


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


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def build_lists_sweep(pts: PointSet, norm: NormP, tol: Tolerance):
    """Candidate lists at p = 2: every pair circle grown over the sorted
    points, one anchor point at a time.

    For each anchor i it takes the pairs (i, j), j >= i, that have a
    circle at once: the closed-form center (the anchor's abscissa for
    j == i and for an equal abscissa with equal |y|; an equal abscissa
    with other |y| has none), the radius by math.hypot from the anchor,
    and the coverage threshold (R + slack)^2 with the slack of
    _cover_slack. Every point is tested against every such circle with
    the operations of _reference._covered_p2, in its order, and a run
    reaches from the anchor to the first uncovered point on each side,
    as _reference.build_lists_loop grows it point by point: its lists
    bit for bit. The runs are grouped by _group_lists.

    Cost: O(N^3) array work, and O(N^2) memory per anchor. Arithmetic
    that overflows gives inf or NaN, as Python floats do; such radii
    never reach a list.
    """
    if norm.p != 2.0:
        raise ValueError("the sweep builder requires p = 2")
    n = len(pts)
    if n == 0:
        raise EmptyInput("need at least one point")
    X, Y = pts.xy.T
    yy = Y * Y
    e = tol.eps if tol.eps > _SLACK_FLOOR else _SLACK_FLOOR
    rights, lefts, radii = [], [], []
    for i in range(n):
        xi, yi = X[i], Y[i]
        xj, yj = X[i:], Y[i:]
        same = xj == xi
        # the closed form divides by zero at equal abscissas; np.where
        # drops those entries
        xc = np.where(same, xi, (xj * xj + yj * yj - xi * xi - yi * yi) / (2.0 * (xj - xi)))
        xc = xc[~same | (yy[i:] == yi * yi)]
        R = np.fromiter(map(math.hypot, (xc - xi).tolist(), itertools.repeat(float(yi))),
                        dtype=float, count=len(xc))
        reach = R + e * np.maximum(1.0, R)
        d = X - xc[:, None]
        d *= d
        d += yy
        # covered[:, k + 1] tells whether point k is covered, framed by
        # an uncovered column at each end
        covered = np.zeros((len(xc), n + 2), dtype=bool)
        np.less_equal(d, (reach * reach)[:, None], out=covered[:, 1:-1])
        rights.append(i + covered[:, i + 2:].argmin(axis=1))
        lefts.append(i - covered[:, i::-1].argmin(axis=1))
        radii.append(R)
    return _group_lists(np.concatenate(rights), np.concatenate(lefts),
                        np.concatenate(radii), np.abs(Y))


def _list_weights(cls, q: float):
    """The weight of every last run b..r over the candidate lists cls, as
    an N x N table: the least radius ** q (Python's **) of list r's
    candidates with left <= b, since a candidate's circle covers every
    sub-run with its right end. A b below every left of list r weighs
    inf; entries b > r are never read."""
    n = len(cls)
    weights = np.full(n * n, math.inf)
    at = [left * n + r for r, cl in enumerate(cls) for left, _ in cl]
    weights[at] = [radius ** q for cl in cls for _, radius in cl]
    return np.minimum.accumulate(weights.reshape(n, n), axis=0)


def dp_solve_sweep(pts: PointSet, K, norm: NormP, tol: Tolerance,
                   agg: AggSpec) -> CoverSolution:
    """k_cover.dp_solve with every run weighed by the sweep's lists at
    p = 2 (build_lists_sweep, _list_weights) instead of the run table:
    the same blocks of the run table (k_cover._run_columns) feed the
    same DP (k_cover._relax_blocks), each with the columns of the list
    weights that it spans, and the circles are the same, the exact
    ones of the chosen runs. A list radius is a pair circle grown with
    a coverage slack, so a run's weight may lie below its exact radius
    by that slack, and the lists reach the runs of a circle by coverage
    tests rather than by Helly's theorem. K is None or an integer >= 1.

    Cost: the lists' O(N^3) array work and O(N^2) memory per anchor
    point, besides those of dp_solve.
    """
    weights = _list_weights(build_lists_sweep(pts, norm, tol), agg.q)
    blocks = ((c0, R, weights.T[c0:c0 + len(R), :R.shape[1]])
              for c0, R in _run_columns(pts.xy, norm.p, tol))
    return _relax_blocks(pts.xy, K, blocks, norm.p, agg)


# -- the report ---------------------------------------------------------


def _compare(kind: str, key: str, other_route, value: float, tolerance: float,
             covered: bool = True) -> dict:
    """Run other_route and report its value under key, against value;
    ok also needs covered."""
    try:
        other = other_route()
    except TooLarge as exc:
        # the solve stands; only its cross-check is out of reach
        return {"kind": kind, "ok": None if covered else False, "reason": str(exc)}
    delta = abs(other - value)
    return {"kind": kind, key: other, "delta": delta, "tolerance": tolerance,
            "ok": delta <= tolerance and covered}


def _covers(ps: PointSet, circles, p: float, eps: float) -> bool:
    """Whether every point lies within its run's circle, up to the larger
    of the sweep's coverage slack, max(eps, 2^-40) max(1, R)
    (_cover_slack), and the rounding that k_cover's circles allow,
    2^-40 max(R, |x|) (k_cover._center_slack)."""
    for c in circles:
        left, right = c["run"]
        xy = ps.xy[left:right + 1]
        R = c["radius"]
        slack = max(_cover_slack(R, eps), _center_slack(R, float(np.abs(xy[:, 0]).max())))
        if (_np_lp(xy[:, 0] - c["center_x"], xy[:, 1], p) > R + slack).any():
            return False
    return True


def cross_check(inst, tol: Tolerance, L: float, table, result: dict) -> dict:
    """The verify block of a solve's result.

    inst is the parsed instance; table is the instance's table in the
    axis frame of length L (cli._axis_instance): segments as (N, 4)
    rows [ax, ay, bx, by] or points as (N, 2) rows [x, y], as the
    solvers took it; and result is the solve's result object. The
    largest empty circle, which the solve bisects, is checked against
    the lower envelope (obnoxious.max_empty_envelope), which no solve
    runs and whose crossings it bisects. A k-cover check is also not ok
    when a point lies outside its run's circle (_covers).
    """
    norm = inst.norm
    objective = result["objective"]
    if inst.problem == "one-center":
        grid = GridSpec(_GRID_STEP, Interval(0.0, L))
        return _compare("grid", "grid_radius",
                        lambda: grid_one_center(segments_from_columns(table), grid, norm).radius,
                        objective, _GRID_TOL)
    if inst.problem == "obnoxious-center":
        return _compare("envelope", "other_radius",
                        lambda: max_empty_envelope(table, L, norm, tol).radius,
                        objective, 2.0 * tol.eps)
    ps = PointSet(table)
    covered = _covers(ps, result["circles"], norm.p, tol.eps)
    if norm.p == 2.0:
        return _compare("lists:sweep", "other_objective",
                        lambda: dp_solve_sweep(ps, inst.k, norm, tol, inst.agg).objective,
                        objective, _OBJECTIVE_TOL, covered)
    return _compare("set-partition", "other_objective",
                    lambda: set_partition_oracle(ps, inst.k, norm, tol, inst.agg).objective,
                    objective, _OBJECTIVE_TOL, covered)
