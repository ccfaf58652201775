"""The cross-checks of `lineplace solve --verify`; not exported, and
only the CLI imports it.

cross_check runs a second route to a solve's answer and reports the
gap: a grid scan for the one-center, the lower envelope for the
largest empty circle (one scalar merge of halves, whose crossings
share no root kernel with the solvers), and for k-cover an exhaustive
minimum over all partitions of at most 10 points; above 10 points a
certificate checks every entry of the run table that the DP weighs
runs by, by Helly's theorem on the line (certify_run_table). Both
k-cover checks hold at every p, and a k-cover is also checked to
cover every point by its run's circle. The grid distances come from
numpy code (geometry._np_lp) that shares nothing with the exact scalar
routines: the closed-form projection at p = 2, else a golden-section
search over the segment parameter, all abscissas of a chunk in
lockstep with one evaluation a step. The grid and the partition oracle
refuse inputs beyond their caps with TooLarge, which the report turns
into "ok": null (false when a point is not covered).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, TooLarge
from .geometry import NormP, Point, Segment, Tolerance, _np_lp, segments_from_columns
from .intervals import Interval
from .k_cover import _SLACK_FLOOR, AggSpec, PointSet, _center_slack, _column_blocks, \
    _run_columns
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
    (k_cover._run_circles, from pair circles), and the tests take it,
    and min_enclosing's scalar reference in the same window, as the
    bisecting reference for the circle of one run. A window wider than
    the float range raises TooLarge."""
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


# -- the run-table certificate ------------------------------------------


def _halfwidths(ay, rho, p: float):
    """rho (1 - (ay / rho)^p)^(1/p), broadcast over the |y| ay and the
    radii rho: the halfwidth of a point's interval of centers within rho
    of it, NaN where its |y| exceeds rho."""
    h = ay / rho
    h **= p
    np.subtract(1.0, h, out=h)
    h **= 1.0 / p
    h *= rho
    return h


def _meet(X, AY, L, J, rho, p: float):
    """Whether the intervals of the points of each run L[i]..J[i] meet at
    radius rho[i], L ascending: the largest left end against the least
    right end, a NaN (a point beyond rho) meeting nothing. X and AY hold
    x and |y| of the sorted points. They come in the slabs a..b-1 of
    k_cover._column_blocks against the runs that start before b, with
    halfwidth inf where a run misses a point."""
    lo = np.full(len(L), -math.inf)
    hi = np.full(len(L), math.inf)
    earliest = J.min()
    for a, b in _column_blocks(J.max() + 1):
        s, e = np.searchsorted(L, (a, b)).tolist()
        if b - 1 > earliest:
            s = 0  # some run ends inside the slab
        h = _halfwidths(AY[a:b, None], rho[:e], p)
        k = np.arange(a, b)[:, None]
        h[:, s:e][(k < L[s:e]) | (k > J[s:e])] = math.inf
        x = X[a:b, None]
        np.maximum(lo[:e], (x - h).max(axis=0), out=lo[:e])
        h += x
        np.minimum(hi[:e], h.min(axis=0), out=hi[:e])
    return lo <= hi


@np.errstate(all="ignore")
def certify_run_table(pts: PointSet, norm: NormP, tol: Tolerance) -> dict:
    """Check every entry R of the run table by Helly's theorem on the line
    (Brass, Knauer, Na, Shin and Vigneron, "The aligned k-center
    problem", IJCGA 2011): a ball of radius rho centered on the axis
    covers a run iff rho is at least every |y| of the run and the
    points' intervals of centers, x -+ rho (1 - (|y|/rho)^p)^(1/p),
    meet. So the run's least radius lies within d of R iff they meet at
    R + d, and at R - d they do not or some |y| exceeds R - d. R comes
    from the blocks that dp_solve streams (k_cover._run_columns); no
    closed form, rtsafe or other k_cover kernel is taken. A non-finite
    R fails.

    d = 4 eps + 2^-40 max(R, X), X the run's largest |x|, u = 2^-52. R
    is an exact maximum of |y|s and pair radii, which err by at most:
    - eps/4 at p not in {1, 2}, where rtsafe stops on a bracket or a
      Newton step of eps/4 (geometry._rtsafe) and a radius moves no
      more than its center; 4 eps leaves room for the shortfall of a
      last Newton step. F's rounding adds under 32 u R / p;
    - 4 u (2 X + R) at p = 1, the closed form's rounding;
    - 2 u X^2 / R + 4 u max(R, X) at p = 2, where the closed form's
      numerator x_j^2 + y_j^2 - x_i^2 - y_i^2 cancels: it rounds by up
      to 4 u (X^2 + R^2), and the radius moves by the center's error
      times (x_j - x_i) / R. That is within d while X <= 2000 R or
      u X^2 / R <= 2 eps; beyond, the table has lost the accuracy that
      d asks for, and the check flags it.
    The check's own rounding is a few u (|x| + rho), far inside
    2^-40 max(R, X), since two intervals' overlap grows at slope >= 2
    in rho.

    A run's least radius is at least its largest |y| and at least that
    of each run inside it, so the bound at R - d follows wherever R - d
    is at most that of the run one point shorter at either end. In a
    true table the pair of ends alone binds each entry left: their two
    intervals are tested first, and all of the run's where they meet.

    Returns {"runs": entries checked, "failed": entries that fail}, and
    for the first failure "run": [l, r], "radius": R and "tolerance": d,
    None where not finite. O(N^3) array work; memory is one column block
    against about sqrt(2 PAIR_BUDGET) points (_meet).
    """
    X, Y = pts.xy.T.copy()
    AX, AY = np.abs(X), np.abs(Y)
    p = norm.p
    runs = failed = 0
    first = {}
    prev = np.zeros(0)
    for c0, block in _run_columns(pts.xy, p, tol):
        c1 = block.shape[1]
        tri = np.arange(c1)[:, None] <= np.arange(c0, c1)

        def most(v):
            # the largest of v over each run l..j, in the layout of R
            return np.maximum.accumulate(np.where(tri, v[:c1, None], 0.0)[::-1], axis=0)[::-1]

        # R[l, k] and d[l, k] of the run l..c0+k; the runs in order of l
        R = block.T
        d = 4.0 * tol.eps + _SLACK_FLOOR * np.maximum(R, most(AX))
        L, J = np.nonzero(tri)
        J += c0
        radius, slack = R[tri], d[tri]
        bad = ~(np.isfinite(radius) & _meet(X, AY, L, J, radius + slack, p))
        down = np.where(tri, R - d, -math.inf)
        known = most(AY) > down
        known[:-1] |= down[:-1] <= down[1:]
        known[:, 1:] |= down[:, 1:] <= down[:, :-1]
        known[:c0, 0] |= down[:c0, 0] <= prev
        prev = down[:, -1]
        rest = np.flatnonzero(~known[tri])
        r, left, right = down[tri][rest], L[rest], J[rest]
        apart = X[left] + _halfwidths(AY[left], r, p) < X[right] - _halfwidths(AY[right], r, p)
        rest, r = rest[~apart], r[~apart]
        if len(rest):
            bad[rest] |= _meet(X, AY, L[rest], J[rest], r, p)
        runs += len(L)
        failed += int(bad.sum())
        if failed and not first:
            i = int(np.argmax(bad))
            first = {"run": [int(L[i]), int(J[i])],
                     "radius": float(radius[i]) if np.isfinite(radius[i]) else None,
                     "tolerance": float(slack[i]) if np.isfinite(slack[i]) else None}
    return {"runs": runs, "failed": failed, **first}


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


def _covers(ps: PointSet, circles, norm: NormP, eps: float) -> bool:
    """Whether every point lies within its run's circle, up to the larger
    of the coverage slack, max(eps, 2^-40) max(1, R) (_cover_slack), and
    the rounding that k_cover's circles allow, 2^-40 max(R, |x|)
    (k_cover._center_slack)."""
    for c in circles:
        left, right = c["run"]
        xy = ps.xy[left:right + 1]
        R = c["radius"]
        slack = max(_cover_slack(R, eps), _center_slack(R, float(np.abs(xy[:, 0]).max())))
        if (_np_lp(xy[:, 0] - c["center_x"], xy[:, 1], norm.p) > R + slack).any():
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
    runs and whose crossings it bisects. At every p a k-cover of up to
    the partition oracle's 10 points is checked against it, and a larger
    one by certify_run_table; either is not ok when a point lies
    outside its run's circle (_covers).
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
    covered = _covers(ps, result["circles"], norm, tol.eps)
    if len(ps) > 10:
        report = certify_run_table(ps, norm, tol)
        return {"kind": "run-table", **report, "ok": not report["failed"] and covered}
    return _compare("set-partition", "other_objective",
                    lambda: set_partition_oracle(ps, inst.k, norm, tol, inst.agg).objective,
                    objective, _OBJECTIVE_TOL, covered)
