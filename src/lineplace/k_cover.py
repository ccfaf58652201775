"""Cover points by at most K balls centered on the axis.

An optimal solution may be chosen so that each ball covers an index
run of the x-sorted points, so the problem reduces to a shortest-path
style DP over candidate runs. Candidates are generated from circles
through one or two points; a plane sweep builds the same candidate
lists as the cubic enumeration at lower cost for the Euclidean norm.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

from .errors import EmptyInput, NoBisectorRoot, TooLarge, UnsupportedNorm
from .geometry import NormP, Point, Segment, Tolerance, _lp_pair
from .one_center import PlacedCircle, min_enclosing

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
class Candidate:
    """Covering run [left..r] (r is the list it lives in) at this radius."""

    left: int
    radius: float


@dataclass(frozen=True)
class CoverSolution:
    intervals: tuple
    circles: tuple
    objective: float


@dataclass(frozen=True)
class OraclePartition:
    """Best partition found by exhaustive enumeration.

    blocks may be non-contiguous, which CoverSolution cannot express,
    hence the separate record type.
    """

    objective: float
    blocks: tuple
    contiguous: bool


def two_point_circle(pts: PointSet, i: int, j: int, norm: NormP, tol: Tolerance):
    """Center on the axis equidistant from points i <= j, and the radius.

    For i == j this is the smallest ball pinned at the point. Equal
    abscissas admit a center only when the |y| match. For p = 1 the
    distance difference plateaus, so a center may not exist either;
    the nonexistent cases raise NoBisectorRoot.
    """
    P = pts.pts
    if not 0 <= i <= j < len(P):
        raise ValueError("need 0 <= i <= j < len(points)")
    xi, yi = P[i].x, P[i].y
    xj, yj = P[j].x, P[j].y
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


def _cover_slack(R: float, eps: float) -> float:
    """How far beyond radius R a point still counts as covered.

    Follows R's scale: a pair circle through two points whose abscissas
    almost coincide has a huge radius, and rounding in its center and
    radius then exceeds any absolute slack, so that the circle would
    miss its own points.
    """
    return eps * max(1.0, R)


def _covered_p2(px: float, py: float, xc: float, thr: float) -> bool:
    dx = px - xc
    return dx * dx + py * py <= thr


def _finalize_lists(lists, pts: PointSet):
    """Add the pinned single-point candidate, dedup, and sort."""
    P = pts.pts
    out = []
    for r, cand in enumerate(lists):
        best = {r: abs(P[r].y)}
        for left, rad in cand:
            cur = best.get(left)
            if cur is None or rad < cur:
                best[left] = rad
        out.append(tuple(Candidate(left, best[left]) for left in sorted(best)))
    return tuple(out)


def build_lists_naive(pts: PointSet, norm: NormP, tol: Tolerance):
    """Candidate lists by direct enumeration of all point pairs.

    Each pair circle is expanded from its smaller index in both
    directions while points stay covered; the resulting run and radius
    join the list of the run's right end.
    """
    P = pts.pts
    n = len(P)
    if n == 0:
        raise EmptyInput("need at least one point")
    p = norm.p
    X = [q.x for q in P]
    Y = [q.y for q in P]
    lists = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            try:
                xc, R = two_point_circle(pts, i, j, norm, tol)
            except NoBisectorRoot:
                continue
            slack = _cover_slack(R, tol.eps)
            if p == 2.0:
                thr = (R + slack) * (R + slack)

                def cov(k: int) -> bool:
                    return _covered_p2(X[k], Y[k], xc, thr)
            else:
                reach = R + slack

                def cov(k: int) -> bool:
                    return _lp_pair(X[k] - xc, Y[k], p) <= reach
            left = i
            while left > 0 and cov(left - 1):
                left -= 1
            right = i
            while right + 1 < n and cov(right + 1):
                right += 1
            # expansion is stepwise, so a run that reached the pair's
            # far point must be covered throughout
            assert right < j or all(cov(k) for k in range(left, right + 1))
            lists[right].append((left, R))
    return _finalize_lists(lists, pts)


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
    the passes reproduces the naive expansion exactly.
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

    lists = [[] for _ in range(n)]
    for (i, j), (pl, pr) in sugg.items():
        pleft = pl if pl is not None else 0
        pright = pr if pr is not None else n - 1
        if i == j:
            R = abs(Y[i])
        elif X[i] == X[j]:
            R = abs(Y[i])
        else:
            xc = (X[j] * X[j] + Y[j] * Y[j] - X[i] * X[i] - Y[i] * Y[i]) \
                / (2.0 * (X[j] - X[i]))
            R = math.hypot(xc - X[i], Y[i])
        lists[pright].append((pleft, R))
    return _finalize_lists(lists, pts)


def rmin_on_axis(pts: PointSet, i: int, j: int, norm: NormP, tol: Tolerance):
    """Smallest axis-centered ball covering points i..j; returns (cx, r)."""
    P = pts.pts
    if not 0 <= i <= j < len(P):
        raise ValueError("need 0 <= i <= j < len(points)")
    return _rmin_points([P[k] for k in range(i, j + 1)], norm, tol)


def _rmin_points(points, norm: NormP, tol: Tolerance):
    """Smallest ball centered anywhere on the axis covering the points.

    The center is not held to any stretch [0, L]: it ranges over the
    whole line. A center left or right of every point gets nearer to
    all of them by moving toward them, so the optimum lies in
    [min x, max x]; min_enclosing searches that window padded by max|y|.
    """
    maxy = max(abs(q.y) for q in points)
    xs = [q.x for q in points]
    lo = min(xs) - maxy
    hi = max(xs) + maxy
    if hi <= lo:
        lo, hi = min(xs), max(xs)
    segs = [Segment(Point(q.x - lo, q.y), Point(q.x - lo, q.y)) for q in points]
    c = min_enclosing(segs, hi - lo, norm, tol)
    return c.cx + lo, c.radius


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

    def relax(row_prev, j):
        best, bl = _INF, None
        for cand in cls[j - 1]:
            w = cand.radius ** q
            for left in range(cand.left, j):
                prev = row_prev[left]
                if prev == _INF:
                    continue
                val = prev + w if is_sum else (prev if prev >= w else w)
                if val < best:
                    best, bl = val, left
        return best, bl

    if K is None:
        opt = [_INF] * (n + 1)
        par = [None] * (n + 1)
        opt[0] = 0.0
        for j in range(1, n + 1):
            opt[j], par[j] = relax(opt, j)
        assert opt[n] < _INF
        runs = []
        j = n
        while j > 0:
            left = par[j]
            runs.append((left, j - 1))
            j = left
    else:
        opt = [[_INF] * (n + 1) for _ in range(K + 1)]
        par = [[None] * (n + 1) for _ in range(K + 1)]
        for k in range(K + 1):
            opt[k][0] = 0.0
        for k in range(1, K + 1):
            for j in range(1, n + 1):
                opt[k][j], par[k][j] = relax(opt[k - 1], j)
        assert opt[K][n] < _INF
        runs = []
        k, j = K, n
        while j > 0:
            left = par[k][j]
            runs.append((left, j - 1))
            j = left
            k -= 1
    runs.reverse()
    circles = []
    weights = []
    for left, right in runs:
        cx, rad = rmin_on_axis(pts, left, right, norm, tol)
        circles.append(PlacedCircle(cx, rad))
        weights.append(rad ** q)
    objective = math.fsum(weights) if is_sum else max(weights)
    return CoverSolution(tuple(runs), tuple(circles), objective)


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


def set_partition_oracle(pts: PointSet, K, norm: NormP, tol: Tolerance,
                         agg: AggSpec) -> OraclePartition:
    """Exhaustive minimum over all point partitions into <= K blocks.

    Block cost is the smallest axis-centered ball radius to the power
    q; blocks need not be contiguous. Guarded to tiny sizes.
    """
    P = pts.pts
    n = len(P)
    if n == 0:
        raise EmptyInput("need at least one point")
    if n > 10:
        raise TooLarge(f"oracle limited to 10 points, got {n}")
    kmax = n if K is None else min(K, n)
    if K is not None and K > 4:
        raise TooLarge(f"oracle limited to K <= 4, got {K}")
    q = agg.q
    is_sum = agg.kind == "sum"
    memo = {}

    def block_cost(idx) -> float:
        key = tuple(idx)
        got = memo.get(key)
        if got is None:
            got = _rmin_points([P[k] for k in idx], norm, tol)[1] ** q
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
