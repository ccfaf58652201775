"""Largest empty ball centered on [0, L]: search and envelope routes.

The objective max over x of min over segments of distance((x,0), s) is
solved two independent ways. A solve takes the radius binary search
over covering intervals (max_empty_binsearch). The explicit lower
envelope of the per-segment distance profiles along the axis
(max_empty_envelope) is the route of `lineplace solve --verify` and a
test reference, which the package does not export; it stays in this
module because the benchmark imports compute_lower_envelope and
largest_empty_from_envelope from here. The envelope is built by one
route, divide and conquer merges of the two halves of the segments,
all merges of one tree height in one array pass over a piece table of
the profiles. Each merge resolves the ownership of every cell of two
owners exactly, by decomposing every profile into convex cone and
affine pieces, so cells where two profiles cross twice (which defeats
endpoint-sign tests) are handled. The build carries pieces as flat
arrays, and max_empty_envelope maximises those arrays; only
compute_lower_envelope wraps them in EnvelopePiece and LowerEnvelope.
The crossings at p != 1, 2 come from the lockstep rtsafe kernel that
k-cover shares (geometry._rtsafe), each root certified
(geometry._certified_roots). The scalar merge of two envelopes one
cell at a time, the recursion over it, and the one-off fold, which
adds the segments to the running envelope one at a time, are the test
references _reference._merge_raw, _reference.envelope_halves and
_reference.envelope_one_off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import NormP, Point, Tolerance, _certified_roots, _np_lp, axis_argmin_abscissas, \
    axis_distances, near_extreme, point_segment_distance, rescored_extreme, \
    segment_columns, segment_rows, segments_from_columns
from .intervals import Interval, SegmentArray, bisect_radius, covering_slack, \
    union_covers_rows
from .one_center import PlacedCircle

_INF = math.inf


@dataclass(frozen=True)
class EnvelopePiece:
    """On [a, b] the envelope equals the distance to segment seg_index."""

    a: float
    b: float
    seg_index: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)) or self.a > self.b:
            raise ValueError(f"bad piece span [{self.a}, {self.b}]")
        if not isinstance(self.seg_index, int) or self.seg_index < 0:
            raise ValueError("seg_index must be a nonnegative integer")


@dataclass(frozen=True)
class LowerEnvelope:
    """Pieces tiling [0, L] left to right without gaps."""

    pieces: tuple

    def __post_init__(self) -> None:
        if not self.pieces:
            raise ValueError("envelope needs at least one piece")
        object.__setattr__(self, "pieces", tuple(self.pieces))


# -- distance profiles as one piece table --------------------------------
#
# A profile is the function x -> distance((x,0), s) decomposed into
# pieces that are either a cone lp(x - c, h) or a nonnegative affine
# A*x + B. Cones are strictly convex with slope in (-1, 1) when h > 0;
# every affine piece has |A| <= 1. This is what makes the per-cell
# crossing analysis below exhaustive. One builder serves every p: the
# distance to endpoint a, to the supporting line, then to endpoint b,
# split at the regime boundaries. At p = 1 it takes the p -> 1 limit
# of each part (the line's dual norm becomes the max norm) and splits
# the cones |x - c| + h at their apex, so every p = 1 piece is affine.
# The pieces tile the axis, the first from -inf and the last to +inf:
# a piece ends where the next starts. The scalar builder of one
# profile is the test reference _reference._build_profile.

_CONE = 0
_AFFINE = 1
# the most pieces one profile has: each of its three parts splits in two
_SLOTS = 6


class _PieceTable(NamedTuple):
    """The profiles of all segments, as a table padded to _SLOTS pieces
    a segment: row s of start, and slots s * _SLOTS on of the flat
    columns kind, u and v, hold its count[s] pieces left to right, a
    cone lp(x - u, v) or an affine u * x + v from start to the next
    piece's start (+inf for the last). An unused slot starts at +inf."""

    p: float
    start: np.ndarray
    kind: np.ndarray
    u: np.ndarray
    v: np.ndarray
    count: np.ndarray


def _abs_affine_slots(A, B, lo, hi, h):
    """|A*x + B| + h on (lo, hi) as a left and a right slot, each (start,
    slope, offset), and whether the right slot holds a piece: one
    level piece where A = 0, else split where A*x + B changes sign, and
    a sloped offset gets h only where h is nonzero, so that -0.0 keeps
    its sign. The caller drops the part where hi <= lo."""
    sA = np.copysign(1.0, A)
    rb, lb = sA * B, -sA * B
    lift = h != 0.0
    rb = np.where(lift, rb + h, rb)
    lb = np.where(lift, lb + h, lb)
    absA = np.abs(A)
    xz = -B / A
    level = A == 0.0
    right_only = ~level & (xz <= lo)
    split = ~level & ~right_only & ~(xz >= hi)
    left_u = np.where(level, 0.0, np.where(right_only, absA, -absA))
    left_v = np.where(level, np.abs(B) + h, np.where(right_only, rb, lb))
    return (lo, left_u, left_v), (xz, absA, rb), split


def _cone_slots(c, h, lo, hi, p: float):
    """lp(x - c, h) on (lo, hi) as two slots of (start, kind, u, v), and
    whether the right one holds a piece. A degenerate cone, and every
    cone at p = 1, where it is |x - c| + h, becomes affine pieces split
    at the apex."""
    (s0, u0, v0), (s1, u1, v1), split = _abs_affine_slots(np.ones(len(c)), -c, lo, hi, h)
    cone = (h != 0.0) & (p != 1.0)
    left = (s0, np.where(cone, _CONE, _AFFINE), np.where(cone, c, u0), np.where(cone, h, v0))
    return left, (s1, np.full(len(c), _AFFINE), u1, v1), split & ~cone


def _regime_boundaries(ex, ey, U, V, p: float):
    """Abscissa where the nearest segment point stops being endpoint e,
    for every row.

    Solves the first-order condition of the parametric distance at the
    endpoint: the boundary is ex - |kappa|^(1/(p-1)) sign(kappa) with
    kappa = -(V/U) |ey|^(p-1) sign(ey). The root is taken factor by
    factor, as |V/U|^(1/(p-1)) |ey|, because |ey|^(p-1) alone overflows
    or underflows at large p. Overflow of the remaining power means the
    endpoint regime covers a whole half line. At p = 1 the power takes
    its p -> 1 limit: 0 when |V| < U, 1 when |V| = U and infinity when
    |V| > U, so the boundary is the endpoint itself, ex -/+ |ey|, or an
    infinity. Where ey or V is 0 it is ex.
    """
    kappa_sign = -np.copysign(1.0, V / U) * np.copysign(1.0, ey)
    if p == 1.0:
        aV = np.abs(V)
        root = np.where(aV < U, 0.0, np.where(aV == U, 1.0, _INF))
    else:
        root = np.abs(V / U) ** (1.0 / (p - 1.0))
    # an infinite magnitude puts the boundary at the matching infinity
    w = ex - np.copysign(root * np.abs(ey), kappa_sign)
    return np.where((ey == 0.0) | (V == 0.0), ex, w)


@np.errstate(all="ignore")
def _piece_table(cols: np.ndarray, p: float) -> _PieceTable:
    """The profile of every row [ax, ay, bx, by] of cols, in one array
    pass: the pieces of _reference._build_profile within the rounding
    of numpy's powers (bit for bit at p = 1 and 2). Every row takes
    every branch, so operations on the rows a branch does not serve
    (a vertical row's slope) may divide by 0 or overflow, silently."""
    ax, ay, bx, by = cols.T
    flip = bx < ax
    ax, ay, bx, by = (np.where(flip, bx, ax), np.where(flip, by, ay),
                      np.where(flip, ax, bx), np.where(flip, ay, by))
    U = bx - ax
    V = by - ay
    vertical = U == 0.0
    # distance to the supporting line: |V x - (U ay - V ax)| over the
    # dual norm of (V, U), which is the max norm at p = 1
    mx = np.maximum(np.abs(V), U)
    if p == 1.0:
        nrm = mx
    else:
        ps = p / (p - 1.0)
        nrm = mx * ((np.abs(V) / mx) ** ps + (U / mx) ** ps) ** (1.0 / ps)
    A = V / nrm
    B = (U * ay - V * ax) / nrm
    w1 = _regime_boundaries(ax, ay, U, V, p)
    w2 = _regime_boundaries(bx, by, U, V, p)
    fold = w1 > w2
    mean = 0.5 * (w1 + w2)
    w1, w2 = np.where(fold, mean, w1), np.where(fold, mean, w2)
    # three parts: a cone at a (at a vertical segment's x, the only part),
    # the line, a cone at b; an empty part (hi <= lo) holds no piece
    n = len(cols)
    ninf, pinf = np.full(n, -_INF), np.full(n, _INF)
    line = ~vertical & ~(w2 <= w1)
    last = ~vertical & ~(pinf <= w2)
    first = vertical | ~(w1 <= ninf)
    # both boundaries collapsed to infinities of the same side
    whole = vertical | ~(first | line | last)
    first |= whole
    hmin = np.where(ay * by <= 0.0, 0.0, np.minimum(np.abs(ay), np.abs(by)))
    h0 = np.where(vertical, hmin, np.abs(ay))
    a_left, a_right, a_split = _cone_slots(ax, h0, ninf, np.where(whole, pinf, w1), p)
    (l0, lu, lv), (r0, ru, rv), l_split = _abs_affine_slots(A, B, w1, w2, 0.0)
    b_left, b_right, b_split = _cone_slots(bx, np.abs(by), w2, pinf, p)
    affine = np.full(n, _AFFINE)
    slots = [a_left, a_right, (l0, affine, lu, lv), (r0, affine, ru, rv), b_left, b_right]
    used = np.stack([first, first & a_split, line, line & l_split, last, last & b_split], axis=1)
    # the used slots of every row moved to its front, in order
    count = used.sum(axis=1)
    dest = np.nonzero(used)[0] * _SLOTS + np.cumsum(used, axis=1)[used] - 1
    start = np.full(n * _SLOTS, _INF)
    kind, u, v = np.zeros(n * _SLOTS, dtype=np.int8), np.zeros(n * _SLOTS), np.zeros(n * _SLOTS)
    for out, col in zip((start, kind, u, v), zip(*slots)):
        out[dest] = np.stack(col, axis=1)[used]
    return _PieceTable(p, start.reshape(n, _SLOTS), kind, u, v, count)


def _piece_at(table: _PieceTable, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Slot of the piece of each row's profile that x falls in: the last
    one whose start is not above x, as bisect_right over the row's
    starts finds it. A NaN start, which only coordinates near 1e300
    give, counts as not above x, as bisect_right takes it wherever the
    starts after it are not above x either."""
    return rows * _SLOTS + (~(x[:, None] < table.start[rows])).sum(axis=1) - 1


def _piece_values(table: _PieceTable, slot: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The value at x of the piece in each slot."""
    u, v = table.u[slot], table.v[slot]
    return np.where(table.kind[slot] == _CONE, _np_lp(x - u, v, table.p), u * x + v)


# -- one tree level of merges per array pass -----------------------------
#
# The envelope of segments lo..hi-1 is the cellwise minimum of those of
# lo..mid-1 and mid..hi-1, mid = (lo + hi) // 2. Every merge of one
# node height runs in one array pass over flat (a, b, owner, merge)
# arrays. Its cells are the stretches between consecutive ends of the
# two children; a cell of one owner is a piece as it is, a cell of two
# owners goes to _resolve_cells. _compact then gives every merge its
# maximal ownership runs.


def _lp_minus(c, h, q1, q2, level, sign, p: float):
    """fdf(x, act) for _rtsafe over rows: sign times lp(x - c, h) minus
    the second profile's piece at x, lp(x - q1, q2) where that is a cone
    and q1 * x + q2 where it is affine (level), and its slope, for the
    rows act (an index array, or slice(None) for all). One _np_lp call
    evaluates both cones. A cone's slope sign(d) (|d| / lp)^(p-1) has a
    base of at most 1, since lp >= |d| as evaluated too, so it cannot
    overflow; where it underflows to 0, or lp is not finite, _rtsafe
    halves instead of stepping."""

    def fdf(x, act):
        c_, h_, q1_, q2_, level_, sign_ = (col[act] for col in (c, h, q1, q2, level, sign))
        n = len(x)
        d = np.concatenate((x - c_, x - q1_))
        vals = _np_lp(d, np.concatenate((h_, q2_)), p)
        slope = np.copysign((np.abs(d) / vals) ** (p - 1.0), d)
        f = vals[:n] - np.where(level_, q1_ * x + q2_, vals[n:])
        df = slope[:n] - np.where(level_, q1_, slope[n:])
        return sign_ * f, sign_ * df

    return fdf


def _quadratic_roots(alpha, beta, gamma):
    """The real roots of alpha x^2 + beta x + gamma per row, as two
    columns with NaN where a row has fewer: by the stable form q =
    -(beta + sign(beta) sqrt(disc)) / 2, roots q / alpha and gamma / q
    (one where they are equal); -gamma / beta where alpha is 0, and 0
    where q and gamma are."""
    disc = beta * beta - 4.0 * alpha * gamma
    q = -0.5 * (beta + np.copysign(np.sqrt(np.where(disc < 0.0, np.nan, disc)), beta))
    r1 = np.where(q == 0.0, np.where(gamma == 0.0, 0.0, np.nan), q / alpha)
    r2 = np.where(r1 == gamma / q, np.nan, gamma / q)
    linear = alpha == 0.0
    r1 = np.where(linear, np.where(beta == 0.0, np.nan, -gamma / beta), r1)
    r2 = np.where(linear | (q == 0.0), np.nan, r2)
    return r1, r2


def _crossings(table: _PieceTable, i, j, a, b, tol: Tolerance):
    """Equal-distance points strictly inside every subcell (a, b) of
    profiles i and j, as (roots, the subcell of each).

    (a, b) lies within a single piece of each profile. Case analysis:
    two affines cross at most once; cone vs cone crosses at most once
    (the p-th power difference of the offsets is strictly monotone);
    cone vs affine differs by a convex function, so up to two roots,
    located from its closed-form interior minimum. At p = 2 the cone
    crossings are closed forms; at other p they are found by _rtsafe,
    all subcells at once, each certified within tol.eps / 8 of a sign
    change of the difference (_certified_roots), as the reference's
    bisection stops.
    """
    p = table.p
    mid = 0.5 * (a + b)
    si, sj = _piece_at(table, i, mid), _piece_at(table, j, mid)
    k1, u1, v1 = table.kind[si], table.u[si], table.v[si]
    k2, u2, v2 = table.kind[sj], table.u[sj], table.v[sj]
    cone1, cone2 = k1 == _CONE, k2 == _CONE
    xs, subs = [], []

    def keep(x, ok):
        xs.append(x[ok])
        subs.append(np.flatnonzero(ok))

    # two affines
    lines = ~cone1 & ~cone2
    xr = (v2 - v1) / (u1 - u2)
    keep(xr, lines & (u1 != u2) & (a < xr) & (xr < b))
    if not (cone1 | cone2).any():
        return np.concatenate(xs), np.concatenate(subs)
    # two cones: f = lp_i - lp_j; one cone: f = cone - affine
    both = cone1 & cone2
    mixed = cone1 ^ cone2
    c, h = np.where(cone1, u1, u2), np.where(cone1, v1, v2)
    q1, q2 = np.where(cone1, u2, u1), np.where(cone1, v2, v1)
    if p == 2.0:
        xr = (u2 * u2 + v2 * v2 - u1 * u1 - v1 * v1) / (2.0 * (u2 - u1))
        keep(xr, both & (u1 != u2) & (a < xr) & (xr < b))
        for xr in _quadratic_roots(1.0 - q1 * q1, -2.0 * (c + q1 * q2), c * c + h * h - q2 * q2):
            keep(xr, mixed & (a < xr) & (xr < b) & (q1 * xr + q2 >= 0.0))
        return np.concatenate(xs), np.concatenate(subs)
    level = ~both
    f = _lp_minus(c, h, q1, q2, level, np.ones(len(c)), p)
    # the interior minimum of cone - affine, where |A| < 1 (|A| <= 1,
    # so the power cannot overflow)
    rho = np.abs(q1) ** (p / (p - 1.0))
    xhat = c + np.copysign(h * (rho / (1.0 - rho)) ** (1.0 / p), q1)
    inner = mixed & (rho < 1.0) & (a < xhat) & (xhat < b)
    fa, fb, fm = (f(x, slice(None))[0] for x in (a, b, xhat))
    # a sign change over the whole subcell: the crossing of two cones,
    # or of a cone and an affine without an interior minimum inside
    change = (both & (u1 != u2)) | (mixed & ~inner)
    change &= (fa != 0.0) & (fb != 0.0) & ((fa > 0.0) != (fb > 0.0))
    dips = inner & ~(fm >= 0.0)
    left, right = dips & (fa > 0.0), dips & (fb > 0.0)
    rows = np.concatenate((np.flatnonzero(change), np.flatnonzero(left), np.flatnonzero(right)))
    lo = np.concatenate((a[change], a[left], xhat[right]))
    hi = np.concatenate((b[change], xhat[left], b[right]))
    # oriented to increase through the root: falling where f(lo) > 0
    sign = np.where(np.concatenate((fa[change] > 0.0, np.ones(left.sum(), bool),
                                    np.zeros(right.sum(), bool))), -1.0, 1.0)
    fdf = _lp_minus(c[rows], h[rows], q1[rows], q2[rows], level[rows], sign, p)
    xs.append(_certified_roots(fdf, lo, hi, tol.eps / 8.0, tol.max_iters))
    subs.append(rows)
    return np.concatenate(xs), np.concatenate(subs)


def _runs(key, owner):
    """First and last row of every run of equal owners within equal
    keys, for rows sorted by key."""
    new = np.ones(len(key), dtype=bool)
    new[1:] = (key[1:] != key[:-1]) | (owner[1:] != owner[:-1])
    end = np.ones(len(key), dtype=bool)
    end[:-1] = new[1:]
    return np.flatnonzero(new), np.flatnonzero(end)


def _resolve_cells(u, v, i, j, table: _PieceTable, tol: Tolerance):
    """Ownership stretches of every cell [u, v] whose owners i and j
    differ, as (a, b, owner, cell), ordered by cell and a.

    The knots of both profiles split a cell into subcells that each lie
    within one piece of each profile, where _crossings finds every
    equal-distance point. The knots and roots, sorted, cut the cell,
    except a cut within tol.eps / 8 of the last one kept; every stretch
    between kept cuts goes to the profile lower at its midpoint, ties
    to the lower index, and neighbours of one owner fuse.
    """
    n = len(u)
    rows = np.arange(n)
    knots = np.concatenate((table.start[i], table.start[j]), axis=1)
    knots = np.where((u[:, None] < knots) & (knots < v[:, None]), knots, _INF)
    knots.sort(axis=1)
    knots[:, 1:][knots[:, 1:] == knots[:, :-1]] = _INF
    knots.sort(axis=1)
    nk = np.isfinite(knots).sum(axis=1)
    width = knots.shape[1] + 1
    edges = np.full((n, width + 1), _INF)
    edges[:, 0] = u
    edges[:, 1:width] = knots
    edges[rows, nk + 1] = v
    inside = np.arange(width) <= nk[:, None]
    cell = np.nonzero(inside)[0]
    roots, sub = _crossings(table, i[cell], j[cell], edges[:, :-1][inside],
                            edges[:, 1:][inside], tol)
    is_knot = np.isfinite(knots)
    x = np.concatenate((knots[is_knot], roots))
    at = np.concatenate((np.nonzero(is_knot)[0], cell[sub]))
    ok = (u[at] < x) & (x < v[at])
    x, at = x[ok], at[ok]
    order = np.lexsort((x, at))
    x, at = x[order], at[order]
    # the cut rule keeps a cut only beyond tol.eps / 8 of the last kept
    # one; a cell where two sorted cuts lie that close takes the rule
    # one cut at a time
    close = np.zeros(len(x), dtype=bool)
    close[1:] = (at[1:] == at[:-1]) & (x[1:] - x[:-1] <= tol.eps / 8.0)
    if close.any():
        kept = np.ones(len(x), dtype=bool)
        for c in sorted(set(at[close].tolist())):
            span = np.flatnonzero(at == c)
            last = None
            for k, xk in zip(span.tolist(), x[span].tolist()):
                if last is not None and xk - last <= tol.eps / 8.0:
                    kept[k] = False
                else:
                    last = xk
        x, at = x[kept], at[kept]
    # each cell's stretches between u, its kept cuts and v
    x = np.concatenate((u, x, v))
    at = np.concatenate((rows, at, rows))
    order = np.lexsort((x, at))
    x, at = x[order], at[order]
    same = at[:-1] == at[1:]
    lo, hi, at = x[:-1][same], x[1:][same], at[:-1][same]
    mid = 0.5 * (lo + hi)
    m = len(mid)
    mids = np.concatenate((mid, mid))
    d = _piece_values(table, _piece_at(table, np.concatenate((i[at], j[at])), mids), mids)
    di, dj = d[:m], d[m:]
    owner = np.where(di < dj, i[at], np.where(dj < di, j[at], np.minimum(i[at], j[at])))
    first, last = _runs(at, owner)
    return lo[first], hi[last], owner[first], at[first]


def _compact(a, b, owner, merge, merges: int, tol: Tolerance):
    """The raw pieces of every merge, rows sorted by merge and a, as
    maximal ownership runs: (a, b, owner, merge).

    Pieces no wider than half of tol.eps are merge order noise, not
    certified ownership: each folds into the next kept piece of its
    merge (the last kept one reaches the merge's end). Same-owner
    neighbours fuse. A merge whose every piece is that narrow becomes
    one piece, of its first owner.
    """
    n = len(a)
    first = np.ones(n, dtype=bool)
    first[1:] = merge[1:] != merge[:-1]
    last = np.append(first[1:], True)
    span_lo, span_hi, first_owner = np.empty(merges), np.empty(merges), np.empty(merges, np.intp)
    span_lo[merge[first]] = a[first]
    first_owner[merge[first]] = owner[first]
    span_hi[merge[last]] = b[last]
    kept = b - a > 0.5 * tol.eps
    kb, ko, km = b[kept], owner[kept], merge[kept]
    runs, ends = _runs(km, ko)
    merge_first, merge_last = np.ones(len(km), dtype=bool), np.ones(len(km), dtype=bool)
    merge_first[1:] = merge_last[:-1] = km[1:] != km[:-1]
    rm = km[runs]
    # a run starts where the last kept piece before it ends
    lo = np.where(merge_first[runs], span_lo[rm], kb[runs - 1])
    hi = np.where(merge_last[ends], span_hi[rm], kb[ends])
    bare = np.ones(merges, dtype=bool)
    bare[km] = False
    bare = np.flatnonzero(bare)
    return (np.concatenate((lo, span_lo[bare])), np.concatenate((hi, span_hi[bare])),
            np.concatenate((ko[runs], first_owner[bare])), np.concatenate((rm, bare)))


def _merge_level(env, lo: np.ndarray, mid: np.ndarray, table: _PieceTable, L: float,
                 tol: Tolerance):
    """Every merge of one tree height in one array pass.

    env holds the pieces of the envelopes built so far as flat arrays
    (a, b, owner, node), node the first segment of the envelope's
    node; merge g joins the envelopes of nodes lo[g] and mid[g] into
    that of node lo[g], and the other envelopes pass through. A merge's
    cells are the stretches between the sorted distinct ends of both
    children; a child's owner on a cell is that of its last piece
    starting at or before the cell.
    """
    a, b, owner, node = env
    merges = len(lo)
    n = len(table.count)
    left_of, right_of = np.full(n, -1), np.full(n, -1)
    left_of[lo] = np.arange(merges)
    right_of[mid] = np.arange(merges)
    gl, gr = left_of[node], right_of[node]
    joined = (gl >= 0) | (gr >= 0)
    merge = np.where(gl >= 0, gl, gr)[joined]
    x, own, from_right = a[joined], owner[joined], gl[joined] < 0
    order = np.lexsort((x, merge))
    x, own, from_right, merge = x[order], own[order], from_right[order], merge[order]
    at = np.arange(len(x))
    left_at = np.maximum.accumulate(np.where(from_right, -1, at))
    right_at = np.maximum.accumulate(np.where(from_right, at, -1))
    # the last of equal starts, where both children's pieces are seen
    distinct = np.append((merge[1:] != merge[:-1]) | (x[1:] != x[:-1]), True)
    u, g = x[distinct], merge[distinct]
    i, j = own[left_at[distinct]], own[right_at[distinct]]
    v = np.where(np.append(g[1:] == g[:-1], False), np.append(u[1:], L), L)
    one, two = i == j, i != j
    ra, rb, ro, rc = _resolve_cells(u[two], v[two], i[two], j[two], table, tol)
    # the raw pieces in cell order: a cell of one owner as it is, the
    # others as their resolution gives them, which keeps them in order
    cell = np.concatenate((np.flatnonzero(one), np.flatnonzero(two)[rc]))
    order = np.argsort(cell, kind="stable")
    raw_a, raw_b, raw_o = (np.concatenate((col[one], res))[order]
                           for col, res in ((u, ra), (v, rb), (i, ro)))
    ca, cb, co, cg = _compact(raw_a, raw_b, raw_o, g[cell[order]], merges, tol)
    rest = ~joined
    return (np.concatenate((a[rest], ca)), np.concatenate((b[rest], cb)),
            np.concatenate((owner[rest], co)), np.concatenate((node[rest], lo[cg])))


def _merge_schedule(n: int) -> list:
    """(lo, mid) of every merge of the halves tree over n segments, node
    lo..hi-1 split at mid = (lo + hi) // 2, as one pair of arrays per
    node height, lowest first, each ordered by lo. A node of s segments
    has height ceil(log2 s), the bit length of s - 1, so its children
    are lower."""
    if n < 2:
        return []
    lo, hi = np.array([0]), np.array([n])
    nodes = []
    while len(lo):
        inner = hi - lo >= 2
        lo, hi = lo[inner], hi[inner]
        mid = (lo + hi) // 2
        nodes.append((lo, mid, np.frexp(hi - lo - 1)[1]))
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
    lo, mid, height = (np.concatenate(col) for col in zip(*nodes))
    order = np.lexsort((lo, height))
    lo, mid, height = lo[order], mid[order], height[order]
    cuts = np.flatnonzero(np.diff(height)) + 1
    return list(zip(np.split(lo, cuts), np.split(mid, cuts)))


def _envelope_arrays(segments, L: float, p: float, tol: Tolerance):
    """Lower envelope of the profiles of segments, a sequence of Segment
    or an (N, 4) array of rows [ax, ay, bx, by] (geometry.segment_rows),
    over [0, L], as flat arrays (a, b, owner) of its pieces, left to
    right, by merging the envelopes of the two halves of the segments
    recursively.

    The rows are converted once into one piece table of the distance
    profiles (_piece_table), which every merge reads. A single
    segment's envelope is the one piece (0, L, i). The tree splits the
    segments lo..hi-1 at (lo + hi) // 2, and all merges of one node
    height run in one array pass (_merge_level), lowest height first,
    so each merge sees the children that the recursion would give it.
    Every merge resolves each cell of two owners (_resolve_cells) and
    then fuses same-owner neighbours (_compact), so the pieces are
    maximal ownership runs: no two neighbours share an owner. The
    envelope's maximum lies where ownership changes or at 0 or L,
    never inside one owner's run, since each profile is convex. L = 0
    runs through the same level passes: every merge has the one cell
    [0, 0], which goes to the owner nearer to the origin, ties to the
    lower index, as every cell's stretches do. The merge of two
    envelopes one cell at a time, and the recursion over it, are the
    test references _reference._merge_raw and _reference.envelope_halves.
    """
    cols = segment_rows(segments, L)
    n = len(cols)
    with np.errstate(all="ignore"):
        table = _piece_table(cols, p)
        pieces = (np.zeros(n), np.full(n, L), np.arange(n), np.arange(n))
        for lo, mid in _merge_schedule(n):
            pieces = _merge_level(pieces, lo, mid, table, L, tol)
    a, b, owner, _ = pieces
    assert a[0] == 0.0 and b[-1] == L and (b[:-1] == a[1:]).all()
    return a, b, owner


def compute_lower_envelope(segments, L: float, norm: NormP, tol: Tolerance,
                           split: str = "halves") -> LowerEnvelope:
    """Lower envelope of all segment profiles over [0, L], by merging the
    envelopes of the two halves of the segments recursively
    (_envelope_arrays), as EnvelopePiece and LowerEnvelope objects.

    segments is a sequence of Segment or an (N, 4) array of rows [ax,
    ay, bx, by]. max_empty_envelope, the route of --verify, maximises
    the flat arrays of the build and makes none of these objects.

    split selects nothing: "halves" and "one-off" both build by halves,
    and any other value raises ValueError. It stays only for the
    callers under bench/ that still pass it, and goes with them in the
    benchmark change of ROADMAP item 1b. The one-off fold is the test
    reference _reference.envelope_one_off.
    """
    if split not in ("halves", "one-off"):
        raise ValueError(f"unknown split {split!r}")
    a, b, owner = _envelope_arrays(segments, L, norm.p, tol)
    return LowerEnvelope(tuple(EnvelopePiece(a, b, s)
                               for a, b, s in zip(a.tolist(), b.tolist(), owner.tolist())))


def _largest_empty(a, b, owner, cols: np.ndarray, norm: NormP, tol: Tolerance) -> PlacedCircle:
    """Maximise the envelope of the pieces (a[k], b[k], owner[k]) of the
    rows of cols; the max sits at a piece boundary.

    Every piece is convex, so local maxima of the pointwise minimum can
    only occur where ownership changes or at the domain ends. The value
    at a piece end is the least point_segment_distance to the owners of
    the pieces that end or start there, and the result is that of
    folding these values over the ends in ascending order with a strict
    >: ties resolve to the smallest abscissa, and a NaN at the first
    end, from overflowed coordinates, is kept for PlacedCircle to
    reject. The distances at every piece end to its owner come from one
    axis_distances pass, and only the first end and the ends whose
    least estimate lies in near_extreme's band of the largest are
    recomputed, from Segment objects of their owners alone.
    """
    xs = np.stack((a, b), axis=1).ravel()
    owners = np.asarray(owner, dtype=np.intp).repeat(2)
    ends, first, at = np.unique(xs, return_index=True, return_inverse=True)
    approx = np.full(len(ends), _INF)
    with np.errstate(invalid="ignore"):
        # a NaN estimate stays NaN, and near_extreme recomputes it
        np.minimum.at(approx, at, axis_distances(xs, cols[owners], norm.p))
    scale = max(float(np.abs(cols[owners]).max()), float(np.abs(ends).max()))
    near = near_extreme(approx, scale, largest=True)
    near[0] = True
    best_x, best = None, -_INF
    for u in np.flatnonzero(near).tolist():
        x = float(xs[first[u]])
        # the owners in piece order, as a set built in that order
        own = set(owners[at == u].tolist())
        val = min(point_segment_distance(Point(x, 0.0), segments_from_columns(cols[s:s + 1])[0],
                                         norm, tol) for s in own)
        # a NaN from overflowed coordinates is kept, for PlacedCircle to reject
        if best_x is None or val > best:
            best_x, best = x, val
    return PlacedCircle(best_x, best)


def largest_empty_from_envelope(le: LowerEnvelope, segments, norm: NormP,
                                tol: Tolerance) -> PlacedCircle:
    """Maximise the envelope le of segments, a sequence of Segment or an
    (N, 4) array of rows [ax, ay, bx, by] (see _largest_empty)."""
    pieces = np.array([(pc.a, pc.b, pc.seg_index) for pc in le.pieces])
    return _largest_empty(pieces[:, 0], pieces[:, 1], pieces[:, 2], segment_columns(segments),
                          norm, tol)


def max_empty_envelope(segments, L: float, norm: NormP, tol: Tolerance) -> PlacedCircle:
    """The envelope route: build the lower envelope of segments, a
    sequence of Segment or an (N, 4) array of rows [ax, ay, bx, by], as
    flat arrays (_envelope_arrays), then maximise them (_largest_empty);
    no EnvelopePiece is made."""
    cols = segment_columns(segments)
    return _largest_empty(*_envelope_arrays(cols, L, norm.p, tol), cols, norm, tol)


def _owning_rows(far: np.ndarray, dmin: np.ndarray, scale: float, p: float):
    """Mask of the rows that may decide whether [0, L] is covered, and
    the radius R_s from which the union of the kept rows covers it.

    far is max(d0, dL) per row and dmin its constrained minimum over
    [0, L]. H = min(far) is attained by a row s* whose covering interval
    holds [0, L] once R - e(R) >= H + c, (eta, c) = covering_slack(H):
    from R_s = (H + 2c) / (1 - eta) on, every union covers, with or
    without the other rows (R - e grows with R). Below R_s a row with
    dmin > R_s (1 + eta) + 2c has an exact covering interval at
    R + e(R) < R_s + e(R_s) that misses [0, L] (that half of the bound
    holds at every R > 0 and grows with R), so its computed one at R
    lies wholly before 0 or wholly beyond L, which changes neither the
    answer of union_covers_rows nor its witness. Such rows are
    dropped; s* stays, so the kept set is never empty. The bracket of
    the search still comes from segments[0], so the midpoints are the
    same as without pruning. Where covering_slack claims no bound, every
    row stays and R_s is inf.
    """
    H = float(far.min())
    eta, c = covering_slack(H, scale, p)
    if not eta < 1.0:
        return np.ones(len(far), dtype=bool), math.inf
    R_s = (H + 2.0 * c) / (1.0 - eta)
    return ~(dmin > R_s * (1.0 + eta) + 2.0 * c), R_s


def max_empty_binsearch(segments, L: float, norm: NormP, tol: Tolerance) -> PlacedCircle:
    """Binary search the largest radius whose covering intervals fail
    to cover [0, L]; the witness of the failure is the center.

    segments is a sequence of Segment or an (N, 4) array of rows
    [ax, ay, bx, by]; either is converted and checked once
    (geometry.segment_rows). The search is intervals.bisect_radius on
    the bracket [0, max(d0, dL) of segments[0]]. One array pass over all
    rows finds the rows that cannot own any part of the answer, and the
    radius R_s from which the union covers [0, L] (_owning_rows); the
    search runs on a SegmentArray of the rest, at every N. A pass of it
    takes the union of the covering intervals at up to
    SegmentArray.radii_per_pass radii at once (union_covers_rows),
    answers covered unasked at every radius from R_s on, and guesses the
    path below its tree from the widest gap, known only where the union
    does not cover. The final radius, the distance from the witness to
    the nearest segment, comes from an array kernel over all rows with
    its near-ties recomputed by point_segment_distance, so every bit is
    that of the search over all rows.
    """
    cols = segment_rows(segments, L)
    domain = Interval(0.0, L)
    p = norm.p
    scale = max(float(np.abs(cols).max()), L)
    far = np.maximum(axis_distances(0.0, cols, p), axis_distances(L, cols, p))
    dmin = axis_distances(axis_argmin_abscissas(cols, L), cols, p)
    keep, R_s = _owning_rows(far, dmin, scale, p)
    arr = SegmentArray(cols[keep], norm)

    witnesses = {}

    def covered(radii):
        """Whether the union covers [0, L] at each radius, and the
        widest gap where not; radii from R_s on are covered unasked.
        Keeps the witness of every radius asked about."""
        ok = np.ones(len(radii), dtype=bool)
        margin = np.full(len(radii), math.nan)
        ask = radii < R_s
        if ask.any():
            ok[ask], witness, width = union_covers_rows(*arr.covering(radii[ask]), domain)
            margin[ask] = np.where(ok[ask], math.nan, width)
            witnesses.update(zip(radii[ask].tolist(), witness.tolist()))
        return ok, margin

    def nearest(x: float) -> float:
        return rescored_extreme(axis_distances(x, cols, p), x, cols, norm, tol, scale,
                                largest=False)

    if covered(np.array([0.0]))[0][0]:
        return PlacedCircle(0.0, 0.0)
    s0 = segments_from_columns(cols[:1])[0]
    hi = max(point_segment_distance(Point(0.0, 0.0), s0, norm, tol),
             point_segment_distance(Point(L, 0.0), s0, norm, tol))
    # the covering interval of s0 at radius hi spans [0, L] by convexity;
    # lo is 0 or a radius asked about that left a gap
    lo = bisect_radius(0.0, hi, covered, tol, arr.radii_per_pass)[0]
    witness = witnesses[lo]
    return PlacedCircle(witness, nearest(witness))
