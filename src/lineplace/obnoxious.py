"""Largest empty ball centered on [0, L]: search and envelope routes.

The objective max over x of min over segments of distance((x,0), s) is
solved two independent ways. A solve takes the radius binary search
over covering intervals (max_empty_binsearch). The explicit lower
envelope of the per-segment distance profiles along the axis
(max_empty_envelope) is the route of `lineplace solve --verify` and a
test reference, which the package does not export; it stays in this
module because the benchmark imports compute_lower_envelope and
largest_empty_from_envelope from here. The envelope has one build:
divide and conquer merges of the envelopes of the two halves of the
segments, one cell at a time, over one scalar profile per segment.
Each merge resolves the ownership of every cell of two owners exactly,
by decomposing every profile into convex cone and affine pieces, so
cells where two profiles cross twice (which defeats endpoint-sign
tests) are handled. The crossings are closed forms at p = 1 and 2 and
bisected at other p. The maximum is read off the pieces by folding
point_segment_distance over their distinct ends. The one-off fold,
which adds the segments to the running envelope one at a time, each
merged over its whole window, is the test reference
_reference.envelope_one_off.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .geometry import NormP, Point, Tolerance, _lp_pair, axis_argmin_abscissas, \
    axis_distances, point_segment_distance, rescored_extreme, segment_columns, segment_rows, \
    segments_from_columns
from .intervals import MAX_RADII, Interval, SegmentArray, bisect_radius, covering_slack, \
    union_covers_rows, union_gaps
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


# -- distance profiles ---------------------------------------------------
#
# A profile is the function x -> distance((x,0), s) decomposed into
# pieces (lo, hi, kind, u, v): a cone lp(x - u, v) or a nonnegative
# affine u*x + v. Cones are strictly convex with slope in (-1, 1) when
# v > 0; every affine piece has |u| <= 1. This is what makes the
# per-cell crossing analysis below exhaustive. One builder serves every
# p: the distance to endpoint a, to the supporting line, then to
# endpoint b, split at the regime boundaries. At p = 1 it takes the
# p -> 1 limit of each part (the line's dual norm becomes the max norm)
# and splits the cones |x - c| + h at their apex, so every p = 1 piece
# is affine. The pieces tile the axis, the first from -inf and the last
# to +inf: a piece ends where the next starts, so piece_at finds a
# piece at every x.

_CONE = 0
_AFFINE = 1


class _Profile:
    __slots__ = ("p", "pieces", "starts")

    def __init__(self, p: float, pieces):
        self.p = p
        self.pieces = pieces
        self.starts = [pc[0] for pc in pieces]

    def piece_at(self, x: float):
        return self.pieces[bisect_right(self.starts, x) - 1]

    def value(self, x: float) -> float:
        xa, xb, kind, u, v = self.piece_at(x)
        if kind == _CONE:
            return _lp_pair(x - u, v, self.p)
        return u * x + v

    def knots_in(self, lo: float, hi: float):
        return [xs for xs in self.starts if lo < xs < hi]


def _append_affine_abs(pieces, A: float, B: float, lo: float, hi: float, h: float = 0.0) -> None:
    """Emit |A*x + B| + h on (lo, hi) as one or two pure affine pieces;
    a sloped offset gets h only where h is nonzero, so that -0.0 keeps
    its sign."""
    if hi <= lo:
        return
    if A == 0.0:
        pieces.append((lo, hi, _AFFINE, 0.0, abs(B) + h))
        return
    sA = math.copysign(1.0, A)
    rb, lb = sA * B, -sA * B
    if h != 0.0:
        rb, lb = rb + h, lb + h
    right = (_AFFINE, abs(A), rb)
    left = (_AFFINE, -abs(A), lb)
    xz = -B / A
    if xz <= lo:
        pieces.append((lo, hi) + right)
    elif xz >= hi:
        pieces.append((lo, hi) + left)
    else:
        pieces.extend(((lo, xz) + left, (xz, hi) + right))


def _append_cone(pieces, c: float, h: float, lo: float, hi: float, p: float) -> None:
    """Emit lp(x - c, h) on (lo, hi). A degenerate cone, and every cone
    at p = 1, where it is |x - c| + h, becomes affine pieces split at
    the apex."""
    if hi <= lo:
        return
    if h == 0.0 or p == 1.0:
        _append_affine_abs(pieces, 1.0, -c, lo, hi, h)
        return
    pieces.append((lo, hi, _CONE, c, h))


def _regime_boundary(ex: float, ey: float, U: float, V: float, p: float) -> float:
    """Abscissa where the nearest segment point stops being endpoint e.

    Solves the first-order condition of the parametric distance at the
    endpoint: the boundary is ex - |kappa|^(1/(p-1)) sign(kappa) with
    kappa = -(V/U) |ey|^(p-1) sign(ey). The root is taken factor by
    factor, as |V/U|^(1/(p-1)) |ey|, because |ey|^(p-1) alone overflows
    or underflows at large p. Overflow of the remaining power means the
    endpoint regime covers a whole half line. At p = 1 the power takes
    its p -> 1 limit: 0 when |V| < U, 1 when |V| = U and infinity when
    |V| > U, so the boundary is the endpoint itself, ex -/+ |ey|, or an
    infinity.
    """
    if ey == 0.0 or V == 0.0:
        return ex
    kappa_sign = -math.copysign(1.0, V / U) * math.copysign(1.0, ey)
    if p == 1.0:
        root = 0.0 if abs(V) < U else (1.0 if abs(V) == U else _INF)
    else:
        try:
            root = abs(V / U) ** (1.0 / (p - 1.0))
        except OverflowError:
            root = _INF
    # an infinite magnitude puts the boundary at the matching infinity
    return ex - math.copysign(root * abs(ey), kappa_sign)


def _build_profile(ax: float, ay: float, bx: float, by: float, p: float) -> _Profile:
    """The profile of the segment from (ax, ay) to (bx, by)."""
    if bx < ax:
        ax, ay, bx, by = bx, by, ax, ay
    U = bx - ax
    V = by - ay
    pieces = []
    if U == 0.0:
        hmin = 0.0 if ay * by <= 0.0 else min(abs(ay), abs(by))
        _append_cone(pieces, ax, hmin, -_INF, _INF, p)
    else:
        # distance to the supporting line: |V x - (U ay - V ax)| over the
        # dual norm of (V, U), which is the max norm at p = 1
        mx = max(abs(V), U)
        if p == 1.0:
            nrm = mx
        else:
            ps = p / (p - 1.0)
            nrm = mx * ((abs(V) / mx) ** ps + (U / mx) ** ps) ** (1.0 / ps)
        A = V / nrm
        B = (U * ay - V * ax) / nrm
        w1 = _regime_boundary(ax, ay, U, V, p)
        w2 = _regime_boundary(bx, by, U, V, p)
        if w1 > w2:
            w1 = w2 = 0.5 * (w1 + w2)
        _append_cone(pieces, ax, abs(ay), -_INF, w1, p)
        _append_affine_abs(pieces, A, B, w1, w2)
        _append_cone(pieces, bx, abs(by), w2, _INF, p)
        if not pieces:
            # both boundaries collapsed to infinities of the same side
            _append_cone(pieces, ax, abs(ay), -_INF, _INF, p)
    return _Profile(p, pieces)


# -- per-cell crossing analysis ----------------------------------------


def _refine_root(f, a: float, b: float, fa_pos: bool, eps: float, max_iters: int) -> float:
    """Bisect the sign change of f in [a, b], where f(a) > 0 iff fa_pos,
    to a bracket no wider than eps or for max_iters halvings, and return
    its midpoint, or a midpoint where f is exactly 0."""
    it = 0
    while b - a > eps and it < max_iters:
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm > 0.0) == fa_pos:
            a = m
        else:
            b = m
        it += 1
    return 0.5 * (a + b)


def _quad_roots(alpha: float, beta: float, gamma: float):
    if alpha == 0.0:
        if beta == 0.0:
            return []
        return [-gamma / beta]
    disc = beta * beta - 4.0 * alpha * gamma
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    q = -0.5 * (beta + math.copysign(sq, beta))
    if q == 0.0:
        return [0.0] if gamma == 0.0 else []
    r1 = q / alpha
    r2 = gamma / q
    return [r1] if r1 == r2 else [r1, r2]


def _subcell_roots(prof_i, prof_j, a: float, b: float, p: float, tol: Tolerance):
    """Equal-distance points strictly inside (a, b).

    (a, b) lies within a single piece of each profile. Case analysis:
    two affines cross at most once; cone vs cone crosses at most once
    (the p-th power difference of the offsets is strictly monotone);
    cone vs affine differs by a convex function, so up to two roots,
    located from its closed-form interior minimum. The cone crossings
    are closed forms at p = 2 and bisected (_refine_root) to a bracket of
    tol.eps / 4 at other p, so each lies within tol.eps / 8 of a sign
    change of the computed difference.
    """
    mid = 0.5 * (a + b)
    xa1, xb1, k1, u1, v1 = prof_i.piece_at(mid)
    xa2, xb2, k2, u2, v2 = prof_j.piece_at(mid)
    eps = tol.eps / 4.0

    if k1 == _AFFINE and k2 == _AFFINE:
        if u1 == u2:
            return []
        xr = (v2 - v1) / (u1 - u2)
        return [xr] if a < xr < b else []

    if k1 == _CONE and k2 == _CONE:
        c1, h1, c2, h2 = u1, v1, u2, v2
        if c1 == c2:
            return []
        if p == 2.0:
            xr = (c2 * c2 + h2 * h2 - c1 * c1 - h1 * h1) / (2.0 * (c2 - c1))
            return [xr] if a < xr < b else []
        ga = _lp_pair(a - c1, h1, p) - _lp_pair(a - c2, h2, p)
        gb = _lp_pair(b - c1, h1, p) - _lp_pair(b - c2, h2, p)
        if ga == 0.0 or gb == 0.0 or (ga > 0.0) == (gb > 0.0):
            return []
        g = lambda x: _lp_pair(x - c1, h1, p) - _lp_pair(x - c2, h2, p)
        return [_refine_root(g, a, b, ga > 0.0, eps, tol.max_iters)]

    # one cone, one affine
    if k1 == _CONE:
        c, h, A, B = u1, v1, u2, v2
    else:
        c, h, A, B = u2, v2, u1, v1

    if p == 2.0:
        alpha = 1.0 - A * A
        beta = -2.0 * (c + A * B)
        gamma = c * c + h * h - B * B
        roots = _quad_roots(alpha, beta, gamma)
        return sorted(x for x in roots if a < x < b and A * x + B >= 0.0)

    psi = lambda x: _lp_pair(x - c, h, p) - (A * x + B)

    def sign_change_root():
        pa, pb = psi(a), psi(b)
        if pa == 0.0 or pb == 0.0 or (pa > 0.0) == (pb > 0.0):
            return []
        return [_refine_root(psi, a, b, pa > 0.0, eps, tol.max_iters)]

    # |A| <= 1, so the power cannot overflow
    rho = abs(A) ** (p / (p - 1.0))
    if rho >= 1.0:
        return sign_change_root()
    xhat = c + math.copysign(h * (rho / (1.0 - rho)) ** (1.0 / p), A)
    if not (a < xhat < b):
        return sign_change_root()
    pm = psi(xhat)
    if pm >= 0.0:
        return []
    roots = []
    pa = psi(a)
    if pa > 0.0:
        roots.append(_refine_root(psi, a, xhat, True, eps, tol.max_iters))
    pb = psi(b)
    if pb > 0.0:
        roots.append(_refine_root(psi, xhat, b, False, eps, tol.max_iters))
    return roots


def _resolve_cell(u, v, i, j, prof_i, prof_j, tol):
    """Ownership stretches of cell [u, v] where owners i and j differ.

    The knots of both profiles split the cell into subcells that each
    lie within one piece of each profile, where _subcell_roots finds
    every equal-distance point.
    """
    p = prof_i.p
    knots = sorted(set(prof_i.knots_in(u, v) + prof_j.knots_in(u, v)))
    roots = []
    edges = [u] + knots + [v]
    for k in range(len(edges) - 1):
        if edges[k + 1] > edges[k]:
            roots.extend(_subcell_roots(prof_i, prof_j, edges[k], edges[k + 1], p, tol))

    cuts = sorted(knots + roots)
    kept = []
    for x in cuts:
        if x <= u or x >= v:
            continue
        if kept and x - kept[-1] <= tol.eps / 8.0:
            continue
        kept.append(x)
    edges = [u] + kept + [v]
    out = []
    for k in range(len(edges) - 1):
        a, b = edges[k], edges[k + 1]
        if b <= a:
            continue
        m = 0.5 * (a + b)
        di = prof_i.value(m)
        dj = prof_j.value(m)
        if di < dj:
            owner = i
        elif dj < di:
            owner = j
        else:
            owner = min(i, j)
        if out and out[-1][2] == owner:
            out[-1] = (out[-1][0], b, owner)
        else:
            out.append((a, b, owner))
    return out


# -- envelope assembly --------------------------------------------------
#
# Inside the build an envelope is a list of (a, b, seg_index) tuples
# that tile its span left to right; compute_lower_envelope wraps the
# final one in EnvelopePiece and LowerEnvelope.


def _compact_pieces(pieces, tol: Tolerance) -> list:
    # Pieces narrower than half of tol.eps are merge order noise, not
    # certified ownership: each folds into the next kept piece (the
    # last kept one reaches the end). Where eps is fine against the
    # gaps between crossings, this keeps both build orders on the same
    # owners; at a coarse eps the two orders can leave different
    # slivers, and their piece lists can differ. Same-owner neighbours
    # fuse, so every piece is a maximal ownership run
    sliver = 0.5 * tol.eps
    keep = [pc for pc in pieces if pc[1] - pc[0] > sliver]
    if not keep:
        return [(pieces[0][0], pieces[-1][1], pieces[0][2])]
    out = []
    cursor = pieces[0][0]
    for _, b, s in keep:
        if out and out[-1][2] == s:
            out[-1] = (out[-1][0], b, s)
        else:
            out.append((cursor, b, s))
        cursor = b
    out[-1] = (out[-1][0], pieces[-1][1], out[-1][2])
    return out


def _merge_raw(e1, e2, profiles, tol: Tolerance) -> list:
    """Cellwise minimum of two envelopes over the same span, uncompacted.

    profiles holds the _Profile of every segment, by index. A cell
    whose two owners differ goes to _resolve_cell.
    """
    bounds = sorted({x for a, b, _ in e1 for x in (a, b)} | {x for a, b, _ in e2 for x in (a, b)})
    i1 = i2 = 0
    n1, n2 = len(e1) - 1, len(e2) - 1
    raw = []
    for k in range(len(bounds) - 1):
        u, v = bounds[k], bounds[k + 1]
        if v <= u:
            continue
        while i1 < n1 and e1[i1][1] <= u:
            i1 += 1
        while i2 < n2 and e2[i2][1] <= u:
            i2 += 1
        oi, oj = e1[i1][2], e2[i2][2]
        if oi == oj:
            raw.append((u, v, oi))
            continue
        raw.extend(_resolve_cell(u, v, oi, oj, profiles[oi], profiles[oj], tol))
    if not raw:
        # a one-point span (L = 0): the nearer owner, ties to the lower index
        x = e1[0][0]
        owner = min((e1[0][2], e2[0][2]),
                    key=lambda s: (profiles[s].value(x), s))
        raw = [(x, x, owner)]
    return raw


def _envelope_pieces(segments, L: float, p: float, tol: Tolerance) -> list:
    """Lower envelope of the profiles of segments, a sequence of Segment
    or an (N, 4) array of rows [ax, ay, bx, by] (geometry.segment_rows),
    over [0, L], as (a, b, seg_index) tuples of its pieces, left to
    right, by merging the envelopes of the two halves of the segments
    recursively.

    The rows are converted once into one _Profile per segment, which
    every merge reads. A single segment's envelope is the one piece
    (0, L, i). The envelope of segments lo..hi-1 is the merge of those
    of lo..mid-1 and mid..hi-1, mid = (lo + hi) // 2: N - 1 merges in
    all. Every merge resolves each cell of two owners (_merge_raw) and
    then fuses same-owner neighbours (_compact_pieces), so the pieces
    are maximal ownership runs: no two neighbours share an owner. The
    envelope's maximum lies where ownership changes or at 0 or L, never
    inside one owner's run, since each profile is convex. At L = 0 every
    merge has no cell of positive width and keeps the owner nearer to
    the origin, ties to the lower index.
    """
    cols = segment_rows(segments, L)
    profiles = [_build_profile(ax, ay, bx, by, p) for ax, ay, bx, by in cols.tolist()]

    def build(lo: int, hi: int) -> list:
        if hi - lo == 1:
            return [(0.0, L, lo)]
        mid = (lo + hi) // 2
        return _compact_pieces(_merge_raw(build(lo, mid), build(mid, hi), profiles, tol), tol)

    return build(0, len(cols))


def compute_lower_envelope(segments, L: float, norm: NormP, tol: Tolerance,
                           split: str = "halves") -> LowerEnvelope:
    """Lower envelope of all segment profiles over [0, L], by merging the
    envelopes of the two halves of the segments recursively
    (_envelope_pieces), as EnvelopePiece and LowerEnvelope objects.

    segments is a sequence of Segment or an (N, 4) array of rows [ax,
    ay, bx, by]. max_empty_envelope, the route of --verify, maximises
    the pieces of the build and makes none of these objects.

    split selects nothing: "halves" and "one-off" both build by halves,
    and any other value raises ValueError. It stays only for the
    callers under bench/ that still pass it, and goes with them in the
    benchmark change of ROADMAP item 1b. The one-off fold is the test
    reference _reference.envelope_one_off.
    """
    if split not in ("halves", "one-off"):
        raise ValueError(f"unknown split {split!r}")
    pieces = _envelope_pieces(segments, L, norm.p, tol)
    return LowerEnvelope(tuple(EnvelopePiece(a, b, s) for a, b, s in pieces))


def _largest_empty(pieces, cols: np.ndarray, norm: NormP, tol: Tolerance) -> PlacedCircle:
    """Maximise the envelope of pieces, (a, b, seg_index) tuples of the
    rows of cols; the max sits at a piece boundary.

    Every piece is convex, so local maxima of the pointwise minimum can
    only occur where ownership changes or at the domain ends. The value
    at a piece end is the least point_segment_distance to the owners of
    the pieces that end or start there, and the result folds these
    values over the distinct ends in ascending order with a strict >:
    ties resolve to the smallest abscissa, and a NaN at the first end,
    from overflowed coordinates, is kept for PlacedCircle to reject.
    Segment objects are made for the owners alone.
    """
    owners = {}
    for a, b, s in pieces:
        owners.setdefault(a, []).append(s)
        owners.setdefault(b, []).append(s)
    used = sorted({s for _, _, s in pieces})
    segs = dict(zip(used, segments_from_columns(cols[used])))
    best_x, best = None, -_INF
    for x in sorted(owners):
        # the owners in piece order, as a set built in that order
        val = min(point_segment_distance(Point(x, 0.0), segs[s], norm, tol)
                  for s in set(owners[x]))
        if best_x is None or val > best:
            best_x, best = x, val
    return PlacedCircle(best_x, best)


def largest_empty_from_envelope(le: LowerEnvelope, segments, norm: NormP,
                                tol: Tolerance) -> PlacedCircle:
    """Maximise the envelope le of segments, a sequence of Segment or an
    (N, 4) array of rows [ax, ay, bx, by] (see _largest_empty)."""
    return _largest_empty([(pc.a, pc.b, pc.seg_index) for pc in le.pieces],
                          segment_columns(segments), norm, tol)


def max_empty_envelope(segments, L: float, norm: NormP, tol: Tolerance) -> PlacedCircle:
    """The envelope route: build the lower envelope of segments, a
    sequence of Segment or an (N, 4) array of rows [ax, ay, bx, by]
    (_envelope_pieces), then maximise its pieces (_largest_empty); no
    EnvelopePiece is made."""
    cols = segment_columns(segments)
    return _largest_empty(_envelope_pieces(cols, L, norm.p, tol), cols, norm, tol)


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


class _GapAnchor:
    """The rows that max_empty_binsearch's covering test reads inside
    the current bracket: all kept rows, or those that can reach the
    gaps left at a lower radius, the anchor.

    e(R) = eta R + c is the band of covering_slack: a row's computed
    interval at R lies between its exact intervals at R - e and R + e,
    exact intervals grow with R, and R - e and R + e grow with R.
    Let r1 be a radius whose union leaves the gaps G and covers the
    stretches C of [0, L]. At every R with R - e(R) >= r1 + e(r1) each
    row's computed interval holds its interval at r1, so the union of
    all rows covers C. At h' with h' - e(h') >= h + e(h) each row's
    interval holds its intervals at every R <= h, so a row whose
    interval at h' misses every closed gap of G adds nothing to the
    union in [0, L] beyond C at those R. There the rows that meet G,
    with C as fixed intervals, have a union that meets [0, L] in the
    same set as the union of all rows, and union_covers_rows gives the
    same answer, witness and widest gap width, bit for bit.

    Before each pass, pass_size takes the bracket (lo, hi) of the
    search, and every radius asked from then on lies in (lo, hi]. lo
    left a gap, and r1 is a radius a band below it, r1 + e(r1) <= lo -
    e(lo), so r1 leaves a gap too and every later midpoint clears its
    band; h is hi, and h' = (h (1 + eta) + 2c) / (1 - eta) at h's eta.
    A covering pass at r1 and one at h' move the anchor: over the rows
    and fixed stretches of the previous anchor when r1 lies in that
    one's bracket, else over all kept rows. When only hi has moved, the
    pass at h' alone picks the rows again. The anchor moves while its
    rows keep a pass below MAX_RADII radii. Until one exists, and
    wherever covering_slack claims no bound or L = 0 (one point), a
    pass reads all kept rows.
    """

    def __init__(self, rows: np.ndarray, norm: NormP, domain: Interval, scale: float):
        self.rows, self.norm, self.domain, self.scale = rows, norm, domain, scale
        self.all = self.arr = SegmentArray(rows, norm)
        # the anchor's rows of rows, the bracket (lo, hi] where they
        # decide the union, its closed gaps and its covered stretches
        self.index = self.lo = self.hi = self.gaps = None
        self.fixed = (np.empty(0), np.empty(0))

    def _band(self, R: float) -> float:
        eta, c = covering_slack(R, self.scale, self.norm.p)
        return eta * R + c if eta < 1.0 else _INF

    def covering(self, radii: np.ndarray):
        """SegmentArray.covering of the rows that decide the union at
        radii, with the anchor's covered stretches as fixed columns."""
        if self.index is None or not (radii.min() > self.lo and radii.max() <= self.hi):
            return self.all.covering(radii)
        lo, hi = self.arr.covering(radii)
        shape = (len(radii), len(self.fixed[0]))
        return (np.concatenate((lo, np.broadcast_to(self.fixed[0], shape)), axis=1),
                np.concatenate((hi, np.broadcast_to(self.fixed[1], shape)), axis=1))

    def pass_size(self, lo: float, hi: float) -> int:
        """Move the anchor to the bracket (lo, hi) and return the radii
        that a pass over the rows it reads may ask."""
        if self.domain.hi > self.domain.lo and self.arr.radii_per_pass < MAX_RADII:
            self._move(lo, hi)
        return self.arr.radii_per_pass

    def _move(self, lo: float, hi: float) -> None:
        r1 = self._below(lo - self._band(lo))
        if self.index is not None and r1 is not None and r1 <= self.lo:
            r1 = None
        if r1 is None and (self.index is None or hi == self.hi):
            return
        # eta falls as R grows, so it is below 1 at hi > lo
        eta, c = covering_slack(hi, self.scale, self.norm.p)
        h2 = (hi * (1.0 + eta) + 2.0 * c) / (1.0 - eta)
        if r1 is not None:
            (a,), (b,) = self.arr.covering(np.array([r1]))
            self.gaps = union_gaps(np.append(a, self.fixed[0]), np.append(b, self.fixed[1]),
                                   self.domain)
            self.fixed, self.lo = self.gaps[2:], lo
            if self.index is None:
                self.index = np.arange(len(self.rows))
        (a,), (b,) = self.arr.covering(np.array([h2]))
        g_lo, g_hi = self.gaps[:2]
        k = np.minimum(np.searchsorted(g_hi, a), len(g_hi) - 1)
        self.index = self.index[(a <= g_hi[k]) & (b >= g_lo[k]) & (a <= b)]
        self.arr = SegmentArray(self.rows[self.index], self.norm)
        self.hi = hi

    def _below(self, top: float):
        """A radius r with r + e(r) <= top, or None. eta falls as R
        grows, so eta at top / 2 bounds it at every r >= top / 2."""
        eta, c = covering_slack(0.5 * top, self.scale, self.norm.p)
        r = (top - c) / (1.0 + eta)
        return r if r > 0.0 and r + self._band(r) <= top else None


def max_empty_binsearch(segments, L: float, norm: NormP, tol: Tolerance) -> PlacedCircle:
    """Binary search the largest radius whose covering intervals fail
    to cover [0, L]; the witness of the failure is the center.

    segments is a sequence of Segment or an (N, 4) array of rows
    [ax, ay, bx, by]; either is converted and checked once
    (geometry.segment_rows). The search is intervals.bisect_radius on
    the bracket [0, max(d0, dL) of segments[0]]. One array pass over all
    rows finds the rows that cannot own any part of the answer, and the
    radius R_s from which the union covers [0, L] (_owning_rows); the
    search runs on the rest, at every N. A pass of it takes the union of
    the covering intervals at up to SegmentArray.radii_per_pass radii
    at once (union_covers_rows), answers covered unasked at every radius
    from R_s on, and guesses the path below its tree from the widest
    gap, known only where the union does not cover. Once the bracket's
    lo is above 0, a pass reads only the rows that can reach the gaps
    left at an anchor radius a covering_slack band below lo, with the
    stretches covered there as fixed intervals, and asks as many radii
    as PASS_CELLS allows over those rows (_GapAnchor); the union is
    that of all kept rows, bit for bit. Where covering_slack claims no
    bound, and at L = 0, every pass reads all kept rows. The final
    radius, the distance from the witness to the nearest segment, comes
    from an array kernel over all rows with its near-ties recomputed by
    point_segment_distance, so every bit is that of the search over all
    rows.
    """
    cols = segment_rows(segments, L)
    domain = Interval(0.0, L)
    p = norm.p
    scale = max(float(np.abs(cols).max()), L)
    far = np.maximum(axis_distances(0.0, cols, p), axis_distances(L, cols, p))
    dmin = axis_distances(axis_argmin_abscissas(cols, L), cols, p)
    keep, R_s = _owning_rows(far, dmin, scale, p)
    rows = _GapAnchor(cols[keep], norm, domain, scale)

    witnesses = {}

    def covered(radii):
        """Whether the union covers [0, L] at each radius, and the
        widest gap where not; radii from R_s on are covered unasked.
        Keeps the witness of every radius asked about."""
        ok = np.ones(len(radii), dtype=bool)
        margin = np.full(len(radii), math.nan)
        ask = radii < R_s
        if ask.any():
            asked = radii[ask]
            ok[ask], witness, width = union_covers_rows(*rows.covering(asked), domain)
            margin[ask] = np.where(ok[ask], math.nan, width)
            witnesses.update(zip(asked.tolist(), witness.tolist()))
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
    lo = bisect_radius(0.0, hi, covered, tol, rows.pass_size)[0]
    witness = witnesses[lo]
    return PlacedCircle(witness, nearest(witness))
