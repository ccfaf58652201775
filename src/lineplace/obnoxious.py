"""Largest empty ball centered on [0, L]: envelope and search routes.

The objective max over x of min over segments of distance((x,0), s) is
solved two independent ways: a radius binary search over covering
intervals, and an explicit lower envelope of the per-segment distance
profiles along the axis. The envelope is built by divide and conquer
merges; each merge resolves ownership exactly by decomposing every
profile into convex cone and affine pieces, so cells where two
profiles cross twice (which defeats endpoint-sign tests) are handled.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import EmptyInput, NoCrossing
from .geometry import NormP, Point, Segment, Tolerance, _lp_pair, axis_argmin_exact, \
    equal_distance_point, point_segment_distance, segment_ox_intersection
from .intervals import covering_union
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

    @property
    def xmin(self) -> float:
        return self.pieces[0].a

    @property
    def xmax(self) -> float:
        return self.pieces[-1].b


def envelope_value(le: LowerEnvelope, segments, x: float, norm: NormP, tol: Tolerance) -> float:
    """Distance at x to the owning segment of the piece containing x."""
    starts = [pc.a for pc in le.pieces]
    i = bisect_right(starts, x) - 1
    if i < 0:
        i = 0
    return point_segment_distance(Point(x, 0.0), segments[le.pieces[i].seg_index], norm, tol)


# -- distance profiles -------------------------------------------------
#
# A profile is the function x -> distance((x,0), s) decomposed into
# pieces that are either a cone lp(x - c, h) or a nonnegative affine
# A*x + B. Cones are strictly convex with slope in (-1, 1) when h > 0;
# every affine piece has |A| <= 1. This is what makes the per-cell
# crossing analysis below exhaustive.

_CONE = 0
_AFFINE = 1


class _Profile:
    __slots__ = ("p", "pieces", "starts")

    def __init__(self, p: float, pieces):
        self.p = p
        self.pieces = pieces
        self.starts = [pc[0] for pc in pieces]

    def piece_at(self, x: float):
        i = bisect_right(self.starts, x) - 1
        if i < 0:
            i = 0
        return self.pieces[i]

    def value(self, x: float) -> float:
        xa, xb, kind, u, v = self.piece_at(x)
        if kind == _CONE:
            return _lp_pair(x - u, v, self.p)
        return u * x + v

    def knots_in(self, lo: float, hi: float):
        return [xs for xs in self.starts if lo < xs < hi]


def _append_affine_abs(pieces, A: float, B: float, lo: float, hi: float) -> None:
    """Emit |A*x + B| on (lo, hi) as one or two pure affine pieces."""
    if hi <= lo:
        return
    if A == 0.0:
        pieces.append((lo, hi, _AFFINE, 0.0, abs(B)))
        return
    sA = math.copysign(1.0, A)
    right = (abs(A), sA * B)
    left = (-abs(A), -sA * B)
    xz = -B / A
    if xz <= lo:
        pieces.append((lo, hi, _AFFINE, right[0], right[1]))
    elif xz >= hi:
        pieces.append((lo, hi, _AFFINE, left[0], left[1]))
    else:
        pieces.append((lo, xz, _AFFINE, left[0], left[1]))
        pieces.append((xz, hi, _AFFINE, right[0], right[1]))


def _append_cone(pieces, c: float, h: float, lo: float, hi: float) -> None:
    """Emit lp(x - c, h) on (lo, hi); a degenerate cone becomes affine."""
    if hi <= lo:
        return
    if h == 0.0:
        _append_affine_abs(pieces, 1.0, -c, lo, hi)
        return
    pieces.append((lo, hi, _CONE, c, h))


def _regime_boundary(ex: float, ey: float, U: float, V: float, p: float) -> float:
    """Abscissa where the nearest segment point stops being endpoint e.

    Solves the first-order condition of the parametric distance at the
    endpoint: the boundary is ex - |kappa|^(1/(p-1)) sign(kappa) with
    kappa = -(V/U) |ey|^(p-1) sign(ey). The root is taken factor by
    factor, as |V/U|^(1/(p-1)) |ey|, because |ey|^(p-1) alone overflows
    or underflows at large p. Overflow of the remaining power means the
    endpoint regime covers a whole half line.
    """
    if ey == 0.0 or V == 0.0:
        return ex
    kappa_sign = -math.copysign(1.0, V / U) * math.copysign(1.0, ey)
    try:
        mag = abs(V / U) ** (1.0 / (p - 1.0)) * abs(ey)
    except OverflowError:
        mag = _INF
    if math.isinf(mag):
        return -_INF if kappa_sign > 0.0 else _INF
    return ex - math.copysign(mag, kappa_sign)


def _build_profile_p1(seg: Segment):
    ax, ay = seg.a.x, seg.a.y
    bx, by = seg.b.x, seg.b.y
    if bx < ax:
        ax, ay, bx, by = bx, by, ax, ay
    U = bx - ax
    # candidate upper bounds, each affine on its validity range; the
    # profile is their pointwise minimum (nearest point is an endpoint,
    # the point straight above x, or the axis crossing)
    cand = []

    def add_point_cone(cx: float, h: float) -> None:
        cand.append((-_INF, cx, -1.0, cx + h))
        cand.append((cx, _INF, 1.0, h - cx))

    if U == 0.0:
        hmin = 0.0 if ay * by <= 0.0 else min(abs(ay), abs(by))
        pieces = []
        _append_cone(pieces, ax, hmin, -_INF, _INF)
        # p = 1 cones are themselves piecewise affine: split at the apex
        return _Profile(1.0, _split_p1_cones(pieces))

    add_point_cone(ax, abs(ay))
    add_point_cone(bx, abs(by))
    hit = segment_ox_intersection(Segment(Point(ax, ay), Point(bx, by)))
    if hit is not None:
        add_point_cone(hit[0], 0.0)
    mslope = (by - ay) / U
    if mslope == 0.0:
        cand.append((ax, bx, 0.0, abs(ay)))
    else:
        icept = ay - ax * mslope
        tmp = []
        _append_affine_abs(tmp, mslope, icept, ax, bx)
        cand.extend((lo, hi, A, B) for lo, hi, _k, A, B in tmp)

    brk = set()
    for lo, hi, _A, _B in cand:
        if math.isfinite(lo):
            brk.add(lo)
        if math.isfinite(hi):
            brk.add(hi)
    m = len(cand)
    for i in range(m):
        lo1, hi1, A1, B1 = cand[i]
        for j in range(i + 1, m):
            lo2, hi2, A2, B2 = cand[j]
            olo, ohi = max(lo1, lo2), min(hi1, hi2)
            if ohi <= olo or A1 == A2:
                continue
            xc = (B2 - B1) / (A1 - A2)
            if olo < xc < ohi:
                brk.add(xc)
    xs = sorted(brk)
    edges = [-_INF] + xs + [_INF]
    pieces = []
    for k in range(len(edges) - 1):
        lo, hi = edges[k], edges[k + 1]
        if hi <= lo:
            continue
        if math.isinf(lo):
            probe = hi - 1.0
        elif math.isinf(hi):
            probe = lo + 1.0
        else:
            probe = 0.5 * (lo + hi)
        best = None
        for clo, chi, A, B in cand:
            if clo <= probe <= chi:
                val = A * probe + B
                if best is None or val < best[0]:
                    best = (val, A, B)
        _A, _B = best[1], best[2]
        if pieces and pieces[-1][3] == _A and pieces[-1][4] == _B:
            prev = pieces.pop()
            pieces.append((prev[0], hi, _AFFINE, _A, _B))
        else:
            pieces.append((lo, hi, _AFFINE, _A, _B))
    return _Profile(1.0, pieces)


def _split_p1_cones(pieces):
    out = []
    for lo, hi, kind, u, v in pieces:
        if kind == _CONE:
            if lo < u < hi:
                out.append((lo, u, _AFFINE, -1.0, u + v))
                out.append((u, hi, _AFFINE, 1.0, v - u))
            elif u >= hi:
                out.append((lo, hi, _AFFINE, -1.0, u + v))
            else:
                out.append((lo, hi, _AFFINE, 1.0, v - u))
        else:
            out.append((lo, hi, kind, u, v))
    return out


def _build_profile_general(seg: Segment, p: float):
    ax, ay = seg.a.x, seg.a.y
    bx, by = seg.b.x, seg.b.y
    if bx < ax:
        ax, ay, bx, by = bx, by, ax, ay
    U = bx - ax
    V = by - ay
    pieces = []
    if U == 0.0:
        hmin = 0.0 if ay * by <= 0.0 else min(abs(ay), abs(by))
        _append_cone(pieces, ax, hmin, -_INF, _INF)
        return _Profile(p, pieces)
    ps = p / (p - 1.0)
    mx = max(abs(V), U)
    nrm = mx * ((abs(V) / mx) ** ps + (U / mx) ** ps) ** (1.0 / ps)
    A = V / nrm
    B = (U * ay - V * ax) / nrm
    w1 = _regime_boundary(ax, ay, U, V, p)
    w2 = _regime_boundary(bx, by, U, V, p)
    if w1 > w2:
        w1 = w2 = 0.5 * (w1 + w2)
    _append_cone(pieces, ax, abs(ay), -_INF, w1)
    _append_affine_abs(pieces, A, B, max(w1, -_INF), min(w2, _INF))
    _append_cone(pieces, bx, abs(by), w2, _INF)
    if not pieces:
        # both boundaries collapsed to infinities of the same side
        _append_cone(pieces, ax, abs(ay), -_INF, _INF)
    return _Profile(p, pieces)


def _get_profile(cache, segments, idx: int, p: float):
    prof = cache.get(idx)
    if prof is None:
        if p == 1.0:
            prof = _build_profile_p1(segments[idx])
        else:
            prof = _build_profile_general(segments[idx], p)
        cache[idx] = prof
    return prof


# -- per-cell crossing analysis ----------------------------------------


def _refine_root(f, a: float, b: float, fa_pos: bool, eps: float, max_iters: int) -> float:
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
    located from its closed-form interior minimum.
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

    absA = abs(A)
    if absA >= 1.0:
        return sign_change_root()
    rho = absA ** (p / (p - 1.0))
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


def _resolve_cell(u, v, i, j, prof_i, prof_j, segments, norm, tol):
    """Ownership stretches of cell [u, v] where owners i and j differ."""
    p = norm.p
    knots = sorted(set(prof_i.knots_in(u, v) + prof_j.knots_in(u, v)))
    roots = []
    if not knots:
        ga = prof_i.value(u) - prof_j.value(u)
        gb = prof_i.value(v) - prof_j.value(v)
        if p != 2.0 and ga != 0.0 and gb != 0.0 and (ga > 0.0) != (gb > 0.0):
            try:
                roots = [equal_distance_point(segments[i], segments[j], u, v, norm, tol)]
            except NoCrossing:
                roots = _subcell_roots(prof_i, prof_j, u, v, p, tol)
        else:
            roots = _subcell_roots(prof_i, prof_j, u, v, p, tol)
    else:
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


def base_envelope(seg_index: int, seg: Segment, L: float, norm: NormP,
                  tol: Tolerance) -> LowerEnvelope:
    """Single-segment envelope, split at the constrained minimiser."""
    xm = axis_argmin_exact(seg, L, norm, tol)[0]
    raw = LowerEnvelope((EnvelopePiece(0.0, xm, seg_index),
                         EnvelopePiece(xm, L, seg_index)))
    return _compact_pieces(raw, {seg_index: xm}, 0.5 * tol.eps)


def _compact_pieces(le: LowerEnvelope, xmins, sliver: float = 0.0) -> LowerEnvelope:
    # pieces narrower than the root refinement resolution are merge
    # order noise, not certified ownership; absorbing them keeps both
    # build orders on the same piece list
    pieces = list(le.pieces)
    keep = [pc for pc in pieces if pc.b - pc.a > sliver]
    if not keep:
        return LowerEnvelope((EnvelopePiece(pieces[0].a, pieces[-1].b,
                                            pieces[0].seg_index),))
    spans = []
    cursor = pieces[0].a
    for pc in keep:
        spans.append((cursor, pc.b, pc.seg_index))
        cursor = pc.b
    la, _, ls = spans[-1]
    spans[-1] = (la, pieces[-1].b, ls)
    out = [spans[0]]
    for a, b, s in spans[1:]:
        pa, pb, ps = out[-1]
        if s == ps and pb != xmins.get(s):
            out[-1] = (pa, b, ps)
        else:
            out.append((a, b, s))
    return LowerEnvelope(tuple(EnvelopePiece(a, b, s) for a, b, s in out))


def compact(le: LowerEnvelope, segments, norm: NormP, tol: Tolerance) -> LowerEnvelope:
    """Fuse same-owner neighbours and absorb sub-resolution pieces.

    A shared endpoint that exactly equals the owner's constrained
    minimiser is kept as a breakpoint. Pieces narrower than half of
    tol.eps fold into a neighbour, since boundary roots are only
    refined to a quarter of tol.eps. A fully degenerate envelope
    (L = 0) keeps one zero-width piece. Idempotent.
    """
    L = le.pieces[-1].b
    xmins = {}
    for pc in le.pieces:
        if pc.seg_index not in xmins:
            xmins[pc.seg_index] = axis_argmin_exact(segments[pc.seg_index], L, norm, tol)[0]
    return _compact_pieces(le, xmins, 0.5 * tol.eps)


def _merge_raw(e1: LowerEnvelope, e2: LowerEnvelope, segments,
               norm: NormP, tol: Tolerance, _cache) -> list:
    """Cellwise minimum of two envelopes over the same span, uncompacted."""
    p = norm.p
    bounds = sorted({pc.a for pc in e1.pieces} | {pc.b for pc in e1.pieces}
                    | {pc.a for pc in e2.pieces} | {pc.b for pc in e2.pieces})
    i1 = i2 = 0
    p1, p2 = e1.pieces, e2.pieces
    raw = []
    for k in range(len(bounds) - 1):
        u, v = bounds[k], bounds[k + 1]
        if v <= u:
            continue
        while i1 + 1 < len(p1) and p1[i1].b <= u:
            i1 += 1
        while i2 + 1 < len(p2) and p2[i2].b <= u:
            i2 += 1
        oi, oj = p1[i1].seg_index, p2[i2].seg_index
        if oi == oj:
            raw.append((u, v, oi))
            continue
        prof_i = _get_profile(_cache, segments, oi, p)
        prof_j = _get_profile(_cache, segments, oj, p)
        raw.extend(_resolve_cell(u, v, oi, oj, prof_i, prof_j, segments, norm, tol))
    if not raw:
        raw = [(e1.pieces[0].a, e1.pieces[-1].b, min(p1[0].seg_index, p2[0].seg_index))]
    return raw


def merge_lower_envelopes(e1: LowerEnvelope, e2: LowerEnvelope, segments,
                          norm: NormP, tol: Tolerance, _cache=None) -> LowerEnvelope:
    """Pointwise minimum of two envelopes over the same [0, L]."""
    if _cache is None:
        _cache = {}
    raw = _merge_raw(e1, e2, segments, norm, tol, _cache)
    merged = LowerEnvelope(tuple(EnvelopePiece(a, b, s) for a, b, s in raw))
    return compact(merged, segments, norm, tol)


def _envelope_peak(env: LowerEnvelope, segments, norm: NormP, tol: Tolerance) -> float:
    """Exact maximum of the envelope value over its span.

    Each piece's distance profile is convex, so the maximum of the
    pointwise minimum sits at a piece boundary or a domain end.
    """
    peak = 0.0
    for pc in env.pieces:
        for x in (pc.a, pc.b):
            d = point_segment_distance(Point(x, 0.0), segments[pc.seg_index],
                                       norm, tol)
            if d > peak:
                peak = d
    return peak


def _fold_one(env: LowerEnvelope, base: LowerEnvelope, lo_x: float, hi_x: float,
              segments, xmins, norm: NormP, tol: Tolerance, cache) -> LowerEnvelope:
    """Merge a single-segment envelope into env inside [lo_x, hi_x] only.

    The caller guarantees the new segment strictly loses outside the
    window, so pieces there are spliced through untouched. Compaction
    runs on the rewritten slice plus two flanking pieces on each side,
    which bounds how far same-owner fusion can propagate.
    """
    pieces = env.pieces
    m = len(pieces)
    ilo = bisect_right(pieces, lo_x, key=lambda pc: pc.b)
    ilo = min(ilo, m - 1)
    ihi = bisect_left(pieces, hi_x, key=lambda pc: pc.a) - 1
    ihi = min(max(ihi, ilo), m - 1)
    span_a, span_b = pieces[ilo].a, pieces[ihi].b
    sub = LowerEnvelope(pieces[ilo:ihi + 1])
    clipped = tuple(EnvelopePiece(max(pc.a, span_a), min(pc.b, span_b), pc.seg_index)
                    for pc in base.pieces if pc.b > span_a and pc.a < span_b)
    raw = _merge_raw(sub, LowerEnvelope(clipped), segments, norm, tol, cache)
    head, tail = max(ilo - 2, 0), min(ihi + 3, m)
    local = list(pieces[head:ilo])
    local.extend(EnvelopePiece(a, b, s) for a, b, s in raw)
    local.extend(pieces[ihi + 1:tail])
    fused = _compact_pieces(LowerEnvelope(tuple(local)), xmins, 0.5 * tol.eps).pieces
    return LowerEnvelope(pieces[:head] + fused + pieces[tail:])


def compute_lower_envelope(segments, L: float, norm: NormP, tol: Tolerance,
                           split: str = "halves") -> LowerEnvelope:
    """Lower envelope of all segment profiles over [0, L].

    split="halves" merges recursively; split="one-off" folds segments
    into the running envelope one at a time. Both produce the same
    envelope up to root refinement tolerance. The fold skips segments
    whose least distance over the domain already exceeds the envelope
    peak, and contests only the x range where the newcomer can win:
    outside it the horizontal gap to the segment's x extent (a lower
    bound on the distance in every norm here) beats the peak.
    """
    segs = list(segments)
    n = len(segs)
    if n == 0:
        raise EmptyInput("need at least one segment")
    if L < 0.0 or not math.isfinite(L):
        raise ValueError("L must be finite and nonnegative")
    cache = {}
    if split == "halves":
        def build(lo: int, hi: int) -> LowerEnvelope:
            if hi - lo == 1:
                return base_envelope(lo, segs[lo], L, norm, tol)
            mid = (lo + hi) // 2
            return merge_lower_envelopes(build(lo, mid), build(mid, hi),
                                         segs, norm, tol, _cache=cache)
        env = build(0, n)
    elif split == "one-off":
        xmins = {}

        def base(i: int):
            xm, vm = axis_argmin_exact(segs[i], L, norm, tol)
            xmins[i] = xm
            raw = LowerEnvelope((EnvelopePiece(0.0, xm, i),
                                 EnvelopePiece(xm, L, i)))
            return _compact_pieces(raw, xmins, 0.5 * tol.eps), vm

        env, _ = base(0)
        if L == 0.0:
            for i in range(1, n):
                env = merge_lower_envelopes(env, base(i)[0], segs, norm, tol,
                                            _cache=cache)
        else:
            peak = _envelope_peak(env, segs, norm, tol)
            accepted = 0
            for i in range(1, n):
                be, vmin = base(i)
                if vmin > peak:
                    continue
                # the newcomer can only beat values <= peak, so only the
                # x range of its portion within peak of the axis, padded
                # by peak, can change ownership
                ax, ay = segs[i].a.x, segs[i].a.y
                bx, by = segs[i].b.x, segs[i].b.y
                if ay == by:
                    u1, u2 = min(ax, bx), max(ax, bx)
                else:
                    ta = (peak - ay) / (by - ay)
                    tb = (-peak - ay) / (by - ay)
                    t1 = max(0.0, min(ta, tb))
                    t2 = min(1.0, max(ta, tb))
                    if t1 > t2:
                        continue
                    xa = ax + t1 * (bx - ax)
                    xb = ax + t2 * (bx - ax)
                    u1, u2 = (xa, xb) if xa <= xb else (xb, xa)
                lo_x = max(u1 - peak, 0.0)
                hi_x = min(u2 + peak, L)
                if lo_x > hi_x:
                    continue
                env = _fold_one(env, be, lo_x, hi_x, segs, xmins, norm, tol, cache)
                accepted += 1
                if accepted % 32 == 0:
                    peak = _envelope_peak(env, segs, norm, tol)
    else:
        raise ValueError(f"unknown split {split!r}")
    assert env.pieces[0].a == 0.0 and env.pieces[-1].b == L
    assert all(env.pieces[k].b == env.pieces[k + 1].a for k in range(len(env.pieces) - 1))
    return env


def largest_empty_from_envelope(le: LowerEnvelope, segments, norm: NormP,
                                tol: Tolerance) -> PlacedCircle:
    """Maximise the envelope; the max sits at a piece boundary.

    Every piece is convex, so local maxima of the pointwise minimum can
    only occur where ownership changes or at the domain ends. Ties
    resolve to the smallest abscissa.
    """
    owners = {}
    for pc in le.pieces:
        owners.setdefault(pc.a, set()).add(pc.seg_index)
        owners.setdefault(pc.b, set()).add(pc.seg_index)
    best_x, best = None, -_INF
    for x in sorted(owners):
        val = min(point_segment_distance(Point(x, 0.0), segments[s], norm, tol)
                  for s in owners[x])
        if val > best:
            best_x, best = x, val
    return PlacedCircle(best_x, best)


def max_empty_binsearch(segments, L: float, norm: NormP, tol: Tolerance) -> PlacedCircle:
    """Binary search the largest radius whose covering intervals fail
    to cover [0, L]; the witness of the failure is the center."""
    segs = list(segments)
    if not segs:
        raise EmptyInput("need at least one segment")
    if L < 0.0 or not math.isfinite(L):
        raise ValueError("L must be finite and nonnegative")
    gaps = covering_union(segs, L, norm, tol)
    if gaps(0.0)[0]:
        return PlacedCircle(0.0, 0.0)
    s0 = segs[0]
    hi = max(point_segment_distance(Point(0.0, 0.0), s0, norm, tol),
             point_segment_distance(Point(L, 0.0), s0, norm, tol))
    # the covering interval of s0 at radius hi spans [0, L] by convexity
    hi = hi + max(tol.eps, 1e-12 * hi)
    lo = 0.0
    it = 0
    while hi - lo > tol.eps and it < tol.max_iters:
        mid = 0.5 * (lo + hi)
        if gaps(mid)[0]:
            hi = mid
        else:
            lo = mid
        it += 1
    witness = gaps(lo)[1]
    radius = min(point_segment_distance(Point(witness, 0.0), s, norm, tol) for s in segs)
    return PlacedCircle(witness, radius)
