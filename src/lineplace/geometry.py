"""Planar L_p geometry: norms, distances, axis frames and a root kernel.

Everything downstream works in an "axis frame" where the feasible
center line is the interval [0, L] of the horizontal axis. This module
provides the norm and tolerance types, exact point-to-segment
distances, the frame transform, the closed-form argmin along the
axis that the solvers build on, and the lockstep root kernel (rtsafe)
that finds k-cover's pair centers. Iterative second routes to these
quantities live in lineplace._reference, for the tests only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, NonIsometricRotation


@dataclass(frozen=True)
class NormP:
    """An L_p norm exponent, 1 <= p < infinity."""

    p: float

    def __post_init__(self) -> None:
        p = self.p
        if not isinstance(p, (int, float)) or isinstance(p, bool) or not math.isfinite(p):
            raise ValueError("norm exponent must be a finite real")
        if p < 1.0:
            raise ValueError(f"norm exponent must satisfy p >= 1, got {p}")
        object.__setattr__(self, "p", float(p))


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("point coordinates must be finite")
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))


@dataclass(frozen=True)
class Segment:
    """A closed segment between two points; a == b is allowed."""

    a: Point
    b: Point


@dataclass(frozen=True)
class Tolerance:
    """Absolute tolerance and iteration cap shared by all searches."""

    eps: float = 1e-9
    max_iters: int = 200

    def __post_init__(self) -> None:
        if not (isinstance(self.eps, (int, float)) and self.eps > 0 and math.isfinite(self.eps)):
            raise ValueError("eps must be a positive finite real")
        if not (isinstance(self.max_iters, int) and self.max_iters >= 1):
            raise ValueError("max_iters must be a positive integer")
        object.__setattr__(self, "eps", float(self.eps))


def _lp_pair(dx: float, dy: float, p: float) -> float:
    """(|dx|^p + |dy|^p)^(1/p), scaled so large inputs do not overflow."""
    dx = abs(dx)
    dy = abs(dy)
    if p == 2.0:
        return math.hypot(dx, dy)
    if p == 1.0:
        return dx + dy
    m = dx if dx >= dy else dy
    if m == 0.0:
        return 0.0
    return m * ((dx / m) ** p + (dy / m) ** p) ** (1.0 / p)


def _np_lp(dx: np.ndarray, dy: np.ndarray, p: float) -> np.ndarray:
    """_lp_pair over arrays; np.hypot at p = 2, else the same scaled formula."""
    dx = np.abs(dx)
    dy = np.abs(dy)
    if p == 1.0:
        return dx + dy
    if p == 2.0:
        return np.hypot(dx, dy)
    m = np.maximum(dx, dy)
    md = np.where(m > 0.0, m, 1.0)
    s = (dx / md) ** p + (dy / md) ** p
    return m * s ** (1.0 / p)


def _rtsafe(fdf, lo, hi, q, max_iters: int):
    """Root of f in every bracket [lo, hi] at once, by the bracketed
    Newton iteration rtsafe (Numerical Recipes, section 9.4), in
    lockstep: one evaluation of the running rows per step.

    fdf(x, act) returns f and f' at x for the rows act, always an index
    array (all rows on the first step), oriented so that f increases
    through the root: the caller passes brackets with f(lo) < 0 <=
    f(hi), or ends it knows to straddle the root as well. lo and hi are
    updated in place: each evaluation moves one end, lo where f < 0 and
    hi elsewhere (f = 0 or NaN). A Newton step is taken when it lands in
    the closed bracket and is at most half the step before the last
    one; otherwise the bracket is halved, which is also what an f' that
    underflows to 0 or a NaN f gives. A row stops at an exact root, at
    a Newton step of at most q (its row of the array q), at the
    bisection of a bracket at most q wide, or once its iterate stops
    moving: a Newton step that rounds to no step, or a bracket whose
    ends are adjacent floats. Returns the iterates and the number of
    steps taken, at most max_iters.

    How far a returned x lies from the sign change of f: x always lies
    in its final bracket [lo, hi], whose ends straddle it. A row that
    stops by bisection lies within q / 2 of both ends; at an exact root
    x is that root (and hi); after a Newton step of d <= q, x lies
    within d of its last iterate, one end of [lo, hi], and no bound is
    claimed toward the other end, since a Newton step may fall short of
    the root by more than it moved where f bends.
    """
    x = 0.5 * (lo + hi)
    dx = hi - lo
    dxold = dx.copy()
    act = np.arange(len(x))
    steps = 0
    while steps < max_iters:
        steps += 1
        act = _rtsafe_step(fdf, act, x, lo, hi, dx, dxold, q)
        if not len(act):
            break
    return x, steps


def _rtsafe_step(fdf, act, x, lo, hi, dx, dxold, q):
    """One step of _rtsafe for the running rows act, an index array, in
    place; returns the rows still running. Its temporaries span those
    rows and are freed on return."""
    xa = x[act]
    f, df = fdf(xa, act)
    below = f < 0.0
    lo[act[below]] = xa[below]
    hi[act[~below]] = xa[~below]
    lo_a, hi_a = lo[act], hi[act]
    # Newton where (x - hi) f' - f and (x - lo) f' - f share no sign, so
    # that the step lands in the closed bracket, and where |f / f'| is at
    # most half the step before the last; an exact root stays put
    exact = f == 0.0
    newton = ((((xa - hi_a) * df - f) * ((xa - lo_a) * df - f) <= 0.0)
              & (np.abs(2.0 * f) <= np.abs(dxold[act] * df)) & ~exact)
    dxold[act] = dx[act]
    qa = q[act]
    step = hi_a - lo_a
    done = step <= qa
    step *= 0.5
    np.divide(f, df, out=step, where=newton)
    xn = lo_a + step
    np.subtract(xa, step, out=xn, where=newton)
    stuck = np.where(newton, xn == xa, (xn == lo_a) | (xn == hi_a))
    np.less_equal(np.abs(step), qa, out=done, where=newton)
    np.copyto(xn, xa, where=exact)
    dx[act] = step
    x[act] = xn
    return act[~(done | stuck | exact)]


def lp_distance(a: Point, b: Point, norm: NormP) -> float:
    """Distance between two points under the given norm."""
    return _lp_pair(a.x - b.x, a.y - b.y, norm.p)


def _stationary_params(A: float, B: float, ux: float, uy: float, p: float) -> list:
    """Interior zeros of d/dt of |A - t*ux|^p + |B - t*uy|^p, p > 1.

    For a fixed sign pattern (sa, sb) of the two absolute values the
    condition is linear in t. Only the two patterns with sa * sb =
    -sign(ux * uy) have a positive scale factor k = |uy / ux|, and both
    give the same t, admitted when A - t ux and sa * sb * (B - t uy)
    share a sign. A factor that overflows or underflows means an
    optimum pinned at a kink, which the caller already evaluates.
    """
    k = abs(uy / ux)
    if not (k > 0.0) or math.isinf(k):
        return []
    try:
        c = k ** (1.0 / (p - 1.0))
    except OverflowError:
        return []
    if not math.isfinite(c) or c == 0.0:
        return []
    sab = -math.copysign(1.0, ux) * math.copysign(1.0, uy)
    m = sab * c
    den = ux - m * uy
    if den == 0.0:
        return []
    t = (A - m * B) / den
    ra, rb = A - t * ux, sab * (B - t * uy)
    if 0.0 < t < 1.0 and ((ra >= 0.0 and rb >= 0.0) or (ra <= 0.0 and rb <= 0.0)):
        return [t]
    return []


_MIN_NORMAL = 2.0 ** -1022


@np.errstate(all="ignore")
def _projection_scaled(A, B, ux, uy):
    """The clamped projection parameter of (A, B) on (ux, uy) at p = 2,
    for directions whose squared length underflows; arrays.

    With ux = sx 2^e, uy = sy 2^e and the larger of |sx|, |sy| in
    [1/2, 1), the parameter is q 2^-e, q = (A sx + B sy) / (sx^2 +
    sy^2): the bits of the instance scaled up by a power of two, where
    nothing underflows. q is clamped before it counts, so an overflow
    of q 2^-e is never used; a NaN q (both products overflow, or ux and
    uy are both 0) gives 0, where every parameter gives the same
    distance.
    """
    e = np.frexp(np.maximum(np.abs(ux), np.abs(uy)))[1]
    sx, sy = np.ldexp(ux, -e), np.ldexp(uy, -e)
    q = (A * sx + B * sy) / (sx * sx + sy * sy)
    return np.where(q > 0.0, np.where(q > np.ldexp(1.0, e), 1.0, np.ldexp(q, -e)), 0.0)


def _projection_scaled_float(A: float, B: float, ux: float, uy: float) -> float:
    """_projection_scaled of one direction, with the same bits, in
    Python floats: a point segment (ux = uy = 0) gives 0, as the NaN q
    of the array form does, and q 2^-e is formed only once q is at most
    2^e, where it cannot overflow."""
    e = math.frexp(max(abs(ux), abs(uy)))[1]
    sx, sy = math.ldexp(ux, -e), math.ldexp(uy, -e)
    den = sx * sx + sy * sy
    if den == 0.0:
        return 0.0
    q = (A * sx + B * sy) / den
    if not q > 0.0:
        return 0.0
    return 1.0 if q > math.ldexp(1.0, e) else math.ldexp(q, -e)


def point_segment_distance(q: Point, s: Segment, norm: NormP, tol: Tolerance) -> float:
    """Minimum distance from q to any point of s under the norm.

    p = 2 uses the clamped perpendicular projection; when the squared
    length of the segment underflows, its parameter comes from the
    coordinates scaled by a power of two (_projection_scaled_float, the
    bits of the array form _projection_scaled), which is 0 for a point
    segment. Other exponents enumerate the finitely many
    optimality candidates of the convex one-dimensional problem
    (segment ends, the two coordinate kinks, and the sign-pattern
    stationary points), which is exact; a point segment has its two
    ends alone. The tests
    cross-check it against the golden-section search
    verify.segment_distances.
    """
    p = norm.p
    ax, ay = s.a.x, s.a.y
    ux, uy = s.b.x - ax, s.b.y - ay
    A, B = q.x - ax, q.y - ay
    if p == 2.0:
        den = ux * ux + uy * uy
        if den < _MIN_NORMAL:
            t = _projection_scaled_float(A, B, ux, uy)
        else:
            t = (A * ux + B * uy) / den
            if t < 0.0:
                t = 0.0
            elif t > 1.0:
                t = 1.0
        return math.hypot(A - t * ux, B - t * uy)
    cands = [0.0, 1.0]
    if ux != 0.0:
        t = A / ux
        if 0.0 < t < 1.0:
            cands.append(t)
    if uy != 0.0:
        t = B / uy
        if 0.0 < t < 1.0:
            cands.append(t)
    if p > 1.0 and ux != 0.0 and uy != 0.0:
        cands.extend(_stationary_params(A, B, ux, uy, p))
    return min(_lp_pair(A - t * ux, B - t * uy, p) for t in cands)


def segment_columns(segments) -> np.ndarray:
    """Segments as an (N, 4) float64 array of rows [ax, ay, bx, by].

    An array passes through as it is; a sequence of Segment is read
    once. The solvers take either.
    """
    if isinstance(segments, np.ndarray):
        return segments
    return np.array([(s.a.x, s.a.y, s.b.x, s.b.y) for s in segments],
                    dtype=np.float64).reshape(-1, 4)


def segment_rows(segments, L: float) -> np.ndarray:
    """The rows of segment_columns for a segment route over [0, L]:
    raises EmptyInput for no segments, and ValueError for an L that is
    negative or not finite."""
    cols = segment_columns(segments)
    if not len(cols):
        raise EmptyInput("need at least one segment")
    if L < 0.0 or not math.isfinite(L):
        raise ValueError("L must be finite and nonnegative")
    return cols


def segments_from_columns(cols: np.ndarray) -> list:
    """The rows of an (N, 4) array as Segment objects, bit for bit."""
    return [Segment(Point(ax, ay), Point(bx, by)) for ax, ay, bx, by in cols.tolist()]


def axis_distances(x, cols: np.ndarray, p: float) -> np.ndarray:
    """point_segment_distance from (x, 0) to every row of cols at once.

    x is one abscissa or one per row. The candidates are the scalar
    function's (ends, coordinate kinks and, for p not in {1, 2}, the
    sign-pattern stationary points), and at p = 2 a row whose squared
    length underflows takes the same scaled projection
    (_projection_scaled); only np.hypot and np.power may round
    differently from math.hypot and **, so a value can differ from the
    scalar one in its last bits. Callers that need the exact
    bits recompute the near-ties with rescored_extreme.
    """
    ax, ay = cols[:, 0], cols[:, 1]
    with np.errstate(all="ignore"):
        ux, uy = cols[:, 2] - ax, cols[:, 3] - ay
        A = x - ax
        B = -ay
        if p == 2.0:
            den = ux * ux + uy * uy
            t = np.clip((A * ux + B * uy) / np.where(den == 0.0, 1.0, den), 0.0, 1.0)
            tiny = (den < _MIN_NORMAL) & ((ux != 0.0) | (uy != 0.0))
            if tiny.any():
                t[tiny] = _projection_scaled(A[tiny], B[tiny], ux[tiny], uy[tiny])
            return np.hypot(A - t * ux, B - t * uy)
        cands = [np.zeros_like(A), np.ones_like(A), A / ux, B / uy]
        if p > 1.0:
            # the one candidate of _stationary_params and its sign test
            k = np.abs(uy / ux)
            c = k ** (1.0 / (p - 1.0))
            sab = -(np.sign(ux) * np.sign(uy))
            m = sab * c
            den = ux - m * uy
            t = (A - m * B) / den
            ra, rb = A - t * ux, (B - t * uy) * sab
            ok = ((k > 0.0) & (k < math.inf) & (c > 0.0) & (c < math.inf) & (den != 0.0)
                  & (((ra >= 0.0) & (rb >= 0.0)) | ((ra <= 0.0) & (rb <= 0.0))))
            cands.append(np.where(ok, t, np.nan))
        t = np.stack(cands)
        # NaN parameters (no such candidate) fail the range test
        t = np.where((t >= 0.0) & (t <= 1.0), t, 0.0)
        return _np_lp(A - t * ux, B - t * uy, p).min(axis=0)


def axis_argmin_abscissas(cols: np.ndarray, L: float) -> np.ndarray:
    """The constrained minimiser over [0, L] of every row's distance
    profile along the axis, in one array pass.

    The unconstrained minimisers are the x-range of a level row, else an
    end on the axis, the axis crossing, or the end with the smaller |y|;
    they are clamped to [0, L] with ties at the smallest x, and a clamp
    to the left end gives +0.0. The solvers take the minimum distances
    from point_segment_distance at these abscissas (rescored_extreme).
    The tests compare the table with the scalar
    _reference.axis_argmin_exact, bit for bit.
    """
    xa, ya, xb, yb = cols[:, 0], cols[:, 1], cols[:, 2], cols[:, 3]
    with np.errstate(all="ignore"):
        # the unconstrained minimiser of a row that is not level
        xm = np.where(np.abs(ya) < np.abs(yb), xa, xb)
        xm = np.where((ya > 0.0) != (yb > 0.0), xa + ya / (ya - yb) * (xb - xa), xm)
        xm = np.where(yb == 0.0, xb, xm)
        xm = np.where(ya == 0.0, xa, xm)
        # the plateau, clamped to [0, L]; max(0.0, plo) is +0.0 unless plo > 0
        level = ya == yb
        plo = np.where(level, np.minimum(xa, xb), xm)
        phi = np.where(level, np.maximum(xa, xb), xm)
        return np.where(phi < 0.0, 0.0, np.where(plo > L, L, np.where(plo > 0.0, plo, 0.0)))


def rescored_extreme(approx: np.ndarray, x, cols: np.ndarray, norm: NormP, tol: Tolerance,
                     scale: float, largest: bool, initial=None):
    """max (largest) or min over the rows of cols of point_segment_distance
    from (x, 0) to the row, exactly.

    x is one abscissa or one per row, as axis_distances takes it, and
    approx holds the estimates of those distances at every row, within
    a few ulp of the value (axis_distances). The exact distance is
    computed only at the rows whose estimates are not finite or lie
    within 2^-30 (|extreme| + scale) + 2^-1022 of the extreme finite
    estimate, which leaves every exact extreme inside, and at row 0,
    then folded in row order as Python's max() and min() fold (a NaN
    first wins, a NaN later is skipped), starting from initial when
    given. So the result is that of folding point_segment_distance over
    all rows.
    """
    finite = np.isfinite(approx)
    rows = ~finite
    if finite.any():
        ext = float(approx[finite].max() if largest else approx[finite].min())
        # the floor covers estimates that differ by subnormal steps
        tie = 2.0 ** -30 * (abs(ext) + scale) + 2.0 ** -1022
        rows |= approx >= ext - tie if largest else approx <= ext + tie
    if initial is None:
        rows[0] = True
    xs = np.broadcast_to(x, rows.shape)[rows].tolist()
    best = initial
    for xv, s in zip(xs, segments_from_columns(cols[rows])):
        v = point_segment_distance(Point(xv, 0.0), s, norm, tol)
        if best is None or (v > best if largest else v < best):
            best = v
    return best


@dataclass(frozen=True)
class AxisFrame:
    """Rigid map sending the constraint segment onto (0,0)-(L,0).

    rows holds the 2x2 matrix applied to offsets from origin; its
    transpose inverts it (the matrix is orthonormal).
    """

    origin: Point
    rows: tuple
    L: float

    def forward_point(self, q: Point) -> Point:
        dx, dy = q.x - self.origin.x, q.y - self.origin.y
        (m00, m01), (m10, m11) = self.rows
        return Point(m00 * dx + m01 * dy, m10 * dx + m11 * dy)

    def inverse_point(self, q: Point) -> Point:
        (m00, m01), (m10, m11) = self.rows
        return Point(self.origin.x + m00 * q.x + m10 * q.y,
                     self.origin.y + m01 * q.x + m11 * q.y)

    def forward_segment(self, s: Segment) -> Segment:
        return Segment(self.forward_point(s.a), self.forward_point(s.b))

    def forward_columns(self, coords: np.ndarray) -> np.ndarray:
        """forward_point on every (x, y) pair of an (N, 2k) array at once.

        The same products and sums as forward_point, elementwise, so the
        results are its bits. A non-finite result raises the ValueError
        that Point raises for it.
        """
        (m00, m01), (m10, m11) = self.rows
        with np.errstate(over="ignore", invalid="ignore"):
            dx = coords[:, 0::2] - self.origin.x
            dy = coords[:, 1::2] - self.origin.y
            out = np.empty_like(coords)
            out[:, 0::2] = m00 * dx + m01 * dy
            out[:, 1::2] = m10 * dx + m11 * dy
        if not np.isfinite(out).all():
            raise ValueError("point coordinates must be finite")
        return out

    def inverse_segment(self, s: Segment) -> Segment:
        return Segment(self.inverse_point(s.a), self.inverse_point(s.b))


def transform_to_axis(constraint: Segment, norm: NormP) -> AxisFrame:
    """Frame in which the constraint segment becomes [0, L] on the axis.

    L is the Euclidean length. For p != 2 the constraint must be
    parallel to a coordinate axis; the returned matrix is then a signed
    permutation, which preserves every L_p distance.
    """
    dx = constraint.b.x - constraint.a.x
    dy = constraint.b.y - constraint.a.y
    L = math.hypot(dx, dy)
    if L == 0.0:
        raise ValueError("constraint segment must have positive length")
    if norm.p == 2.0:
        c, s = dx / L, dy / L
        rows = ((c, s), (-s, c))
    elif dy == 0.0:
        rows = ((1.0, 0.0), (0.0, 1.0)) if dx > 0 else ((-1.0, 0.0), (0.0, -1.0))
    elif dx == 0.0:
        # quarter turns: (x,y) -> (y,-x) for upward, (x,y) -> (-y,x) for downward
        rows = ((0.0, 1.0), (-1.0, 0.0)) if dy > 0 else ((0.0, -1.0), (1.0, 0.0))
    else:
        raise NonIsometricRotation(
            f"constraint is not axis-parallel and p={norm.p} is not rotation-invariant")
    return AxisFrame(origin=constraint.a, rows=rows, L=L)
