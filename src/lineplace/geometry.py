"""Planar L_p geometry: distances, axis frames, and distance profiles.

Everything downstream works in an "axis frame" where the feasible
center line is the interval [0, L] of the horizontal axis. This module
provides the norm and tolerance types, exact point-to-segment
distances, the frame transform, and the closed-form argmin along the
axis that the solvers build on. Iterative second routes to these
quantities live in lineplace._reference, for the tests only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonIsometricRotation


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


def lp_distance(a: Point, b: Point, norm: NormP) -> float:
    """Distance between two points under the given norm."""
    return _lp_pair(a.x - b.x, a.y - b.y, norm.p)


def _stationary_params(A: float, B: float, ux: float, uy: float, p: float) -> list:
    """Interior zeros of d/dt of |A - t*ux|^p + |B - t*uy|^p, p > 1.

    For a fixed sign pattern of the two absolute values the optimality
    condition becomes linear in t, so at most four candidates exist.
    Patterns whose scale factor overflows correspond to optima pinned
    at a kink, which the caller already evaluates.
    """
    out = []
    e = 1.0 / (p - 1.0)
    for sa in (-1.0, 1.0):
        for sb in (-1.0, 1.0):
            k = -(uy * sb) / (ux * sa)
            if not (k > 0.0) or math.isinf(k):
                continue
            try:
                c = k ** e
            except OverflowError:
                continue
            if not math.isfinite(c) or c == 0.0:
                continue
            m = sa * sb * c
            den = ux - m * uy
            if den == 0.0:
                continue
            t = (A - m * B) / den
            if 0.0 < t < 1.0 and sa * (A - t * ux) >= 0.0 and sb * (B - t * uy) >= 0.0:
                out.append(t)
    return out


def point_segment_distance(q: Point, s: Segment, norm: NormP, tol: Tolerance) -> float:
    """Minimum distance from q to any point of s under the norm.

    p = 2 uses the clamped perpendicular projection. Other exponents
    enumerate the finitely many optimality candidates of the convex
    one-dimensional problem (segment ends, the two coordinate kinks,
    and the sign-pattern stationary points), which is exact. The tests
    cross-check it against the golden-section search
    _reference._min_distance_search.
    """
    p = norm.p
    ax, ay = s.a.x, s.a.y
    ux, uy = s.b.x - ax, s.b.y - ay
    A, B = q.x - ax, q.y - ay
    if ux == 0.0 and uy == 0.0:
        return _lp_pair(A, B, p)
    if p == 2.0:
        t = (A * ux + B * uy) / (ux * ux + uy * uy)
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


def segment_ox_intersection(s: Segment):
    """Where s meets the horizontal axis.

    Returns (x, collinear) or None. A segment lying on the axis reports
    its leftmost x with collinear=True; touching an endpoint counts.
    """
    ya, yb = s.a.y, s.b.y
    if ya == 0.0 and yb == 0.0:
        return min(s.a.x, s.b.x), True
    if ya == 0.0:
        return s.a.x, False
    if yb == 0.0:
        return s.b.x, False
    if (ya > 0.0) == (yb > 0.0):
        return None
    t = ya / (ya - yb)
    return s.a.x + t * (s.b.x - s.a.x), False


def _profile_min_unclamped(s: Segment):
    """Exact minimiser of x -> distance((x,0), s) over the whole axis.

    The minimum value equals min_t |qy(t)| for every norm, attained
    below the segment point of smallest |y|. Plateaus (horizontal or
    on-axis segments) resolve to the smallest x. Returns (xmin, dmin).
    """
    ya, yb = s.a.y, s.b.y
    hit = segment_ox_intersection(s)
    if hit is not None:
        return hit[0], 0.0
    if abs(ya) < abs(yb):
        return s.a.x, abs(ya)
    if abs(yb) < abs(ya):
        return s.b.x, abs(yb)
    return min(s.a.x, s.b.x), abs(ya)


def _plateau(s: Segment):
    """The closed x-range of unconstrained minimisers of the profile."""
    ya, yb = s.a.y, s.b.y
    if ya == yb:
        return min(s.a.x, s.b.x), max(s.a.x, s.b.x)
    xm, _ = _profile_min_unclamped(s)
    return xm, xm


def axis_argmin_exact(s: Segment, L: float, norm: NormP, tol: Tolerance):
    """Closed-form constrained argmin used internally by the solvers.

    Returns (xmin, dmin), the clamp of the unconstrained plateau to
    [0, L] with ties at the smallest x; exact. The tests compare it
    with _reference.distance_argmin_on_axis.
    """
    plo, phi = _plateau(s)
    if phi < 0.0:
        x = 0.0
    elif plo > L:
        x = L
    else:
        x = max(0.0, plo)
    return x, point_segment_distance(Point(x, 0.0), s, norm, tol)
