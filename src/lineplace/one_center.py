"""Smallest enclosing ball of segments with center restricted to [0, L].

min_enclosing bisects the radius over the covering intervals of
intervals.SegmentArray, at every number of segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import NormP, Tolerance, axis_argmin_abscissas, axis_distances, \
    rescored_extreme, segment_rows
from .intervals import Interval, SegmentArray, covering_slack, intersect_rows, least_radius


@dataclass(frozen=True)
class PlacedCircle:
    """A ball center on the axis: center (cx, 0) and its radius."""

    cx: float
    radius: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.cx) and math.isfinite(self.radius)):
            raise ValueError("circle parameters must be finite")
        if self.radius < 0.0:
            raise ValueError("radius must be nonnegative")
        object.__setattr__(self, "cx", float(self.cx))
        object.__setattr__(self, "radius", float(self.radius))


def _binding_rows(far: np.ndarray, lo: float, scale: float, p: float) -> np.ndarray:
    """Mask of the rows that may bind at some radius R >= lo.

    far is max(d0, dL), the distances from (0, 0) and (L, 0); distance
    is convex along the axis, so it bounds the distance from every point
    of [0, L]. A row with far <= lo (1 - eta) - 2c, (eta, c) =
    covering_slack(lo), is dropped: far's estimate is within c of the
    exact value, so [0, L] lies in the row's exact covering interval at
    R - e(R) for every R >= lo (R - e grows with R), hence in its
    computed one at R, strictly inside given the slack in c. The row
    then moves neither end of an intersection with [0, L], not even in
    its bits. The row that attains lo has far >= lo and stays, so the
    kept set is never empty; lo = 0 drops nothing.
    """
    eta, c = covering_slack(lo, scale, p)
    return ~(far <= lo * (1.0 - eta) - 2.0 * c)


def min_enclosing(segments, L: float, norm: NormP, tol: Tolerance) -> PlacedCircle:
    """Minimise over x in [0, L] the largest distance to any segment.

    segments is a sequence of Segment or an (N, 4) array of rows
    [ax, ay, bx, by]; either is converted and checked once
    (geometry.segment_rows). Feasibility of a radius R means the
    covering intervals of all segments and [0, L] share a point. The
    search is intervals.least_radius, between a certified
    lower bound lo (largest per-segment constrained minimum, returned
    exactly when already feasible) and the radius hi that works at
    x = 0; the center is the midpoint of the region at its radius.

    Each segment's constrained minimiser comes from one
    axis_argmin_abscissas pass; lo and hi come from array kernels over
    all rows, with their near-ties recomputed by point_segment_distance
    (rescored_extreme) so that both keep their exact bits. The rows that
    cannot bind at any R >= lo (_binding_rows) are then dropped, and the
    bisection runs on a SegmentArray of the rest, with the same answer
    bit for bit. A pass of it intersects the covering intervals at up to
    SegmentArray.radii_per_pass radii at once (intersect_rows), and
    guesses the path below its tree from the margin a - b of the
    regions (a, b) it has seen. This one route serves every N; the
    scalar route that the tests compare it with is
    _reference.min_enclosing_scalar.
    """
    cols = segment_rows(segments, L)
    domain = Interval(0.0, L)
    xm = axis_argmin_abscissas(cols, L)
    p = norm.p
    scale = max(float(np.abs(cols).max()), L)
    d0 = axis_distances(0.0, cols, p)
    lo = rescored_extreme(axis_distances(xm, cols, p), xm, cols, norm, tol, scale,
                          largest=True, initial=0.0)
    hi = rescored_extreme(d0, 0.0, cols, norm, tol, scale, largest=True)
    far = np.maximum(d0, axis_distances(L, cols, p))
    arr = SegmentArray(cols[_binding_rows(far, lo, scale, p)], norm)

    def region_at(radii):
        return intersect_rows(*arr.covering(radii), domain)

    (a, b), R = least_radius(lo, hi, region_at, tol, arr.radii_per_pass)
    return PlacedCircle(0.5 * (a + b), R)
