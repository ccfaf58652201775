"""Smallest enclosing ball of segments with center restricted to [0, L]."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EmptyInput
from .geometry import NormP, Point, Tolerance, axis_argmin_exact, point_segment_distance
from .intervals import covering_intersection


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


def min_enclosing(segments, L: float, norm: NormP, tol: Tolerance) -> PlacedCircle:
    """Minimise over x in [0, L] the largest distance to any segment.

    Feasibility of a radius R means the covering intervals of all
    segments and [0, L] share a point. The radius is bisected between
    a certified lower bound (largest per-segment constrained minimum,
    returned exactly when already feasible) and the radius that works
    at x = 0.
    """
    segs = list(segments)
    if not segs:
        raise EmptyInput("need at least one segment")
    if L < 0.0 or not math.isfinite(L):
        raise ValueError("L must be finite and nonnegative")

    region_at = covering_intersection(segs, L, norm)
    lo = 0.0
    for s in segs:
        dmin = axis_argmin_exact(s, L, norm, tol)[1]
        if dmin > lo:
            lo = dmin
    region = region_at(lo)
    if not region.is_empty:
        return PlacedCircle(0.5 * (region.lo + region.hi), lo)

    origin = Point(0.0, 0.0)
    hi = max(point_segment_distance(origin, s, norm, tol) for s in segs)
    # nudge above the exact radius at x = 0 so the bracket is strictly feasible
    hi = hi + max(tol.eps, 1e-12 * hi)
    it = 0
    while hi - lo > tol.eps and it < tol.max_iters:
        mid = 0.5 * (lo + hi)
        if region_at(mid).is_empty:
            lo = mid
        else:
            hi = mid
        it += 1
    region = region_at(hi)
    if region.is_empty:
        hi = hi + 4.0 * tol.eps
        region = region_at(hi)
    return PlacedCircle(0.5 * (region.lo + region.hi), hi)
