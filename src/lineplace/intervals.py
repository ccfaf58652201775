"""Axis intervals and the covering interval of a segment.

The covering interval of a segment s at radius R is the set of axis
abscissas x whose L_p ball of radius R centered at (x, 0) touches s.
Distance to a segment is convex in x, so this set is a closed interval
(possibly empty). Solvers combine these intervals by intersection
(enclosing problems) or union (empty-ball problems).

Both radius searches are one bisection, bisect_radius, which the
enclosing one reaches through least_radius. A pass of it asks its
predicate about an array of radii at once: every midpoint of the next
few levels, and the path below them toward a guess from the margins
seen so far. It then walks the levels from the answers, each decision
from the answer at that exact midpoint, so the bracket and the level
count are those of halving one midpoint at a time, bit for bit
(_reference.bisect_sequential); a wrong guess costs time only.

Every covering interval that a solver uses comes from one kernel,
SegmentArray.covering, one row of intervals per radius (covering_slack
bounds how far it may stray, which is what makes the solvers' pruning
exact). The largest-empty-ball search combines each row by
union_covers_rows and the enclosing search by intersect_rows. The
largest-empty-ball search also reads the gaps and covered stretches of
one row (union_gaps): inside its bracket it takes the union of the
segments that can reach the gaps left at an anchor radius a
covering_slack band below the bracket, with the stretches covered
there as fixed intervals (obnoxious._GapAnchor), which is the union of
all its segments bit for bit. The
scalar kernel _reference.covering_interval, with its halfwidth and
ystar rules, is the reference that the kernel is tested against; it
takes numpy's powers, so it matches the scalar kernel within rounding,
not bit for bit. The combinations are tested against hand-worked cases
and the postconditions of an intersection and a union cover, and
_reference.min_enclosing_scalar folds the scalar intervals as
intersect_rows does, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import NormP, Tolerance, segment_columns


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]; the empty interval is (+inf, -inf)."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo, hi = float(self.lo), float(self.hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("interval bounds must not be NaN")
        if lo > hi and not (lo == math.inf and hi == -math.inf):
            raise ValueError(f"interval bounds out of order: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def empty(cls) -> "Interval":
        return cls(math.inf, -math.inf)

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    @property
    def width(self) -> float:
        return 0.0 if self.is_empty else self.hi - self.lo

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return (not self.is_empty) and self.lo - slack <= x <= self.hi + slack


# Radii one pass of bisect_radius asks its predicate about, at most.
MAX_RADII = 64

# (radius, segment) cells of one covering pass. On a 2-vCPU Xeon VM
# with numpy 2.4.6 a pass costs about 0.15 ms plus 0.2 us a cell, and
# on the segments-spread instances of bench/ the largest-empty-ball
# search took least time in all at 1024, within 4 % from 768 to 1536.
# A pass asks as many radii as this allows over the rows it reads: the
# kept rows, or in the largest-empty-ball search the rows of its gap
# anchor, which it moves before a pass only while they allow fewer
# than MAX_RADII. Where the anchor has no bound (covering_slack claims
# none, or L = 0), every pass reads all kept rows.
PASS_CELLS = 1024


_UNIT_ROUNDOFF = 2.0 ** -53


def covering_slack(R: float, scale: float, p: float):
    """(eta, c) with SegmentArray.covering at R between exact intervals.

    For every row whose coordinates, like L, are at most scale in
    magnitude, the computed covering interval at R contains the exact
    covering interval at R - e and lies inside the one at R + e, where
    e = eta * R + c; c also bounds the error of the array distance
    estimates (geometry.axis_distances) that the pruning rules compare
    with R. eta is inf where no bound is claimed: R <= 0, rounding
    beyond the kernel's clamp, or scale outside (2^-200, 2^200), where
    squares and products of coordinates can underflow or overflow and
    the rounding below is no longer relative. As R grows, eta falls and eta * R grows,
    at a rate below eta; so R + e grows with R, and so does R - e while
    eta < 1.

    Derivation. An endpoint is qx(t) -+ h at a candidate t, with
    h = R * max(base, 0)^(1/p) and base = 1 - (|qy|/R)^p, and the kernel
    admits a candidate whose computed base is at least -1e-9.
    - Rounding |qy| (a few ulp of scale), the quotient, the power and
      the subtraction leaves base off by at most rnd = 16 p u (scale/R
      + 2), u the unit roundoff. An admitted candidate has an exact
      base >= -beta, beta = 1e-9 + rnd; and while rnd <= 1e-9, no
      candidate with an exact base >= 0 is rejected. Only the inner
      half of the bound needs the latter: the outer half (inside the
      interval at R + e) holds at every R > 0, with e from the same
      formula, which grows with R.
    - t -> t^(1/p) is subadditive, so h is within R beta^(1/p) of the
      exact halfwidth, and an admitted point of the segment lies within
      R (1 + beta)^(1/p) <= R (1 + beta^(1/p)) of (qx, 0). As distance
      along the axis is 1-Lipschitz, both give eta = 2 beta^(1/p).
    - Abscissas qx = ax + t ux carry a few ulp of scale. At the ends
      tA, tB of the reachable range a parameter error dt moves qx by
      |ux| dt <= 4 u scale^2 / |uy|, and a row that matters to a margin
      m has |uy| >= m, so the move stays below m once m >= 2^-22 scale;
      the array distance estimates are within a few ulp of the value.
      Interior candidates are stationary, so their parameter errors
      enter to second order. c = 2^-22 scale covers all of these with
      room to spare.
    """
    if not (R > 0.0 and 2.0 ** -200 < scale < 2.0 ** 200):
        return math.inf, math.inf
    rnd = 16.0 * p * _UNIT_ROUNDOFF * (scale / R + 2.0)
    if not rnd <= 1e-9:
        return math.inf, math.inf
    return 2.0 * (1e-9 + rnd) ** (1.0 / p), scale * 2.0 ** -22


class SegmentArray:
    """Segments as float64 columns ax, ay, ux, uy, for one norm.

    Built from an (N, 4) array of rows [ax, ay, bx, by] or from Segment
    objects (geometry.segment_columns), with each row's ystar ratio
    (star) from one array pass. The radius bisections build it over the
    rows they keep after pruning.

    covering(radii) evaluates, for every radius and segment at once, the
    candidates of the scalar reference _reference.covering_interval: the
    ends tA, tB of the reachable parameter range, the axis crossing t0
    and the two points where |qy| = ystar, masked where the scalar
    kernel branches. It takes numpy's powers, in star and in the
    halfwidth, where the scalar kernel takes Python's, so it matches
    that kernel within rounding: tA, tB and t0 come out bit for bit,
    and the ystar parameters and the halfwidths may differ in the last
    ulps. Each radius gets its own row of elementwise operations, so a
    row is that of a call with its radius alone, bit for bit.

    radii_per_pass is how many radii one bisection pass asks covering
    about: as many as keep the pass within PASS_CELLS (radius, segment)
    cells, at most MAX_RADII and at least one.
    """

    def __init__(self, segments, norm: NormP):
        coords = segment_columns(segments)
        p = norm.p
        self.p = p
        self.ax, self.ay = coords[:, 0], coords[:, 1]
        # coordinates near the float range overflow here as Python floats
        # do in the scalar kernel, to inf without a warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            self.ux = coords[:, 2] - self.ax
            self.uy = coords[:, 3] - self.ay
            self.flat = self.uy == 0.0
            # flat rows divide by 1 instead of 0 and are masked afterwards
            self.uy_div = np.where(self.flat, 1.0, self.uy)
            self.t0 = np.where(self.flat, np.nan, -self.ay / self.uy_div)
            # radius-independent ystar / R, where the slopes of qx and of
            # the halfwidth balance: (mu / (1 + mu))^(1/p) with mu =
            # |ux / uy|^(p/(p-1)), and 1 where mu overflows; NaN where ux
            # or uy is 0, which fails every range test below
            self.star = None
            if p > 1.0:
                mu = (np.abs(self.ux) / np.abs(self.uy)) ** (p / (p - 1.0))
                star = np.where(np.isinf(mu), 1.0, mu / (1.0 + mu)) ** (1.0 / p)
                star[(self.ux == 0.0) | self.flat] = np.nan
                self.star = star

    @property
    def radii_per_pass(self) -> int:
        return max(1, min(MAX_RADII, PASS_CELLS // max(len(self.ax), 1)))

    def covering(self, radii):
        """Arrays (lo, hi) of the covering intervals at each radius of the
        1-D array radii, of shape (len(radii), segments).

        Empty intervals are (+inf, -inf), as Interval.empty().
        """
        R = np.asarray(radii, dtype=float)
        if R.ndim != 1 or not (np.all(R >= 0.0) and np.all(np.isfinite(R))):
            raise ValueError("radius must be finite and nonnegative")
        R = R[:, None]
        p, ay, uy = self.p, self.ay, self.uy
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            t1 = (-R - ay) / self.uy_div
            t2 = (R - ay) / self.uy_div
            tA = np.where(self.flat, 0.0, np.maximum(np.minimum(t1, t2), 0.0))
            tB = np.where(self.flat, 1.0, np.minimum(np.maximum(t1, t2), 1.0))
            reachable = np.where(self.flat, np.abs(ay) <= R, tA <= tB)
            cands = [tA, tB, np.broadcast_to(self.t0, tA.shape)]
            if self.star is not None:
                ystar = R * self.star
                cands += [(ystar - ay) / self.uy_div, (-ystar - ay) / self.uy_div]
            t = np.stack(cands)
            ok = np.empty(t.shape, dtype=bool)
            ok[:2] = reachable
            ok[2:] = (tA < t[2:]) & (t[2:] < tB)
            y = np.abs(ay + t * uy)
            base = 1.0 - (y / R) ** p
            fits = base >= -1e-9
            h = R * np.maximum(base, 0.0) ** (1.0 / p)
            zero = R == 0.0
            if zero.any():
                # R = 0 admits only the heights 0, with halfwidth 0; its
                # ystar candidates equal tA = tB and fail the range test
                fits = np.where(zero, y == 0.0, fits)
                h = np.where(zero, 0.0, h)
            ok &= fits
            x = self.ax + t * self.ux
            lo = np.where(ok, x - h, math.inf).min(axis=0)
            hi = np.where(ok, x + h, -math.inf).max(axis=0)
        return lo, hi


def intersect_rows(lo, hi, domain: Interval):
    """Row by row, the intersection of the intervals [lo[k, i], hi[k, i]]
    and domain: arrays (a, b) over the rows, empty where a > b.

    The bounds are those of Python's max and min folded over the row
    and then the domain, bit for bit. A NaN bound raises the ValueError
    that an Interval with that bound raises.
    """
    a = lo.max(axis=1)
    b = hi.min(axis=1)
    # max(a, domain.lo) and min(b, domain.hi) as Python's max and min
    a = np.where(domain.lo > a, domain.lo, a)
    b = np.where(domain.hi < b, domain.hi, b)
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValueError("interval bounds must not be NaN")
    return a, b


def union_covers_rows(lo, hi, domain: Interval):
    """Row by row, whether the intervals [lo[k, i], hi[k, i]] cover
    domain; else a witness, and how wide the widest gap is.

    Returns arrays over the rows: covered; the witness, NaN where
    covered; and the width of the widest stretch of domain that no
    interval of the row contains, 0 where covered. A gap at the start
    has witness domain.lo itself, interior and trailing gaps their
    midpoint.

    A scalar scan would visit the intervals sorted by (lo, hi), skipping
    empty ones and ones ending before domain.lo, and report the first
    visit whose lo lies beyond its reach, the running maximum of hi
    from domain.lo, and the reach then. Here lo and hi are sorted
    apart. The k-th smallest lo starts a gap exactly when it exceeds
    domain.lo and the k smallest hi: every interval before it in the scan then ends before
    it, and every other interval ends after it. So the reach at a gap
    is the largest of domain.lo and those k his, the value of the
    scan, and no answer depends on how ties are ordered. Skipped
    intervals sort last as (+inf, +inf); a lo of +inf past the end
    starts the trailing gap.
    """
    m, n = lo.shape
    if domain.is_empty:
        return np.ones(m, dtype=bool), np.full(m, math.nan), np.zeros(m)
    keep = (lo <= hi) & (hi >= domain.lo)
    ends = np.full((m, 1), math.inf)
    starts = np.concatenate((np.sort(np.where(keep, lo, math.inf), axis=1), ends), axis=1)
    before = np.concatenate((-ends, np.sort(np.where(keep, hi, math.inf), axis=1)), axis=1)
    # reach[k, i] is the scan's reach before the i-th smallest lo where that starts a gap
    reach = np.maximum(before, domain.lo)
    gap = starts > reach
    g = gap.argmax(axis=1)
    rows = np.arange(m)
    reach_g = reach[rows, g]
    covered = ~gap.any(axis=1) | ((g > 0) & (reach_g >= domain.hi))
    # a gap ends at the next lo, or at domain.hi if sooner
    end = np.where(starts < domain.hi, starts, domain.hi)
    with np.errstate(over="ignore"):
        # ends that sum beyond the float range give inf, as Python floats do
        witness = np.where(g == 0, domain.lo, 0.5 * (reach_g + end[rows, g]))
    witness[covered] = math.nan
    width = np.where(gap, end - reach, 0.0).max(axis=1)
    width[covered] = 0.0
    return covered, witness, width


def union_gaps(lo, hi, domain: Interval):
    """The gaps that the intervals [lo[i], hi[i]] leave in domain, a
    closed interval of positive width, and the stretches they cover.

    Returns arrays (a, b, c, d), left to right: the closures [a[k],
    b[k]] of the gaps, and the covered stretches [c[k], d[k]] of
    domain between them, so that the union of the intervals meets
    domain in exactly those stretches. The gaps are those that
    union_covers_rows finds on the same row, from the same sorted lo
    and hi: a gap starts at its reach and ends at the next lo, or at
    domain.hi if sooner. Its ends are covered where an interval ends or
    starts there; domain.lo is not where no interval reaches it, nor
    domain.hi where the last gap runs to it.
    """
    keep = (lo <= hi) & (hi >= domain.lo)
    starts = np.append(np.sort(np.where(keep, lo, math.inf)), math.inf)
    reach = np.maximum(np.append(-math.inf, np.sort(np.where(keep, hi, math.inf))), domain.lo)
    gap = (starts > reach) & (reach < domain.hi)
    a, after = reach[gap], starts[gap]
    b = np.where(after < domain.hi, after, domain.hi)
    c, d = np.append(domain.lo, b), np.append(a, domain.hi)
    first = 1 if gap[0] else 0
    last = len(c) - 1 if len(after) and after[-1] > domain.hi else len(c)
    return a, b, c[first:last], d[first:last]


def bisect_radius(lo: float, hi: float, fits, tol: Tolerance, per_pass: int = 1):
    """Bisect [lo, hi] at the sign of fits, monotone in R, with lo
    infeasible and hi feasible; returns the final (lo, hi) and the
    number of levels walked.

    hi is first nudged up by max(eps, 1e-12 hi), so that a bound
    computed exactly at the boundary is strictly feasible. The search
    stops once hi - lo <= tol.eps or after tol.max_iters levels. Its
    (lo, hi) and level count are those of the loop that halves the
    bracket one midpoint at a time (_reference.bisect_sequential), bit
    for bit.

    fits(radii) takes a 1-D array of radii and returns two arrays over
    them: whether each fits, and a margin that is positive where it
    does not fit and falls through 0 at the boundary (NaN or inf where
    unknown). fits must depend on each radius alone. A pass asks it
    about up to per_pass radii (1 to MAX_RADII), the current midpoint
    first (_pass_radii). per_pass is a count, or a function that takes
    the bracket (lo, hi) before each pass and returns the count for
    that pass; every radius of the pass, and of the passes after it,
    lies inside that bracket. A pass asks every midpoint of the next
    levels, and below them the path to the zero of the secant of the
    margins (_secant_zero); one radius a pass is the midpoint alone. The walk
    then halves the bracket from the answers, taking each decision only
    from the answer at that exact midpoint, and the next pass starts
    where it met a midpoint not asked about.
    A wrong guess costs time only; each pass walks at least the levels
    of its full tree. A pass whose predicate raises ValueError or
    ArithmeticError, as the kernels do at NaN bounds or radii beyond
    the float range, is asked again about its first radius alone, so
    that the error surfaces at the midpoint where the loop meets it.
    """
    hi = hi + max(tol.eps, 1e-12 * hi)
    eps, cap = tol.eps, tol.max_iters
    pass_size = per_pass if callable(per_pass) else lambda lo, hi: per_pass
    seen = {}
    known_r, known_m = np.empty(0), np.empty(0)
    levels = 0
    while hi - lo > eps and levels < cap:
        guess = _secant_zero(known_r, known_m, lo, hi)
        n = max(1, min(pass_size(lo, hi), MAX_RADII))
        radii = _pass_radii(lo, hi, eps, cap - levels, n, guess, seen)
        try:
            ok, margin = fits(np.array(radii))
        except (ValueError, ArithmeticError):
            if len(radii) == 1:
                raise
            radii = radii[:1]
            ok, margin = fits(np.array(radii))
        ok = ok.tolist()
        seen.update(zip(radii, ok))
        known = np.isfinite(margin)
        known_r = np.concatenate((known_r, np.array(radii)[known]))
        known_m = np.concatenate((known_m, margin[known]))
        # the current midpoint is decided from its own answer, even NaN
        mid, fit = radii[0], ok[0]
        while True:
            if fit:
                hi = mid
            else:
                lo = mid
            levels += 1
            if not (hi - lo > eps and levels < cap):
                break
            mid = 0.5 * (lo + hi)
            fit = seen.get(mid)
            if fit is None:
                break
    return lo, hi, levels


def _pass_radii(lo: float, hi: float, eps: float, left: int, per_pass: int, guess, seen):
    """The midpoints of one pass from the bracket (lo, hi), its own
    midpoint first: every node of the next b levels, then the nodes
    below them on the path that decides fits(R) as R >= guess, up to
    per_pass radii. b is the most levels whose 2^b - 1 nodes fit in
    per_pass radii, or in a quarter of them where there is a guess. Nodes
    where the walk would stop, after left levels or at a bracket within
    eps, and radii in seen are left out.
    """
    b = ((per_pass if guess is None else per_pass // 4) + 1).bit_length() - 1
    radii = []
    level = [(lo, hi)]
    for _ in range(min(b, left)):
        below = []
        for a, c in level:
            if c - a > eps:
                m = 0.5 * (a + c)
                radii.append(m)
                below += [(a, m), (m, c)]
        level = below
    if guess is not None:
        a, c = lo, hi
        depth = 0
        while c - a > eps and depth < left and len(radii) < per_pass:
            m = 0.5 * (a + c)
            if depth >= b:
                radii.append(m)
            if m >= guess:
                c = m
            else:
                a = m
            depth += 1
    return [r for r in dict.fromkeys(radii) if r not in seen]


def _secant_zero(radii, margins, lo: float, hi: float):
    """Where the secant through the two radii nearest the middle of
    (lo, hi), among those with a finite margin, crosses 0; None where
    there are fewer than two, or the secant has no finite zero."""
    if len(radii) < 2:
        return None
    i, j = np.argpartition(np.abs(radii - 0.5 * (lo + hi)), 1)[:2].tolist()
    r1, m1, r2, m2 = float(radii[i]), float(margins[i]), float(radii[j]), float(margins[j])
    if m1 == m2:
        return None
    z = r1 - m1 * (r2 - r1) / (m2 - m1)
    return z if math.isfinite(z) else None


def least_radius(lo: float, hi: float, region_at, tol: Tolerance, per_pass: int = 1):
    """Least radius R of an enclosing search; returns ((a, b), R), the
    region of centers at R.

    region_at(radii) takes a 1-D array of radii and returns arrays
    (a, b) of the regions of centers at them, empty where a > b. R is
    lo, a certified lower bound, when it fits, else the final hi of
    bisect_radius from the feasible hi, with per_pass radii a pass and
    the margin a - b; the region of a radius asked about is kept, not
    asked for again. Its region is empty only if the untried nudged hi
    fails too: then R moves up 4 eps once, and if that fails as well
    this raises the ValueError that PlacedCircle raises for the NaN
    center of an empty region.
    """
    regions = {}

    def region(R: float):
        if R not in regions:
            (a,), (b,) = region_at(np.array([R]))
            regions[R] = float(a), float(b)
        a, b = regions[R]
        return None if a > b else (a, b)

    def fits(radii):
        a, b = region_at(radii)
        regions.update(zip(radii.tolist(), zip(a.tolist(), b.tolist())))
        with np.errstate(invalid="ignore", over="ignore"):
            return ~(a > b), a - b

    got = region(lo)
    if got is not None:
        return got, lo
    hi = bisect_radius(lo, hi, fits, tol, per_pass)[1]
    got = region(hi)
    if got is None:
        hi = hi + 4.0 * tol.eps
        got = region(hi)
        if got is None:
            raise ValueError("circle parameters must be finite")
    return got, hi
