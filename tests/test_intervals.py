import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lineplace import (
    Interval,
    NormP,
    Point,
    Segment,
    Tolerance,
    point_segment_distance,
)
from lineplace._reference import _covering_bisect, _ystar_ratio, bisect_sequential, \
    covering_interval
from lineplace.intervals import MAX_RADII, SegmentArray, bisect_radius, intersect_rows, \
    least_radius, union_covers_rows, union_gaps

TOL = Tolerance()
N1, N2, N3 = NormP(1.0), NormP(2.0), NormP(3.0)


def seg(ax, ay, bx, by):
    return Segment(Point(ax, ay), Point(bx, by))


class TestInterval:
    def test_canonical_empty(self):
        e = Interval.empty()
        assert e.is_empty
        assert e.lo == math.inf and e.hi == -math.inf

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            Interval(3.0, 1.0)

    def test_contains_and_width(self):
        iv = Interval(1.0, 4.0)
        assert iv.width == 3.0
        assert iv.contains(1.0) and iv.contains(4.0)
        assert not iv.contains(4.0001)
        assert iv.contains(4.0001, slack=1e-3)


class TestCoveringInterval:
    @pytest.mark.parametrize("norm", [N1, N2, N3])
    def test_vertical_segment_regression(self, norm):
        iv = covering_interval(seg(0, 0, 0, 5), 2.0, norm)
        assert abs(iv.lo - (-2.0)) < 1e-9
        assert abs(iv.hi - 2.0) < 1e-9

    def test_tangent_horizontal(self):
        iv = covering_interval(seg(1, 3, 6, 3), 3.0, N2)
        assert abs(iv.lo - 1.0) < 1e-9
        assert abs(iv.hi - 6.0) < 1e-9

    def test_unreachable_is_empty(self):
        iv = covering_interval(seg(0, 5, 10, 5), 2.0, N2)
        assert iv.is_empty

    def test_point_segment(self):
        iv = covering_interval(seg(0, 0, 0, 0), 4.0, N2)
        assert abs(iv.lo - (-4.0)) < 1e-9
        assert abs(iv.hi - 4.0) < 1e-9

    def test_zero_radius_on_crossing(self):
        iv = covering_interval(seg(2, -1, 2, 1), 0.0, N2)
        assert not iv.is_empty
        assert abs(iv.lo - 2.0) < 1e-9 and abs(iv.hi - 2.0) < 1e-9

    def test_zero_radius_off_axis(self):
        iv = covering_interval(seg(2, 1, 2, 3), 0.0, N2)
        assert iv.is_empty

    @pytest.mark.parametrize("norm", [N1, N2, N3])
    def test_unreachable_before_the_power_overflows(self, norm):
        # |qy| is 1.8e-15 at the crossing, far beyond R: (|qy| / R) ** p
        # raised OverflowError where the array kernel found no candidate
        iv = covering_interval(seg(0, -16, 0, 35.5), 1.278e-195, norm)
        assert iv.is_empty

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            covering_interval(seg(0, 1, 1, 1), -1.0, N2)
        with pytest.raises(ValueError):
            covering_interval(seg(0, 1, 1, 1), math.inf, N2)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_methods_agree_and_membership(self, p):
        norm = NormP(p)
        rng = random.Random(int(p * 10))
        for _ in range(50):
            s = seg(rng.uniform(-8, 12), rng.uniform(-6, 6),
                    rng.uniform(-8, 12), rng.uniform(-6, 6))
            R = rng.uniform(0.0, 7.0)
            a = covering_interval(s, R, norm)
            b = _covering_bisect(s, R, norm, TOL)
            if a.is_empty or b.is_empty:
                assert a.is_empty == b.is_empty
                continue
            assert abs(a.lo - b.lo) < 1e-6
            assert abs(a.hi - b.hi) < 1e-6
            # interval boundary sits where distance equals R
            for x in (a.lo, a.hi):
                d = point_segment_distance(Point(x, 0.0), s, norm, TOL)
                assert d <= R + 1e-6
            inner = 0.5 * (a.lo + a.hi)
            d = point_segment_distance(Point(inner, 0.0), s, norm, TOL)
            assert d <= R + 1e-6


class TestIntersectAll:
    # intersect_rows on one row, within a domain wider than the intervals
    def test_basic(self):
        iv = intersect_row(np.array([0.0, 2.0, -3.0]), np.array([5.0, 9.0, 4.0]), WIDE)
        assert (iv.lo, iv.hi) == (2.0, 4.0)

    def test_disjoint_empty(self):
        assert intersect_row(np.array([0.0, 2.0]), np.array([1.0, 3.0]), WIDE).is_empty

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            intersect_row(np.zeros(0), np.zeros(0), WIDE)


class TestUnionCovers:
    # union_covers_rows on one row
    def test_full_cover(self):
        ok, witness = union_cover_row(*as_arrays([Interval(-1, 4), Interval(3, 11)]),
                                      Interval(0, 10))
        assert ok and witness is None

    def test_leading_gap_witness_is_domain_lo(self):
        ok, witness = union_cover_row(*as_arrays([Interval(2, 11)]), Interval(0, 10))
        assert not ok
        assert witness == 0.0

    def test_interior_gap_witness_is_midpoint(self):
        ok, witness = union_cover_row(*as_arrays([Interval(-1, 3), Interval(7, 11)]),
                                      Interval(0, 10))
        assert not ok
        assert abs(witness - 5.0) < 1e-12

    def test_trailing_gap_witness(self):
        ok, witness = union_cover_row(*as_arrays([Interval(-1, 6)]), Interval(0, 10))
        assert not ok
        assert abs(witness - 8.0) < 1e-12

    def test_empty_intervals_ignored(self):
        ok, witness = union_cover_row(*as_arrays([Interval.empty(), Interval(-1, 11)]),
                                      Interval(0, 10))
        assert ok and witness is None

    def test_witness_stays_inside_domain(self):
        # a later interval may start beyond the domain end
        ok, witness = union_cover_row(*as_arrays([Interval(-1, 6), Interval(14, 20)]),
                                      Interval(0, 10))
        assert not ok
        assert 6.0 < witness <= 10.0


coord = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)
point = st.builds(Point, coord, coord)
# general segments plus the shapes the scalar kernel branches on:
# horizontal (uy = 0), vertical (ux = 0) and single points
segment = st.one_of(
    st.builds(Segment, point, point),
    st.builds(lambda x1, x2, y: seg(x1, y, x2, y), coord, coord, coord),
    st.builds(lambda x, y1, y2: seg(x, y1, x, y2), coord, coord, coord),
    st.builds(lambda q: Segment(q, q), point),
)
radius = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=80.0))


def kernel_tolerance(x, R, p):
    """Largest |array - scalar| allowed for a covering bound x at radius R.

    Both kernels compute the same candidate parameters tA, tB and t0,
    heights and abscissas bit for bit. The ystar ratio, u = (|y|/R)^p
    and v^(1/p), v = 1 - u, go through different pow implementations,
    each within 2 ulp, so the two v differ by less than 2^-49 and
    R v^(1/p) by at most R (2^-49)^(1/p), as t -> t^(1/p) is
    subadditive. That term matters only near v = 0, where the ball
    barely reaches the segment. A ystar candidate is a stationary point
    of its bound, so the few ulps by which the ratio moves it (see
    STAR_ULPS) move the bound to second order only; 8 ulp of
    max(|x|, R) covers the roundings everywhere else.
    """
    return 8 * math.ulp(max(abs(x), R)) + R * 2.0 ** (-49.0 / p)


def bits(a):
    """The bytes of a float array, every NaN as the one np.nan: which
    NaN an overflowed row gets depends on the loop numpy runs."""
    a = np.asarray(a, dtype=float)
    return np.where(np.isnan(a), np.nan, a).tobytes()


# rows [ax, ay, bx, by] whose differences overflow to inf, or whose
# products with a segment parameter do
huge = st.sampled_from([1.7e308, -1.7e308, 9e307, -9e307, 1e300, 0.0, 3.0])
overflowing = st.lists(huge, min_size=4, max_size=4)
rows = st.lists(st.one_of(
    segment.map(lambda s: [s.a.x, s.a.y, s.b.x, s.b.y]), overflowing), min_size=1, max_size=12)
radii = st.lists(st.one_of(radius, st.sampled_from([1e300, 1.7e308, 1.278e-195])),
                 min_size=1, max_size=9)
# segment directions over the whole float range, zeros included
direction = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)

# SegmentArray.star against _reference._ystar_ratio: the two compute
# mu = |ux / uy|^(p/(p-1)), mu / (1 + mu) and its 1/p-th root by the
# same operations, with numpy's powers against Python's. Each power
# lies within 1 ulp of exact, the quotient damps a relative error of
# mu by 1 / (1 + mu), and the root divides one by p; so the stars
# differ by at most 2 ulps for each power and 1 for each of the two
# roundings between them.
STAR_ULPS = 6


class TestSegmentArray:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @given(segs=st.lists(segment, min_size=1, max_size=12), R=radius)
    @example(segs=[seg(0.0, -16.0, 0.0, 35.5)], R=1.278e-195)
    def test_covering_matches_scalar(self, p, segs, R):
        norm = NormP(p)
        (lo,), (hi,) = SegmentArray(segs, norm).covering(np.array([R]))
        for k, s in enumerate(segs):
            ref = covering_interval(s, R, norm)
            if ref.is_empty:
                assert (lo[k], hi[k]) == (math.inf, -math.inf)
                continue
            assert abs(lo[k] - ref.lo) <= kernel_tolerance(ref.lo, R, p)
            assert abs(hi[k] - ref.hi) <= kernel_tolerance(ref.hi, R, p)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 8.0])
    def test_a_zero_bound_may_take_the_other_sign(self, p):
        # a row that starts on the axis at x = -0.0, at R = 0: t1 = -0.0
        # and t2 = +0.0 give tA = +0.0 by np.minimum and np.maximum,
        # which return their second argument on a tie of zeros, and -0.0
        # by Python's min and max, which return their first, so lo is
        # +0.0 here and -0.0 in the scalar kernel; hi is +0.0 in both
        row = [-0.0, 0.0, 11.27955933822092, 2.0]
        (lo,), (hi,) = SegmentArray(np.array([row]), NormP(p)).covering(np.array([0.0]))
        ref = covering_interval(seg(*row), 0.0, NormP(p))
        assert bits(lo[0]) == bits(0.0) and bits(ref.lo) == bits(-0.0)
        assert bits(hi[0]) == bits(ref.hi) == bits(0.0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @given(cols=rows, rs=radii)
    @example(cols=[[0.0, 1.0, 5.0, 1.0], [2.0, -1.0, 2.0, 1.0]], rs=[0.0, 1.0, 0.0, 2.5])
    @example(cols=[[-1.7e308, 3.0, 1.7e308, -9e307]], rs=[0.0, 1e300, 3.0, 1.7e308])
    def test_rows_equal_one_radius_calls(self, p, cols, rs):
        # flat rows, R = 0, p = 1 (no ystar candidates) and rows that
        # overflow: each row of a call with many radii is that of a
        # call with its radius alone, bit for bit
        arr = SegmentArray(np.array(cols), NormP(p))
        lo, hi = arr.covering(np.array(rs))
        assert lo.shape == hi.shape == (len(rs), len(cols))
        for k, R in enumerate(rs):
            (lo1,), (hi1,) = arr.covering(np.array([R]))
            assert bits(lo[k]) == bits(lo1) and bits(hi[k]) == bits(hi1)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @given(cols=rows, rs=radii, a=st.integers(0, 12), b=st.integers(0, 12))
    def test_slices_equal_their_rows(self, p, cols, rs, a, b):
        # an array built over a slice of the rows covers them as the
        # whole array does, bit for bit: every column and the ystar
        # ratio are computed row by row (the reference one-off fold
        # takes its windows from such arrays)
        arr = SegmentArray(np.array(cols), NormP(p))
        lo, hi = arr.covering(np.array(rs))
        lo1, hi1 = SegmentArray(np.array(cols)[a:b], NormP(p)).covering(np.array(rs))
        assert bits(lo1) == bits(lo[:, a:b]) and bits(hi1) == bits(hi[:, a:b])

    @pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.0, 30.0, 300.0])
    @given(ux=direction, uy=direction)
    @example(ux=1e300, uy=1e-300)
    @example(ux=-1e-300, uy=0.0)
    @example(ux=0.0, uy=-2.5)
    @example(ux=-0.0, uy=0.0)
    def test_star_matches_the_scalar_rule(self, p, ux, uy):
        # one array pass against _reference._ystar_ratio: NaN where ux or
        # uy is 0, and 1 where mu overflows, exactly; else within
        # STAR_ULPS
        (star,) = SegmentArray(np.array([[0.0, 0.0, ux, uy]]), NormP(p)).star.tolist()
        if ux == 0.0 or uy == 0.0:
            assert math.isnan(star)
            return
        want = _ystar_ratio(ux, uy, p)
        try:
            overflows = (abs(ux) / abs(uy)) ** (p / (p - 1.0)) == math.inf
        except OverflowError:
            overflows = True
        if overflows:
            assert star == want == 1.0
        assert abs(star - want) <= STAR_ULPS * math.ulp(want)

    def test_rejects_bad_radius(self):
        arr = SegmentArray([seg(0, 1, 1, 1)], N2)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                arr.covering(np.array([1.0, bad]))
        with pytest.raises(ValueError):
            arr.covering(np.array([[1.0]]))


def as_arrays(ivs):
    return (np.array([iv.lo for iv in ivs], dtype=float),
            np.array([iv.hi for iv in ivs], dtype=float))


E = Interval.empty()
WIDE = Interval(-10.0, 10.0)
# intervals, domain, the union's answer (covered, witness) and the
# intersection with the domain, worked by hand
COMBINE_CASES = {
    "gap at start": ([Interval(2, 11), Interval(3, 4)], Interval(0, 10), (False, 0.0),
                     Interval(3, 4)),
    "interior gap": ([Interval(7, 11), Interval(-1, 3), Interval(1, 2)], Interval(0, 10),
                     (False, 5.0), E),
    "trailing gap": ([Interval(-1, 6), Interval(-5, -2)], Interval(0, 10), (False, 8.0), E),
    "gap beyond domain end": ([Interval(-1, 6), Interval(14, 20)], Interval(0, 10), (False, 8.0),
                              E),
    "covered": ([Interval(3, 11), E, Interval(-1, 4)], Interval(0, 10), (True, None), E),
    "covered by one": ([Interval(-1, 11), Interval(2, 3)], Interval(0, 10), (True, None),
                       Interval(2, 3)),
    "ties on lo": ([Interval(0, 2), Interval(0, 5), Interval(5, 10)], Interval(0, 10),
                   (True, None), E),
    "L = 0 covered": ([Interval(-1, 0), Interval(3, 4)], Interval(0, 0), (True, None), E),
    "L = 0 missed": ([Interval(1, 2), Interval(-3, -1)], Interval(0, 0), (False, 0.0), E),
    "all empty": ([E, E, E], Interval(0, 10), (False, 0.0), E),
    "all before domain": ([Interval(-5, -1), Interval(-3, -2)], Interval(0, 10), (False, 0.0), E),
}


def intersection(ivs, domain):
    """The intersection of the intervals and domain, by its definition."""
    lo = max(max(iv.lo for iv in ivs), domain.lo)
    hi = min(min(iv.hi for iv in ivs), domain.hi)
    return E if lo > hi else Interval(lo, hi)


def check_union_answer(answer, ivs, domain):
    """A union answer (covered, witness) that holds on the intervals: a
    witness is a point of domain inside no interval (it may round onto
    the end of a gap one ulp wide); covered means every end of an
    interval inside domain, every midpoint between two such ends, and
    both ends of domain lie in some interval."""
    covered, witness = answer
    if not covered:
        assert domain.contains(witness)
        assert not any(iv.lo < witness < iv.hi for iv in ivs)
        return
    ends = sorted({domain.lo, domain.hi} | {x for iv in ivs for x in (iv.lo, iv.hi)
                                            if domain.contains(x)})
    for x in ends + [0.5 * (u + v) for u, v in zip(ends, ends[1:])]:
        assert any(iv.contains(x) for iv in ivs), x


def widest_gap(ivs, domain):
    """Width of the widest stretch of domain no interval contains, by a
    plain scan over the intervals sorted by lo; 0 where none."""
    reach, widest = domain.lo, 0.0
    for iv in sorted((iv for iv in ivs if not iv.is_empty and iv.hi >= domain.lo),
                     key=lambda iv: (iv.lo, iv.hi)):
        if iv.lo > reach:
            widest = max(widest, min(iv.lo, domain.hi) - reach)
        reach = max(reach, iv.hi)
    return max(widest, domain.hi - reach)


def union_cover_row(lo, hi, domain):
    """union_covers_rows on the one row lo, hi: (True, None) or (False,
    witness)."""
    (covered,), (witness,), _ = union_covers_rows(np.asarray(lo)[None], np.asarray(hi)[None],
                                                  domain)
    return (True, None) if covered else (False, float(witness))


def intersect_row(lo, hi, domain):
    (a,), (b,) = intersect_rows(lo[None], hi[None], domain)
    return Interval.empty() if a > b else Interval(a, b)


class TestArrayCombine:
    @pytest.mark.parametrize("case", sorted(COMBINE_CASES))
    def test_cases_equal_scalar(self, case):
        ivs, domain, union, common = COMBINE_CASES[case]
        lo, hi = as_arrays(ivs)
        assert union_cover_row(lo, hi, domain) == union
        check_union_answer(union, ivs, domain)
        assert intersect_row(lo, hi, domain) == common == intersection(ivs, domain)

    @given(st.lists(st.one_of(st.just(E), st.builds(
               lambda a, w: Interval(a, a + w),
               st.floats(-20, 20), st.floats(0, 15))), min_size=1, max_size=8),
           st.floats(0, 12))
    def test_random_equal_scalar(self, ivs, L):
        domain = Interval(0.0, L)
        lo, hi = as_arrays(ivs)
        check_union_answer(union_cover_row(lo, hi, domain), ivs, domain)
        assert intersect_row(lo, hi, domain) == intersection(ivs, domain)

    # rows of one width, as the intervals of one segment set at several
    # radii; small integers tie on lo often, and E pads the shorter rows
    @given(st.lists(st.lists(st.one_of(st.just(E), st.builds(
               lambda a, w: Interval(a, a + w),
               st.integers(-4, 12).map(float), st.integers(0, 6).map(float))),
               min_size=0, max_size=7), min_size=1, max_size=6),
           st.sampled_from([0.0, 5.0, 10.0]))
    @example([[Interval(0, 2), Interval(0, 5), Interval(5, 10)], [E, E], []], 10.0)
    def test_rows_equal_one_row_calls(self, table, L):
        domain = Interval(0.0, L)
        width = max(len(row) for row in table)
        table = [row + [E] * (width - len(row)) for row in table]
        lo = np.array([as_arrays(row)[0] for row in table]).reshape(len(table), width)
        hi = np.array([as_arrays(row)[1] for row in table]).reshape(len(table), width)
        covered, witness, gap = union_covers_rows(lo, hi, domain)
        for k, ivs in enumerate(table):
            got = (True, None) if covered[k] else (False, float(witness[k]))
            assert got == union_cover_row(lo[k], hi[k], domain)
            check_union_answer(got, ivs, domain)
            assert gap[k] == (0.0 if covered[k] else widest_gap(ivs, domain))
        if width:
            for k, (a, b) in enumerate(zip(*intersect_rows(lo, hi, domain))):
                iv = Interval.empty() if a > b else Interval(a, b)
                assert iv == intersection(table[k], domain)

    # small integers make touching ends, point intervals and intervals
    # that end at or start beyond an end of the domain
    @given(st.lists(st.one_of(st.just(E), st.builds(
               lambda a, w: Interval(a, a + w),
               st.integers(-4, 12).map(float), st.integers(0, 6).map(float))),
               min_size=1, max_size=8),
           st.sampled_from([1.0, 5.0, 10.0]))
    @example([Interval(-2, 0), Interval(4, 4), Interval(10, 12)], 10.0)
    @example([Interval(1, 3), Interval(3, 9)], 10.0)
    def test_gaps_are_the_union_complement(self, ivs, L):
        # the covered stretches meet domain where the union does, the
        # gaps lie between them, and the first gap and the widest are
        # those of union_covers_rows
        domain = Interval(0.0, L)
        lo, hi = as_arrays(ivs)
        a, b, c, d = union_gaps(lo, hi, domain)
        ends = sorted({domain.lo, domain.hi} | {x for iv in ivs for x in (iv.lo, iv.hi)
                                                if domain.contains(x)})
        probes = ends + [0.5 * (u + v) for u, v in zip(ends, ends[1:])]
        for x in probes:
            inside = any(iv.contains(x) for iv in ivs)
            assert inside == any(ck <= x <= dk for ck, dk in zip(c, d)), x
            assert inside or any(ak <= x <= bk for ak, bk in zip(a, b)), x
        assert all(ck <= dk for ck, dk in zip(c, d)) and all(d[:-1] < c[1:])
        assert all(ak < bk for ak, bk in zip(a, b))
        (covered,), (witness,), (width,) = union_covers_rows(lo[None], hi[None], domain)
        assert covered == (len(a) == 0)
        if not covered:
            first = domain.lo if not len(c) or c[0] > domain.lo else 0.5 * (a[0] + b[0])
            assert witness == first
            assert width == max(b - a)

    def test_nan_bound_raises_as_an_interval_does(self):
        lo, hi = np.array([[0.0, math.nan]]), np.array([[5.0, 3.0]])
        with pytest.raises(ValueError, match="interval bounds must not be NaN"):
            intersect_rows(lo, hi, Interval(0.0, 10.0))


class Threshold:
    """A radius search whose radii fit from least on; counts its calls,
    each of which asks about one radius at a time."""

    def __init__(self, least):
        self.least = least
        self.calls = 0
        self.asked = []

    def fits(self, radii):
        (R,) = radii.tolist()
        self.calls += 1
        self.asked.append(R)
        return radii >= self.least, self.least - radii

    def region_at(self, radii):
        ok, _ = self.fits(radii)
        return np.where(ok, 0.0, math.inf), np.where(ok, radii, -math.inf)


class TestRadiusSearch:
    def test_lower_bound_that_fits_comes_back_as_is(self):
        t = Threshold(0.25)
        assert least_radius(0.5, 9.0, t.region_at, TOL) == ((0.0, 0.5), 0.5)
        assert t.calls == 1

    def test_stops_once_the_bracket_is_within_eps(self):
        # the nudged bracket [0, 1.001] is halved 10 times to width <= 1e-3
        tol = Tolerance(eps=1e-3)
        t = Threshold(0.3)
        lo, hi, levels = bisect_radius(0.0, 1.0, t.fits, tol)
        assert t.calls == levels == 10
        assert hi - lo <= tol.eps < 2.0 * (hi - lo)
        assert lo < 0.3 <= hi

    @pytest.mark.parametrize("max_iters", [7, 200])
    def test_runs_max_iters_when_eps_is_below_the_rounding(self, max_iters):
        # at radius 1e12 one ulp is 1.2e-4, far above eps = 1e-9, so the
        # bracket never gets within eps. Once it is an ulp wide its
        # midpoint repeats, and a radius asked about once is not asked again
        tol = Tolerance(max_iters=max_iters)
        t = Threshold(1.5e12)
        lo, hi, levels = bisect_radius(1e12, 2e12, t.fits, tol)
        assert levels == max_iters
        assert t.calls == len(set(t.asked)) <= max_iters
        assert hi - lo > tol.eps

    def test_rechecks_four_eps_higher(self):
        # no midpoint fits, nor the nudged hi = 1.001 that the search ends
        # at, so the radius moves up by 4 eps once more
        tol = Tolerance(eps=1e-3)
        t = Threshold(1.003)
        region, R = least_radius(0.0, 1.0, t.region_at, tol)
        assert R == (1.0 + 1e-3) + 4.0 * 1e-3
        assert region == (0.0, R)
        assert t.calls == 1 + 10 + 2

    def test_raises_when_the_recheck_fails_too(self):
        tol = Tolerance(eps=1e-3)
        t = Threshold(2.0)
        with pytest.raises(ValueError, match="circle parameters must be finite"):
            least_radius(0.0, 1.0, t.region_at, tol)
        assert t.calls == 1 + 10 + 2


def _scramble(R):
    """A pseudo-random bit of the float R: fits(R) that is not monotone."""
    return bool((hash(R.hex()) ^ (hash(R.hex()) >> 17)) & 1) if math.isfinite(R) else True


# margin(R, t): what the predicate reports besides fits, around a
# threshold t; the bisection must end where the loop does whatever it is
MARGINS = {
    "exact": lambda R, t: t - R,
    "one-sided": lambda R, t: t - R if R < t else math.nan,
    "wrong way": lambda R, t: R - t,
    "curved": lambda R, t: (t - R) * (1.0 + abs(t - R)),
    "NaN": lambda R, t: math.nan,
    "inf": lambda R, t: math.inf if R < t else -math.inf,
    "constant": lambda R, t: 1.0,
    "zero": lambda R, t: 0.0,
}

FITS = {
    "threshold": lambda R, t: R >= t,
    "scrambled": lambda R, t: _scramble(R),
    "two bands": lambda R, t: R >= t or (t / 4.0 <= R < t / 2.0),
}


class Predicate:
    """fits over arrays from a scalar rule; records the radii of each call."""

    def __init__(self, fits, margin, t):
        self.rule, self.margin, self.t = fits, margin, t
        self.passes = []

    def scalar(self, R):
        return self.rule(R, self.t)

    def __call__(self, radii):
        rs = radii.tolist()
        self.passes.append(rs)
        return (np.array([self.scalar(R) for R in rs], dtype=bool),
                np.array([self.margin(R, self.t) for R in rs], dtype=float))


@st.composite
def searches(draw):
    """(lo, hi, threshold, tol) over brackets from 1e-300 to 1e300."""
    scale = draw(st.sampled_from([1e-300, 1e-9, 1.0, 1e12, 1e300]))
    lo = draw(st.sampled_from([0.0, 1.0, 1.5])) * scale
    hi = lo + draw(st.floats(0.0, 4.0)) * scale
    t = lo + draw(st.floats(-0.5, 4.5)) * scale
    eps = draw(st.sampled_from([1e-9, 1e-3, scale * 1e-6, 5e-324]))
    max_iters = draw(st.sampled_from([1, 7, 40, 200]))
    return lo, hi, t, Tolerance(eps=eps if eps > 0.0 else 5e-324, max_iters=max_iters)


class TestBisectionPasses:
    @given(search=searches(), fits=st.sampled_from(sorted(FITS)),
           margin=st.sampled_from(sorted(MARGINS)), per_pass=st.sampled_from([1, 2, 3, 8, 64]))
    @example(search=(1e12, 2e12, 1.5e12, Tolerance()), fits="threshold", margin="exact",
             per_pass=64).via("midpoints repeat once the bracket is an ulp wide")
    @example(search=(0.0, 1e300, 3e299, Tolerance(max_iters=200)), fits="threshold",
             margin="one-sided", per_pass=64)
    @example(search=(1e-300, 3e-300, 2e-300, Tolerance(eps=5e-324)), fits="threshold",
             margin="curved", per_pass=64)
    @settings(deadline=None)
    def test_same_bracket_and_levels_as_the_loop(self, search, fits, margin, per_pass):
        lo, hi, t, tol = search
        pred = Predicate(FITS[fits], MARGINS[margin], t)
        steps = []

        def scalar(R):
            steps.append(R)
            return pred.scalar(R)

        want = bisect_sequential(lo, hi, scalar, tol)
        got_lo, got_hi, levels = bisect_radius(lo, hi, pred, tol, per_pass)
        assert (got_lo.hex(), got_hi.hex()) == (want[0].hex(), want[1].hex())
        assert levels == len(steps)
        assert all(1 <= len(rs) <= min(per_pass, MAX_RADII) for rs in pred.passes)
        # every midpoint the loop decides was asked about, none twice
        asked = [R for rs in pred.passes for R in rs]
        assert len(asked) == len(set(asked)) and set(steps) <= set(asked)

    @given(search=searches(), fits=st.sampled_from(sorted(FITS)))
    @settings(deadline=None)
    def test_a_wrong_margin_costs_passes_only(self, search, fits):
        # at 64 radii the tree of each pass holds its first 4 levels
        # whatever the guess (6 before the first guess), so a margin that
        # always points the wrong way walks at least 4 levels a pass
        lo, hi, t, tol = search
        pred = Predicate(FITS[fits], MARGINS["wrong way"], t)
        _, _, levels = bisect_radius(lo, hi, pred, tol, 64)
        assert len(pred.passes) <= math.ceil(levels / 4)

    def test_a_good_margin_settles_a_search_in_few_passes(self):
        pred = Predicate(FITS["threshold"], MARGINS["curved"], 0.3183098861837907)
        _, _, levels = bisect_radius(0.0, 1.0, pred, TOL, 64)
        assert levels == 30 and len(pred.passes) <= 3

    def test_passes_cap_at_max_radii(self):
        pred = Predicate(FITS["threshold"], MARGINS["exact"], 0.3)
        bisect_radius(0.0, 1.0, pred, TOL, 10 ** 6)
        # the first pass has no guess yet: the 63 nodes of 6 levels
        assert len(pred.passes[0]) == 63
        assert max(len(rs) for rs in pred.passes) <= MAX_RADII

    @pytest.mark.parametrize("bound, raises", [(0.9, False), (0.2, True)])
    def test_an_error_surfaces_where_the_loop_meets_it(self, bound, raises):
        # fits raises above bound: the loop for threshold 0.3 asks about
        # radii up to 0.5 and never above 0.9, but passes ask about more
        def rule(R, t):
            if R > bound:
                raise ValueError(f"no radius above {bound}")
            return R >= t

        pred = Predicate(rule, MARGINS["exact"], 0.3)
        if raises:
            with pytest.raises(ValueError, match="no radius above 0.2"):
                bisect_sequential(0.0, 1.0, pred.scalar, TOL)
            with pytest.raises(ValueError, match="no radius above 0.2"):
                bisect_radius(0.0, 1.0, pred, TOL, 64)
        else:
            want = bisect_sequential(0.0, 1.0, pred.scalar, TOL)
            assert bisect_radius(0.0, 1.0, pred, TOL, 64)[:2] == want
