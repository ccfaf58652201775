import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lineplace import (
    Interval,
    NormP,
    Point,
    Segment,
    Tolerance,
    covering_interval,
    intersect_all,
    point_segment_distance,
    union_covers,
)
from lineplace.intervals import SegmentArray, intersect_arrays, union_covers_arrays

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
        iv = covering_interval(seg(0, 0, 0, 5), 2.0, 10.0, norm, TOL)
        assert abs(iv.lo - (-2.0)) < 1e-9
        assert abs(iv.hi - 2.0) < 1e-9

    def test_tangent_horizontal(self):
        iv = covering_interval(seg(1, 3, 6, 3), 3.0, 10.0, N2, TOL)
        assert abs(iv.lo - 1.0) < 1e-9
        assert abs(iv.hi - 6.0) < 1e-9

    def test_unreachable_is_empty(self):
        iv = covering_interval(seg(0, 5, 10, 5), 2.0, 10.0, N2, TOL)
        assert iv.is_empty

    def test_point_segment(self):
        iv = covering_interval(seg(0, 0, 0, 0), 4.0, 10.0, N2, TOL)
        assert abs(iv.lo - (-4.0)) < 1e-9
        assert abs(iv.hi - 4.0) < 1e-9

    def test_zero_radius_on_crossing(self):
        iv = covering_interval(seg(2, -1, 2, 1), 0.0, 10.0, N2, TOL)
        assert not iv.is_empty
        assert abs(iv.lo - 2.0) < 1e-9 and abs(iv.hi - 2.0) < 1e-9

    def test_zero_radius_off_axis(self):
        iv = covering_interval(seg(2, 1, 2, 3), 0.0, 10.0, N2, TOL)
        assert iv.is_empty

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            covering_interval(seg(0, 1, 1, 1), -1.0, 10.0, N2, TOL)
        with pytest.raises(ValueError):
            covering_interval(seg(0, 1, 1, 1), math.inf, 10.0, N2, TOL)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_methods_agree_and_membership(self, p):
        norm = NormP(p)
        rng = random.Random(int(p * 10))
        for _ in range(50):
            s = seg(rng.uniform(-8, 12), rng.uniform(-6, 6),
                    rng.uniform(-8, 12), rng.uniform(-6, 6))
            R = rng.uniform(0.0, 7.0)
            a = covering_interval(s, R, 10.0, norm, TOL, method="analytic")
            b = covering_interval(s, R, 10.0, norm, TOL, method="bisect")
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
    def test_basic(self):
        iv = intersect_all([Interval(0, 5), Interval(2, 9), Interval(-3, 4)])
        assert (iv.lo, iv.hi) == (2.0, 4.0)

    def test_disjoint_empty(self):
        assert intersect_all([Interval(0, 1), Interval(2, 3)]).is_empty

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            intersect_all([])


class TestUnionCovers:
    def test_full_cover(self):
        ok, witness = union_covers([Interval(-1, 4), Interval(3, 11)],
                                   Interval(0, 10))
        assert ok and witness is None

    def test_leading_gap_witness_is_domain_lo(self):
        ok, witness = union_covers([Interval(2, 11)], Interval(0, 10))
        assert not ok
        assert witness == 0.0

    def test_interior_gap_witness_is_midpoint(self):
        ok, witness = union_covers([Interval(-1, 3), Interval(7, 11)],
                                   Interval(0, 10))
        assert not ok
        assert abs(witness - 5.0) < 1e-12

    def test_trailing_gap_witness(self):
        ok, witness = union_covers([Interval(-1, 6)], Interval(0, 10))
        assert not ok
        assert abs(witness - 8.0) < 1e-12

    def test_empty_intervals_ignored(self):
        ok, witness = union_covers([Interval.empty(), Interval(-1, 11)],
                                   Interval(0, 10))
        assert ok and witness is None

    def test_witness_stays_inside_domain(self):
        # a later interval may start beyond the domain end
        ok, witness = union_covers([Interval(-1, 6), Interval(14, 20)],
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

    Both kernels compute the same candidate parameters, heights and
    abscissas bit for bit. Only u = (|y|/R)^p and v^(1/p), v = 1 - u,
    go through different pow implementations, each within 2 ulp, so the
    two v differ by less than 2^-49 and R v^(1/p) by at most
    R (2^-49)^(1/p), as t -> t^(1/p) is subadditive. That term matters
    only near v = 0, where the ball barely reaches the segment; 8 ulp of
    max(|x|, R) covers the roundings everywhere else.
    """
    return 8 * math.ulp(max(abs(x), R)) + R * 2.0 ** (-49.0 / p)


class TestSegmentArray:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @given(segs=st.lists(segment, min_size=1, max_size=12), R=radius)
    def test_covering_matches_scalar(self, p, segs, R):
        norm = NormP(p)
        lo, hi = SegmentArray(segs, norm).covering(R)
        for k, s in enumerate(segs):
            ref = covering_interval(s, R, 10.0, norm, TOL)
            if ref.is_empty:
                assert (lo[k], hi[k]) == (math.inf, -math.inf)
                continue
            assert abs(lo[k] - ref.lo) <= kernel_tolerance(ref.lo, R, p)
            assert abs(hi[k] - ref.hi) <= kernel_tolerance(ref.hi, R, p)

    def test_rejects_bad_radius(self):
        arr = SegmentArray([seg(0, 1, 1, 1)], N2)
        with pytest.raises(ValueError):
            arr.covering(-1.0)
        with pytest.raises(ValueError):
            arr.covering(math.nan)


def as_arrays(ivs):
    return (np.array([iv.lo for iv in ivs], dtype=float),
            np.array([iv.hi for iv in ivs], dtype=float))


E = Interval.empty()
COMBINE_CASES = {
    "gap at start": ([Interval(2, 11), Interval(3, 4)], Interval(0, 10)),
    "interior gap": ([Interval(7, 11), Interval(-1, 3), Interval(1, 2)], Interval(0, 10)),
    "trailing gap": ([Interval(-1, 6), Interval(-5, -2)], Interval(0, 10)),
    "gap beyond domain end": ([Interval(-1, 6), Interval(14, 20)], Interval(0, 10)),
    "covered": ([Interval(3, 11), E, Interval(-1, 4)], Interval(0, 10)),
    "covered by one": ([Interval(-1, 11), Interval(2, 3)], Interval(0, 10)),
    "ties on lo": ([Interval(0, 2), Interval(0, 5), Interval(5, 10)], Interval(0, 10)),
    "L = 0 covered": ([Interval(-1, 0), Interval(3, 4)], Interval(0, 0)),
    "L = 0 missed": ([Interval(1, 2), Interval(-3, -1)], Interval(0, 0)),
    "all empty": ([E, E, E], Interval(0, 10)),
    "all before domain": ([Interval(-5, -1), Interval(-3, -2)], Interval(0, 10)),
}


class TestArrayCombine:
    @pytest.mark.parametrize("case", sorted(COMBINE_CASES))
    def test_cases_equal_scalar(self, case):
        ivs, domain = COMBINE_CASES[case]
        lo, hi = as_arrays(ivs)
        assert union_covers_arrays(lo, hi, domain) == union_covers(ivs, domain)
        assert intersect_arrays(lo, hi, domain) == intersect_all(ivs + [domain])

    @given(st.lists(st.one_of(st.just(E), st.builds(
               lambda a, w: Interval(a, a + w),
               st.floats(-20, 20), st.floats(0, 15))), min_size=1, max_size=8),
           st.floats(0, 12))
    def test_random_equal_scalar(self, ivs, L):
        domain = Interval(0.0, L)
        lo, hi = as_arrays(ivs)
        assert union_covers_arrays(lo, hi, domain) == union_covers(ivs, domain)
        assert intersect_arrays(lo, hi, domain) == intersect_all(ivs + [domain])
