import math
import random

import numpy as np
import pytest

from lineplace import (
    AxisFrame,
    NonIsometricRotation,
    NormP,
    Point,
    Segment,
    Tolerance,
    lp_distance,
    point_segment_distance,
    transform_to_axis,
)
from lineplace._reference import axis_argmin_exact, distance_argmin_on_axis
from lineplace.geometry import _projection_scaled, _projection_scaled_float, \
    axis_argmin_abscissas, axis_distances, rescored_extreme, segment_columns
from lineplace.obnoxious import compute_lower_envelope
from lineplace.verify import segment_distances

TOL = Tolerance()
N1, N2, N3 = NormP(1.0), NormP(2.0), NormP(3.0)


def seg(ax, ay, bx, by):
    return Segment(Point(ax, ay), Point(bx, by))


class TestNormP:
    def test_rejects_bad_p(self):
        for p in (0.5, 0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                NormP(p)

    def test_accepts_one_and_up(self):
        assert NormP(1).p == 1.0
        assert NormP(7.25).p == 7.25


class TestTolerance:
    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            Tolerance(eps=0.0)
        with pytest.raises(ValueError):
            Tolerance(eps=-1e-9)
        with pytest.raises(ValueError):
            Tolerance(max_iters=0)

    def test_defaults(self):
        assert TOL.eps == 1e-9
        assert TOL.max_iters == 200


class TestLpDistance:
    def test_euclidean_345(self):
        assert lp_distance(Point(0, 0), Point(3, 4), N2) == 5.0

    def test_taxicab_345(self):
        assert lp_distance(Point(0, 0), Point(3, 4), N1) == 7.0

    def test_cubic_diagonal(self):
        d = lp_distance(Point(0, 0), Point(1, 1), N3)
        assert abs(d - 2.0 ** (1.0 / 3.0)) < 1e-15

    def test_zero(self):
        assert lp_distance(Point(2, -3), Point(2, -3), N3) == 0.0

    def test_symmetry_and_axis(self):
        a, b = Point(-1, 2), Point(4, -5)
        assert lp_distance(a, b, N3) == lp_distance(b, a, N3)
        assert lp_distance(Point(0, 0), Point(0, -8), N3) == 8.0


class TestPointSegmentDistance:
    def test_diagonal_segment_euclidean(self):
        d = point_segment_distance(Point(0, 0), seg(1, 1, 3, -1), N2, TOL)
        assert abs(d - math.sqrt(2.0)) < 1e-12

    def test_degenerate_segment(self):
        d = point_segment_distance(Point(0, 0), seg(3, 4, 3, 4), N2, TOL)
        assert d == 5.0

    def test_interior_projection(self):
        d = point_segment_distance(Point(5, 0), seg(0, 2, 10, 2), N2, TOL)
        assert d == 2.0

    def test_endpoint_wins(self):
        d = point_segment_distance(Point(-3, 0), seg(0, 1, 5, 1), N1, TOL)
        assert abs(d - 4.0) < 1e-12

    def test_on_segment_zero(self):
        d = point_segment_distance(Point(1, 1), seg(0, 0, 2, 2), N3, TOL)
        assert d < 1e-12

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 6.0])
    def test_agrees_with_iterative_search(self, p):
        # the golden-section search of lineplace.verify, which measures
        # from the axis, on the segment moved down by q.y
        rng = random.Random(p)
        norm = NormP(p)
        for _ in range(60):
            q = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
            s = seg(rng.uniform(-10, 10), rng.uniform(-10, 10),
                    rng.uniform(-10, 10), rng.uniform(-10, 10))
            exact = point_segment_distance(q, s, norm, TOL)
            moved = seg(s.a.x, s.a.y - q.y, s.b.x, s.b.y - q.y)
            search = float(segment_distances(np.array([q.x]), moved, norm)[0])
            assert exact <= search + 1e-9
            assert abs(exact - search) < 1e-6 * max(1.0, exact)

    def test_underflowing_squared_length(self):
        # ux*ux + uy*uy underflows for segments shorter than about 1e-154;
        # the distance is that of the instance scaled up by 2^600, where
        # nothing underflows, scaled back
        import random

        rng = random.Random(170)
        up = 2.0 ** 600
        for scale in (3e-158, 1e-170, 1e-200, 1e-300):
            for _ in range(40):
                c = [rng.uniform(-10, 10) * scale for _ in range(6)]
                if rng.random() < 0.3:
                    c[0] *= 1e60  # a point far from the segment
                q, s = Point(c[0], c[1]), seg(*c[2:])
                d = point_segment_distance(q, s, N2, TOL)
                big = point_segment_distance(Point(c[0] * up, c[1] * up),
                                             seg(*(v * up for v in c[2:])), N2, TOL)
                assert abs(d - big / up) <= 4 * math.ulp(big / up), (c, d, big / up)

    def test_scalar_scaled_projection_is_the_array_form(self):
        # the scalar caller's form of the scaled projection gives the
        # bits of the array form, on point segments (0 or -0 in either
        # coordinate) and on segments whose squared length underflows,
        # down to subnormal directions, seen from near and far points
        rng = random.Random("projection")
        for _ in range(4000):
            scale = 10.0 ** rng.uniform(-323.0, -155.0)
            ux, uy = (rng.choice([0.0, -0.0, rng.uniform(-1.0, 1.0) * scale, 5e-324])
                      for _ in range(2))
            A, B = (rng.choice([0.0, rng.uniform(-10.0, 10.0) * scale,
                                rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-300.0, 308.0)])
                    for _ in range(2))
            want = float(_projection_scaled(np.array(A), np.array(B), np.array(ux), np.array(uy)))
            assert _projection_scaled_float(A, B, ux, uy).hex() == want.hex(), (A, B, ux, uy)

    def test_subnormal_segment(self):
        # a segment 2 ulp of the smallest subnormal long, seen from above
        tiny = 5e-324
        d = point_segment_distance(Point(tiny, 1e-310), seg(0.0, 0.0, 2 * tiny, 0.0),
                                   N2, TOL)
        assert d == 1e-310


class TestAxisDistances:
    @pytest.mark.parametrize("scale", [1e-170, 1e-150, 1.0])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_stationary_sign_survives_underflow(self, p, scale):
        # near 1e-170 the product ux * uy underflows to 0; the sign of
        # the stationary candidate comes from the two signs instead, so
        # the estimate stays within a few ulp of the scalar distance
        s = seg(0.0, 1.0 * scale, 2.0 * scale, -0.5 * scale)
        cols = segment_columns([s])
        for x in np.linspace(-1.0, 3.0, 41) * scale:
            est = float(axis_distances(float(x), cols, p)[0])
            exact = point_segment_distance(Point(float(x), 0.0), s, NormP(p), TOL)
            assert abs(est - exact) <= 4 * math.ulp(exact), (x, est, exact)


def folded_distances(x, cols, norm, largest, initial):
    """Python's max()/min() fold of point_segment_distance over the rows."""
    xs = np.broadcast_to(x, len(cols)).tolist()
    best = initial
    for xv, row in zip(xs, cols.tolist()):
        v = point_segment_distance(Point(xv, 0.0), seg(*row), norm, TOL)
        if best is None or (v > best if largest else v < best):
            best = v
    return best


class TestRescoredExtreme:
    @pytest.mark.parametrize("scale", [1.0, 1e-170, 1e300])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_equals_the_fold_over_every_row(self, p, scale):
        # near-ties, duplicate rows, estimates a few ulp off and rows
        # whose estimate is not finite (injected, or coordinates whose
        # differences overflow)
        norm = NormP(p)
        rng = random.Random(f"rescored{p}{scale}")
        for draw in range(12):
            n = rng.randint(1, 30)
            cols = np.array([[rng.uniform(-10, 10) * scale for _ in range(4)]
                             for _ in range(n)])
            if n > 3:
                cols[rng.randrange(n)] = cols[rng.randrange(n)]
                for k in (1, 2, 3):
                    cols[rng.randrange(n)] = cols[rng.randrange(n)] * (1.0 + k * 2.0 ** -52)
            if scale == 1e300 and draw % 3 == 0:
                cols[rng.randrange(n)] = [-1.7e308, 1.7e308, 1.5e308, -1e308]
            xs = np.array([rng.uniform(-5, 15) * scale for _ in range(n)])
            for x in (float(xs[0]), xs):
                approx = axis_distances(x, cols, p)
                approx *= 1.0 + np.array([rng.randint(-3, 3) for _ in range(n)]) * 2.0 ** -53
                if draw % 2:
                    approx[rng.randrange(n)] = rng.choice((math.inf, -math.inf, math.nan))
                finite = approx[np.isfinite(approx)]
                middle = float(np.median(finite)) if len(finite) else 1.0
                for largest in (True, False):
                    for initial in (None, 0.0, middle):
                        got = rescored_extreme(approx, x, cols, norm, TOL, 10.0 * scale,
                                               largest=largest, initial=initial)
                        want = folded_distances(x, cols, norm, largest, initial)
                        assert got.hex() == want.hex(), (draw, largest, initial, got, want)


def axis_argmin(s, L=10.0):
    return float(axis_argmin_abscissas(segment_columns([s]), L)[0])


class TestOxIntersection:
    # where a segment meets the axis, its profile's minimiser is there
    def test_proper_crossing(self):
        assert axis_argmin(seg(1, -1, 3, 1)) == 2.0

    def test_collinear_reports_left_end(self):
        assert axis_argmin(seg(5, 0, 1, 0)) == 1.0

    def test_endpoint_touch(self):
        assert axis_argmin(seg(2, 0, 4, 3)) == 2.0

    def test_miss(self):
        # no crossing: the end nearer the axis
        assert axis_argmin(seg(0, 1, 5, 2)) == 0.0
        assert axis_argmin(seg(1, -2, 5, -1)) == 5.0


class TestArgminOnAxis:
    def test_clamps_to_left_end(self):
        x, d = axis_argmin_exact(seg(-4, 3, -2, 3), 10.0, N2, TOL)
        assert x == 0.0
        assert abs(d - math.sqrt(13.0)) < 1e-12

    def test_clamps_to_right_end(self):
        x, d = axis_argmin_exact(seg(12, 1, 14, 1), 10.0, N2, TOL)
        assert x == 10.0
        assert abs(d - math.sqrt(5.0)) < 1e-12

    def test_interior_minimum(self):
        x, d = axis_argmin_exact(seg(5, 2, 5, 7), 10.0, N3, TOL)
        assert x == 5.0
        assert abs(d - 2.0) < 1e-12

    def test_crossing_gives_zero(self):
        x, d = axis_argmin_exact(seg(3, -1, 5, 1), 10.0, N1, TOL)
        assert abs(x - 4.0) < 1e-12
        assert d == 0.0

    @pytest.mark.parametrize("L", [10.0, 0.0])
    def test_array_kernel_picks_the_same_abscissa(self, L):
        # bit for bit, signs of zero included, over level rows, equal |y|
        # on both sides of the axis, ends on the axis and signed zeros
        rng = random.Random(f"argmin{L}")
        rows = []
        for _ in range(4000):
            row = [rng.choice((0.0, -0.0, 1.0, -1.0, 10.0)) if rng.random() < 0.3
                   else rng.uniform(-5.0, 15.0) for _ in range(4)]
            kind = rng.random()
            if kind < 0.15:
                row[3] = row[1]
            elif kind < 0.3:
                row[3] = -row[1]
            rows.append(row)
        got = axis_argmin_abscissas(np.array(rows), L).tolist()
        want = [axis_argmin_exact(seg(*row), L, N2, TOL)[0] for row in rows]
        assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_derivative_search_agrees(self):
        rng = random.Random(11)
        for _ in range(40):
            s = seg(rng.uniform(-5, 15), rng.uniform(-8, 8),
                    rng.uniform(-5, 15), rng.uniform(-8, 8))
            x, d = distance_argmin_on_axis(s, 10.0, N2, TOL)
            xe, de = axis_argmin_exact(s, 10.0, N2, TOL)
            assert abs(d - de) < 1e-6
            dx = point_segment_distance(Point(x, 0.0), s, N2, TOL)
            assert dx <= de + 1e-6


class TestEqualDistancePoint:
    # the ownership boundary of two segments' lower envelope
    def test_two_points(self):
        s1 = seg(0, 1, 0, 1)
        s2 = seg(3, 2, 3, 2)
        left, right = compute_lower_envelope([s1, s2], 3.0, N2, TOL).pieces
        assert (left.seg_index, right.seg_index) == (0, 1)
        assert abs(left.b - 2.0) < 1e-8

    def test_crossing_is_equidistant(self):
        # the merge's only root finder is _subcell_roots: each boundary
        # of two owners has the two distances equal within eps
        checked = 0
        for p in (1.0, 1.5, 3.0):
            norm = NormP(p)
            rng = random.Random(round(p * 10))
            for _ in range(200):
                segs = [seg(rng.uniform(-4, 14), rng.uniform(-12, 12), rng.uniform(-4, 14),
                            rng.uniform(-12, 12)) for _ in range(2)]
                env = compute_lower_envelope(segs, 10.0, norm, TOL)
                for left, right in zip(env.pieces, env.pieces[1:]):
                    x = left.b
                    d1 = point_segment_distance(Point(x, 0.0), segs[left.seg_index], norm, TOL)
                    d2 = point_segment_distance(Point(x, 0.0), segs[right.seg_index], norm, TOL)
                    assert abs(d1 - d2) <= TOL.eps
                    checked += 1
        assert checked >= 300


class TestTransformToAxis:
    def test_euclidean_rotation(self):
        con = seg(1, 1, 4, 5)
        frame = transform_to_axis(con, N2)
        assert abs(frame.L - 5.0) < 1e-12
        fa = frame.forward_point(con.a)
        fb = frame.forward_point(con.b)
        assert abs(fa.x) < 1e-12 and abs(fa.y) < 1e-12
        assert abs(fb.x - 5.0) < 1e-12 and abs(fb.y) < 1e-12

    def test_euclidean_preserves_distance(self):
        frame = transform_to_axis(seg(1, 1, 4, 5), N2)
        a, b = Point(-2, 7), Point(3, -4)
        d0 = lp_distance(a, b, N2)
        d1 = lp_distance(frame.forward_point(a), frame.forward_point(b), N2)
        assert abs(d0 - d1) < 1e-12

    def test_round_trip(self):
        frame = transform_to_axis(seg(1, 1, 4, 5), N2)
        q = Point(0.37, -2.2)
        r = frame.inverse_point(frame.forward_point(q))
        assert abs(r.x - q.x) < 1e-12 and abs(r.y - q.y) < 1e-12

    def test_axis_parallel_other_norms(self):
        frame = transform_to_axis(seg(2, 3, 2, 7), N1)
        fa = frame.forward_point(Point(2, 3))
        fb = frame.forward_point(Point(2, 7))
        assert (fa.x, fa.y) == (0.0, 0.0)
        assert (fb.x, fb.y) == (4.0, 0.0)
        q = Point(5, 4)
        d0 = lp_distance(Point(2, 3), q, N1)
        d1 = lp_distance(Point(0, 0), frame.forward_point(q), N1)
        assert abs(d0 - d1) < 1e-12

    def test_oblique_rejected_for_p1(self):
        with pytest.raises(NonIsometricRotation):
            transform_to_axis(seg(0, 0, 3, 4), N1)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            transform_to_axis(seg(1, 1, 1, 1), N2)

    def test_segment_round_trip(self):
        frame = transform_to_axis(seg(0, 0, 0, -5), N3)
        s = seg(1, 2, -3, 4)
        r = frame.inverse_segment(frame.forward_segment(s))
        for got, want in ((r.a, s.a), (r.b, s.b)):
            assert abs(got.x - want.x) < 1e-12
            assert abs(got.y - want.y) < 1e-12
