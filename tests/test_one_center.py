import math
import random

import pytest

from lineplace import (
    EmptyInput,
    NormP,
    PlacedCircle,
    Point,
    Segment,
    Tolerance,
    min_enclosing,
    point_segment_distance,
)
from lineplace._reference import covering_interval, min_enclosing_scalar

TOL = Tolerance()
N1, N2, N3 = NormP(1.0), NormP(2.0), NormP(3.0)


def seg(ax, ay, bx, by):
    return Segment(Point(ax, ay), Point(bx, by))


def pt(x, y):
    return Segment(Point(x, y), Point(x, y))


def farthest(segments, x, norm):
    return max(point_segment_distance(Point(x, 0.0), s, norm, TOL)
               for s in segments)


class TestPlacedCircle:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlacedCircle(0.0, -1.0)
        with pytest.raises(ValueError):
            PlacedCircle(math.nan, 1.0)


class TestMinEnclosing:
    def test_single_point_segment(self):
        c = min_enclosing([pt(5, 3)], 10.0, N2, TOL)
        assert c.cx == 5.0 and c.radius == 3.0

    def test_two_far_points(self):
        c = min_enclosing([pt(0, 1), pt(10, 1)], 10.0, N2, TOL)
        assert abs(c.cx - 5.0) < 1e-7
        assert abs(c.radius - math.sqrt(26.0)) < 1e-9

    def test_pinned_exact_early_return(self):
        c = min_enclosing([pt(0, 1), pt(2, 3)], 10.0, N2, TOL)
        assert c.cx == 2.0 and c.radius == 3.0

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            min_enclosing([], 10.0, N2, TOL)

    def test_degenerate_domain(self):
        c = min_enclosing([pt(3, 4)], 0.0, N2, TOL)
        assert c.cx == 0.0
        assert abs(c.radius - 5.0) < 2e-9

    @pytest.mark.parametrize("norm", [N1, N2, N3])
    def test_invariants_random(self, norm):
        rng = random.Random(round(norm.p * 100))
        for _ in range(25):
            n = rng.randint(1, 6)
            segments = [seg(rng.uniform(-10, 20), rng.uniform(-10, 10),
                            rng.uniform(-10, 20), rng.uniform(-10, 10))
                        for _ in range(n)]
            c = min_enclosing(segments, 10.0, norm, TOL)
            assert 0.0 <= c.cx <= 10.0
            # enclosure: every segment within the reported radius
            assert farthest(segments, c.cx, norm) <= c.radius + 1e-7
            # tightening: a slightly smaller radius admits no center
            smaller = c.radius - max(1e-6, 1e-6 * c.radius)
            if smaller > 0.0:
                ivs = [covering_interval(s, smaller, norm) for s in segments]
                lo = max((iv.lo for iv in ivs if not iv.is_empty), default=None)
                hi = min((iv.hi for iv in ivs if not iv.is_empty), default=None)
                feasible = (all(not iv.is_empty for iv in ivs)
                            and lo is not None
                            and max(lo, 0.0) <= min(hi, 10.0))
                assert not feasible


def bits(c):
    return float.hex(c.cx), float.hex(c.radius)


class TestArrayRoute:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_routes_agree_across_crossover(self, p):
        # min_enclosing's array route against the scalar reference at
        # every size, from the smallest: the same search over the same
        # bounds, and on these draws the same bits at p = 1 and 2 (the
        # powers are exact at p = 1; at p = 2 numpy's square root and
        # Python's pow can round 1 ulp apart, so other draws may move a
        # center by an ulp)
        norm = NormP(p)
        rng = random.Random(round(p * 1000))
        for n in (2, 3, 5, 12, 23, 24, 150):
            segments = [seg(rng.uniform(-30, 40), rng.uniform(-20, 20),
                            rng.uniform(-30, 40), rng.uniform(-20, 20))
                        for _ in range(n - n // 3)]
            # the point segments k-cover reconstruction passes
            segments += [pt(rng.uniform(-30, 40), rng.uniform(-20, 20))
                         for _ in range(n // 3)]
            got = {"array": min_enclosing(segments, 10.0, norm, TOL),
                   "scalar": min_enclosing_scalar(segments, 10.0, norm, TOL)}
            assert abs(got["array"].radius - got["scalar"].radius) <= 2 * TOL.eps
            if p in (1.0, 2.0):
                assert bits(got["array"]) == bits(got["scalar"]), n
            for c in got.values():
                assert 0.0 <= c.cx <= 10.0
                assert farthest(segments, c.cx, norm) <= c.radius + 1e-7

    def test_routes_agree_at_scale_1e_170(self):
        # 30 spread segments near 1e-170, 40 draws at each p: the array
        # route's distance estimates keep the sign of their stationary
        # candidate though ux * uy underflows there, so its bounds are
        # the scalar route's and the radii agree. One draw still
        # differs: SegmentArray.covering finds no region at the radius
        # that the scalar covering intervals accept, and the bisection,
        # whose eps is absolute, ends near eps (CHANGES.md FOUND)
        sc = 1e-170
        differ = []
        for p in (1.5, 3.0):
            for draw in range(40):
                rng = random.Random(draw)
                segments = [seg(*(rng.uniform(-100, 100) * sc for _ in range(4)))
                            for _ in range(30)]
                got = min_enclosing(segments, 10 * sc, NormP(p), TOL)
                want = min_enclosing_scalar(segments, 10 * sc, NormP(p), TOL).radius
                if abs(got.radius - want) > 1e-12 * want:
                    differ.append((p, draw))
        assert differ == [(3.0, 35)]
