import math
import random

import numpy as np
import pytest

from lineplace import (
    EmptyInput,
    Interval,
    NormP,
    Point,
    Segment,
    Tolerance,
    point_segment_distance,
)
from lineplace.errors import TooLarge
from lineplace.verify import GridSpec, grid_obnoxious_center, grid_one_center, \
    segment_distances

TOL = Tolerance()
N1, N2, N3 = NormP(1.0), NormP(2.0), NormP(3.0)


def seg(ax, ay, bx, by):
    return Segment(Point(ax, ay), Point(bx, by))


def pt(x, y):
    return Segment(Point(x, y), Point(x, y))


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0.0, Interval(0, 1))
        with pytest.raises(ValueError):
            GridSpec(0.1, Interval.empty())

    def test_abscissas_include_both_ends(self):
        xs = GridSpec(0.3, Interval(0.0, 1.0)).abscissas()
        assert xs[0] == 0.0
        assert xs[-1] == 1.0
        assert np.all(np.diff(xs) > 0)

    def test_exact_multiple(self):
        xs = GridSpec(0.25, Interval(0.0, 1.0)).abscissas()
        assert len(xs) == 5

    def test_degenerate_domain(self):
        xs = GridSpec(0.5, Interval(2.0, 2.0)).abscissas()
        assert list(xs) == [2.0]


    @pytest.mark.parametrize("step,lo,hi", [(0.3, 0.0, 1.0), (0.25, 0.0, 1.0), (0.5, 2.0, 2.0),
                                            (1e-3, -1.5, 20.0), (0.1, 0.0, 0.7)])
    def test_chunks_are_the_abscissas(self, step, lo, hi):
        # the values of lo + step * arange(n), cut at hi, plus hi; the
        # step 1e-3 case has 21501 values, over six chunks
        from lineplace.verify import _CHUNK

        grid = GridSpec(step, Interval(lo, hi))
        n = int(math.floor((hi - lo) / step + 1e-9)) + 1
        want = lo + step * np.arange(n, dtype=float)
        want = want[want <= hi]
        if len(want) == 0 or want[-1] < hi:
            want = np.append(want, hi)
        chunks = list(grid.chunks())
        assert all(0 < len(c) <= _CHUNK for c in chunks)
        assert len(chunks) >= -(-len(want) // _CHUNK)
        got = np.concatenate(chunks)
        assert got.tobytes() == want.tobytes()
        assert grid.abscissas().tobytes() == want.tobytes()

    def test_scan_refuses_a_grid_beyond_the_limit(self):
        from lineplace.verify import MAX_GRID_STEPS

        grid = GridSpec(1.0, Interval(0.0, 2.0 * MAX_GRID_STEPS))
        with pytest.raises(TooLarge):
            grid_one_center([pt(1.0, 1.0)], grid, N2)
        with pytest.raises(TooLarge):
            grid_obnoxious_center([pt(1.0, 1.0)], GridSpec(1e-3, Interval(0.0, 1e300)), N2)


class TestSegmentDistances:
    @pytest.mark.parametrize("norm", [N1, N2, N3])
    def test_matches_exact_distance(self, norm):
        rng = random.Random(round(norm.p * 3))
        for _ in range(12):
            s = seg(rng.uniform(-10, 10), rng.uniform(-10, 10),
                    rng.uniform(-10, 10), rng.uniform(-10, 10))
            xs = np.linspace(-12.0, 12.0, 40)
            got = segment_distances(xs, s, norm)
            for x, g in zip(xs, got):
                want = point_segment_distance(Point(float(x), 0.0), s, norm, TOL)
                assert abs(g - want) < 1e-7 * max(1.0, want)

    def test_degenerate_segment(self):
        got = segment_distances(np.array([0.0, 3.0]), pt(3, 4), N2)
        assert abs(got[0] - 5.0) < 1e-12
        assert abs(got[1] - 4.0) < 1e-12


class TestGridCenters:
    def test_one_center_two_points(self):
        grid = GridSpec(1e-3, Interval(0.0, 10.0))
        c = grid_one_center([pt(0, 1), pt(10, 1)], grid, N2)
        assert abs(c.cx - 5.0) < 2e-3
        assert abs(c.radius - math.sqrt(26.0)) < 2e-3

    def test_obnoxious_single_point(self):
        grid = GridSpec(1e-3, Interval(0.0, 10.0))
        c = grid_obnoxious_center([pt(5, 1)], grid, N2)
        assert c.cx == 0.0
        assert abs(c.radius - math.sqrt(26.0)) < 2e-3

    def test_ties_resolve_to_smallest_x(self):
        grid = GridSpec(0.5, Interval(0.0, 10.0))
        c = grid_obnoxious_center([seg(0, 3, 10, 3)], grid, N2)
        assert c.cx == 0.0

    def test_empty_rejected(self):
        grid = GridSpec(0.5, Interval(0.0, 10.0))
        with pytest.raises(EmptyInput):
            grid_one_center([], grid, N2)
