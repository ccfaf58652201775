import math
import random

import pytest

from lineplace import intervals
from lineplace import (
    EmptyInput,
    EnvelopePiece,
    LowerEnvelope,
    NormP,
    Point,
    Segment,
    Tolerance,
    base_envelope,
    compact,
    compute_lower_envelope,
    envelope_value,
    largest_empty_from_envelope,
    max_empty_binsearch,
    merge_lower_envelopes,
    point_segment_distance,
)

TOL = Tolerance()
N1, N2, N3 = NormP(1.0), NormP(2.0), NormP(3.0)


def seg(ax, ay, bx, by):
    return Segment(Point(ax, ay), Point(bx, by))


def pt(x, y):
    return Segment(Point(x, y), Point(x, y))


def random_segments(rng, n, span=12.0):
    return [seg(rng.uniform(-4, 14), rng.uniform(-span, span),
                rng.uniform(-4, 14), rng.uniform(-span, span))
            for _ in range(n)]


def check_tiling(env, L):
    pieces = env.pieces
    assert pieces[0].a == 0.0
    assert pieces[-1].b == L
    for prev, cur in zip(pieces, pieces[1:]):
        assert prev.b == cur.a


def check_minimal(env, segments, norm, samples=250, rng=None):
    rng = rng or random.Random(0)
    L = env.pieces[-1].b
    for _ in range(samples):
        x = rng.uniform(0.0, L)
        got = envelope_value(env, segments, x, norm, TOL)
        want = min(point_segment_distance(Point(x, 0.0), s, norm, TOL)
                   for s in segments)
        assert abs(got - want) <= TOL.eps * max(1.0, abs(want)) * 10.0


class TestPieces:
    def test_piece_validation(self):
        with pytest.raises(ValueError):
            EnvelopePiece(2.0, 1.0, 0)
        with pytest.raises(ValueError):
            EnvelopePiece(0.0, 1.0, -1)
        with pytest.raises(ValueError):
            LowerEnvelope(())

    def test_base_envelope_splits_at_argmin(self):
        env = base_envelope(0, seg(2, 1, 2, 5), 10.0, N2, TOL)
        assert len(env.pieces) == 2
        assert env.pieces[0].b == 2.0
        check_tiling(env, 10.0)


class TestEnvelopeThreePoints:
    def test_breakpoints(self):
        segs = [pt(0, 1), pt(5, 1), pt(10, 1)]
        env = compute_lower_envelope(segs, 10.0, N2, TOL)
        bps = sorted({p.a for p in env.pieces} | {p.b for p in env.pieces})
        assert any(abs(b - 2.5) < 1e-8 for b in bps)
        assert any(abs(b - 7.5) < 1e-8 for b in bps)
        check_tiling(env, 10.0)
        check_minimal(env, segs, N2)

    def test_largest_empty(self):
        segs = [pt(0, 1), pt(5, 1), pt(10, 1)]
        env = compute_lower_envelope(segs, 10.0, N2, TOL)
        c = largest_empty_from_envelope(env, segs, N2, TOL)
        assert abs(c.cx - 2.5) < 1e-8
        assert abs(c.radius - math.hypot(2.5, 1.0)) < 1e-8


class TestDoubleCrossingRegression:
    # one cell can hide two crossings: a point profile dips below a
    # segment profile on an interior window only
    def test_interior_dip_resolved(self):
        segs = [pt(0, 1), seg(-0.496, -0.372, 3.104, -5.172)]
        env = compute_lower_envelope(segs, 10.0, N2, TOL)
        owners = [p.seg_index for p in env.pieces]
        assert owners[0] == 1
        assert 0 in owners[1:]
        check_tiling(env, 10.0)
        check_minimal(env, segs, N2, samples=800)


class TestEnvelopeStructure:
    @pytest.mark.parametrize("norm", [N1, N2, N3])
    def test_random_instances(self, norm):
        rng = random.Random(round(norm.p * 7))
        for _ in range(12):
            n = rng.randint(1, 9)
            segs = random_segments(rng, n)
            env = compute_lower_envelope(segs, 10.0, norm, TOL)
            check_tiling(env, 10.0)
            check_minimal(env, segs, norm, samples=120, rng=rng)
            again = compact(env, segs, norm, TOL)
            assert again.pieces == env.pieces

    def test_halves_vs_one_off(self):
        rng = random.Random(99)
        for _ in range(10):
            segs = random_segments(rng, rng.randint(2, 10))
            e1 = compute_lower_envelope(segs, 10.0, N2, TOL, split="halves")
            e2 = compute_lower_envelope(segs, 10.0, N2, TOL, split="one-off")
            c1 = largest_empty_from_envelope(e1, segs, N2, TOL)
            c2 = largest_empty_from_envelope(e2, segs, N2, TOL)
            assert abs(c1.radius - c2.radius) < 1e-9
            b1 = [p.b for p in e1.pieces[:-1]]
            b2 = [p.b for p in e2.pieces[:-1]]
            assert len(b1) == len(b2)
            for u, v in zip(b1, b2):
                assert abs(u - v) <= TOL.eps

    def test_splits_agree_with_duplicates_and_verticals(self):
        # duplicates defeat any build order shortcut that assumes the
        # newcomer strictly loses, and near-tangent triples once left
        # sub-eps slivers in one build order but not the other
        rng = random.Random(9069)
        n = rng.randint(1, 60)
        segs = []
        for _ in range(n):
            r = rng.random()
            if r < 0.15:
                x, y = rng.uniform(-6, 16), rng.uniform(-9, 9)
                segs.append(pt(x, y))
            elif r < 0.3:
                x = rng.uniform(-6, 16)
                segs.append(seg(x, rng.uniform(-9, 9), x, rng.uniform(-9, 9)))
            else:
                segs.append(seg(rng.uniform(-6, 16), rng.uniform(-9, 9),
                                rng.uniform(-6, 16), rng.uniform(-9, 9)))
        for _ in range(rng.randint(0, 4)):
            segs.append(segs[rng.randrange(len(segs))])
        for norm in (N1, N2, N3):
            e1 = compute_lower_envelope(segs, 10.0, norm, TOL, split="halves")
            e2 = compute_lower_envelope(segs, 10.0, norm, TOL, split="one-off")
            assert [p.seg_index for p in e1.pieces] == \
                   [p.seg_index for p in e2.pieces]
            for u, v in zip(e1.pieces, e2.pieces):
                assert abs(u.a - v.a) <= TOL.eps
                assert abs(u.b - v.b) <= TOL.eps

    def test_merge_of_bases_matches_direct(self):
        segs = [pt(1, 2), seg(6, 1, 9, 4)]
        e0 = base_envelope(0, segs[0], 10.0, N2, TOL)
        e1 = base_envelope(1, segs[1], 10.0, N2, TOL)
        merged = merge_lower_envelopes(e0, e1, segs, N2, TOL)
        direct = compute_lower_envelope(segs, 10.0, N2, TOL)
        assert merged.pieces == direct.pieces

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            compute_lower_envelope([], 10.0, N2, TOL)


class TestMaxEmpty:
    def test_single_far_point(self):
        c = max_empty_binsearch([pt(5, 1)], 10.0, N2, TOL)
        assert c.cx == 0.0
        assert abs(c.radius - math.sqrt(26.0)) < 1e-8

    def test_parallel_segment(self):
        c = max_empty_binsearch([seg(0, 100, 10, 100)], 10.0, N2, TOL)
        assert c.cx == 0.0
        assert abs(c.radius - 100.0) < 1e-7

    def test_two_points_middle(self):
        c = max_empty_binsearch([pt(0, 1), pt(10, 1)], 10.0, N2, TOL)
        assert abs(c.cx - 5.0) < 1e-7
        assert abs(c.radius - math.sqrt(26.0)) < 1e-8

    def test_crossing_segment_still_positive(self):
        segs = [seg(3, -2, 3, 2)]
        c = max_empty_binsearch(segs, 10.0, N2, TOL)
        assert abs(c.cx - 10.0) < 1e-7
        assert abs(c.radius - 7.0) < 1e-7

    def test_covered_domain_returns_zero(self):
        segs = [seg(-1, 0, 11, 0)]
        c = max_empty_binsearch(segs, 10.0, N2, TOL)
        assert c.radius == 0.0

    @pytest.mark.parametrize("norm", [N1, N2, N3])
    def test_routes_agree(self, norm):
        rng = random.Random(round(norm.p * 13))
        for _ in range(10):
            segs = random_segments(rng, rng.randint(1, 8))
            c1 = max_empty_binsearch(segs, 10.0, norm, TOL)
            env = compute_lower_envelope(segs, 10.0, norm, TOL)
            c2 = largest_empty_from_envelope(env, segs, norm, TOL)
            assert abs(c1.radius - c2.radius) <= 2e-9


class TestArrayRoute:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_routes_agree_across_crossover(self, p, monkeypatch):
        norm = NormP(p)
        rng = random.Random(round(p * 1000) + 1)
        cut = intervals.ARRAY_MIN_SEGMENTS
        for n in (5, cut - 1, cut, 150):
            segments = random_segments(rng, n - n // 3, span=30.0)
            segments += [pt(rng.uniform(-4, 14), rng.uniform(-30, 30))
                         for _ in range(n // 3)]
            got = {}
            for route, threshold in (("array", 1), ("scalar", 10**9)):
                monkeypatch.setattr(intervals, "ARRAY_MIN_SEGMENTS", threshold)
                got[route] = max_empty_binsearch(segments, 10.0, norm, TOL)
            assert abs(got["array"].radius - got["scalar"].radius) <= 2 * TOL.eps
            for c in got.values():
                assert 0.0 <= c.cx <= 10.0
                nearest = min(point_segment_distance(Point(c.cx, 0.0), s, norm, TOL)
                              for s in segments)
                assert nearest == c.radius
