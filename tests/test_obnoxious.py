import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from lineplace import _reference, geometry, k_cover, obnoxious
from lineplace import (
    EmptyInput,
    NormP,
    Point,
    Segment,
    Tolerance,
    max_empty_binsearch,
    point_segment_distance,
)
from lineplace._reference import compact, envelope_one_off, envelope_value
from lineplace.geometry import segment_columns
from lineplace.intervals import PASS_CELLS, SegmentArray
from lineplace.obnoxious import _AFFINE, EnvelopePiece, LowerEnvelope, _build_profile, \
    compute_lower_envelope, largest_empty_from_envelope, max_empty_envelope

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


# the production build, and the one-off fold that tests compare with it
BUILDS = {"halves": compute_lower_envelope, "one-off": envelope_one_off}

# rows in the axis frame of the constraint [0, 0, 1e300, 0] whose
# profiles overflow: U ay - V ax gives them NaN and inf pieces
NEAR_1E300 = np.array([[-8.375333314944607e299, -7.842016392780372e294,
                        -6.572665339832966e299, 3.7292578879228924e296],
                       [8.795959788966634e299, 3.0939054382359757e296,
                        4.066444125146898e299, -6.5443474838477e296]])


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
        tilt = random.Random(f"45 degrees {norm.p}")
        for _ in range(12):
            n = rng.randint(1, 9)
            segs = random_segments(rng, n)
            # and one segment at exactly 45 degrees, |V| = U at p = 1
            x, y, d = tilt.randint(-8, 28) / 2.0, tilt.randint(-24, 24) / 2.0, tilt.choice(
                [-2.0, -0.5, 1.0, 3.0])
            segs.insert(tilt.randrange(n + 1), seg(x, y, x + abs(d), y + d))
            env = compute_lower_envelope(segs, 10.0, norm, TOL)
            check_tiling(env, 10.0)
            check_minimal(env, segs, norm, samples=120, rng=rng)
            again = compact(env, TOL)
            assert again.pieces == env.pieces

    def test_halves_vs_one_off(self):
        rng = random.Random(99)
        for _ in range(10):
            segs = random_segments(rng, rng.randint(2, 10))
            e1 = compute_lower_envelope(segs, 10.0, N2, TOL)
            e2 = envelope_one_off(segs, 10.0, N2, TOL)
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
            e1 = compute_lower_envelope(segs, 10.0, norm, TOL)
            e2 = envelope_one_off(segs, 10.0, norm, TOL)
            assert [p.seg_index for p in e1.pieces] == \
                   [p.seg_index for p in e2.pieces]
            for u, v in zip(e1.pieces, e2.pieces):
                assert abs(u.a - v.a) <= TOL.eps
                assert abs(u.b - v.b) <= TOL.eps

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            compute_lower_envelope([], 10.0, N2, TOL)


class TestP1Profile:
    # at p = 1 the profile builder takes the p -> 1 limit of the general
    # cone | affine | cone decomposition; |V| = U is the boundary case
    # between the shallow (|V| < U) and steep (|V| > U) limits
    CASES = {
        "slope +1 crossing": seg(1, -2, 5, 2),
        "slope -1 crossing": seg(1, 2, 5, -2),
        "slope +1 above": seg(1, 1, 4, 4),
        "slope -1 below": seg(1, -1, 4, -4),
        "slope -1 touching": seg(-3, 3, 0, 0),
        "shallow crossing": seg(0, -1, 6, 2),
        "shallow above": seg(0, 1, 6, 3),
        "shallow below, leftward": seg(6, -3, 0.5, -1),
        "steep crossing": seg(2, -5, 3, 4),
        "steep above": seg(2, 1, 3, 7),
        "steep below, falling": seg(2, -1, 2.5, -7),
        "vertical crossing": seg(3, -2, 3, 2),
        "vertical below": seg(3, -2, 3, -5),
        "horizontal": seg(-1, 2, 4, 2),
        "on axis": seg(1, 0, 4, 0),
        "point": pt(2, 3),
        "point on axis": pt(2, 0),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_affine_pieces_match_distance_and_tile(self, name):
        s = self.CASES[name]
        pieces = _build_profile(s.a.x, s.a.y, s.b.x, s.b.y, 1.0).pieces
        assert pieces[0][0] == -math.inf and pieces[-1][1] == math.inf
        # the limit: every knot of the decomposition at p = 1 + 2^-20 is
        # one at p = 1, where |V| = U takes the root 1 of every p > 1
        knots = [pc[0] for pc in pieces[1:]]
        for pc in _build_profile(s.a.x, s.a.y, s.b.x, s.b.y, 1.0 + 2.0 ** -20).pieces[1:]:
            assert any(abs(pc[0] - k) <= 1e-12 * max(1.0, abs(k)) for k in knots), (pc[0], knots)
        for prev, cur in zip(pieces, pieces[1:]):
            assert prev[1] == cur[0]
        for lo, hi, kind, A, B in pieces:
            assert kind == _AFFINE and abs(A) <= 1.0
            assert lo < hi
            ends = [x for x in (lo, hi) if math.isfinite(x)]
            if not ends:
                probes = [-10.0, 0.0, 10.0]
            elif len(ends) == 1:
                probes = ends + [ends[0] + (10.0 if hi == math.inf else -10.0)]
            else:
                probes = ends + [0.5 * (lo + hi)]
            for x in probes:
                want = point_segment_distance(Point(x, 0.0), s, N1, TOL)
                assert abs(A * x + B - want) <= 1e-12 * max(1.0, want), (x, A, B)


class TestMinimiserTable:
    @pytest.mark.parametrize("split", ["halves", "one-off"])
    @pytest.mark.parametrize("norm", [N1, N2, N3])
    def test_one_argmin_per_segment(self, split, norm, monkeypatch):
        # the envelope's pieces are ownership runs, so the build reads
        # no constrained minimiser: neither the array table nor the
        # scalar argmin runs inside it
        calls = []

        def counting(name, real):
            def wrapped(*args):
                calls.append(name)
                return real(*args)
            return wrapped

        for module in (obnoxious, geometry, _reference):
            monkeypatch.setattr(module, "axis_argmin_abscissas",
                                counting("axis_argmin_abscissas", module.axis_argmin_abscissas))
        monkeypatch.setattr(_reference, "axis_argmin_exact",
                            counting("axis_argmin_exact", _reference.axis_argmin_exact))
        segs = random_segments(random.Random(41), 40)
        BUILDS[split](segs, 10.0, norm, TOL)
        assert not hasattr(obnoxious, "axis_argmin_exact")
        assert calls == []

    @pytest.mark.parametrize("split", ["halves", "one-off"])
    @pytest.mark.parametrize("norm", [N1, N2, N3])
    def test_one_profile_per_segment(self, split, norm, monkeypatch):
        # the profiles are read from the rows once, also for the far
        # newcomer that the fold skips: both builds make one scalar
        # profile per segment, in row order, before any merge
        built, folded = [], []
        real_build, real_fold = obnoxious._build_profile, _reference._fold_one

        def counting_build(*args):
            built.append(list(args[:4]))
            return real_build(*args)

        def counting_fold(*args):
            assert len(built) == len(segs)
            folded.append(args)
            return real_fold(*args)

        for module in (obnoxious, _reference):
            monkeypatch.setattr(module, "_build_profile", counting_build)
        monkeypatch.setattr(_reference, "_fold_one", counting_fold)
        segs = random_segments(random.Random(43), 20, span=2.0) + [seg(4, 80, 6, 81)]
        BUILDS[split](segs, 10.0, norm, TOL)
        assert built == segment_columns(segs).tolist()
        if split == "one-off":
            assert len(folded) < len(segs) - 1
        else:
            assert folded == []

    @pytest.mark.parametrize("split", ["halves", "one-off"])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("scale", [1.0, 1e-170, 1e300])
    def test_peak_is_the_scalar_fold(self, split, p, scale):
        # the peak is the fold of point_segment_distance over every
        # piece end in order, bit for bit
        norm, tol = NormP(p), Tolerance(eps=1e-9 * scale)
        rng = random.Random(f"peak {p} {scale}")
        for _ in range(4):
            segs = [seg(*(v * scale for v in (rng.uniform(0, 100), rng.uniform(-2, 2),
                                              rng.uniform(0, 100), rng.uniform(-2, 2))))
                    for _ in range(40)]
            le = BUILDS[split](segs, 100.0 * scale, norm, tol)
            env = [(pc.a, pc.b, pc.seg_index) for pc in le.pieces]
            want = 0.0
            for a, b, s in env:
                for x in (a, b):
                    d = point_segment_distance(Point(x, 0.0), segs[s], norm, tol)
                    if d > want:
                        want = d
            got = _reference._envelope_peak(env, segment_columns(segs), norm, tol)
            assert got.hex() == want.hex()

    @pytest.mark.parametrize("split", ["halves", "one-off"])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("scale", [1.0, 1e-170, 1e300])
    def test_extraction_is_the_scalar_fold(self, split, p, scale):
        # the extraction gives the bits of the scalar fold: at every
        # piece end, in ascending order, the least point_segment_distance
        # to the owners there, kept on a strict >. A level segment makes
        # many ends tie, where the smallest abscissa wins; rows and
        # Segment objects agree
        norm, tol = NormP(p), Tolerance(eps=1e-9 * scale)
        rng = random.Random(f"extract {p} {scale}")
        for trial in range(4):
            segs = [seg(*(v * scale for v in (rng.uniform(0, 100), rng.uniform(-2, 2),
                                              rng.uniform(0, 100), rng.uniform(-2, 2))))
                    for _ in range(40)]
            if trial % 2:
                segs.append(seg(-20.0 * scale, 0.5 * scale, 120.0 * scale, 0.5 * scale))
            le = BUILDS[split](segs, 100.0 * scale, norm, tol)
            owners = {}
            for pc in le.pieces:
                owners.setdefault(pc.a, set()).add(pc.seg_index)
                owners.setdefault(pc.b, set()).add(pc.seg_index)
            want_x, want = None, -math.inf
            for x in sorted(owners):
                val = min(point_segment_distance(Point(x, 0.0), segs[s], norm, tol)
                          for s in owners[x])
                if want_x is None or val > want:
                    want_x, want = x, val
            if math.isnan(want):
                with pytest.raises(ValueError):
                    largest_empty_from_envelope(le, segs, norm, tol)
                continue
            got = largest_empty_from_envelope(le, segs, norm, tol)
            rows = largest_empty_from_envelope(le, segment_columns(segs), norm, tol)
            assert (got.cx.hex(), got.radius.hex()) == (want_x.hex(), want.hex())
            assert rows == got

    @pytest.mark.parametrize("split", ["halves", "one-off"])
    @pytest.mark.parametrize("norm", [N1, N2, N3])
    def test_one_point_domain(self, split, norm):
        # at L = 0 the envelope is one zero-width piece owned by the
        # nearest segment, not by the lowest index
        segs = [seg(0, 5, 1, 5), seg(-2, 3, 4, 3), seg(0, 1, 1, 1), pt(0, -1)]
        env = BUILDS[split](segs, 0.0, norm, TOL)
        assert [(pc.a, pc.b, pc.seg_index) for pc in env.pieces] == [(0.0, 0.0, 2)]
        got = largest_empty_from_envelope(env, segs, norm, TOL)
        assert (got.cx, got.radius) == (0.0, 1.0)
        assert got == max_empty_binsearch(segs, 0.0, norm, TOL)


class TestSplitSelectsNothing:
    """split is accepted for old callers but selects nothing: both values
    run the one production build, merging halves."""

    @pytest.mark.parametrize("norm", [N1, N2, N3])
    def test_one_off_is_the_halves_build(self, norm, monkeypatch):
        # the same merges in the same order and the same bits, and no
        # fold: neither the reference fold nor the covering kernel that
        # gave the fold its windows is reached
        def no_fold(*args):
            raise AssertionError("split='one-off' reached a fold")

        monkeypatch.setattr(SegmentArray, "covering", no_fold)
        for name in ("envelope_one_off", "_fold_one", "_fold_windows"):
            monkeypatch.setattr(_reference, name, no_fold, raising=False)
        real_merge = obnoxious._merge_raw
        segs = random_segments(random.Random(f"alias {norm.p}"), 60, span=2.0)
        merges, envelopes = {}, {}
        for split in ("one-off", "halves"):
            merges[split] = []

            def recording(e1, e2, *args, log=merges[split]):
                log.append((e1, e2))
                return real_merge(e1, e2, *args)

            with monkeypatch.context() as m:
                m.setattr(obnoxious, "_merge_raw", recording)
                env = compute_lower_envelope(segs, 10.0, norm, TOL, split=split)
            envelopes[split] = [(pc.a.hex(), pc.b.hex(), pc.seg_index) for pc in env.pieces]
        # one merge per inner node of the tree of halves
        assert len(merges["halves"]) == len(segs) - 1
        assert merges["one-off"] == merges["halves"]
        assert envelopes["one-off"] == envelopes["halves"]
        # an unknown value is still rejected
        with pytest.raises(ValueError, match="unknown split"):
            compute_lower_envelope(segs, 10.0, norm, TOL, split="thirds")

    def test_unknown_split_raises_before_the_build(self, monkeypatch):
        def no_build(*args):
            raise AssertionError("an unknown split reached the build")

        monkeypatch.setattr(obnoxious, "_envelope_pieces", no_build)
        segs = random_segments(random.Random("unknown split"), 60, span=2.0)
        for split in ("thirds", "", None):
            with pytest.raises(ValueError, match="unknown split"):
                compute_lower_envelope(segs, 10.0, N2, TOL, split=split)


def oracle_rows(rng, n, regime, scale):
    """n rows near the line y = 0 (|y| <= 2 over [0, 100]) or spread
    around it, times scale, with duplicate, vertical, zero-length and
    level segments and segments on the axis mixed in."""
    rows = []
    while len(rows) < n:
        span = 2.0 if regime == "nearline" else 40.0
        ax, bx = rng.uniform(-10, 110), rng.uniform(-10, 110)
        ay, by = rng.uniform(-span, span), rng.uniform(-span, span)
        kind = rng.randrange(8)
        if kind == 0:
            bx = ax
        elif kind == 1:
            bx, by = ax, ay
        elif kind == 2:
            by = ay
        elif kind == 3:
            ay = by = 0.0
        rows.append([ax, ay, bx, by])
        if kind == 4:
            rows.append(list(rows[rng.randrange(len(rows))]))
    return np.array(rows[:n]) * scale


def _nearline(n, seed):
    rng = random.Random(seed)
    return np.array([[rng.uniform(0.0, 100.0), rng.uniform(-2.0, 2.0),
                      rng.uniform(0.0, 100.0), rng.uniform(-2.0, 2.0)] for _ in range(n)]), 100.0


# inputs (rows, L) whose folds meet the edge cases of a window
PINNED_FOLDS = {
    # coordinates near 1e300 overflow the profile
    "overflow": (NEAR_1E300, 1e300),
    # many cells where two profiles nearly touch
    "nearline": _nearline(240, 9),
    # at p = 1 a newcomer (row 9) has the constrained minimiser 5.0 of
    # the owner (row 3) of a piece in its window, where the envelope
    # keeps no breakpoint
    "shared minimiser": (np.array([[5.0, 2.0, -3.5, -5.0], [5.0, 2.5, 12.0, -5.0],
                                   [5.0, 2.0, -1.0, -3.75], [5.0, -0.5, 5.0, -2.25],
                                   [6.5, -3.0, -2.0, -4.75], [0.5, 2.5, -8.0, 3.0],
                                   [0.5, 2.25, -1.5, 3.75], [5.0, 2.5, -1.0, -4.0],
                                   [5.0, 2.5, -3.0, -4.0], [5.0, -2.5, 9.5, -3.75]]), 10.0),
    # at p = 2 one newcomer loses on all six pieces of its window
    "lost window": (np.array([[0.0, 3.0, 1.0, 3.5], [9.5, -0.25, 18.5, -1.0],
                              [3.5, 2.5, 12.0, -3.75], [7.0, 1.0, 0.5, 3.5],
                              [9.5, -2.5, 7.5, -3.25]]), 10.0),
}


class TestSameTree:
    """The halves build gives the envelope of the one-off fold
    (_reference.envelope_one_off): the same owners, and every end within
    end_bound. Both read the same profiles through the same merge of two
    envelopes, and differ only in the order of the merges. Where the
    fold hands the input to the build (L = 0), where the two orders
    fold slivers away differently (a coarse eps), or where two distances
    tie exactly, the build's structure is checked instead."""

    @staticmethod
    def end_bound(tol, scale):
        # A crossing at p != 2 is bisected to a final bracket no wider
        # than tol.eps / 4, whose midpoint lies within tol.eps / 8 of a
        # sign change of the computed difference of the profiles. The
        # two builds bisect it on different cells, so their roots may
        # lie on either side of it; 2^-48 M, M the largest coordinate
        # magnitude and L, leaves room for a difference whose rounding
        # changes sign more than once near the crossing
        return tol.eps / 4.0 + 2.0 ** -48 * scale

    def check(self, rows, L, p, tol):
        norm = NormP(p)
        got = compute_lower_envelope(rows, L, norm, tol)
        want = envelope_one_off(rows, L, norm, tol)
        assert [pc.seg_index for pc in got.pieces] == [pc.seg_index for pc in want.pieces]
        scale = max(float(np.abs(rows).max()), L)
        assert all(abs(u.b - v.b) <= self.end_bound(tol, scale)
                   for u, v in zip(got.pieces, want.pieces))
        return got

    @staticmethod
    def one_point_owner(rows, p):
        # the owner that every merge at L = 0 keeps: the profile lowest
        # at the origin, ties to the lower index
        return min(range(len(rows)), key=lambda s: (_build_profile(*rows[s], p).value(0.0), s))

    @pytest.mark.parametrize("p", [1.0, 2.0, 1.5, 3.0, 30.0, 400.0])
    @pytest.mark.parametrize("regime", ["nearline", "spread"])
    def test_random_draws(self, p, regime):
        rng = random.Random(f"same tree {regime} {p}")
        for n in (2, 3, 5, 17, 64, 150, 300):
            self.check(oracle_rows(rng, n, regime, 1.0), 100.0, p, TOL)

    def test_bisected_roots_lie_within_an_eighth_of_eps(self):
        # the draws that pinned the lockstep bisection, through the
        # build's root finder (obnoxious._refine_root), in both
        # orientations: brackets that stop by width, at a zero midpoint,
        # or at the iteration cap. The sign of (r - x)(x + 20) is exact
        # on these brackets, so its sign change is r itself where r lies
        # in the bracket; elsewhere, as for 17 of these draws, the
        # difference keeps one sign and the root only stays in its
        # bracket
        rng = random.Random("lockstep")
        a = [rng.uniform(-10, 0) for _ in range(200)] + [0.0, -4.0]
        b = [rng.uniform(0, 10) for _ in range(200)] + [2.0, 4.0]
        root = [rng.uniform(-1, 1) for _ in range(200)] + [1.0, 0.0]
        held = (np.array(a) <= root) & (np.array(root) <= b)
        assert held.sum() > 150
        for eps, max_iters in ((1e-9, 200), (0.3, 200), (1e-9, 7)):
            for pos in (True, False):
                sign = 1.0 if pos else -1.0
                got = np.array([obnoxious._refine_root(lambda x: sign * (r - x) * (x + 20.0),
                                                       lo, hi, pos, eps / 4.0, max_iters)
                                for lo, hi, r in zip(a, b, root)])
                assert ((a <= got) & (got <= b)).all()
                if max_iters == 200:
                    assert np.abs(got - root)[held].max() <= eps / 8.0

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("name", sorted(PINNED_FOLDS))
    def test_pinned_folds(self, p, name):
        rows, L = PINNED_FOLDS[name]
        self.check(rows, L, p, TOL)

    def test_exact_tie(self):
        # segments 33 and 37 both start at (3.7744664444485063, 0), and
        # at p = 1 their distances tie on [3.7744664444485063,
        # 4.315648140076976] but for the rounding of their stored
        # profiles. The halves build gives that stretch to 33 (40
        # pieces) and the fold to 37 (41 pieces); both are the envelope,
        # with one radius, 2.671442438263667, where the search gives
        # 2.671442438068069
        rng = random.Random(40)
        L = 100.0
        segs = [seg(rng.uniform(0, 100), rng.uniform(-2, 2), rng.uniform(0, 100), rng.uniform(-2, 2))
                for _ in range(33)]
        top = largest_empty_from_envelope(compute_lower_envelope(segs, L, N1, TOL), segs, N1, TOL)
        x, r = top.cx, top.radius
        for k in range(12):
            ax, ay = [(x + r, 0.0), (x - r, 0.0), (x, r), (x, -r)][k % 4]
            segs.append(seg(ax, ay, ax + rng.uniform(-3, 3), ay + rng.uniform(-3, 3)))
        radii = []
        for build in BUILDS.values():
            env = build(segs, L, N1, TOL)
            check_tiling(env, L)
            check_minimal(env, segs, N1, samples=800)
            radii.append(largest_empty_from_envelope(env, segs, N1, TOL).radius)
        assert radii[0] == radii[1]
        assert abs(radii[0] - max_empty_binsearch(segs, L, N1, TOL).radius) <= 2.0 * TOL.eps

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("eps", [0.5, 4.0])
    def test_coarse_tolerance(self, p, eps):
        # cuts closer than eps / 8 to the last one kept are dropped one
        # at a time, and pieces narrower than eps / 2 fold away: at
        # these eps every draw has such cuts, and most have such pieces.
        # The fold's order of merges folds other slivers, so the build
        # is held to its structure: maximal ownership runs tiling
        # [0, L], each wider than eps / 2, whose owner lies within eps
        # of the nearest segment. A folded sliver moves an end by less
        # than eps / 2, and the difference of two distances is
        # 2-Lipschitz in x
        rng = random.Random(f"coarse {p} {eps}")
        xs = np.linspace(0.0, 100.0, 201)
        for regime in ("nearline", "spread"):
            for n in (17, 64, 150):
                rows = oracle_rows(rng, n, regime, 1.0)
                env = compute_lower_envelope(rows, 100.0, NormP(p), Tolerance(eps=eps))
                check_tiling(env, 100.0)
                pieces = env.pieces
                assert all(u.seg_index != v.seg_index for u, v in zip(pieces, pieces[1:]))
                assert len(pieces) == 1 or min(pc.b - pc.a for pc in pieces) > eps / 2.0
                ends = np.array([pc.b for pc in pieces])
                owner = np.array([pc.seg_index for pc in pieces])[ends.searchsorted(xs)]
                got = geometry.axis_distances(xs, rows[owner], p)
                nearest = geometry.axis_distances(np.repeat(xs, n), np.tile(rows, (len(xs), 1)),
                                                  p).reshape(len(xs), n).min(axis=1)
                assert (got - nearest).max() <= eps

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_a_dip_between_half_and_one_eps_stays(self, p):
        # a point dips below a level segment over a stretch about 0.07
        # wide, at eps = 0.1: its two crossings lie more than eps / 8
        # apart, so both stay cuts, and the piece between them is wider
        # than eps / 2, so it stays a piece
        w = 0.035
        y = (1.0 - w ** p) ** (1.0 / p)
        rows = np.array([[0.0, 1.0, 10.0, 1.0], [5.0, y, 5.0, y]])
        env = compute_lower_envelope(rows, 10.0, NormP(p), Tolerance(eps=0.1))
        assert [pc.seg_index for pc in env.pieces] == [0, 1, 0]
        assert abs(env.pieces[0].b - (5.0 - w)) <= 0.1 / 8.0
        assert abs(env.pieces[1].b - (5.0 + w)) <= 0.1 / 8.0

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_one_point_domain(self, p):
        # at L = 0 every merge keeps the nearer owner, ties to the lower
        # index: twins and rows at equal distance from the origin tie
        rng = random.Random(f"one point {p}")
        for n in (2, 3, 9, 40):
            rows = oracle_rows(rng, n, "nearline", 1.0)
            rows[-1] = rows[0]
            env = compute_lower_envelope(rows, 0.0, NormP(p), TOL)
            assert [(pc.a, pc.b, pc.seg_index) for pc in env.pieces] == \
                [(0.0, 0.0, self.one_point_owner(rows.tolist(), p))]
        env = compute_lower_envelope(np.array([[1.0, 2.0, 3.0, 2.0], [-3.0, 2.0, -1.0, 2.0]]), 0.0,
                                     NormP(p), TOL)
        assert [pc.seg_index for pc in env.pieces] == [0]

    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_single_segment(self, p):
        rows = np.array([[1.0, 2.0, 3.0, 4.0]])
        for L in (0.0, 10.0):
            env = compute_lower_envelope(rows, L, NormP(p), TOL)
            assert [(pc.a, pc.b, pc.seg_index) for pc in env.pieces] == [(0.0, L, 0)]
        self.check(rows, 10.0, p, TOL)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_every_piece_a_sliver(self, p):
        # the CLI instance at scale 1e-170 with the absolute eps: every
        # raw piece is narrower than half of eps, so each merge keeps
        # one piece over [0, L], of its first owner
        sc = 1e-170
        rows = np.array([[1.0, 2.0, 1.5, 3.0], [7.0, -1.0, 8.0, -2.0], [4.0, 5.0, 4.0, 6.0]]) * sc
        env = self.check(rows, 10 * sc, p, TOL)
        assert len(env.pieces) == 1

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_profiles_near_1e300(self, p):
        # U ay - V ax overflows: the profiles get NaN and inf pieces
        # (the instance of test_one_off_solve_near_1e300)
        rows = NEAR_1E300
        assert any(math.isnan(pc[4]) for row in rows.tolist()
                   for pc in _build_profile(*row, p).pieces)
        for order in (rows, rows[::-1], np.vstack([rows, rows[:1] * 0.5])):
            self.check(order, 1e300, p, TOL)
            # the one-point owner, from rows with NaN and inf pieces
            env = compute_lower_envelope(order, 0.0, NormP(p), TOL)
            assert [(pc.a, pc.b, pc.seg_index) for pc in env.pieces] == \
                [(0.0, 0.0, self.one_point_owner(order.tolist(), p))]


def cone_minus(c, h, q1, q2, level, sign, p: float):
    """fdf(x, act) for geometry._rtsafe over rows: sign times lp(x - c,
    h) minus lp(x - q1, q2), or minus the affine q1 * x + q2 where level
    is set, and its slope, for the rows act. A cone's slope sign(d)
    (|d| / lp)^(p-1) underflows to 0 where |d| is far below lp."""

    def fdf(x, act):
        c_, h_, q1_, q2_, level_, sign_ = (col[act] for col in (c, h, q1, q2, level, sign))
        d1, d2 = x - c_, x - q1_
        v1, v2 = geometry._np_lp(d1, h_, p), geometry._np_lp(d2, q2_, p)
        s1 = np.copysign((np.abs(d1) / v1) ** (p - 1.0), d1)
        s2 = np.copysign((np.abs(d2) / v2) ** (p - 1.0), d2)
        f = v1 - np.where(level_, q1_ * x + q2_, v2)
        df = s1 - np.where(level_, q1_, s2)
        return sign_ * f, sign_ * df

    return fdf


class TestRootKernel:
    """The lockstep root kernel of k-cover's pair centers
    (geometry._rtsafe), called directly on brackets of w = tol.eps / 8:
    near-tangent and flat differences, NaN rows, and brackets that end
    at a root or are one ulp wide."""

    W = TOL.eps / 8.0

    @staticmethod
    def rtsafe(fdf, lo, hi, w):
        return geometry._rtsafe(fdf, lo, hi, np.full(len(lo), w), TOL.max_iters)[0]

    def test_near_tangent_crossings(self):
        # where f' -> 0 at the root, Newton steps shrink slowly: a triple
        # root, where a Newton step covers a third of the way, so a stop
        # after a step of at most w leaves the iterate within 2 w of it,
        # and an affine 1e-10 above the tangent of a p = 3 cone, where
        # f' is about 1e-5 at the crossings: the kernel finds each of
        # the two crossings in its own bracket
        r = np.array([-0.3, 0.0, 0.123456789, 2.0 / 3.0])

        def cube(x, act):
            rr = r[act]
            return (x - rr) ** 3, 3.0 * (x - rr) ** 2

        got = self.rtsafe(cube, r - 1.0, r + 0.7, self.W)
        assert np.abs(got - r).max() <= 2.0 * self.W
        x0 = np.array([0.7, -0.35, 1.9])
        lp = (np.abs(x0) ** 3 + 1.0) ** (1.0 / 3.0)
        A = (np.abs(x0) / lp) ** 2 * np.sign(x0)
        for k in range(len(x0)):
            B = lp[k] - A[k] * x0[k] + 1e-10
            # both crossings, about 1e-5 either side of the tangent point
            for lo, hi, sign in ((x0[k] - 1.0, x0[k], -1.0), (x0[k], x0[k] + 1.0, 1.0)):
                fdf = cone_minus(np.zeros(1), np.ones(1), np.full(1, A[k]), np.full(1, B),
                                 np.ones(1, bool), np.full(1, sign), 3.0)
                ends = fdf(np.array([lo, hi]), np.array([0, 0]))[0]
                assert ends[0] < 0.0 < ends[1]
                got = self.rtsafe(fdf, np.array([lo]), np.array([hi]), self.W)
                assert lo <= got[0] <= hi and 0.0 < abs(got[0] - x0[k]) < 1e-4

    @pytest.mark.parametrize("p, apart", [(30.0, 1e-12), (400.0, 1e-3)])
    def test_underflowed_slopes_halve(self, p, apart, monkeypatch):
        # two cones lp(x, 1) and lp(x - apart, 1 + apart / 2), the
        # bracket centred on their apexes: at its midpoint both slopes
        # (|d| / lp)^(p-1) underflow to 0, so f' is 0 there and the
        # first step halves the bracket. At p = 30 the apexes must lie
        # within 7e-12 for that, and then the difference of the cones
        # is below its rounding near the crossing, so only the bracket
        # holds the root. A kernel whose f' is 0 everywhere halves at
        # every step
        fdf = cone_minus(np.zeros(1), np.ones(1), np.full(1, apart),
                         np.full(1, 1.0 + apart / 2.0), np.zeros(1, bool), np.ones(1), p)
        f, df = fdf(np.zeros(1), np.array([0]))
        assert f[0] < 0.0 and df[0] == 0.0
        widths = []
        step = geometry._rtsafe_step

        def watched(fdf, act, x, lo, hi, *args):
            out = step(fdf, act, x, lo, hi, *args)
            widths.append((hi - lo).tolist())
            return out

        monkeypatch.setattr(geometry, "_rtsafe_step", watched)
        lo, hi = np.array([-3.0]), np.array([3.0])
        got = self.rtsafe(fdf, lo, hi, self.W)
        assert widths[0] == [3.0]
        assert lo[0] <= got[0] <= hi[0] and -3.0 <= lo[0] <= hi[0] <= 3.0
        widths.clear()
        r = np.array([0.3, -2.0, 1e-3])
        flat = self.rtsafe(lambda x, act: (x - r[act], np.zeros(len(x))),
                           np.full(3, -3.0), np.full(3, 3.0), self.W)
        assert np.abs(flat - r).max() <= self.W
        for before, after in zip(widths, widths[1:]):
            assert all(abs(v - 0.5 * u) <= 2.0 ** -50 for u, v in zip(before, after))
        assert len(widths) == math.ceil(math.log2(6.0 / self.W))

    def test_exact_zero_at_a_bracket_end(self):
        # f(hi) = 0, as _rtsafe's brackets allow: the root is that end,
        # or within w of it
        r = np.array([1.0, 0.25, -3.0])

        def line(x, act):
            rr = r[act]
            return 2.0 * (x - rr), np.full(len(x), 2.0)

        got = self.rtsafe(line, r - np.array([2.0, 0.5, 7.0]), r.copy(), self.W)
        assert (got <= r).all() and np.abs(got - r).max() <= self.W

    @pytest.mark.parametrize("w", [TOL.eps / 8.0, 1e-300])
    def test_adjacent_float_ends(self, w):
        # a bracket one ulp wide holds no float between its ends: the
        # root is one of them, also where w is below an ulp, found in
        # one evaluation
        lo = np.array([1.0, -2.0, 1e300])
        hi = np.nextafter(lo, np.inf)
        calls = []

        def line(x, act):
            calls.append(len(x))
            a, b = lo[act], hi[act]
            return 2.0 * (x - a) - (b - a), np.full(len(x), 2.0)

        # the bracket test's product overflows near 1e300
        with np.errstate(over="ignore"):
            got = self.rtsafe(line, lo.copy(), hi.copy(), w)
        assert ((got == lo) | (got == hi)).all()
        assert calls == [3]

    def test_nan_rows_leave_the_others_alone(self):
        # an affine piece with a NaN offset, as the profiles of
        # coordinates near 1e300 have (test_profiles_near_1e300): its
        # rows evaluate to NaN, which _rtsafe treats as not below 0, and
        # end inside their brackets; the other rows keep their bits
        c = np.array([0.0, 5.0, 0.0, 8.0e299, -1.0])
        h = np.array([1.0, 2.0, 1.0, 3.0e296, 0.5])
        B = np.array([2.0, 3.0, np.nan, np.nan, 1.0])
        lo, hi = np.array([0.0, 5.0, 0.0, 8.0e299, -1.0]), np.array([4.0, 9.0, 4.0, 9.0e299, 2.0])
        level, sign = np.ones(5, bool), np.ones(5)

        def roots(rows):
            fdf = cone_minus(c[rows], h[rows], np.zeros(len(rows)), B[rows], level[rows],
                             sign[rows], 3.0)
            with np.errstate(all="ignore"):
                return self.rtsafe(fdf, lo[rows].copy(), hi[rows].copy(), self.W)

        every = roots(np.arange(5))
        finite = np.array([0, 1, 4])
        assert every[finite].tobytes() == roots(finite).tobytes()
        assert ((lo <= every) & (every <= hi)).all()
        # every evaluation of a NaN row moves hi, so it ends at lo
        nan = np.array([2, 3])
        assert (every[nan] - lo[nan] <= np.maximum(self.W, np.spacing(lo[nan]))).all()

    def test_few_steps_near_the_line(self, monkeypatch):
        # the pair centers of near-line points at p = 3: every lockstep
        # call stops before the 40 halvings that bisection takes from a
        # bracket of the line's width to w, and Newton steps keep the
        # mean number of steps per root small
        calls = []
        step = geometry._rtsafe_step
        rtsafe = geometry._rtsafe

        def counted(fdf, act, x, *args):
            calls[-1].append(len(act))
            return step(fdf, act, x, *args)

        def started(*args):
            calls.append([])
            return rtsafe(*args)

        monkeypatch.setattr(geometry, "_rtsafe_step", counted)
        monkeypatch.setattr(k_cover, "_rtsafe", started)
        rng = random.Random("few steps")
        for n in (17, 64, 150):
            xy = np.array(sorted((rng.uniform(0, 100), rng.uniform(-2, 2)) for _ in range(n)))
            I, J = np.triu_indices(n)
            k_cover._binding_radii(xy[:, 0], xy[:, 1], I, J, 3.0, TOL)
        running = [c for c in calls if c]
        assert len(running) >= 3
        assert max(len(c) for c in running) < 40
        assert sum(map(sum, running)) < 6 * sum(c[0] for c in running)


def _touching(rng, x0, r):
    """A segment whose nearest point to (x0, 0) lies at r in every L_p,
    exactly where x0 +- r rounds to no error: it starts at (x0 +- r, 0)
    or (x0, +-r) and leaves (x0, 0) in both coordinates, by quarters."""
    d, e = rng.randint(0, 24) / 4, rng.randint(-24, 24) / 4
    return rng.choice((seg(x0 + r, 0.0, x0 + r + d, e), seg(x0 - r, 0.0, x0 - r - d, e),
                       seg(x0, r, x0 + e, r + d), seg(x0, -r, x0 + e, -r - d)))


# four segments of a p = 1 envelope of 33 random near-line segments and
# 12 newcomers at its peak from its argmax 0.2804492773928118, the last
# two among them. That argmax is segment 2's constrained minimiser, and
# a split build that breaks its piece there disagrees with one that
# does not
_PEAK_SPLIT = [seg(0.47247701074652504, 0.3125855843296721, -1.11661344336532, -2.2741593585806745),
               seg(4.947095075403439, -1.3906484927496412, -0.24281555212085326,
                   -0.3489828848436298),
               seg(0.2804492773928118, 0.0, -5.719550722607188, 0.25),
               seg(0.2804492773928118, 0.0, -3.719550722607188, -2.0)]


class TestFoldWindow:
    """The one-off fold contests only the newcomer's covering interval
    at a radius just above the envelope's peak; contesting all of
    [0, L] for every newcomer gives the same envelope, bit for bit."""

    @staticmethod
    def contest_all(segs, L, norm):
        # covering_slack claiming no bound makes every window [0, L]
        with pytest.MonkeyPatch.context() as m:
            m.setattr(_reference, "covering_slack", lambda *args: (math.inf, math.inf))
            return envelope_one_off(segs, L, norm, TOL)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_newcomers_at_exactly_the_peak(self, p):
        # the first segment alone sets the fold's peak h: a level one
        # at height h, where every abscissa of [0, L] is an argmax, or a
        # point on the axis, whose argmax is an end. Every newcomer's
        # nearest point to an argmax lies at exactly h from it, so its
        # window ends there, where it ties the envelope. The last input
        # is _PEAK_SPLIT
        rng = random.Random(f"fold window {p}")
        norm, L = NormP(p), 10.0
        for trial in range(41):
            if trial == 40:
                segs = _PEAK_SPLIT
            elif trial % 2:
                h = rng.randint(1, 16) / 4
                argmaxes = [rng.randint(0, 40) / 4 for _ in range(12)]
                segs = [seg(-20.0, h, 30.0, h)] + [_touching(rng, x0, h) for x0 in argmaxes]
            else:
                c = rng.randint(0, 40) / 4
                h = max(c, L - c)
                segs = [pt(c, 0.0)] + [_touching(rng, 0.0 if c >= L - c else L, h)
                                       for _ in range(12)]
            halves = compute_lower_envelope(segs, L, norm, TOL)
            one_off = envelope_one_off(segs, L, norm, TOL)
            check_tiling(one_off, L)
            assert one_off == self.contest_all(segs, L, norm), trial
            # the splits agree as criterion 3 requires: the same owners,
            # breakpoints within the root refinement tolerance
            assert [pc.seg_index for pc in halves.pieces] == \
                [pc.seg_index for pc in one_off.pieces], trial
            assert all(abs(u.b - v.b) <= TOL.eps
                       for u, v in zip(halves.pieces, one_off.pieces)), trial

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_windows_change_no_bit(self, p):
        # newcomers at the peak (up to the rounding of x* +- peak) from
        # the argmax x* of the envelope of 33 random segments, the peak
        # the fold refreshes to once it has accepted 32 newcomers. There
        # the envelope has many pieces, so a window that ends short of
        # the exact covering interval at the peak leaves out cells the
        # newcomer wins (a radius of peak (1 - 1e-12) changes 7 of these
        # 80 envelopes)
        rng = random.Random(f"window bits {p}")
        norm, L = NormP(p), 10.0
        for trial in range(20):
            segs = random_segments(rng, 33, span=3.0)
            env = envelope_one_off(segs, L, norm, TOL)
            top = largest_empty_from_envelope(env, segs, norm, TOL)
            segs += [_touching(rng, top.cx, top.radius) for _ in range(12)]
            one_off = envelope_one_off(segs, L, norm, TOL)
            assert one_off == self.contest_all(segs, L, norm), trial

    @pytest.mark.parametrize("p, far", [(1.0, 0), (1.5, 0), (2.0, 0), (3.0, 0),
                                        (2.0, 2 * PASS_CELLS + 100)])
    def test_windows_come_from_the_array_kernel(self, p, far, monkeypatch):
        # the windows come from SegmentArray.covering at one radius a
        # call: PASS_CELLS newcomers from the first on, and from the one
        # after each refresh of the peak, every 32 accepted newcomers;
        # the scalar covering_interval is never called. Far segments,
        # whose windows are empty, make the fold pass PASS_CELLS
        # newcomers without a refresh
        rows, folded = [], []
        real_covering, real_fold = SegmentArray.covering, _reference._fold_one

        def counting_covering(arr, radii):
            assert len(radii) == 1
            rows.append(len(arr.ax))
            return real_covering(arr, radii)

        def counting_fold(*args):
            folded.append(args[1])
            return real_fold(*args)

        def scalar(*args):
            raise AssertionError("the fold called the scalar covering_interval")

        monkeypatch.setattr(SegmentArray, "covering", counting_covering)
        monkeypatch.setattr(_reference, "_fold_one", counting_fold)
        monkeypatch.setattr(_reference, "covering_interval", scalar)
        rng = random.Random(f"fold calls {p}")
        segs = random_segments(rng, 150, span=2.0)
        segs += [seg(s.a.x, s.a.y + 500, s.b.x, s.b.y + 500) for s in random_segments(rng, far)]
        n = len(segs)
        envelope_one_off(segs, 10.0, NormP(p), TOL)
        assert len(folded) >= 64
        refreshed, want, stop = set(folded[31::32]), [], 1
        for i in range(1, n):
            if i == stop:
                stop = min(i + PASS_CELLS, n)
                want.append(stop - i)
            if i in refreshed:
                stop = i + 1
        assert rows == want
        # one call a refresh, and more where PASS_CELLS newcomers pass without one
        assert (len(rows) > 1 + len(folded) // 32) if far else \
            (len(rows) == 1 + len(folded) // 32)

    @pytest.mark.parametrize("p, want", [
        (1.0, (0, "0x1.37645a919e282p+995")),
        (1.5, (0, "0x1.36e7b1930fc10p+995")),
        (2.0, (3, "ValueError")),
        (3.0, (0, "0x1.36e444a9665f1p+995"))])
    def test_one_off_solve_near_1e300(self, p, want):
        # covering_slack claims no bound at this scale, so the fold
        # contests all of [0, L]; its answer has the radius (or raises
        # the error, which a solve exits 3 with) that it gave with the
        # hand-built window
        rows = NEAR_1E300
        norm = NormP(p)
        try:
            env = envelope_one_off(rows, 1e300, norm, TOL)
            c = largest_empty_from_envelope(env, rows, norm, TOL)
        except ValueError as exc:
            got = (3, type(exc).__name__)
        else:
            got = (0, c.radius.hex())
            assert c.cx == 0.0
        assert got == want


def _differing_cells(e1, e2):
    """Cells of a merge of two piece lists whose owners differ."""
    cuts = sorted({x for a, b, _ in list(e1) + list(e2) for x in (a, b)})

    def owner(env, x):
        return next((s for a, b, s in env if b > x), env[-1][2])

    return sum(owner(e1, u) != owner(e2, u) for u, v in zip(cuts, cuts[1:]) if v > u)


class TestDominance:
    @staticmethod
    def count_cells(segs, norm, split, monkeypatch):
        """(contested, resolved): the differing cells of every merge, and
        the cells that reach root finding (_resolve_cell). Both builds
        merge by obnoxious._merge_raw, which the fold reaches by its name
        in _reference."""
        differing, resolved = [], []
        real_merge, real_resolve = obnoxious._merge_raw, obnoxious._resolve_cell

        def counting_merge(e1, e2, *args):
            differing.append(_differing_cells(e1, e2))
            return real_merge(e1, e2, *args)

        def counting_resolve(*args):
            resolved.append(args[:2])
            return real_resolve(*args)

        with monkeypatch.context() as m:
            for module in (obnoxious, _reference):
                m.setattr(module, "_merge_raw", counting_merge)
            m.setattr(obnoxious, "_resolve_cell", counting_resolve)
            BUILDS[split](segs, 100.0, norm, TOL)
        return sum(differing), len(resolved)

    @pytest.mark.parametrize("split", ["halves", "one-off"])
    @pytest.mark.parametrize("norm", [N1, N2, N3])
    def test_most_cells_skip_root_finding(self, split, norm, monkeypatch):
        # neither build settles a cell by dominance: the merges of
        # halves, and the one-off fold's merges of a newcomer over every
        # piece of its window, send every contested cell to root finding,
        # and only those
        rng = random.Random(8)
        segs = [seg(rng.uniform(0, 100), rng.uniform(-2, 2), rng.uniform(0, 100), rng.uniform(-2, 2))
                for _ in range(200)]
        contested, resolved = self.count_cells(segs, norm, split, monkeypatch)
        assert contested > 1000
        assert resolved == contested


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


# the coordinate ranges of a segments-nearline row under bench/, whose
# coordinates are rounded to 6 digits
BENCH_NEARLINE = [(0.0, 100.0), (-2.0, 2.0)] * 2


class TestGapAnchor:
    # at the parent of the gap anchor every pass read all kept rows:
    # 31.5 to 41 cells a row on these draws, 33 to 51 on the bench's
    CELLS_PER_ROW = 20

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_cells_per_row(self, p, monkeypatch):
        # seeded near-line instances of the bench's segments-nearline
        # (N 220 to 480): the (radius, segment) cells that one search
        # evaluates over all its covering passes stay below 20 N, at 5.7
        # to 14.6 N on these draws, with the bits of the search that
        # reads all kept rows at every pass
        cells = []
        real = SegmentArray.covering

        def counting(arr, radii):
            cells[-1] += len(radii) * len(arr.ax)
            return real(arr, radii)

        monkeypatch.setattr(SegmentArray, "covering", counting)
        norm = NormP(p)
        for seed in range(4):
            for n in (220, 300, 400, 480):
                rng = random.Random(f"gap anchor {seed} {n}")
                cols = np.array([[round(rng.uniform(lo, hi), 6) for lo, hi in BENCH_NEARLINE]
                                 for _ in range(n)])
                cells.append(0)
                got = max_empty_binsearch(cols, 100.0, norm, TOL)
                assert cells[-1] < self.CELLS_PER_ROW * n, (seed, n)
                with monkeypatch.context() as m:
                    m.setattr(obnoxious._GapAnchor, "_move", lambda *args: None)
                    cells.append(0)
                    want = max_empty_binsearch(cols, 100.0, norm, TOL)
                assert (got.cx.hex(), got.radius.hex()) == (want.cx.hex(), want.radius.hex())

    def test_no_anchor_without_a_bound(self, monkeypatch):
        # at p = 30 covering_slack's eta is above 1, beyond 2^200 it
        # claims no bound, and at L = 0 the domain is one point: every
        # pass reads all kept rows
        moved = []
        real = obnoxious._GapAnchor.covering

        def spying(anchor, radii):
            moved.append(anchor.index is not None)
            return real(anchor, radii)

        monkeypatch.setattr(obnoxious._GapAnchor, "covering", spying)
        cols, L = _nearline(240, 5)
        for rows, span, p in ((cols, L, 30.0), (cols * 1e70, L * 1e70, 2.0), (cols, 0.0, 2.0)):
            max_empty_binsearch(rows, span, NormP(p), Tolerance(eps=1e-9 * max(span, 1.0)))
            assert moved and not any(moved)
            moved.clear()
        max_empty_binsearch(cols, L, N2, TOL)
        assert any(moved)


def off_axis_rows(rng, n, regime):
    """n rows over x in [-10, 110] that keep to one side of the axis,
    near it (0.05 <= |y| <= 2, "nearline") or spread (|y| <= 40): every
    fifth from the second on is a point, from the third a level segment
    and from the fourth a vertical one. In the "points" regime every row
    is a spread point."""
    rows = []
    for k in range(n):
        side = rng.choice((-1.0, 1.0))
        span = 2.0 if regime == "nearline" else 40.0
        ax, bx = rng.uniform(-10, 110), rng.uniform(-10, 110)
        ay, by = side * rng.uniform(0.05, span), side * rng.uniform(0.05, span)
        if regime == "points" or k % 5 == 1:
            bx, by = ax, ay
        elif k % 5 == 2:
            by = ay
        elif k % 5 == 3:
            bx = ax
        rows.append([ax, ay, bx, by])
    return np.array(rows)


class TestVerifyRouteBits:
    """max_empty_envelope, the route of solve --verify, gives these
    (cx, radius) bits, or raises this error, which a solve exits 3 with.
    tools/bitcheck.py sends no --verify, so it does not see this route."""

    @pytest.mark.parametrize("p, regime, n, L, want", [
        (1.0, "nearline", 40, 100.0, ("0x1.6dde9488e78bcp+2", "0x1.923ccd0a063b0p-1")),
        (1.5, "spread", 40, 100.0, ("0x1.9000000000000p+6", "0x1.4b611cc49996cp+3")),
        (2.0, "nearline", 150, 100.0, ("0x1.7846c365399eep+6", "0x1.6e5b91dce0797p-3")),
        (2.0, "spread", 64, 100.0, ("0x1.819b783ab6206p+6", "0x1.24596de8613efp+2")),
        (3.0, "nearline", 64, 100.0, ("0x1.18443f8024c8ep+5", "0x1.0a074c86b4bb1p-1")),
        (3.0, "spread", 150, 100.0, ("0x0.0p+0", "0x1.20493f9333cafp+1")),
        (30.0, "nearline", 40, 100.0, ("0x1.87064eb51fba6p+6", "0x1.99d08b5dec846p+0")),
        (400.0, "spread", 40, 100.0, ("0x1.c9bc5d877ca38p+0", "0x1.67bfd3ae48f60p+1")),
        (2.0, "points", 30, 100.0, ("0x1.54d7db8b611a4p+5", "0x1.b4e4600aa13e6p+3")),
        (1.5, "nearline", 17, 0.0, ("0x0.0p+0", "0x1.c0f3a93423beep-3")),
        (1.0, "near 1e300", 2, 1e300, ("0x0.0p+0", "0x1.37645a919e282p+995")),
        (1.5, "near 1e300", 2, 1e300, ("0x0.0p+0", "0x1.36e7b1930fc10p+995")),
        (2.0, "near 1e300", 2, 1e300, "ValueError"),
        (3.0, "near 1e300", 2, 1e300, ("0x0.0p+0", "0x1.36e444a9665f1p+995"))])
    def test_pinned_bits(self, p, regime, n, L, want):
        if regime == "near 1e300":
            rows = NEAR_1E300
        else:
            rows = off_axis_rows(random.Random(f"verify route {p} {regime} {n}"), n, regime)
        try:
            c = max_empty_envelope(rows, L, NormP(p), TOL)
        except ValueError as exc:
            got = type(exc).__name__
        else:
            got = (c.cx.hex(), c.radius.hex())
        assert got == want


class TestArrayRoute:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_routes_agree_across_crossover(self, p):
        # the search runs on SegmentArray at every N, from the
        # smallest instances on
        norm = NormP(p)
        rng = random.Random(round(p * 1000) + 1)
        for n in (5, 23, 24, 150):
            segments = random_segments(rng, n - n // 3, span=30.0)
            segments += [pt(rng.uniform(-4, 14), rng.uniform(-30, 30))
                         for _ in range(n // 3)]
            got = {"binsearch": max_empty_binsearch(segments, 10.0, norm, TOL)}
            env = compute_lower_envelope(segments, 10.0, norm, TOL)
            got["envelope"] = largest_empty_from_envelope(env, segments, norm, TOL)
            assert abs(got["binsearch"].radius - got["envelope"].radius) <= 2 * TOL.eps
            for c in got.values():
                assert 0.0 <= c.cx <= 10.0
                nearest = min(point_segment_distance(Point(c.cx, 0.0), s, norm, TOL)
                              for s in segments)
                assert nearest == c.radius
            # at scale 1e-170 squared segment lengths underflow in the
            # distance kernels; the envelope's absolute eps is far above
            # that scale, so only the search is checked there
            tiny = [seg(s.a.x * 1e-170, s.a.y * 1e-170, s.b.x * 1e-170, s.b.y * 1e-170)
                    for s in segments]
            c = max_empty_binsearch(tiny, 1e-169, norm, TOL)
            assert 0.0 <= c.cx <= 1e-169
            assert c.radius == min(point_segment_distance(Point(c.cx, 0.0), s, norm, TOL)
                                   for s in tiny)


class TestFootprint:
    def test_criterion_7_build_memory(self):
        # one build of criterion 7's instance (100,000 spread segments,
        # p = 2, L = 10), one _Profile object per segment, traces below
        # 99 MiB
        rng = random.Random(7)
        segs = [seg(rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0),
                    rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0))
                for _ in range(100000)]
        tracemalloc.start()
        try:
            compute_lower_envelope(segs, 10.0, N2, TOL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 99 * 2 ** 20

    def test_envelope_solve_leaves_numpy_ma_unloaded(self, tmp_path):
        # np.unique without return_index or return_inverse loads
        # numpy.ma (about 1 MiB), which lifts a solve's peak RSS
        rng = random.Random("numpy.ma")
        paths = []
        for p in (1.0, 2.0, 3.0):
            paths.append(tmp_path / f"p{p:g}.json")
            paths[-1].write_text(json.dumps({
                "problem": "obnoxious-center", "p": p, "constraint": [0.0, 0.0, 100.0, 0.0],
                "segments": oracle_rows(rng, 200, "nearline", 1.0).tolist()}))
        # --eps 4 makes cuts closer than eps / 8, which a merge drops
        # one at a time
        code = ("import contextlib, io, sys\n"
                "from lineplace.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    for path in sys.argv[1:]:\n"
                "        for eps in ('1e-9', '4'):\n"
                "            assert main(['solve', '--in', path, '--method', 'envelope',\n"
                "                         '--eps', eps]) == 0\n"
                "assert 'numpy.ma' not in sys.modules\n")
        src = str(Path(obnoxious.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", code, *map(str, paths)],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
