import json
import math
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest

from lineplace import (
    AggSpec,
    EmptyInput,
    NormP,
    Point,
    PointSet,
    Tolerance,
    UnsupportedNorm,
    build_lists_naive,
    dp_solve,
    lp_distance,
    rmin_on_axis,
)
from lineplace import intervals, k_cover
from lineplace._reference import build_lists_loop, dp_scan, relax_scan, two_point_circle
from lineplace.errors import NoBisectorRoot, TooLarge
from lineplace.k_cover import build_lists_sweep
from lineplace.verify import _enclosing_circle, enumerate_partitions, set_partition_oracle

TOL = Tolerance()
N1, N2, N3 = NormP(1.0), NormP(2.0), NormP(3.0)
ARTIFACTS = pathlib.Path(__file__).parent / "artifacts"
GOLDEN = pathlib.Path(__file__).parent / "golden"


def pset(*pairs):
    return PointSet(tuple(Point(x, y) for x, y in pairs))


def lists_as_tuples(lists):
    return [tuple((left, radius) for left, radius in cl) for cl in lists]


def lists_as_runs(lists):
    return [tuple(left for left, _ in cl) for cl in lists]


def random_pset(rng, n, regime):
    """Points near the line, spread over the plane, or on a small
    integer grid (equal abscissas, equal |y|, duplicates)."""
    if regime == "nearline":
        return pset(*((rng.uniform(0, 100), rng.uniform(-2, 2)) for _ in range(n)))
    if regime == "spread":
        return pset(*((rng.uniform(-100, 100), rng.uniform(-100, 100)) for _ in range(n)))
    return pset(*((float(rng.randint(0, 5)), float(rng.randint(-3, 3))) for _ in range(n)))


U = 2.0 ** -52


def pair_tolerance(ps, i, j, xc, R, p, eps):
    """Bound on |batch radius - scalar radius| for one pair at p != 1, 2.

    Derived before comparing, from float64 and the pair's conditioning.
    Both routes evaluate F(x) = |x - xi|^p - |x - xj|^p and the target
    |yj|^p - |yi|^p with a few ulp of error each (numpy's SIMD powers
    and Python's ** may differ in the last bit), so within
    dF = 8u (|x - xi|^p + |x - xj|^p + |yi|^p + |yj|^p), u = 2^-52.
    F increases with slope s = F'(xc), so every bracket end a route
    keeps lies within dF / s of the root, and its midpoint within
    dF / s + eps/8 once the bracket is eps/4 wide. The scalar route
    ends so; the batch's rtsafe ends so when it bisects, and otherwise
    after a Newton step of at most eps/4, whose error is of the order
    of the step squared times F''/F', far below eps/8: centers differ
    by at most 2 dF / s + eps/4. The radius is 1-Lipschitz in the center
    and each route rounds it by a few ulp, so the radii differ by at
    most 2 dF / s + eps/4 + 8u R. Between the points s = p (da^(p-1) +
    db^(p-1)), with da, db the distances to them; outside, the mean
    value theorem gives s >= p (p - 1) min(da^(p-2), db^(p-2)) |xj - xi|
    (the difference of the two powers cancels in float64, so s is not
    computed from it). Far from both points, at distance D ~ R, that
    is s ~ p (p - 1) R^(p-2) |xj - xi| against dF ~ u R^p, so the
    relative bound grows like u R / |xj - xi|.
    """
    a, b = ps.pts[i], ps.pts[j]
    da, db = abs(xc - a.x), abs(xc - b.x)
    dF = 8 * U * (da ** p + db ** p + abs(a.y) ** p + abs(b.y) ** p)
    if a.x <= xc <= b.x:
        s = p * (da ** (p - 1) + db ** (p - 1))
    else:
        s = p * (p - 1) * min(da ** (p - 2), db ** (p - 2)) * (b.x - a.x)
    return 2 * dF / s + eps / 4 + 8 * U * R


def taxicab_tolerance(ps, i, j, eps):
    """Bound on |batch - scalar| for one pair's center and radius at p = 1.

    The batch takes the closed form c = (xi + xj + t) / 2 with t =
    |yj| - |yi|, within u (|xi| + |xj| + |t|) of the exact root of
    2x - xi - xj = t, u = 2^-52. The scalar route bisects the same
    F(x) = |x - xi| - |x - xj| on [xi, xj] to a bracket eps/4 wide, so
    its midpoint lies within eps/8 of the root of its float F; that F
    is within 2u |xj - xi| of 2x - xi - xj, and the slope 2 halves it.
    So the centers differ by at most the returned eps/8 + 4u (|xi| +
    |xj| + |yi| + |yj|). The radius |c - xi| + |yi| is 1-Lipschitz in
    c and each route rounds it twice, which adds 4u R for the radii.
    """
    a, b = ps.pts[i], ps.pts[j]
    return eps / 8 + 4 * U * (abs(a.x) + abs(b.x) + abs(a.y) + abs(b.y))


def batch_pair_circles(ps, norm, tol):
    X = np.array([q.x for q in ps.pts])
    Y = np.array([q.y for q in ps.pts])
    I, J = np.triu_indices(len(ps))
    xc, R, ok = k_cover._pair_circles(X, Y, I, J, norm.p, tol)
    return zip(I.tolist(), J.tolist(), xc.tolist(), R.tolist(), ok.tolist())


class TestPointSet:
    def test_sorted_on_construction(self):
        ps = pset((5, 1), (1, 2), (1, -3))
        assert [(q.x, q.y) for q in ps.pts] == [(1, -3), (1, 2), (5, 1)]
        assert len(ps) == 3


class TestAggSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            AggSpec(0.5, "sum")
        with pytest.raises(ValueError):
            AggSpec(1.0, "median")
        assert AggSpec().kind == "sum"


class TestTwoPointCircle:
    def test_pinned(self):
        cx, r = two_point_circle(pset((3, -4), (9, 9)), 0, 0, N2, TOL)
        assert (cx, r) == (3.0, 4.0)

    def test_euclidean_pair(self):
        cx, r = two_point_circle(pset((0, 1), (2, 3)), 0, 1, N2, TOL)
        assert abs(cx - 3.0) < 1e-12
        assert abs(r - math.sqrt(10.0)) < 1e-12

    def test_equal_x_same_absy(self):
        cx, r = two_point_circle(pset((4, -2), (4, 2)), 0, 1, N2, TOL)
        assert (cx, r) == (4.0, 2.0)

    def test_equal_x_different_absy_raises(self):
        with pytest.raises(NoBisectorRoot):
            two_point_circle(pset((4, 1), (4, 2)), 0, 1, N2, TOL)

    def test_taxicab_plateau_raises(self):
        # |y| difference exceeds the x spread, so no axis point is
        # equidistant under p = 1
        with pytest.raises(NoBisectorRoot):
            two_point_circle(pset((0, 1), (1, 9)), 0, 1, N1, TOL)

    @pytest.mark.parametrize("norm", [N1, N3])
    def test_general_norm_equidistant(self, norm):
        ps = pset((0, 2), (5, 3))
        cx, r = two_point_circle(ps, 0, 1, norm, TOL)
        d0 = lp_distance(Point(cx, 0.0), ps.pts[0], norm)
        d1 = lp_distance(Point(cx, 0.0), ps.pts[1], norm)
        assert abs(d0 - d1) < 1e-7
        assert abs(r - d0) < 1e-7


class TestCandidateLists:
    def test_pair_circle_expands(self):
        lists = build_lists_naive(pset((0, 0), (1, 0), (10, 0)), N2, TOL)
        assert (0, 0.5) in [(left, radius) for left, radius in lists[1]]

    def test_diagonal_always_present(self):
        lists = build_lists_naive(pset((0, 3), (5, 1)), N2, TOL)
        for r, cl in enumerate(lists):
            assert any(left == r for left, _ in cl)

    def test_sorted_and_unique_lefts(self):
        rng = random.Random(4)
        ps = pset(*((rng.uniform(-20, 20), rng.uniform(-20, 20))
                    for _ in range(12)))
        for cl in build_lists_naive(ps, N2, TOL):
            lefts = [left for left, _ in cl]
            assert lefts == sorted(lefts)
            assert len(set(lefts)) == len(lefts)

    def test_lists_hold_plain_pairs(self):
        # every builder gives, per right end, (left, radius) pairs of a
        # Python int and float, the format dp_solve reads
        ps = pset((0, 1), (0, -1), (2, 3), (5, 0.5), (6, 2))
        for build in (build_lists_naive, build_lists_sweep, build_lists_loop):
            lists = build(ps, N2, TOL)
            assert isinstance(lists, tuple) and len(lists) == len(ps)
            for cl in lists:
                assert isinstance(cl, tuple) and cl
                for pair in cl:
                    assert type(pair) is tuple and len(pair) == 2
                    assert type(pair[0]) is int and type(pair[1]) is float

    def test_sweep_requires_euclidean(self):
        with pytest.raises(UnsupportedNorm):
            build_lists_sweep(pset((0, 1), (2, 2)), N3, TOL)

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 25])
    def test_sweep_matches_naive(self, n):
        rng = random.Random(n)
        ps = pset(*((round(rng.uniform(-50, 50), 3), round(rng.uniform(-50, 50), 3))
                    for _ in range(n)))
        a = lists_as_tuples(build_lists_naive(ps, N2, TOL))
        b = lists_as_tuples(build_lists_sweep(ps, N2, TOL))
        assert a == b

    def test_sweep_matches_naive_with_duplicates(self):
        ps = pset((1, 2), (1, 2), (1, -2), (4, 0), (4, 1), (7, 2))
        a = lists_as_tuples(build_lists_naive(ps, N2, TOL))
        b = lists_as_tuples(build_lists_sweep(ps, N2, TOL))
        assert a == b


class TestPairCirclesBatch:
    """k_cover._pair_circles against two_point_circle, pair by pair.

    The scalar kernel bisects at every p != 2, while the batch takes the
    closed form at p = 1 and rtsafe at other p, so the two agree within
    the bounds derived in taxicab_tolerance and pair_tolerance.
    """

    SPECIAL = {
        # i == j, equal abscissas with equal and with different |y|
        "ties": ((4, -2), (4, 2), (4, 3), (4, 3), (6, 1)),
        # p = 1: target = +span, beyond +span, beyond -span, = -span
        "plateau": ((0, 1), (2, 3), (3, 6), (4, 1), (6, 4), (7, 3)),
        # abscissas 1e-3 apart: centers far away, F cancels
        "near-equal": ((0.0, 1.0), (1e-3, 2.0), (2e-3, 1.5), (50, 0.5), (50.001, -1.7)),
    }

    def _compare(self, ps, norm):
        seen_fail = 0
        for i, j, xc, R, ok in batch_pair_circles(ps, norm, TOL):
            try:
                want = two_point_circle(ps, i, j, norm, TOL)
            except NoBisectorRoot:
                assert not ok, (i, j)
                seen_fail += 1
                continue
            assert ok, (i, j)
            if norm.p == 2.0 or ps.pts[i].x == ps.pts[j].x:
                assert (xc, R) == want, (i, j)
            elif norm.p == 1.0:
                bound = taxicab_tolerance(ps, i, j, TOL.eps)
                assert abs(xc - want[0]) <= bound, (i, j)
                assert abs(R - want[1]) <= bound + 4 * U * R, (i, j)
            else:
                assert abs(R - want[1]) <= pair_tolerance(ps, i, j, *want, norm.p, TOL.eps), (i, j)
        return seen_fail

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("case", sorted(SPECIAL))
    def test_special_cases(self, case, p):
        ps = pset(*self.SPECIAL[case])
        fails = self._compare(ps, NormP(p))
        if case == "ties":
            assert fails >= 1  # (4, 2) with (4, 3)
        if case == "plateau" and p == 1.0:
            assert fails >= 1

    def test_plateau_cases_occur(self):
        # the "plateau" points hold each p = 1 case the batch must mask
        ps = pset(*self.SPECIAL["plateau"])
        assert two_point_circle(ps, 0, 1, N1, TOL) == (2.0, 3.0)  # target = +span
        assert two_point_circle(ps, 4, 5, N1, TOL) == (6.0, 4.0)  # target = -span
        for i, j in ((1, 2), (2, 3)):  # beyond +span, beyond -span
            with pytest.raises(NoBisectorRoot):
                two_point_circle(ps, i, j, N1, TOL)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("regime", ["nearline", "spread", "grid"])
    def test_random(self, regime, p):
        rng = random.Random(f"{regime}{p}")
        for _ in range(4):
            self._compare(random_pset(rng, rng.randint(1, 25), regime), NormP(p))

    def test_huge_coordinates_give_no_inf(self):
        # pair circles of coordinates near the float range overflow to
        # inf or NaN at p = 2, as in Python floats; none reaches a list
        ps = pset((-2.019955896797132e+200, 0.0), (-9.864074220590215e+151, 0.0),
                  (1.7602215165300773e+241, 1.0), (1.2662318830438603e+282, 0.0))
        assert two_point_circle(ps, 1, 3, N2, TOL)[1] == math.inf
        assert math.isnan(two_point_circle(ps, 0, 3, N2, TOL)[1])
        want = lists_as_tuples(build_lists_loop(ps, N2, TOL))
        assert lists_as_tuples(build_lists_naive(ps, N2, TOL)) == want
        assert lists_as_tuples(build_lists_sweep(ps, N2, TOL)) == want
        for norm in (N1, N2):
            for cl in build_lists_naive(ps, norm, TOL):
                assert all(math.isfinite(radius) for _, radius in cl)

    def test_taxicab_closed_form_is_exact(self):
        # at p = 1 the center of an inner pair is (xi + xj + t) / 2 with
        # t = |yj| - |yi|: three operations, each rounded by a factor
        # within 2^-53 of 1, and an exact halving. So it lies within
        # 2^-54 (|xi + xj| + |t| + |fl(xi + xj) + fl(t)|) of the exact
        # rational value
        rng = random.Random("closed form")
        inner = 0
        for regime in ("nearline", "spread", "grid"):
            ps = random_pset(rng, 25, regime)
            for i, j, xc, R, ok in batch_pair_circles(ps, N1, TOL):
                a, b = ps.pts[i], ps.pts[j]
                t = abs(b.y) - abs(a.y)
                if a.x == b.x or not -(b.x - a.x) < t < b.x - a.x:
                    continue
                inner += 1
                assert ok
                s = Fraction(a.x) + Fraction(b.x)
                exact_t = abs(Fraction(b.y)) - abs(Fraction(a.y))
                rounded = Fraction(a.x + b.x) + Fraction(t)
                err = abs(Fraction(xc) - (s + exact_t) / 2)
                assert err <= Fraction(2) ** -54 * (abs(s) + abs(exact_t) + abs(rounded))
                assert R == abs(xc - a.x) + abs(a.y)
        assert inner > 300

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("case", ["near-equal", "far"])
    def test_no_pair_reaches_the_cap(self, case, p, monkeypatch):
        # centers up to 1e10 away, where an ulp of the center exceeds
        # eps/4: every pair stops before 64 steps of widening or rtsafe,
        # so a cap of 64 gives the same circles as the default 200
        if case == "near-equal":
            ps = pset(*self.SPECIAL[case])
        else:
            rng = random.Random("far centers")
            pairs = [(round(rng.uniform(-100, 100), 6), round(rng.uniform(-100, 100), 6))
                     for _ in range(40)]
            # abscissas 1e-6 apart whose |y| differ by tens
            pairs += [(x + 1e-6, rng.choice((-1, 1)) * rng.uniform(50, 100)) for x, _ in pairs[::8]]
            ps = pset(*pairs)
        running = []
        step = k_cover._rtsafe_step

        def counted(act, x, *args):
            running.append(len(x) if act is None else len(act))
            return step(act, x, *args)

        monkeypatch.setattr(k_cover, "_rtsafe_step", counted)
        want = list(batch_pair_circles(ps, NormP(p), TOL))
        # the last step leaves no pair running
        assert len(running) < 64
        if case == "far":
            # Newton steps keep the mean number of steps per pair small
            assert sum(running) < 8 * running[0]
            if p == 1.5:
                assert max(abs(xc) for _, _, xc, _, _ in want) > 1e7
        assert list(batch_pair_circles(ps, NormP(p), Tolerance(max_iters=64))) == want

    @pytest.mark.parametrize("p", [1.5, 3.0, 300.0])
    def test_subnormal_pairs_keep_a_finite_scale(self, p):
        # the scale that brings these pairs near 1 exceeds the float
        # range, so it stops at 2^1021
        ps = pset((1e-320, 2e-315), (3e-318, -1e-310), (5e-300, 1.5e-300))
        got = build_lists_naive(ps, NormP(p), TOL)
        assert lists_as_runs(got) == lists_as_runs(build_lists_loop(ps, NormP(p), TOL))
        assert all(math.isfinite(radius) for cl in got for _, radius in cl)

    def test_far_pair_circles_do_not_overflow(self):
        # Python's ** overflows in the scalar loop's widening; the batch
        # runs each pair on its own power-of-two scale and finds every
        # circle the loop finds, and a center for the far pairs too
        ps = pset((-16, -3.73e16), (-16, 0), (-10, 0), (-6, -94.8), (1.2e-246, -16))
        norm = NormP(5.998)
        with pytest.raises(OverflowError):
            build_lists_loop(ps, norm, TOL)
        for i, j, xc, R, ok in batch_pair_circles(ps, norm, TOL):
            if (i, j) == (0, 1):  # one abscissa, |y| differ
                assert not ok
                continue
            assert ok and math.isfinite(R), (i, j)
            try:
                want = two_point_circle(ps, i, j, norm, TOL)
            except OverflowError:
                assert i == 0
                continue
            if i == j:
                assert (xc, R) == want
            else:
                assert abs(R - want[1]) <= pair_tolerance(ps, i, j, *want, norm.p, TOL.eps), (i, j)
        lists = build_lists_naive(ps, norm, TOL)
        assert all(math.isfinite(radius) for cl in lists for _, radius in cl)


class TestListsAgainstLoop:
    """build_lists_naive against the per-pair loop of lineplace._reference."""

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("regime", ["nearline", "spread", "grid"])
    def test_identical_lists(self, regime, p):
        # bit for bit at p = 2; at p = 1 the batch's closed-form centers
        # differ from the loop's bisection, so the runs are the same and
        # each radius within taxicab_tolerance of the pair it came from
        rng = random.Random(f"lists{regime}{p}")
        for n in (1, 2, 7, 30):
            ps = random_pset(rng, n, regime)
            got = build_lists_naive(ps, NormP(p), TOL)
            want = build_lists_loop(ps, NormP(p), TOL)
            if p == 2.0:
                assert lists_as_tuples(got) == lists_as_tuples(want)
                continue
            assert lists_as_runs(got) == lists_as_runs(want)
            bound = TOL.eps / 8 + 16 * U * max(abs(c) for q in ps.pts for c in (q.x, q.y))
            for cl, wl in zip(got, want):
                for (_, r), (_, w) in zip(cl, wl):
                    assert abs(r - w) <= bound + 4 * U * w

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("regime", ["nearline", "spread", "grid"])
    def test_identical_runs(self, regime, p):
        rng = random.Random(f"runs{regime}{p}")
        for n in (1, 2, 7, 30):
            ps = random_pset(rng, n, regime)
            assert (lists_as_runs(build_lists_naive(ps, NormP(p), TOL))
                    == lists_as_runs(build_lists_loop(ps, NormP(p), TOL)))

    def test_near_equal_abscissas(self):
        ps = pset((0.447712, 96.415328), (0.447713, 54.104628), (3, 1))
        assert (lists_as_tuples(build_lists_naive(ps, N2, TOL))
                == lists_as_tuples(build_lists_loop(ps, N2, TOL)))


def enclosing_route(ps, i, j, norm):
    """rmin_on_axis by min_enclosing over the point segments of run i..j."""
    return _enclosing_circle(ps.pts[i:j + 1], norm, TOL)


def bits(pair):
    return tuple(float.hex(v) for v in pair)


def kernel_psets(rng, n):
    """Runs of n points near the line, spread, all on the axis (lower
    bound 0), on one abscissa, and all at one point of the axis (L = 0)."""
    x0 = rng.uniform(-50, 50)
    yield random_pset(rng, n, "nearline")
    yield random_pset(rng, n, "spread")
    yield pset(*((rng.uniform(0, 100), 0.0) for _ in range(n)))
    yield pset(*((x0, rng.uniform(-5, 5)) for _ in range(n)))
    yield pset(*((x0, 0.0) for _ in range(n)))


class TestRminOnAxis:
    def test_single(self):
        cx, r = rmin_on_axis(pset((2, 5)), 0, 0, N2, TOL)
        assert abs(cx - 2.0) < 1e-9
        assert abs(r - 5.0) < 1e-9

    def test_pair(self):
        cx, r = rmin_on_axis(pset((0, 1), (2, 3)), 0, 1, N2, TOL)
        assert abs(cx - 2.0) < 1e-6
        assert abs(r - 3.0) < 1e-9

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_bits_of_the_scalar_enclosing_route(self, monkeypatch, p):
        # the kernel is min_enclosing's scalar bisection on plain
        # floats; at p = 1 and 2 the array route from 24 segments on
        # gives the same bits too, at other p its powers may differ
        norm = NormP(p)
        rng = random.Random(f"rmin{p}")
        for n in (1, 2, 5, 23, 24, 60, 200):
            for ps in kernel_psets(rng, n):
                runs = [(0, n - 1), (n // 3, n - 1 - n // 4)]
                got = [bits(rmin_on_axis(ps, i, j, norm, TOL)) for i, j in runs]
                if p in (1.0, 2.0):
                    assert got == [bits(enclosing_route(ps, i, j, norm)) for i, j in runs]
                with monkeypatch.context() as m:
                    m.setattr(intervals, "ARRAY_MIN_SEGMENTS", 10**9)
                    assert got == [bits(enclosing_route(ps, i, j, norm)) for i, j in runs]

    def test_signed_zero_abscissas(self):
        # -0.0 and 0.0 on the axis: the bits of the center follow
        # min_enclosing's, signs of zero included
        for pairs in (((0.0, 0.0), (-0.0, 0.0)), ((-0.0, 0.0), (0.0, 0.0)),
                      ((0.0, 0.0), (-0.0, 0.0), (5.0, 0.0))):
            ps = pset(*pairs)
            for p in (1.0, 2.0, 3.0):
                n = len(ps) - 1
                assert (bits(rmin_on_axis(ps, 0, n, NormP(p), TOL))
                        == bits(enclosing_route(ps, 0, n, NormP(p))))

    def test_window_beyond_the_float_range(self):
        # the shifted window overflows; the errors are those of the
        # Point and min_enclosing inputs they replace
        with pytest.raises(ValueError, match="point coordinates must be finite"):
            rmin_on_axis(pset((-1e308, 0.0), (1e308, 0.0)), 0, 1, N1, TOL)
        with pytest.raises(ValueError, match="L must be finite"):
            rmin_on_axis(pset((0.0, 1e308), (1.0, 1.7e308)), 0, 1, N2, TOL)


class TestDpSolve:
    def test_two_clusters(self):
        ps = pset((0, 0), (1, 0), (10, 0), (11, 0))
        sol = dp_solve(ps, 2, N2, TOL, AggSpec(1.0, "sum"))
        assert abs(sol.objective - 1.0) < 1e-6
        assert sol.intervals == ((0, 1), (2, 3))
        assert abs(sol.circles[0].cx - 0.5) < 1e-6
        assert abs(sol.circles[1].cx - 10.5) < 1e-6

    def test_single_circle(self):
        ps = pset((0, 0), (1, 0), (10, 0), (11, 0))
        sol = dp_solve(ps, 1, N2, TOL, AggSpec(1.0, "sum"))
        assert abs(sol.objective - 5.5) < 1e-6
        assert abs(sol.circles[0].cx - 5.5) < 1e-6

    def test_squared_sum(self):
        ps = pset((0, 1), (2, 1), (6, 1))
        sol = dp_solve(ps, 2, N2, TOL, AggSpec(2.0, "sum"))
        assert abs(sol.objective - 3.0) < 1e-6

    def test_unbounded_k(self):
        ps = pset((0, 2), (5, 1), (9, 3))
        sol = dp_solve(ps, None, N2, TOL, AggSpec(1.0, "sum"))
        assert len(sol.circles) <= 3
        assert sol.objective <= 6.0 + 1e-6

    def test_unused_budget_is_free(self):
        ps = pset((0, 1), (1, 1))
        a = dp_solve(ps, 2, N2, TOL, AggSpec(1.0, "sum"))
        b = dp_solve(ps, 4, N2, TOL, AggSpec(1.0, "sum"))
        assert abs(a.objective - b.objective) < 1e-9

    def test_budget_beyond_point_count(self):
        # rows k >= n of the DP are identical, so the budget is clamped
        # to n instead of allocating K rows
        ps = pset((0, 1), (4, 2), (9, 1))
        agg = AggSpec(1.0, "sum")
        assert dp_solve(ps, 10**6, N2, TOL, agg) == dp_solve(ps, len(ps), N2, TOL, agg)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            dp_solve(PointSet(()), 1, N2, TOL, AggSpec())
        with pytest.raises(ValueError):
            dp_solve(pset((0, 1)), 0, N2, TOL, AggSpec())

    def test_break_inside_wide_candidate(self):
        # the minimax optimum needs a block strictly inside a wider
        # candidate run; a transition pinned to candidate left ends
        # misses it
        ps = pset((-15.277, -3.275), (-8.482, 19.207), (-8.009, 11.775),
                  (2.977, 1.008), (7.96, -10.236), (15.005, 9.178))
        agg = AggSpec(2.0, "max")
        sol = dp_solve(ps, 2, N2, TOL, agg)
        oracle = set_partition_oracle(ps, 2, N2, TOL, agg)
        assert abs(sol.objective - oracle.objective) <= 1e-6

    @pytest.mark.parametrize("kind", ["sum", "max"])
    def test_matches_oracle_random(self, kind):
        rng = random.Random(17 if kind == "sum" else 18)
        for _ in range(25):
            n = rng.randint(1, 7)
            ps = pset(*((round(rng.uniform(-20, 20), 3),
                         round(rng.uniform(-20, 20), 3)) for _ in range(n)))
            K = rng.randint(1, 3)
            agg = AggSpec(rng.choice([1.0, 2.0]), kind)
            a = dp_solve(ps, K, N2, TOL, agg, lists="naive")
            b = dp_solve(ps, K, N2, TOL, agg, lists="sweep")
            o = set_partition_oracle(ps, K, N2, TOL, agg)
            assert abs(a.objective - b.objective) <= 1e-9
            assert abs(a.objective - o.objective) <= 1e-6

    def test_non_euclidean_against_oracle(self):
        rng = random.Random(71)
        for _ in range(8):
            n = rng.randint(1, 6)
            ps = pset(*((round(rng.uniform(-10, 10), 3),
                         round(rng.uniform(-10, 10), 3)) for _ in range(n)))
            agg = AggSpec(1.0, "sum")
            a = dp_solve(ps, 2, N3, TOL, agg)
            o = set_partition_oracle(ps, 2, N3, TOL, agg)
            assert abs(a.objective - o.objective) <= 1e-6


class TestRelax:
    """k_cover._relax, all rows at once, and k_cover._break against the
    nested scan of lineplace._reference, row by row."""

    def _both(self, rows, j, cands, q, is_sum):
        lefts = [left for left, _ in cands]
        weights = [radius ** q for _, radius in cands]
        best, cand = k_cover._relax(np.array(rows), j, np.array(lefts), np.array(weights),
                                    is_sum)
        got = []
        for row, b, c in zip(rows, best.tolist(), cand.tolist()):
            brk = None if b == math.inf else k_cover._break(np.array(row), j, lefts[c],
                                                           weights[c], b, is_sum)
            got.append((b, brk))
        return got, [relax_scan(row, j, lefts, weights, is_sum) for row in rows]

    @pytest.mark.parametrize("kind", ["sum", "max"])
    def test_random_rows(self, kind):
        rng = random.Random(kind)
        for _ in range(400):
            j = rng.randint(1, 12)
            # columns from j on are not read
            width = j + rng.randint(0, 2)
            rows = [[rng.choice([math.inf, float(rng.randint(0, 4)), rng.uniform(0, 4)])
                     for _ in range(width)]
                    for _ in range(rng.randint(1, 4))]
            lefts = sorted(rng.sample(range(j), rng.randint(1, j)))
            cands = [(left, rng.choice([0.0, 1.0, rng.uniform(0, 3)])) for left in lefts]
            q = rng.choice([1.0, 2.0])
            got, want = self._both(rows, j, cands, q, kind == "sum")
            assert got == want

    def test_all_inf(self):
        for is_sum in (True, False):
            got, want = self._both([[math.inf] * 3], 3, [(0, 1.0), (2, 0.5)], 1.0, is_sum)
            assert got == want == [(math.inf, None)]

    def test_rounding_tie_keeps_the_first_break(self):
        # prev one ulp apart, the smaller one later: with w = 1e6 both
        # sums round to 1000001.0, and the scan keeps the first break,
        # not the range minimum's
        row = [math.nextafter(1.0, 2.0), 1.0]
        got, want = self._both([row], 2, [(0, 1e6)], 1.0, True)
        assert got == want == [(1000001.0, 0)]

    def test_overflow_is_inf(self):
        # prev + w beyond the float range is inf, as in Python floats
        got, want = self._both([[1e308, 1.0]], 2, [(0, 1e308)], 1.0, True)
        assert got == want == [(1e308, 1)]

    def test_rows_choose_different_candidates(self):
        # the wide candidate is cheapest from row 0's only finite prev,
        # the narrow one from row 1, and row 2 can enter only the wide
        # one, at a break inside it
        rows = [[0.0, math.inf, math.inf], [math.inf, 0.0, 0.0], [math.inf, 1.0, math.inf]]
        for is_sum, want_rows in ((True, [(5.0, 0), (1.0, 2), (6.0, 1)]),
                                  (False, [(5.0, 0), (1.0, 2), (5.0, 1)])):
            got, want = self._both(rows, 3, [(0, 5.0), (2, 1.0)], 1.0, is_sum)
            assert got == want == want_rows


def budget(K, n):
    """K, or with K = "n" or "n+2" that budget for n points."""
    return {"n": n, "n+2": n + 2}.get(K, K)


class TestDpAgainstScan:
    """dp_solve against the per-cell scan of lineplace._reference."""

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("K", [1, 3, "n", "n+2", None])
    def test_loops_give_the_same_solution(self, K, p):
        rng = random.Random(f"dp{K}{p}")
        for n, regime, q, kind in ((9, "nearline", 1.0, "sum"), (14, "spread", 2.0, "max"),
                                   (12, "grid", 1.0, "max"), (25, "nearline", 2.0, "sum")):
            ps, agg, k = random_pset(rng, n, regime), AggSpec(q, kind), budget(K, n)
            want = dp_scan(ps, k, NormP(p), TOL, agg, build_lists_loop(ps, NormP(p), TOL))
            assert dp_solve(ps, k, NormP(p), TOL, agg) == want

    @pytest.mark.parametrize("lists", ["naive", "sweep"])
    def test_non_finite_pair_circle(self, lists):
        # the pair circle of points near the float range has a NaN
        # center; the loops skip it, and so must the DP
        ps = pset((1e200, 1), (2e200, 1))
        agg = AggSpec(1.0, "sum")
        got = [dp_solve(ps, K, N2, TOL, agg, lists) for K in (2, None)]
        assert got[0] == got[1]
        assert got[0].intervals == ((0, 0), (1, 1))
        with pytest.raises(OverflowError):
            dp_solve(ps, 1, N2, TOL, agg, lists)
        cls = build_lists_loop(ps, N2, TOL)
        assert [dp_scan(ps, K, N2, TOL, agg, cls) for K in (2, None)] == got
        with pytest.raises(OverflowError):
            dp_scan(ps, 1, N2, TOL, agg, cls)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("K", [1, 3, "n", "n+2", None])
    def test_scan_relax_gives_the_same_solution(self, K, p):
        # lists at p != 1, 2 may differ from the loop's in the last
        # bits of their radii, so the scan runs on the solver's lists
        rng = random.Random(f"dpq{K}{p}")
        for n, regime in ((9, "nearline"), (14, "spread"), (12, "grid")):
            ps, k = random_pset(rng, n, regime), budget(K, n)
            cls = build_lists_naive(ps, NormP(p), TOL)
            for agg in (AggSpec(1.0, "sum"), AggSpec(2.0, "max")):
                want = dp_scan(ps, k, NormP(p), TOL, agg, cls)
                assert dp_solve(ps, k, NormP(p), TOL, agg) == want


class TestEnumeratePartitions:
    def test_bell_counts(self):
        assert sum(1 for _ in enumerate_partitions(4, 4)) == 15
        assert sum(1 for _ in enumerate_partitions(5, 5)) == 52

    def test_bounded_block_count(self):
        parts = list(enumerate_partitions(4, 2))
        assert all(len(p) <= 2 for p in parts)
        assert len(parts) == 8

    def test_covers_every_index(self):
        for blocks in enumerate_partitions(5, 3):
            flat = sorted(i for b in blocks for i in b)
            assert flat == list(range(5))


class TestSetPartitionOracle:
    def test_size_guards(self):
        big = pset(*((float(i), 1.0) for i in range(11)))
        with pytest.raises(TooLarge):
            set_partition_oracle(big, 2, N2, TOL, AggSpec())
        small = pset((0, 1), (1, 1))
        with pytest.raises(TooLarge):
            set_partition_oracle(small, 5, N2, TOL, AggSpec())

    def test_independent_of_the_reconstruction_kernel(self, monkeypatch):
        # --verify prices blocks by min_enclosing, not by the kernel
        # that reconstructs the solver's circles
        def broken(*args):
            raise AssertionError("the oracle reached the k-cover kernel")

        monkeypatch.setattr(k_cover, "_rmin_points", broken)
        monkeypatch.setattr(k_cover, "rmin_on_axis", broken)
        inst = json.loads((GOLDEN / "inst_10.json").read_text())
        out = json.loads((GOLDEN / "out_10.json").read_text())
        ps = pset(*inst["points"])
        agg = AggSpec(inst["q"], inst["agg"])
        got = set_partition_oracle(ps, inst["k"], NormP(inst["p"]), TOL, agg)
        assert got.objective == out["result"]["objective"]

    def test_contiguity_counterexample_artifact(self):
        # two coincident points plus one offset point tie the optimum
        # with a non-contiguous partition; record the instance so the
        # tie is reproducible
        ps = pset((0, 0), (0, 0), (1, 1))
        agg = AggSpec(1.0, "sum")
        sol = dp_solve(ps, 2, N2, TOL, agg)
        memo = {}

        def block_cost(idx):
            key = tuple(sorted(idx))
            if key not in memo:
                pts = [ps.pts[i] for i in key]
                maxy = max(abs(q.y) for q in pts)
                xs = [q.x for q in pts]
                lo, hi = min(xs) - maxy, max(xs) + maxy
                from lineplace import Segment, min_enclosing
                segs = [Segment(Point(q.x - lo, q.y), Point(q.x - lo, q.y))
                        for q in pts]
                memo[key] = min_enclosing(segs, max(hi - lo, 0.0), N2, TOL).radius
            return memo[key]

        best = None
        optimal = []
        for blocks in enumerate_partitions(3, 2):
            val = sum(block_cost(b) for b in blocks)
            if best is None or val < best - 1e-9:
                best = val
                optimal = [blocks]
            elif abs(val - best) <= 1e-9:
                optimal.append(blocks)
        noncontig = [blocks for blocks in optimal
                     if any(b[-1] - b[0] + 1 != len(b) for b in blocks)]
        assert noncontig, "expected a non-contiguous optimal partition"
        assert abs(best - sol.objective) <= 1e-6

        ARTIFACTS.mkdir(exist_ok=True)
        record = {
            "points": [[q.x, q.y] for q in ps.pts],
            "k": 2,
            "agg": {"q": 1.0, "kind": "sum"},
            "objective": best,
            "noncontiguous_optimal_partition": [list(map(list, b))
                                                for b in [noncontig[0]]][0],
            "dp_objective": sol.objective,
        }
        path = ARTIFACTS / "contiguity_counterexample.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        assert json.loads(path.read_text())["objective"] == best
