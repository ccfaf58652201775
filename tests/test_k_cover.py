import json
import math
import pathlib
import random

import numpy as np
import pytest

from lineplace import (
    AggSpec,
    EmptyInput,
    NoBisectorRoot,
    NormP,
    Point,
    PointSet,
    Tolerance,
    TooLarge,
    UnsupportedNorm,
    build_lists_naive,
    build_lists_sweep,
    dp_solve,
    enumerate_partitions,
    lp_distance,
    rmin_on_axis,
    set_partition_oracle,
    two_point_circle,
)
from lineplace import k_cover
from lineplace._reference import build_lists_loop, relax_scan

TOL = Tolerance()
N1, N2, N3 = NormP(1.0), NormP(2.0), NormP(3.0)
ARTIFACTS = pathlib.Path(__file__).parent / "artifacts"


def pset(*pairs):
    return PointSet(tuple(Point(x, y) for x, y in pairs))


def lists_as_tuples(lists):
    return [tuple((c.left, c.radius) for c in cl) for cl in lists]


def lists_as_runs(lists):
    return [tuple(c.left for c in cl) for cl in lists]


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
    dF / s + eps/8 once the bracket is eps/4 wide: centers differ by
    at most 2 dF / s + eps/4. The radius is 1-Lipschitz in the center
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
        assert (0, 0.5) in [(c.left, c.radius) for c in lists[1]]

    def test_diagonal_always_present(self):
        lists = build_lists_naive(pset((0, 3), (5, 1)), N2, TOL)
        for r, cl in enumerate(lists):
            assert any(c.left == r for c in cl)

    def test_sorted_and_unique_lefts(self):
        rng = random.Random(4)
        ps = pset(*((rng.uniform(-20, 20), rng.uniform(-20, 20))
                    for _ in range(12)))
        for cl in build_lists_naive(ps, N2, TOL):
            lefts = [c.left for c in cl]
            assert lefts == sorted(lefts)
            assert len(set(lefts)) == len(lefts)

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
    """k_cover._pair_circles against two_point_circle, pair by pair."""

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
            if norm.p in (1.0, 2.0) or ps.pts[i].x == ps.pts[j].x:
                assert (xc, R) == want, (i, j)
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
                assert all(math.isfinite(c.radius) for c in cl)

    def test_overflowing_power_raises(self):
        # where Python's ** raises OverflowError, the batch raises too
        ps = pset((-16, -3.73e16), (-16, 0), (-10, 0), (-6, -94.8), (1.2e-246, -16))
        with pytest.raises(OverflowError):
            build_lists_loop(ps, NormP(5.998), TOL)
        with pytest.raises(FloatingPointError):
            build_lists_naive(ps, NormP(5.998), TOL)


class TestListsAgainstLoop:
    """build_lists_naive against the per-pair loop of lineplace._reference."""

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("regime", ["nearline", "spread", "grid"])
    def test_identical_lists(self, regime, p):
        rng = random.Random(f"lists{regime}{p}")
        for n in (1, 2, 7, 30):
            ps = random_pset(rng, n, regime)
            assert (lists_as_tuples(build_lists_naive(ps, NormP(p), TOL))
                    == lists_as_tuples(build_lists_loop(ps, NormP(p), TOL)))

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


class TestRminOnAxis:
    def test_single(self):
        cx, r = rmin_on_axis(pset((2, 5)), 0, 0, N2, TOL)
        assert abs(cx - 2.0) < 1e-9
        assert abs(r - 5.0) < 1e-9

    def test_pair(self):
        cx, r = rmin_on_axis(pset((0, 1), (2, 3)), 0, 1, N2, TOL)
        assert abs(cx - 2.0) < 1e-6
        assert abs(r - 3.0) < 1e-9


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
    """k_cover._relax against the nested scan of lineplace._reference."""

    def _both(self, row, j, cands, q, is_sum):
        lefts = [left for left, _ in cands]
        weights = [radius ** q for _, radius in cands]
        return (k_cover._relax(np.array(row), j, np.array(lefts), np.array(weights), is_sum),
                relax_scan(row, j, lefts, weights, is_sum))

    @pytest.mark.parametrize("kind", ["sum", "max"])
    def test_random_rows(self, kind):
        rng = random.Random(kind)
        for _ in range(400):
            j = rng.randint(1, 12)
            row = [rng.choice([math.inf, float(rng.randint(0, 4)), rng.uniform(0, 4)])
                   for _ in range(j)]
            lefts = sorted(rng.sample(range(j), rng.randint(1, j)))
            cands = [(left, rng.choice([0.0, 1.0, rng.uniform(0, 3)])) for left in lefts]
            q = rng.choice([1.0, 2.0])
            got, want = self._both(row, j, cands, q, kind == "sum")
            assert got == want

    def test_all_inf(self):
        for is_sum in (True, False):
            got, want = self._both([math.inf] * 3, 3, [(0, 1.0), (2, 0.5)], 1.0, is_sum)
            assert got == want == (math.inf, None)

    def test_rounding_tie_keeps_the_first_break(self):
        # prev one ulp apart, the smaller one later: with w = 1e6 both
        # sums round to 1000001.0, and the scan keeps the first break,
        # not the range minimum's
        row = [math.nextafter(1.0, 2.0), 1.0]
        got, want = self._both(row, 2, [(0, 1e6)], 1.0, True)
        assert got == want == (1000001.0, 0)

    def test_overflow_is_inf(self):
        # prev + w beyond the float range is inf, as in Python floats
        got, want = self._both([1e308, 1.0], 2, [(0, 1e308)], 1.0, True)
        assert got == want == (1e308, 1)


class TestDpAgainstScan:
    """dp_solve against a DP built from the loops of lineplace._reference."""

    @pytest.mark.parametrize("p", [1.0, 2.0])
    @pytest.mark.parametrize("K", [1, 3, None])
    def test_loops_give_the_same_solution(self, monkeypatch, K, p):
        rng = random.Random(f"dp{K}{p}")
        cases = [(random_pset(rng, n, regime), AggSpec(q, kind))
                 for n, regime, q, kind in ((9, "nearline", 1.0, "sum"), (14, "spread", 2.0, "max"),
                                            (12, "grid", 1.0, "max"), (25, "nearline", 2.0, "sum"))]
        got = [dp_solve(ps, K, NormP(p), TOL, agg) for ps, agg in cases]
        monkeypatch.setattr(k_cover, "build_lists_naive", build_lists_loop)
        monkeypatch.setattr(k_cover, "_relax", relax_scan)
        for (ps, agg), sol in zip(cases, got):
            assert dp_solve(ps, K, NormP(p), TOL, agg) == sol

    @pytest.mark.parametrize("lists", ["naive", "sweep"])
    def test_non_finite_pair_circle(self, monkeypatch, lists):
        # the pair circle of points near the float range has a NaN
        # center; the loops skip it, and so must the DP
        ps = pset((1e200, 1), (2e200, 1))
        agg = AggSpec(1.0, "sum")
        got = [dp_solve(ps, K, N2, TOL, agg, lists) for K in (2, None)]
        assert got[0] == got[1]
        assert got[0].intervals == ((0, 0), (1, 1))
        with pytest.raises(OverflowError):
            dp_solve(ps, 1, N2, TOL, agg, lists)
        monkeypatch.setattr(k_cover, "build_lists_naive", build_lists_loop)
        monkeypatch.setattr(k_cover, "_relax", relax_scan)
        assert [dp_solve(ps, K, N2, TOL, agg) for K in (2, None)] == got

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("K", [1, 3, None])
    def test_scan_relax_gives_the_same_solution(self, monkeypatch, K, p):
        # lists at p != 1, 2 may differ from the loop's in the last
        # bits of their radii, so only the relaxation is swapped here
        rng = random.Random(f"dpq{K}{p}")
        for n, regime in ((9, "nearline"), (14, "spread"), (12, "grid")):
            ps = random_pset(rng, n, regime)
            for agg in (AggSpec(1.0, "sum"), AggSpec(2.0, "max")):
                with monkeypatch.context() as m:
                    want = dp_solve(ps, K, NormP(p), TOL, agg)
                    m.setattr(k_cover, "_relax", relax_scan)
                    assert dp_solve(ps, K, NormP(p), TOL, agg) == want


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
