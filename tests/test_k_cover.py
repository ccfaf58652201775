import json
import math
import pathlib
import random

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

TOL = Tolerance()
N1, N2, N3 = NormP(1.0), NormP(2.0), NormP(3.0)
ARTIFACTS = pathlib.Path(__file__).parent / "artifacts"


def pset(*pairs):
    return PointSet(tuple(Point(x, y) for x, y in pairs))


def lists_as_tuples(lists):
    return [tuple((c.left, c.radius) for c in cl) for cl in lists]


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
