"""Acceptance gate: one test per shipped guarantee.

Each test prints a single PASS line with its headline numbers; pytest
-v therefore shows one line per criterion. Budgets are asserted
except where a criterion is explicitly report-only.
"""

import io
import json
import math
import pathlib
import random
import time
import xml.etree.ElementTree as ET
from contextlib import redirect_stdout

import numpy as np
import pytest

from lineplace import (
    AggSpec,
    Interval,
    NormP,
    Point,
    PointSet,
    Segment,
    Tolerance,
    dp_solve,
    max_empty_binsearch,
    min_enclosing,
    point_segment_distance,
)
from lineplace import verify
from lineplace._reference import compact, covering_interval, \
    envelope_one_off, envelope_value, rmin_on_axis
from lineplace.cli import main as cli_main
from lineplace.intervals import SegmentArray
from lineplace.obnoxious import compute_lower_envelope, largest_empty_from_envelope
from lineplace.verify import GridSpec, certify_run_table, enumerate_partitions, \
    grid_obnoxious_center, grid_one_center, segment_distances, set_partition_oracle

TOL = Tolerance()
NORMS = {1.0: NormP(1.0), 2.0: NormP(2.0), 3.0: NormP(3.0)}
L = 10.0
HERE = pathlib.Path(__file__).parent
ARTIFACTS = HERE / "artifacts"
GOLDEN = HERE / "golden"


def rand_segment(rng, xlo=-6.0, xhi=16.0, ylo=-9.0, yhi=9.0):
    if rng.random() < 0.12:
        x, y = rng.uniform(xlo, xhi), rng.uniform(ylo, yhi)
        return Segment(Point(x, y), Point(x, y))
    return Segment(Point(rng.uniform(xlo, xhi), rng.uniform(ylo, yhi)),
                   Point(rng.uniform(xlo, xhi), rng.uniform(ylo, yhi)))


def rand_instance(rng, n):
    return [rand_segment(rng) for _ in range(n)]


def test_criterion_1_covering_interval_against_grid():
    # the kernel the solvers run (SegmentArray.covering) and the scalar
    # reference, each against the same grid
    t0 = time.perf_counter()
    rng = random.Random(101)
    xs = np.linspace(0.0, L, 1000)
    checked = 0
    for trial in range(500):
        norm = NORMS[float(1 + trial % 3)]
        s = rand_segment(rng)
        R = rng.uniform(0.0, 8.0)
        (lo,), (hi,) = SegmentArray([s], norm).covering(np.array([R]))
        d = segment_distances(xs, s, norm)
        in_grid = d <= R
        for kernel, iv in (("array", Interval.empty() if lo[0] > hi[0]
                            else Interval(lo[0], hi[0])),
                           ("scalar", covering_interval(s, R, norm))):
            if iv.is_empty:
                in_iv = np.zeros_like(in_grid)
                near_edge = np.zeros_like(in_grid)
            else:
                in_iv = (xs >= iv.lo) & (xs <= iv.hi)
                near_edge = (np.abs(xs - iv.lo) <= 2e-3) | (np.abs(xs - iv.hi) <= 2e-3)
            disagree = in_grid != in_iv
            tolerable = near_edge | (np.abs(d - R) <= 2e-3)
            bad = disagree & ~tolerable
            assert not bad.any(), (
                f"trial {trial}, {kernel} kernel: {int(bad.sum())} grid points disagree, "
                f"first at x={xs[bad.argmax()]}")
            checked += len(xs)

    vertical = Segment(Point(0, 0), Point(0, 5))
    (lo,), (hi,) = SegmentArray([vertical], NORMS[2.0]).covering(np.array([2.0]))
    for iv in (Interval(lo[0], hi[0]), covering_interval(vertical, 2.0, NORMS[2.0])):
        assert abs(iv.lo - (-2.0)) <= 2e-3 and abs(iv.hi - 2.0) <= 2e-3
    dt = time.perf_counter() - t0
    print(f"criterion 1 PASS: 500 covering intervals by each kernel vs {checked} grid "
          f"memberships within 2e-3, vertical regression ok, {dt:.1f}s")
    assert dt < 10.0


def test_criterion_2_one_center_against_grid():
    t0 = time.perf_counter()
    rng = random.Random(202)
    grid = GridSpec(1e-3, Interval(0.0, L))
    for trial in range(200):
        norm = NORMS[float(1 + trial % 3)]
        segs = rand_instance(rng, rng.randint(1, 12))
        c = min_enclosing(segs, L, norm, TOL)
        gc = grid_one_center(segs, grid, norm)
        assert abs(c.radius - gc.radius) <= 2e-3, (
            f"trial {trial}: solver {c.radius} vs grid {gc.radius}")
        # enclosure: every segment is inside the reported ball
        worst = max(point_segment_distance(Point(c.cx, 0.0), s, norm, TOL)
                    for s in segs)
        assert worst <= c.radius + 1e-7
        # tightening: slightly smaller radius admits no feasible center
        smaller = c.radius - max(1e-6, 1e-6 * c.radius)
        if smaller > 0.0:
            lo, hi = 0.0, L
            feasible = True
            for s in segs:
                siv = covering_interval(s, smaller, norm)
                if siv.is_empty:
                    feasible = False
                    break
                lo, hi = max(lo, siv.lo), min(hi, siv.hi)
                if lo > hi:
                    feasible = False
                    break
            assert not feasible, f"trial {trial}: radius not tight"
    dt = time.perf_counter() - t0
    print(f"criterion 2 PASS: 200 instances vs 1e-3 grid within 2e-3, "
          f"enclosure and tightening hold, {dt:.1f}s")
    assert dt < 60.0


def test_criterion_3_obnoxious_routes_agree():
    t0 = time.perf_counter()
    rng = random.Random(303)
    grid = GridSpec(1e-3, Interval(0.0, L))
    grid_checked = 0
    for trial in range(200):
        norm = NORMS[float(1 + trial % 3)]
        n = rng.randint(1, 12) if trial % 2 == 0 else rng.randint(13, 50)
        segs = rand_instance(rng, n)
        c_bin = max_empty_binsearch(segs, L, norm, TOL)
        env_h = compute_lower_envelope(segs, L, norm, TOL)
        c_env = largest_empty_from_envelope(env_h, segs, norm, TOL)
        assert abs(c_bin.radius - c_env.radius) <= 2e-9, (
            f"trial {trial}: binsearch {c_bin.radius} vs envelope {c_env.radius}")
        # the halves build against the one-off fold of the reference
        env_o = envelope_one_off(segs, L, norm, TOL)
        c_off = largest_empty_from_envelope(env_o, segs, norm, TOL)
        assert abs(c_env.radius - c_off.radius) <= 1e-9
        bh = [p.b for p in env_h.pieces[:-1]]
        bo = [p.b for p in env_o.pieces[:-1]]
        assert len(bh) == len(bo), f"trial {trial}: split piece counts differ"
        assert all(abs(u - v) <= TOL.eps for u, v in zip(bh, bo))
        assert [p.seg_index for p in env_h.pieces] == \
               [p.seg_index for p in env_o.pieces]
        if n <= 12:
            gc = grid_obnoxious_center(segs, grid, norm)
            assert abs(c_bin.radius - gc.radius) <= 2e-3, (
                f"trial {trial}: solver {c_bin.radius} vs grid {gc.radius}")
            grid_checked += 1
    dt = time.perf_counter() - t0
    print(f"criterion 3 PASS: 200 instances, |binsearch-envelope| <= 2e-9, "
          f"halves and reference fold equal, {grid_checked} grid checks within 2e-3, "
          f"{dt:.1f}s")
    assert dt < 120.0


def test_criterion_4_envelope_structure():
    t0 = time.perf_counter()
    rng = random.Random(404)
    for trial in range(100):
        norm = NORMS[float(1 + trial % 3)]
        segs = rand_instance(rng, rng.randint(1, 10))
        env = compute_lower_envelope(segs, L, norm, TOL)
        pieces = env.pieces
        # tiling
        assert pieces[0].a == 0.0 and pieces[-1].b == L
        for prev, cur in zip(pieces, pieces[1:]):
            assert prev.b == cur.a
        # pointwise minimality, skipping the ownership-ambiguous strip
        # right at piece boundaries
        bounds = [p.a for p in pieces] + [pieces[-1].b]
        for _ in range(1000):
            x = rng.uniform(0.0, L)
            if min(abs(x - b) for b in bounds) < 1e-6:
                continue
            got = envelope_value(env, segs, x, norm, TOL)
            want = min(point_segment_distance(Point(x, 0.0), s, norm, TOL)
                       for s in segs)
            assert abs(got - want) <= TOL.eps, (
                f"trial {trial}: envelope {got} vs min distance {want} at {x}")
        # compaction idempotence
        again = compact(env, TOL)
        assert again.pieces == env.pieces
        # no two neighbouring pieces share an owner
        for prev, cur in zip(pieces, pieces[1:]):
            assert prev.seg_index != cur.seg_index, f"trial {trial}: owner {cur.seg_index} twice"
    dt = time.perf_counter() - t0
    print(f"criterion 4 PASS: 100 envelopes tiled, minimal at 1000 samples, "
          f"compaction idempotent, no same-owner neighbours, {dt:.1f}s")
    assert dt < 30.0


def _half_span_dp(xs, K, q, kind):
    # independent 1-D DP: covering a run of on-axis points costs half
    # the run's span, raised to q
    n = len(xs)
    kmax = n if K is None else K
    inf = math.inf
    opt = [[inf] * (n + 1) for _ in range(kmax + 1)]
    for k in range(kmax + 1):
        opt[k][0] = 0.0
    for k in range(1, kmax + 1):
        for j in range(1, n + 1):
            best = inf
            for i in range(j):
                w = ((xs[j - 1] - xs[i]) / 2.0) ** q
                prev = opt[k - 1][i]
                if prev == inf:
                    continue
                val = prev + w if kind == "sum" else max(prev, w)
                if val < best:
                    best = val
            opt[k][j] = best
    return opt[kmax][n]


def test_criterion_5_k_cover_matches_oracles():
    t0 = time.perf_counter()
    rng = random.Random(505)
    norm = NORMS[2.0]
    flat = 0
    for trial in range(200):
        n = rng.randint(1, 8)
        K = rng.randint(1, 3)
        agg = AggSpec(float(rng.choice([1, 2])), "sum")
        on_axis = trial % 5 == 0
        pts = PointSet(tuple(
            Point(round(rng.uniform(-20.0, 20.0), 3),
                  0.0 if on_axis else round(rng.uniform(-20.0, 20.0), 3))
            for _ in range(n)))
        a = dp_solve(pts, K, norm, TOL, agg)
        o = set_partition_oracle(pts, K, norm, TOL, agg)
        if abs(a.objective - o.objective) > 1e-6:
            # capture the defeating instance before failing
            ARTIFACTS.mkdir(exist_ok=True)
            (ARTIFACTS / "k_cover_violation.json").write_text(json.dumps({
                "points": pts.xy.tolist(),
                "k": K,
                "q": agg.q,
                "agg": agg.kind,
                "dp": a.objective,
                "oracle": o.objective,
            }, indent=2, sort_keys=True) + "\n")
        assert abs(a.objective - o.objective) <= 1e-6, (
            f"trial {trial}: dp {a.objective} vs oracle {o.objective}")
        if on_axis:
            xs = pts.xy[:, 0].tolist()
            ref = _half_span_dp(xs, K, agg.q, agg.kind)
            assert abs(a.objective - ref) <= 1e-6, (
                f"trial {trial}: dp {a.objective} vs half-span {ref}")
            flat += 1

    # a non-contiguous partition can tie the optimum; keep one on disk
    pts = PointSet((Point(0, 0), Point(0, 0), Point(1, 1)))
    agg = AggSpec(1.0, "sum")
    sol = dp_solve(pts, 2, norm, TOL, agg)
    best, best_blocks = None, None
    for blocks in enumerate_partitions(3, 2):
        val = 0.0
        for blk in blocks:
            lo, hi = min(blk), max(blk)
            sub = PointSet(pts.xy[list(blk)])
            val += rmin_on_axis(sub, 0, len(blk) - 1, norm, TOL)[1]
        noncontig = any(b[-1] - b[0] + 1 != len(b) for b in blocks)
        if noncontig and (best is None or val < best):
            best, best_blocks = val, blocks
    assert best is not None
    assert abs(best - sol.objective) <= 1e-6
    ARTIFACTS.mkdir(exist_ok=True)
    (ARTIFACTS / "contiguity_counterexample.json").write_text(json.dumps({
        "points": pts.xy.tolist(),
        "k": 2,
        "agg": {"q": 1.0, "kind": "sum"},
        "noncontiguous_optimal_partition": [list(b) for b in best_blocks],
        "objective": best,
        "dp_objective": sol.objective,
    }, indent=2, sort_keys=True) + "\n")

    dt = time.perf_counter() - t0
    print(f"criterion 5 PASS: 200 instances dp=partition oracle within "
          f"1e-6, {flat} half-span checks, counterexample artifact written, "
          f"{dt:.1f}s")
    assert dt < 120.0


def _moved(run_columns, left, right, step):
    """run_columns with the table's entry [left, right] moved by step
    times the certificate's slack there, 4 eps + 2^-40 max(R, X)."""
    def moved(xy, p, tol):
        for c0, R in run_columns(xy, p, tol):
            if c0 <= right < c0 + len(R):
                R = R.copy()
                r = R[right - c0, left]
                far = float(np.abs(xy[left:right + 1, 0]).max())
                R[right - c0, left] = r + step * (4.0 * tol.eps + 2.0 ** -40 * max(r, far))
            yield c0, R
    return moved


def test_criterion_6_run_table_certificate_at_n60(monkeypatch):
    # the --verify check of k-cover above 10 points passes every entry
    # of the run table, and flags an entry moved either way by 10 times
    # its slack; half the instances lie near the line, half spread
    t0 = time.perf_counter()
    rng = random.Random(606)
    real = verify._run_columns
    for p in (1.0, 1.5, 2.0, 3.0, 30.0):
        norm = NormP(p)
        for trial in range(50):
            if trial % 2:
                xy = [(round(rng.uniform(-80.0, 80.0), 3), round(rng.uniform(-80.0, 80.0), 3))
                      for _ in range(60)]
            else:
                xy = [(round(rng.uniform(0.0, 100.0), 6), round(rng.uniform(-2.0, 2.0), 6))
                      for _ in range(60)]
            pts = PointSet(np.array(xy))
            monkeypatch.setattr(verify, "_run_columns", real)
            assert certify_run_table(pts, norm, TOL) == {"runs": 1830, "failed": 0}, (p, trial)
            left = rng.randrange(60)
            right = rng.randrange(left, 60)
            for step in (10.0, -10.0):
                monkeypatch.setattr(verify, "_run_columns", _moved(real, left, right, step))
                report = certify_run_table(pts, norm, TOL)
                assert report["failed"] == 1 and report["run"] == [left, right], (p, trial, step)
    dt = time.perf_counter() - t0
    print(f"criterion 6 PASS: 50 instances of 60 points at each of p = 1, 1.5, 2, 3, 30, "
          f"the run table certified and an entry moved by 10 slacks flagged both ways, "
          f"{dt:.1f}s")
    assert dt < 60.0


def test_criterion_7_large_envelope_both_splits():
    rng = random.Random(7)
    norm = NORMS[2.0]
    segs = [Segment(Point(rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0)),
                    Point(rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0)))
            for _ in range(100000)]
    t0 = time.perf_counter()
    env_h = compute_lower_envelope(segs, L, norm, TOL)
    t_halves = time.perf_counter() - t0
    t0 = time.perf_counter()
    # the one-off fold of the reference, against the production halves build
    env_o = envelope_one_off(segs, L, norm, TOL)
    t_oneoff = time.perf_counter() - t0
    assert len(env_h.pieces) == len(env_o.pieces)
    assert [p.seg_index for p in env_h.pieces] == \
           [p.seg_index for p in env_o.pieces]
    for u, v in zip(env_h.pieces, env_o.pieces):
        assert abs(u.a - v.a) <= TOL.eps and abs(u.b - v.b) <= TOL.eps
    c_h = largest_empty_from_envelope(env_h, segs, norm, TOL)
    c_o = largest_empty_from_envelope(env_o, segs, norm, TOL)
    assert abs(c_h.radius - c_o.radius) <= 1e-9
    # soft target <60s per split: timings reported, not asserted
    print(f"criterion 7 PASS: N=100000 envelope, halves {t_halves:.1f}s, "
          f"one-off {t_oneoff:.1f}s, {len(env_h.pieces)} pieces, outputs equal "
          f"(soft target 60s per split)")


def test_criterion_8_cli_goldens():
    t0 = time.perf_counter()
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    for case in manifest["cases"]:
        argv = ["solve", "--in", str(GOLDEN / case["instance"])] + case["flags"]
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv)
        assert code == 0, f"{case['instance']}: exit {code}"
        doc = json.loads(buf.getvalue())
        doc["result"].pop("wall_time_ms", None)
        got = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        want = (GOLDEN / case["expected"]).read_text()
        assert got == want, f"{case['instance']}: output drifted"
        verify = doc["result"].get("verify")
        if verify is not None:
            assert verify["ok"] is True
            assert verify["delta"] <= verify["tolerance"]
    svg_dir = ARTIFACTS / "svg"
    svg_dir.mkdir(parents=True, exist_ok=True)
    for inst in ("inst_04.json", "inst_08.json", "inst_10.json"):
        out = svg_dir / (inst.replace(".json", ".svg"))
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(["solve", "--in", str(GOLDEN / inst),
                             "--plot", str(out)])
        assert code == 0
        root = ET.fromstring(out.read_text())
        assert root.tag.endswith("svg")
        tags = {child.tag.split("}")[-1] for child in root.iter()}
        assert "line" in tags
        assert ("circle" in tags) or ("polygon" in tags)
    dt = time.perf_counter() - t0
    print(f"criterion 8 PASS: 10 golden instances byte-identical (wall time "
          f"excluded), verify deltas in tolerance, SVGs well-formed, {dt:.1f}s")


def test_criterion_9_large_k_cover_streams():
    # report-only: N = 10^4 points at p = 2 and N = 4000 at p = 1.5, near
    # the line and spread, K = 5, sum. Whole N x N run tables would hold
    # 0.8 GB at N = 10^4; the stream holds one block of pairs. Soft
    # target 20 s per solve: timings reported, not asserted
    rows = []
    for p, n in ((2.0, 10000), (1.5, 4000)):
        for regime in ("nearline", "spread"):
            rng = random.Random(f"criterion 9 {regime} {n}")
            if regime == "nearline":
                xy = [(rng.uniform(0.0, 100.0), rng.uniform(-2.0, 2.0)) for _ in range(n)]
            else:
                xy = [(rng.uniform(-100.0, 100.0), rng.uniform(-100.0, 100.0)) for _ in range(n)]
            pts = PointSet(np.array(xy))
            t0 = time.perf_counter()
            sol = dp_solve(pts, 5, NormP(p), TOL, AggSpec())
            dt = time.perf_counter() - t0
            # the runs tile the points, the objective is the sum of the
            # radii, and each circle covers its run within the rounding
            # that k_cover._center_slack allows
            assert [left for left, _ in sol.intervals] == [0] + [
                right + 1 for _, right in sol.intervals[:-1]]
            assert sol.intervals[-1][1] == n - 1 and len(sol.intervals) <= 5
            assert sol.objective == math.fsum(c.radius for c in sol.circles)
            for (left, right), c in zip(sol.intervals, sol.circles):
                run = pts.xy[left:right + 1]
                d = np.abs(run[:, 0] - c.cx)
                reach = np.hypot(d, run[:, 1]) if p == 2.0 else (
                    d ** p + np.abs(run[:, 1]) ** p) ** (1.0 / p)
                assert reach.max() - c.radius <= 2.0 ** -40 * max(c.radius, np.abs(run[:, 0]).max())
            rows.append(f"{regime} p={p:g} N={n} {dt:.1f}s")
    print(f"criterion 9 PASS: k-cover K=5 sum streamed, {', '.join(rows)} "
          f"(soft target 20s per solve)")
