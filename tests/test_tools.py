"""tools/bitcheck.py, run on this checkout against itself."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def test_bitcheck_finds_no_difference_against_itself():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bitcheck.py"), str(ROOT), str(ROOT),
                           "--workload", "segments-nearline", "--seed", "201", "--size", "tiny"],
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = proc.stdout.strip().splitlines()[-1]
    assert re.match(r"0 of [1-9][0-9]* requests differ \(segments-nearline; seeds 201; tiny\)$",
                    summary), summary


def test_repeated_workload_flags_add_up():
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bitcheck.py"), str(ROOT), str(ROOT),
                           "--workload", "points-nearline", "--workload", "points-spread",
                           "--seed", "201", "--size", "tiny"],
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = proc.stdout.strip().splitlines()[-1]
    assert re.match(r"0 of [1-9][0-9]* requests differ "
                    r"\(points-nearline, points-spread; seeds 201; tiny\)$", summary), summary


def test_objective_shift_sizes_the_drift():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        from bitcheck import objective_shift
    finally:
        sys.path.remove(str(ROOT / "tools"))
    out = {"ok": True, "result": {"objective": 2.5, "radius": 2.5}}
    moved = {"ok": True, "result": {"objective": 2.5 + 2.0 ** -30, "radius": 2.5}}
    assert objective_shift(out, moved) == 2.0 ** -30
    assert objective_shift(moved, out) == 2.0 ** -30
    assert objective_shift(out, out) == 0.0
    failed = {"ok": False, "error": {"name": "SchemaError"}}
    assert objective_shift(out, failed) is None
    assert objective_shift("not json", out) is None
    assert objective_shift(out, {"ok": True, "result": {"objective": None}}) is None


def test_ulp_shift_names_the_largest_move():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        from bitcheck import ulp_shift
    finally:
        sys.path.remove(str(ROOT / "tools"))
    out = {"ok": True, "result": {"objective": 2.5, "problem": "k-cover",
                                  "circles": [{"center_x": -0.0, "radius": 1.0, "run": [0, 3]}]}}
    moved = {"ok": True, "result": {"objective": 2.5, "problem": "k-cover",
                                    "circles": [{"center_x": -3 * 2.0 ** -1074,
                                                 "radius": 1.0 + 2.0 ** -52, "run": [0, 3]}]}}
    assert ulp_shift(out, moved) == ("circles[0].center_x", 3)
    assert ulp_shift(moved, out) == ("circles[0].center_x", 3)
    crossed = {"ok": True, "result": {"objective": -2.0 ** -1074, "problem": "k-cover"}}
    assert ulp_shift({"ok": True, "result": {"objective": 2.0 ** -1074}}, crossed) == (
        "objective", 2)
    assert ulp_shift(out, out) is None
    failed = {"ok": False, "error": {"name": "SchemaError"}}
    assert ulp_shift(out, failed) is None
    assert ulp_shift("not json", out) is None


def test_summary_counts_the_differing_requests_of_each_kind():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        from bitcheck import summary_line
    finally:
        sys.path.remove(str(ROOT / "tools"))
    kinds = ["segments-nearline envelope halves p=3"] * 3 + ["segments-nearline envelope halves p=1"] * 2 \
        + ["points-spread k-cover naive p=1.5 k=5 sum q=1", "segments-nearline envelope halves p=3"]
    differs = [False, True, False, False, False, True, True]
    assert summary_line(kinds, differs, ["segments-nearline", "points-spread"], [201, 202], "full") == (
        "3 of 7 requests differ (segments-nearline, points-spread; seeds 201, 202; full); by kind: "
        "segments-nearline envelope halves p=3 2 of 4, "
        "points-spread k-cover naive p=1.5 k=5 sum q=1 1 of 1")
    # with no difference the line names no kind
    assert summary_line(kinds, [False] * 7, ["segments-nearline"], [201], "tiny") == (
        "0 of 7 requests differ (segments-nearline; seeds 201; tiny)")


def test_abpair_finds_no_change_between_two_copies(tmp_path):
    # two copies of this tree, two alternating pairs of tiny runs: no
    # metric can read better or worse, since both take ten pairs or
    # more; a move of noise beyond the bound reads unresolved
    import shutil

    ignore = shutil.ignore_patterns("__pycache__", ".bench_out")
    for name in ("a", "b"):
        for part in ("src", "bench"):
            shutil.copytree(ROOT / part, tmp_path / name / part, ignore=ignore)
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path / name)
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "abpair.py"), str(tmp_path / "a"),
                           str(tmp_path / "b"), "--workload", "points-spread", "--pairs", "2",
                           "--seed", "201", "--seconds", "1", "--size", "tiny", "--bitcheck"],
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "points-spread: 2 alternating pairs, seeds 201-202, 1 s, tiny"
    assert [line.split()[0] for line in lines[1:6]] == ["solve_p50_s", "solve_tail_s",
                                                       "solves_per_s", "setup_s", "peak_rss_mb"]
    assert not any(line.endswith(("better", "worse")) for line in lines[1:6]), proc.stdout
    assert lines[-3].startswith("verdict: ") and not re.search(r"better|worse", lines[-3]), (
        proc.stdout)
    assert re.match(r"bitcheck: 0 of [1-9][0-9]* requests differ \(points-spread; seeds 201, 202; "
                    r"tiny\)$", lines[-2]), lines[-2]
    # the last line records what was printed, as one JSON object
    record = json.loads(lines[-1])
    assert record.keys() == {"machine", "commits", "workload", "seeds", "pairs", "seconds", "size",
                             "rows", "verdict", "bitcheck"}
    assert record["machine"].keys() == {"cpus", "cpu_model", "python", "numpy"}
    assert record["machine"]["cpus"] >= 1 and record["machine"]["numpy"] == np.__version__
    # copies with no git checkout of their own name no commit
    assert record["commits"] == {"parent": None, "change": None}
    assert (record["workload"], record["seeds"], record["pairs"], record["seconds"],
            record["size"]) == ("points-spread", [201, 202], 2, 1.0, "tiny")
    assert "verdict: " + record["verdict"] == lines[-3]
    assert "bitcheck: " + record["bitcheck"] == lines[-2]
    assert [row["metric"] for row in record["rows"]] == [line.split()[0] for line in lines[1:6]]
    for row, line in zip(record["rows"], lines[1:6]):
        assert row.keys() == {"metric", "parent", "change", "move", "wins", "clears_iqr",
                              "beyond_bound", "verdict"}
        for side in ("parent", "change"):
            assert row[side].keys() == {"median", "q1", "q3"}
            assert row[side]["q1"] <= row[side]["median"] <= row[side]["q3"]
        assert 0 <= row["wins"] <= 2 and line.endswith(row["verdict"])


def test_abpair_verdicts():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        from abpair import compare
    finally:
        sys.path.remove(str(ROOT / "tools"))
    parent = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
    # nine wins of ten and a median gap beyond the parent's IQR
    faster = [8.0] * 9 + [12.0]
    row = compare("solve_p50_s", "lower", 0.25, parent, faster)
    assert (row["wins"], row["clears_iqr"], row["verdict"]) == (9, True, "better")
    # the same moves over nine pairs are too few to claim
    assert compare("solve_p50_s", "lower", 0.25, parent[:9], faster[:9])["verdict"] == "no change"
    # worse by more than the bound and beyond the IQR
    row = compare("solves_per_s", "higher", 0.25, parent, [7.0] * 10)
    assert (row["wins"], row["beyond_bound"], row["verdict"]) == (0, True, "worse")
    # the same move over nine pairs is too few to call worse
    row = compare("solves_per_s", "higher", 0.25, parent[:9], [7.0] * 9)
    assert (row["beyond_bound"], row["clears_iqr"], row["verdict"]) == (True, True, "unresolved")
    # worse beyond the IQR but within the bound
    assert compare("solves_per_s", "higher", 0.25, parent, [9.0] * 10)["verdict"] == "no change"
    assert compare("peak_rss_mb", "lower", 0.1, parent, parent)["verdict"] == "no change"
    # worse by more than the bound, but within a parent IQR that is wider still
    wide = [6.0, 14.0, 7.0, 13.0, 6.5, 13.5, 10.0, 6.0, 14.0, 10.0]
    row = compare("solve_p50_s", "lower", 0.25, wide, [13.0] * 10)
    assert (row["beyond_bound"], row["clears_iqr"], row["verdict"]) == (True, False, "unresolved")
    # a parent IQR wider than the bound hides a move of any size below it
    row = compare("solve_p50_s", "lower", 0.25, wide, [10.5] * 10)
    assert (row["beyond_bound"], row["verdict"]) == (False, "unresolved")
    # unless every change run beats every parent run; within the IQR that
    # is no claim
    assert compare("solve_p50_s", "lower", 0.25, wide, [5.0] * 10)["verdict"] == "no change"
    assert compare("solve_p50_s", "lower", 0.25, wide, [2.0] * 10)["verdict"] == "better"


def test_every_listed_mutant_still_applies():
    # each mutant's old string occurs exactly once in its file; in a run
    # of tools/mutants.py the mutant it names has replaced its own
    applied = os.environ.get("LINEPLACE_MUTANT")
    lists = sorted((ROOT / "tools" / "mutants").glob("*.json"))
    assert [path.name for path in lists] == ["k_cover.json", "segments.json"]
    names = []
    for path in lists:
        mutants = json.loads(path.read_text())
        names += [m["name"] for m in mutants]
        for m in mutants:
            assert m.keys() == {"name", "file", "old", "new"} and m["old"] not in m["new"]
            found = (ROOT / m["file"]).read_text().count(m["old"])
            assert found == (0 if m["name"] == applied else 1), (path.name, m["name"])
    assert len(set(names)) == len(names)
    assert applied is None or applied in names


def test_mutants_kill_matrix_of_one_mutant(tmp_path):
    # the 4 eps re-check of least_radius, run against the tests of the
    # radius search alone: both of its tests kill it
    segments = json.loads((ROOT / "tools" / "mutants" / "segments.json").read_text())
    chosen = [m for m in segments if m["name"] == "recheck-4eps"]
    (tmp_path / "one.json").write_text(json.dumps(chosen))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "mutants.py"),
                           str(tmp_path / "one.json"), "tests/test_intervals.py::TestRadiusSearch"],
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    row, record = map(json.loads, proc.stdout.strip().splitlines())
    assert row == {"name": "recheck-4eps", "file": "src/lineplace/intervals.py", "killed": [
        "tests/test_intervals.py::TestRadiusSearch::test_raises_when_the_recheck_fails_too",
        "tests/test_intervals.py::TestRadiusSearch::test_rechecks_four_eps_higher"]}
    assert record.keys() == {"commit", "python", "numpy", "pytest_args", "passed", "survivors"}
    assert record["numpy"] == np.__version__ and record["survivors"] == []
    assert record["pytest_args"] == ["tests/test_intervals.py::TestRadiusSearch"]
    assert record["passed"] >= 2
    # a mutant whose old string is not in its file is refused before any run
    (tmp_path / "bad.json").write_text(json.dumps([dict(chosen[0], old="no such line")]))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "mutants.py"),
                           str(tmp_path / "bad.json")],
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 2 and "occurs 0 times" in proc.stderr
