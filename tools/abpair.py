"""Alternating A/B runs of the benchmark on two source checkouts.

    python3 tools/abpair.py PARENT CHANGE --workload NAME --pairs N --seed S
                            [--seconds T] [--size full|tiny] [--bitcheck]

PARENT and CHANGE are roots of two source checkouts, each with its
bench/ and src/ directories. Pair k runs PARENT's and CHANGE's own
bench/run.py on the workload with seed S + k, each in a fresh process
from its own root; PARENT goes first in the even pairs and CHANGE in
the odd ones, so that a drift of the machine's speed falls on both
sides alike. --seconds defaults to run_seconds of PARENT's
BENCHMARK.json, whose end_to_end metrics and bounds are used.

For every end-to-end metric it prints both medians, both quartiles
[q1, q3], the relative move of the median, the pairs that CHANGE won,
whether the move clears PARENT's interquartile range, and whether it
is worse than PARENT's median by more than the metric's bound. A
metric is "better" when CHANGE won at least nine in ten of at least
ten pairs and the move clears PARENT's IQR, and "worse" when there are
at least ten pairs and the move is beyond the bound and clears
PARENT's IQR. It is "unresolved" when the runs cannot tell a move
beyond the bound from none: the move is beyond the bound but there
are fewer than ten pairs or it lies within PARENT's IQR, or that IQR
is wider than the bound; unless every CHANGE run beats every PARENT
run. Otherwise it is "no change". A line then gives the verdict over
all metrics. --bitcheck then runs
tools/bitcheck.py on the same workload and seeds and prints its
summary line. The last line is one JSON object of what was printed
(record): the machine, both roots' commits, the workload, seeds, pairs,
seconds and size, every row, the verdict and the bitcheck line (null
without --bitcheck). A BENCH_<short sha>.json at the repository root
is a JSON list of these records, one per workload. It exits 1 when a
run fails or is wrong, or bitcheck finds a difference, and 0
otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_bench(root: Path, workload: str, seed: int, seconds: float, size: str) -> dict:
    """The result object, the last stdout line, of root's bench/run.py."""
    proc = subprocess.run([sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--size", size],
                          cwd=root, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: bench/run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    """(q1, q3) by linear interpolation between the sorted values."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def compare(name: str, better: str, bound: float, parent: list, change: list) -> dict:
    """The row of one metric over the pairs (parent[k], change[k])."""
    sign = 1.0 if better == "higher" else -1.0
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    gain = sign * (mc - mp)  # > 0 where the change is better
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    clears_iqr = abs(mc - mp) > q3 - q1
    beyond_bound = -gain > bound * abs(mp)
    beats_all = min(sign * c for c in change) > max(sign * v for v in parent)
    enough = len(parent) >= 10
    if enough and clears_iqr and gain > 0.0 and wins >= math.ceil(0.9 * len(parent)):
        verdict = "better"
    elif enough and clears_iqr and beyond_bound:
        verdict = "worse"
    elif (beyond_bound or q3 - q1 > bound * abs(mp)) and not beats_all:
        verdict = "unresolved"
    else:
        verdict = "no change"
    return {"metric": name, "parent": (mp, q1, q3), "change": (mc, *quartiles(change)),
            "move": (mc - mp) / mp if mp else math.nan, "wins": wins,
            "clears_iqr": clears_iqr, "beyond_bound": beyond_bound, "verdict": verdict}


def format_row(row: dict, pairs: int) -> str:
    def spread(m, q1, q3):
        return f"{m:.4g} [{q1:.4g}, {q3:.4g}]"

    return (f"{row['metric']:<13} parent {spread(*row['parent']):<28} "
            f"change {spread(*row['change']):<28} move {row['move']:+.1%}  "
            f"wins {row['wins']}/{pairs}  clears IQR {'yes' if row['clears_iqr'] else 'no'}  "
            f"beyond bound {'yes' if row['beyond_bound'] else 'no'}  {row['verdict']}")


def commit(root: Path):
    """The commit that root checks out, or None where it is no git
    checkout of its own."""
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True,
                          text=True, check=False)
    return proc.stdout.strip() or None


def machine() -> dict:
    """CPU count and model, and the Python and numpy that run the bench."""
    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"cpus": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "numpy": metadata.version("numpy")}


def record(args, seconds: float, rows: list, verdict: str, bitcheck) -> dict:
    """The JSON object of one abpair run: what it printed, and where."""
    def spread(m, q1, q3):
        return {"median": m, "q1": q1, "q3": q3}

    return {"machine": machine(),
            "commits": {"parent": commit(args.parent), "change": commit(args.change)},
            "workload": args.workload, "seeds": list(range(args.seed, args.seed + args.pairs)),
            "pairs": args.pairs, "seconds": seconds, "size": args.size,
            "rows": [{**row, "parent": spread(*row["parent"]), "change": spread(*row["change"]),
                      "move": None if math.isnan(row["move"]) else row["move"]} for row in rows],
            "verdict": verdict, "bitcheck": bitcheck}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--bitcheck", action="store_true")
    args = ap.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    metrics = spec["end_to_end"]
    values = {"parent": {m["name"]: [] for m in metrics}, "change": {m["name"]: [] for m in metrics}}
    ok = True
    for k in range(args.pairs):
        sides = [("parent", args.parent), ("change", args.change)]
        for side, root in sides if k % 2 == 0 else sides[::-1]:
            out = run_bench(root, args.workload, args.seed + k, seconds, args.size)
            ok &= out["correct"] and not out["failed"]
            for m in metrics:
                values[side][m["name"]].append(out["metrics"][m["name"]]["value"])
    print(f"{args.workload}: {args.pairs} alternating pairs, seeds {args.seed}-"
          f"{args.seed + args.pairs - 1}, {seconds:g} s, {args.size}")
    rows = [compare(m["name"], m["better"], m["bound"], values["parent"][m["name"]],
                    values["change"][m["name"]]) for m in metrics]
    for row in rows:
        print(format_row(row, args.pairs))
    moved = [f"{row['metric']} {row['verdict']}" for row in rows if row["verdict"] != "no change"]
    verdict = ("; ".join(moved) if moved else "no change") + (
        "" if ok else "; some runs failed or were wrong")
    print("verdict: " + verdict)
    bitcheck = None
    if args.bitcheck:
        proc = subprocess.run([sys.executable, str(HERE / "bitcheck.py"), str(args.parent),
                               str(args.change), "--workload", args.workload, "--size", args.size,
                               "--seed", *map(str, range(args.seed, args.seed + args.pairs))],
                              capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        bitcheck = lines[-1] if lines else proc.stderr.strip()
        print("bitcheck: " + bitcheck)
        ok &= proc.returncode == 0
    print(json.dumps(record(args, seconds, rows, verdict, bitcheck)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
