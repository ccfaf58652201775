"""Benchmark of `lineplace solve`, driven in-process through cli.main.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
its src/ directory. Each invocation is one workload in one fresh
process: a closed loop with a single client, so each request starts
when the previous one returns. Instances are generated from the seed
into .bench_out/ and removed afterwards; every answer is checked
outside the timed region (checks.py).

--trace 0 takes SETUP_STARTS cold starts for setup_s (cold_starts has
their scaling), then sends rounds of the workload's distinct requests
(see workloads.py). The number of rounds follows from S alone (see
rounds_for), never from how fast the rounds went, so the same seed and
S always send the same requests. Each request starts after a full
garbage collection, and a fixed pure-Python probe of about 0.5 ms runs
around it and every 20 ms inside it; the request's time is scaled to
a machine on which the probe takes REFERENCE_S (see timed). A shared
virtual machine can change speed by up to 1.9 times, in stretches of
a fraction of a second to minutes; the scaled time follows such
changes far less (DESIGN.md has the measurements). The end-to-end
metrics are taken over the scaled times of all requests sent.

--trace 1 alternates an untraced and a traced round (a number of pairs
that also follows from S alone) and prints the per-layer metrics
(tracing.py) and the tracing overhead, in unscaled wall time. Counts
repeat exactly for a seed. Spans of the first traced round are written
to .bench_out/spans-<workload>.npz at the end.

stdout: a context line, a report line (including fail_frac, wrong_frac
and the tail percentile), then the result object as the last line.
bench/DESIGN.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from workloads import SIZES, WORKLOADS, write_pool

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_STARTS = 9
MAX_FAILURES_LISTED = 20
PROBE_ITEMS = 300
PROBE_INTERVAL_S = 0.02
REFERENCE_S = 5e-4
REFERENCE_START_S = 0.05
# Nominal wall time of one full-size round (15-24 s on a 2-vCPU Xeon
# VM) and of an untraced plus a traced round; only rounds_for uses it.
ROUND_S = 20.0
PAIR_S = 3.0 * ROUND_S

E2E_UNITS = {
    "solve_p50_s": "s",
    "solve_tail_s": "s",
    "solves_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def import_program():
    """Import lineplace from this checkout's src/, never from elsewhere."""
    if not (SRC / "lineplace" / "cli.py").is_file():
        raise RuntimeError(f"no lineplace sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lineplace.cli
    if Path(lineplace.cli.__file__).resolve().parent != SRC / "lineplace":
        raise RuntimeError(f"imported lineplace from {lineplace.cli.__file__}")
    return lineplace.cli


def run_context(args) -> dict:
    import numpy
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit,
    }


def interpreter_start(code: str) -> float:
    """Wall time of a fresh interpreter that runs code, with src/ on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    t0 = perf_counter()
    # no timeout: with one, the wait polls in sleeps of up to 50 ms,
    # which would round the measured time
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def cold_starts(n: int) -> list:
    """n fresh interpreters' times to import lineplace.cli, each scaled
    to the speed at which a bare interpreter starts in REFERENCE_START_S.

    Bare starts alternate with the imports, and each import is scaled
    by the mean of the bare starts just before and just after it. A
    bare start does the same kind of work (exec, loading shared
    libraries, unmarshalling modules), so it slows down with the
    machine much as the import does.
    """
    bare = [interpreter_start("pass")]
    imports = []
    for _ in range(n):
        imports.append(interpreter_start("import lineplace.cli"))
        bare.append(interpreter_start("pass"))
    return [t * REFERENCE_START_S / (0.5 * (before + after))
            for t, before, after in zip(imports, bare, bare[1:])]


@dataclass(frozen=True)
class _ProbePoint:
    x: float
    y: float

    def distance(self, other, p: float) -> float:
        return (abs(self.x - other.x) ** p + abs(self.y - other.y) ** p) ** (1.0 / p)


def probe() -> float:
    """Seconds a fixed pure-Python job of about 0.5 ms takes right now.

    It does what the solver's interpreter loop does (frozen dataclass
    construction, method calls, float powers, list growth, a sort by
    attribute), so it slows down with the machine in about the same
    proportion. Collection is off while it runs, so that it never
    collects garbage the program left behind.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        origin = _ProbePoint(0.0, 0.0)
        acc = 0.0
        items = []
        for i in range(PROBE_ITEMS):
            q = _ProbePoint(i * 0.37, 1.0 - i * 0.11)
            acc += q.distance(origin, 2.0)
            items.append((acc, q))
        items.sort(key=lambda t: t[1].y)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def rounds_for(seconds: float, nominal_s: float) -> int:
    """Rounds (or traced pairs) a run of about `seconds` sends: at least one.

    Fixed by the arguments, so two runs with the same seed and seconds
    send the same requests and agree on attempted and failed, however
    fast the machine was while they ran.
    """
    return max(1, int(seconds // nominal_s))


def timed(fn, *args):
    """(result, wall seconds scaled to the reference speed).

    The probe runs twice just before the call, every PROBE_INTERVAL_S
    during it (from a SIGALRM handler) and twice just after. The call's
    wall time less the probes inside it is multiplied by the mean of
    REFERENCE_S / probe time over all of them. The machine's speed can
    change within a fraction of a second, so only probes taken while
    the call runs follow it.
    """
    gc.collect()
    samples = [probe(), probe()]
    inside = []

    def on_alarm(signum, frame):
        inside.append((probe(), perf_counter()))

    previous = signal.signal(signal.SIGALRM, on_alarm)
    t0 = perf_counter()
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        out = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        t1 = perf_counter()
        signal.signal(signal.SIGALRM, previous)
    # a probe that a late alarm ran after t1 is not part of the call
    inside = [s for s, end in inside if end <= t1]
    samples += inside + [probe(), probe()]
    speed = math.fsum(REFERENCE_S / s for s in samples) / len(samples)
    return out, (t1 - t0 - math.fsum(inside)) * speed


def send(main, request):
    """One request through main; (exit code, stdout, error)."""
    buf = io.StringIO()
    error = None
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(request.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        rc = None
        error = traceback.format_exc(limit=-3)
    return rc, buf.getvalue(), error


def correctness(checker, records) -> tuple:
    failed, wrong, listed = checker.check_records(records, MAX_FAILURES_LISTED)
    n = len(records)
    report = {"fail_frac": {"value": failed / n, "unit": "ratio"},
              "wrong_frac": {"value": wrong / max(n - failed, 1), "unit": "ratio"}}
    return failed, wrong, listed, report


def run_timed(cli, requests, checker, seconds: float) -> tuple:
    interpreter_start("import lineplace.cli")  # may write bytecode caches
    # before any request, so that every run starts its children from a
    # parent process in the same state
    starts = cold_starts(SETUP_STARTS)
    times = [[] for _ in requests]
    records = []
    rounds = rounds_for(seconds, ROUND_S)
    t_start = perf_counter()
    for _ in range(rounds):
        for i, request in enumerate(requests):
            (rc, text, error), scaled = timed(send, cli.main, request)
            times[i].append(scaled)
            records.append((request, rc, text, error))
    loop_s = perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, wrong, listed, report = correctness(checker, records)

    samples = sorted(t for per_request in times for t in per_request)
    # the highest percentile with ten samples beyond it in each round
    beyond = 10 * rounds
    values = {
        "solve_p50_s": statistics.median(samples),
        "solve_tail_s": samples[-1 - beyond],
        "solves_per_s": len(samples) / math.fsum(samples),
        "setup_s": statistics.median(starts),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    by_type = {}
    for request, per_request in zip(requests, times):
        by_type.setdefault(request.kind, []).extend(per_request)
    report = {
        "metrics": dict(metrics, **report),
        "tail_percentile": round(100.0 * (1.0 - beyond / len(samples)), 1),
        "samples": len(samples),
        "distinct_requests": len(requests),
        "rounds": rounds, "setup_starts": len(starts), "loop_s": loop_s,
        "median_s_by_type": {k: statistics.median(v) for k, v in by_type.items()},
        "failures": listed, "unchecked": checker.unchecked,
    }
    return metrics, report, len(records), failed, wrong


def run_traced(cli, requests, checker, seconds: float, spans_path: Path) -> tuple:
    import numpy as np
    from tracing import PER_LAYER_UNITS, ROOT as ROOT_SPAN, Tracer, layer_metrics

    tracer = Tracer()
    traced_main = tracer.wrap(ROOT_SPAN, cli.main)
    send(cli.main, requests[0])  # warm-up, not counted
    records = []
    untraced_s, traced_s, per_round = [], [], []
    first_spans = None
    for _ in range(rounds_for(seconds, PAIR_S)):
        t0 = perf_counter()
        for request in requests:
            rc, text, error = send(cli.main, request)
            records.append((request, rc, text, error))
        untraced_s.append(perf_counter() - t0)
        tracer.install()
        try:
            t0 = perf_counter()
            for i, request in enumerate(requests):
                tracer.current_request = i
                rc, text, error = send(traced_main, request)
                records.append((request, rc, text, error))
            traced_s.append(perf_counter() - t0)
        finally:
            tracer.uninstall()
        per_round.append(layer_metrics(tracer.summary()))
        if first_spans is None:
            first_spans = tracer.spans()
        tracer.clear()
    failed, wrong, listed, report = correctness(checker, records)

    values = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name in per_round[0]:
            series = [m[name] for m in per_round]
            values[name] = statistics.median(series) if unit == "s" else series[0]
    counts_repeat = all(m[name] == values[name] for m in per_round
                        for name in values if PER_LAYER_UNITS[name] != "s")
    values["trace.untraced_s"] = statistics.median(untraced_s)
    values["trace.traced_s"] = statistics.median(traced_s)
    values["trace.overhead_s"] = values["trace.traced_s"] - values["trace.untraced_s"]
    metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}
    np.savez(spans_path, **first_spans)
    report = {
        "metrics": report, "traced_rounds": len(traced_s),
        "requests_per_round": len(requests), "counts_repeat": counts_repeat,
        "spans": int(len(first_spans["start"])),
        "spans_file": str(spans_path.relative_to(ROOT)), "failures": listed,
        "unchecked": checker.unchecked,
    }
    return metrics, report, len(records), failed, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="instance sizes; tiny is for the smoke test")
    args = parser.parse_args(argv)
    try:
        cli = import_program()
    except (RuntimeError, ImportError) as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2
    from checks import Checker

    print(json.dumps({"context": run_context(args)}), flush=True)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        requests, docs = write_pool(args.workload, args.seed, args.size, Path(tmp))
        checker = Checker(docs)
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}.npz"
            metrics, report, n, failed, wrong = run_traced(
                cli, requests, checker, args.seconds, spans_path)
        else:
            metrics, report, n, failed, wrong = run_timed(
                cli, requests, checker, args.seconds)
    print(json.dumps({"report": report}), flush=True)
    print(json.dumps({"correct": wrong == 0, "attempted": n, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
