"""Compare the outputs of two source checkouts on the benchmark's requests.

    python3 tools/bitcheck.py BASE CHANGE [--workload NAME ...] [--seed N ...]
                              [--size full|tiny]

BASE and CHANGE are roots of two source checkouts of lineplace (each
with its src/ directory). For every workload and seed the instance
pool is written once by bench/workloads.write_pool of this checkout,
into a temporary directory. Each checkout then runs every request of
those rounds in-process through its own lineplace.cli.main, in one
subprocess per checkout, as bench/run.py sends them. The tool prints
every request whose exit code, error or output differs between the
two, ignoring the wall_time_ms field, with the keys of the result
object that differ (for example circles but not objective), where
both outputs have an objective, how far it moved, and the float field
of the result objects that moved the most ulps, with its key; then a
summary line, which counts the differing requests of every request
kind (workload and RequestType label) that has any. It exits 1 when any request differs and 0 otherwise.
By default it checks every workload at seeds 201-205, at full size.
--workload and --seed may be repeated; their values add up.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import struct
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from workloads import SIZES, WORKLOADS, write_pool  # noqa: E402


def run_requests(src: str, argvs: list) -> list:
    """(exit code, stdout, error) of every argv through cli.main of src."""
    sys.path.insert(0, src)
    import lineplace.cli

    if Path(lineplace.cli.__file__).resolve().parent != Path(src).resolve() / "lineplace":
        raise RuntimeError(f"imported lineplace from {lineplace.cli.__file__}")
    out = []
    for argv in argvs:
        buf = io.StringIO()
        rc, error = None, None
        try:
            with contextlib.redirect_stdout(buf):
                rc = lineplace.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            error = traceback.format_exc(limit=-1).strip().splitlines()[-1]
        out.append((rc, buf.getvalue(), error))
    return out


def _drop_wall_time(obj):
    if isinstance(obj, dict):
        return {k: _drop_wall_time(v) for k, v in obj.items() if k != "wall_time_ms"}
    if isinstance(obj, list):
        return [_drop_wall_time(v) for v in obj]
    return obj


def comparable(text: str):
    """The output with every wall_time_ms field removed; as is if not JSON."""
    try:
        return _drop_wall_time(json.loads(text))
    except ValueError:
        return text


def differing_keys(a, b) -> list:
    """The keys whose values differ between two outputs: those of their
    result objects, or of the outputs themselves where either has no
    result object; [] where either is not a JSON object."""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return []
    if isinstance(a.get("result"), dict) and isinstance(b.get("result"), dict):
        a, b = a["result"], b["result"]
    missing = object()
    return sorted(key for key in a.keys() | b.keys()
                  if a.get(key, missing) != b.get(key, missing))


def objective_shift(a, b):
    """|objective of b - objective of a| from their result objects, or
    None where either output has no numeric objective."""
    try:
        return abs(b["result"]["objective"] - a["result"]["objective"])
    except (KeyError, TypeError):
        return None


def _numbers(obj, key: str = ""):
    """(key, value) of every number in obj, keyed by its path, as in
    circles[0].center_x."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _numbers(v, f"{key}.{k}" if key else k)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _numbers(v, f"{key}[{i}]")
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield key, float(obj)


def _ordinal(x: float) -> int:
    """x's place in the order of the floats, with -0.0 and 0.0 at 0, so
    that two floats lie |ordinal(a) - ordinal(b)| ulps apart."""
    i = struct.unpack("<q", struct.pack("<d", x))[0]
    return i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF)


def ulp_shift(a, b):
    """(key, ulps) of the number of the result objects that moved the
    most ulps between a and b, among the keys both have and the first
    key on ties; None where neither has a result object with such a
    number that moved, or one is NaN."""
    try:
        old = dict(_numbers(a["result"]))
        new = dict(_numbers(b["result"]))
    except (KeyError, TypeError):
        return None
    best = None
    for key, x in old.items():
        y = new.get(key)
        if y is None or math.isnan(x) or math.isnan(y):
            continue
        ulps = abs(_ordinal(y) - _ordinal(x))
        if ulps and (best is None or ulps > best[1]):
            best = (key, ulps)
    return best


def summary_line(kinds: list, differs: list, workloads: list, seeds: list, size: str) -> str:
    """How many requests differ, of how many, over which rounds; then,
    where any differ, "by kind:" and how many of each kind's requests
    differ, for every kind with a difference, in the order the kinds
    were first sent. kinds[i] names request i's workload and request
    kind, and differs[i] says whether it differs."""
    counts = {}
    for kind, differ in zip(kinds, differs):
        moved, sent = counts.get(kind, (0, 0))
        counts[kind] = (moved + differ, sent + 1)
    line = (f"{sum(differs)} of {len(kinds)} requests differ "
            f"({', '.join(workloads)}; seeds {', '.join(map(str, seeds))}; {size})")
    moved = [f"{kind} {k} of {n}" for kind, (k, n) in counts.items() if k]
    return line + (f"; by kind: {', '.join(moved)}" if moved else "")


def run_checkout(root: Path, argvs: list) -> list:
    src = root / "src"
    if not (src / "lineplace" / "cli.py").is_file():
        raise SystemExit(f"no lineplace sources under {src}")
    proc = subprocess.run([sys.executable, __file__, "--worker", str(src)],
                          input=json.dumps(argvs), capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{root}: worker failed\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path, nargs="?")
    ap.add_argument("change", type=Path, nargs="?")
    # "extend" appends to a list default, so the defaults come after parsing
    ap.add_argument("--workload", nargs="+", action="extend", choices=WORKLOADS)
    ap.add_argument("--seed", nargs="+", action="extend", type=int)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    args.workload = args.workload or list(WORKLOADS)
    args.seed = args.seed or [201, 202, 203, 204, 205]
    if args.worker:
        json.dump(run_requests(args.worker, json.load(sys.stdin)), sys.stdout)
        return 0
    if args.base is None or args.change is None:
        ap.error("BASE and CHANGE are required")
    with tempfile.TemporaryDirectory(prefix="bitcheck-") as tmp:
        labels, kinds, argvs = [], [], []
        for workload in args.workload:
            for seed in args.seed:
                pool = Path(tmp) / f"{workload}-{seed}"
                pool.mkdir()
                requests, _ = write_pool(workload, seed, args.size, pool)
                labels += [f"{workload} seed={seed} {r.label}" for r in requests]
                kinds += [f"{workload} {r.kind}" for r in requests]
                argvs += [r.argv for r in requests]
        base = run_checkout(args.base, argvs)
        change = run_checkout(args.change, argvs)
    differs = []
    for label, (rc0, out0, err0), (rc1, out1, err1) in zip(labels, base, change):
        differs.append(rc0 != rc1 or err0 != err1 or comparable(out0) != comparable(out1))
        if differs[-1]:
            print(f"DIFFERS {label}: exit {rc0} -> {rc1}")
            keys = differing_keys(comparable(out0), comparable(out1))
            if keys:
                print(f"  keys: {', '.join(keys)}")
            shift = objective_shift(comparable(out0), comparable(out1))
            if shift is not None:
                print(f"  |delta objective|: {shift:.3g}")
            moved = ulp_shift(comparable(out0), comparable(out1))
            if moved is not None:
                print(f"  largest float change: {moved[1]} ulps at {moved[0]}")
            for side, rc, out, err in (("base", rc0, out0, err0), ("change", rc1, out1, err1)):
                shown = err if err is not None else json.dumps(comparable(out), sort_keys=True)
                print(f"  {side}: {shown[:400]}")
    print(summary_line(kinds, differs, args.workload, args.seed, args.size))
    return 1 if any(differs) else 0


if __name__ == "__main__":
    sys.exit(main())
