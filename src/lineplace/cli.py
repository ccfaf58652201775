"""Command line front end: solve instance files, generate random ones.

Instances are JSON objects; results are deterministic JSON (sorted
keys) apart from the wall_time_ms field. Exit codes: 0 success, 2
malformed or unreadable instance, 3 solver failure (the error JSON
names it; this includes arithmetic overflow at extreme coordinate
scales), 4 output (--out or --plot) not writable.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import SchemaError, SolverError
from .geometry import NormP, Point, Segment, Tolerance, transform_to_axis
from .k_cover import AggSpec, PointSet, dp_solve
from .obnoxious import max_empty_binsearch
from .one_center import min_enclosing
from .verify import cross_check

_PROBLEMS = ("one-center", "obnoxious-center", "k-cover")


@dataclass(frozen=True)
class InstanceFile:
    """Parsed, validated instance.

    table holds the segments as an (N, 4) array of rows [x1, y1, x2, y2]
    for the two center problems, or the points as an (N, 2) array of
    rows [x, y] for k-cover.
    """

    problem: str
    norm: NormP
    constraint: Segment
    table: np.ndarray
    k: object
    agg: AggSpec


@dataclass(frozen=True)
class ResultRecord:
    """Solver output plus bookkeeping, ready for serialisation."""

    payload: dict

    def to_json(self) -> str:
        return json.dumps({"ok": True, "result": self.payload},
                          sort_keys=True, indent=2) + "\n"


def _want(cond: bool, field: str, msg: str) -> None:
    if not cond:
        raise SchemaError(f"{field}: {msg}")


def _num(obj, field: str) -> float:
    _want(isinstance(obj, (int, float)) and not isinstance(obj, bool),
          field, "must be a number")
    try:
        val = float(obj)
    except OverflowError:
        val = math.inf  # an integer beyond the float range
    _want(math.isfinite(val), field, "must be finite")
    return val


_ROW_SHAPES = {4: "must be [x1, y1, x2, y2]", 2: "must be a pair [x, y]"}


def _table(raw, name: str, width: int) -> np.ndarray:
    """A nonempty list of rows of `width` numbers as an (N, width) array.

    One pass checks every row's type and length and every cell's type,
    then casts the table and checks it is finite. Only a table that
    fails those checks, or holds number types other than int and float,
    goes through the per-cell validator, which names the first bad
    field (numpy would cast bools and numeric strings silently).
    """
    _want(isinstance(raw, list) and len(raw) > 0, name, "must be a nonempty list")
    if (set(map(type, raw)) <= {list, tuple} and set(map(len, raw)) == {width}
            and set(map(type, chain.from_iterable(raw))) <= {int, float}):
        try:
            table = np.array(raw, dtype=np.float64)
        except OverflowError:  # an integer beyond the float range
            pass
        else:
            if np.isfinite(table).all():
                return table
    rows = []
    for idx, item in enumerate(raw):
        field = f"{name}[{idx}]"
        _want(isinstance(item, (list, tuple)) and len(item) == width,
              field, _ROW_SHAPES[width])
        rows.append([_num(v, f"{field}[{j}]") for j, v in enumerate(item)])
    return np.array(rows, dtype=np.float64)


def parse_instance(doc) -> InstanceFile:
    """Validate an instance document; a SchemaError names the bad field.

    The segments or points table is checked in one pass into a float64
    array of rows [x1, y1, x2, y2] or [x, y] (_table).
    """
    _want(isinstance(doc, dict), "instance", "must be a JSON object")
    problem = doc.get("problem")
    _want(problem in _PROBLEMS, "problem", f"must be one of {list(_PROBLEMS)}")
    p = _num(doc.get("p", 2.0), "p")
    _want(p >= 1.0, "p", "must be >= 1")
    norm = NormP(p)

    con = doc.get("constraint")
    _want(isinstance(con, (list, tuple)) and len(con) == 4,
          "constraint", "must be [ax, ay, bx, by]")
    ca = Point(_num(con[0], "constraint[0]"), _num(con[1], "constraint[1]"))
    cb = Point(_num(con[2], "constraint[2]"), _num(con[3], "constraint[3]"))
    _want(ca != cb, "constraint", "endpoints must differ")
    constraint = Segment(ca, cb)

    k = None
    agg = AggSpec()
    if problem in ("one-center", "obnoxious-center"):
        table = _table(doc.get("segments"), "segments", 4)
    else:
        table = _table(doc.get("points"), "points", 2)
        kraw = doc.get("k")
        if kraw is not None:
            _want(isinstance(kraw, int) and not isinstance(kraw, bool) and kraw >= 1,
                  "k", "must be null or an integer >= 1")
            k = kraw
        aq = _num(doc.get("q", 1.0), "q")
        _want(aq >= 1.0, "q", "must be >= 1")
        akind = doc.get("agg", "sum")
        _want(akind in ("sum", "max"), "agg", "must be 'sum' or 'max'")
        agg = AggSpec(aq, akind)
    return InstanceFile(problem, norm, constraint, table, k, agg)


def _axis_instance(inst: InstanceFile):
    """The axis frame, and the instance's table moved into it.

    Returns (frame, table): the segments' (N, 4) or the points' (N, 2)
    array in the axis frame, in one operation whatever the problem.
    """
    frame = transform_to_axis(inst.constraint, inst.norm)
    return frame, frame.forward_columns(inst.table)


def _solve_payload(inst: InstanceFile, args) -> dict:
    tol = Tolerance(eps=args.eps, max_iters=args.max_iters)
    frame, table = _axis_instance(inst)
    t0 = time.perf_counter()
    if inst.problem == "k-cover":
        sol = dp_solve(PointSet(table), inst.k, inst.norm, tol, inst.agg)
        circles = []
        for run, c in zip(sol.intervals, sol.circles):
            center = frame.inverse_point(Point(c.cx, 0.0))
            circles.append({"run": [run[0], run[1]], "center_x": c.cx,
                            "center": [center.x, center.y], "radius": c.radius})
        payload = {
            "problem": inst.problem,
            "lists": "naive",
            "eps": tol.eps,
            "k": inst.k,
            "q": inst.agg.q,
            "agg": inst.agg.kind,
            "circles": circles,
            "objective": sol.objective,
        }
    else:
        if inst.problem == "one-center":
            c = min_enclosing(table, frame.L, inst.norm, tol)
            method = {"method": "exact"}
        else:
            c = max_empty_binsearch(table, frame.L, inst.norm, tol)
            method = {"method": "binsearch", "split": None}
        center = frame.inverse_point(Point(c.cx, 0.0))
        payload = {"problem": inst.problem, **method, "eps": tol.eps, "center_x": c.cx,
                   "center": [center.x, center.y], "radius": c.radius, "objective": c.radius}
    if args.verify:
        payload["verify"] = cross_check(inst, tol, frame.L, table, payload)
    payload["wall_time_ms"] = round((time.perf_counter() - t0) * 1e3, 3)
    return payload


def _ball_svg(cx: float, cy: float, r: float, p: float, color: str) -> str:
    if r <= 0.0:
        r = 1e-6
    if p == 2.0:
        return (f'<circle cx="{cx:.6g}" cy="{cy:.6g}" r="{r:.6g}" '
                f'fill="none" stroke="{color}" stroke-width="0.6%"/>')
    if p == 1.0:
        pts = [(cx + r, cy), (cx, cy + r), (cx - r, cy), (cx, cy - r)]
    else:
        pts = []
        e = 2.0 / p
        for kk in range(128):
            th = 2.0 * math.pi * kk / 128.0
            ct, st = math.cos(th), math.sin(th)
            pts.append((cx + r * math.copysign(abs(ct) ** e, ct),
                        cy + r * math.copysign(abs(st) ** e, st)))
    body = " ".join(f"{x:.6g},{y:.6g}" for x, y in pts)
    return (f'<polygon points="{body}" fill="none" stroke="{color}" '
            f'stroke-width="0.6%"/>')


def render_svg(inst: InstanceFile, payload: dict) -> str:
    rows = inst.table.tolist()
    segments, points = ([], rows) if inst.problem == "k-cover" else (rows, [])
    xs = [inst.constraint.a.x, inst.constraint.b.x]
    ys = [inst.constraint.a.y, inst.constraint.b.y]
    for x1, y1, x2, y2 in segments:
        xs += [x1, x2]
        ys += [y1, y2]
    for x, y in points:
        xs.append(x)
        ys.append(y)
    circles = []
    if inst.problem == "k-cover":
        for c in payload["circles"]:
            circles.append((c["center"][0], c["center"][1], c["radius"]))
    else:
        circles.append((payload["center"][0], payload["center"][1],
                        payload["radius"]))
    for cx, cy, r in circles:
        xs += [cx - r, cx + r]
        ys += [cy - r, cy + r]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    pad = 0.05 * max(hi_x - lo_x, hi_y - lo_y, 1.0)
    vb = (lo_x - pad, lo_y - pad, (hi_x - lo_x) + 2 * pad, (hi_y - lo_y) + 2 * pad)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{vb[0]:.6g} {vb[1]:.6g} {vb[2]:.6g} {vb[3]:.6g}" '
        f'width="640" height="640">',
        f'<rect x="{vb[0]:.6g}" y="{vb[1]:.6g}" width="{vb[2]:.6g}" '
        f'height="{vb[3]:.6g}" fill="white"/>',
        f'<line x1="{inst.constraint.a.x:.6g}" y1="{inst.constraint.a.y:.6g}" '
        f'x2="{inst.constraint.b.x:.6g}" y2="{inst.constraint.b.y:.6g}" '
        f'stroke="#888" stroke-width="0.4%" stroke-dasharray="2,1"/>',
    ]
    for x1, y1, x2, y2 in segments:
        parts.append(f'<line x1="{x1:.6g}" y1="{y1:.6g}" '
                     f'x2="{x2:.6g}" y2="{y2:.6g}" '
                     f'stroke="#222" stroke-width="0.5%" stroke-linecap="round"/>')
    dot = 0.008 * max(vb[2], vb[3])
    for x, y in points:
        parts.append(f'<circle cx="{x:.6g}" cy="{y:.6g}" r="{dot:.6g}" '
                     f'fill="#222"/>')
    for cx, cy, r in circles:
        parts.append(_ball_svg(cx, cy, r, inst.norm.p, "#c22"))
        parts.append(f'<circle cx="{cx:.6g}" cy="{cy:.6g}" r="{dot:.6g}" '
                     f'fill="#c22"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _read_doc(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"instance: cannot read {path!r} ({exc})") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError also covers integers past the digit limit of int()
        raise SchemaError(f"instance: not valid JSON ({exc})") from exc


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_out(path: str, text: str, code: int) -> int:
    """Write text to --out and return code, or 4 if the path is not writable."""
    try:
        _write_text(path, text)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 4
    return code


def _cmd_solve(args) -> int:
    try:
        inst = parse_instance(_read_doc(args.inp))
    except SchemaError as exc:
        print(f"instance error: {exc}", file=sys.stderr)
        return 2
    try:
        payload = _solve_payload(inst, args)
    except (SolverError, ArithmeticError, ValueError) as exc:
        # ArithmeticError and ValueError come from intermediates that
        # overflow or underflow at extreme coordinate scales
        err = {"ok": False,
               "error": {"name": type(exc).__name__, "detail": str(exc)}}
        return _write_out(args.out, json.dumps(err, sort_keys=True, indent=2) + "\n", 3)
    if args.plot is not None:
        try:
            with open(args.plot, "w", encoding="utf-8") as fh:
                fh.write(render_svg(inst, payload))
        except OSError as exc:
            print(f"plot error: {exc}", file=sys.stderr)
            return 4
    return _write_out(args.out, ResultRecord(payload).to_json(), 0)


def _cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    L = args.length
    doc = {
        "problem": args.problem,
        "p": args.p,
        "constraint": [0.0, 0.0, L, 0.0],
    }

    def coord() -> float:
        return round(rng.uniform(-100.0, 100.0), 6)

    if args.problem == "k-cover":
        doc["points"] = [[coord(), coord()] for _ in range(args.n)]
        doc["k"] = args.k
        doc["q"] = args.q
        doc["agg"] = args.agg
    else:
        doc["segments"] = [[coord(), coord(), coord(), coord()]
                           for _ in range(args.n)]
    return _write_out(args.out, json.dumps(doc, sort_keys=True, indent=2) + "\n", 0)


def _real(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


def _positive_finite(text: str) -> float:
    val = _real(text)
    if not (math.isfinite(val) and val > 0.0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return val


def _exponent(text: str) -> float:
    val = _real(text)
    if not (math.isfinite(val) and val >= 1.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 1, got {text!r}")
    return val


def _positive_int(text: str) -> int:
    try:
        val = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if val < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return val


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lineplace",
        description="Place service or avoidance centers on a line.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    ps = sub.add_parser("solve", help="solve a JSON instance")
    ps.add_argument("--in", dest="inp", default="-",
                    help="instance path, - for stdin")
    ps.add_argument("--out", default="-", help="result path, - for stdout")
    ps.add_argument("--method", choices=("binsearch", "envelope"), default="binsearch",
                    help="accepted and ignored: the largest empty circle always "
                         "bisects, and the envelope is the route of its --verify; "
                         "removed with the benchmark change of ROADMAP item 1b")
    ps.add_argument("--split", choices=("halves", "one-off"), default="halves",
                    help="accepted and ignored, as --method is; removed with the "
                         "benchmark change of ROADMAP item 1b")
    ps.add_argument("--lists", choices=("naive", "sweep"), default="naive",
                    help="accepted and ignored: k-cover always weighs runs by the "
                         "exact run radii; removed with the benchmark change of "
                         "ROADMAP item 1b")
    ps.add_argument("--eps", type=_positive_finite, default=1e-9)
    ps.add_argument("--max-iters", type=_positive_int, default=200)
    ps.add_argument("--verify", action="store_true",
                    help="cross-check with an independent route")
    ps.add_argument("--plot", default=None, help="write an SVG here")
    ps.set_defaults(func=_cmd_solve)

    pg = sub.add_parser("gen", help="generate a random instance")
    pg.add_argument("--problem", choices=_PROBLEMS, required=True)
    pg.add_argument("--n", type=_positive_int, default=8)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--p", type=_exponent, default=2.0)
    pg.add_argument("--k", type=_positive_int, default=None)
    pg.add_argument("--q", type=_exponent, default=1.0)
    pg.add_argument("--agg", choices=("sum", "max"), default="sum")
    pg.add_argument("--length", type=_positive_finite, default=10.0)
    pg.add_argument("--out", default="-")
    pg.set_defaults(func=_cmd_gen)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser as it was, so one serves every call
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
