"""Command line front end: solve instance files, generate random ones.

Instances are JSON objects; results are deterministic JSON (sorted
keys) apart from the wall_time_ms field. Exit codes: 0 success, 2
malformed or unreadable instance, 3 solver failure (the error JSON
names it; this includes arithmetic overflow at extreme coordinate
scales), 4 output (--out or --plot) not writable.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from dataclasses import dataclass

from .errors import SchemaError, SolverError, TooLarge
from .geometry import AxisFrame, NormP, Point, Segment, Tolerance, transform_to_axis
from .intervals import Interval
from .k_cover import AggSpec, PointSet, dp_solve, set_partition_oracle
from .obnoxious import compute_lower_envelope, largest_empty_from_envelope, \
    max_empty_binsearch
from .one_center import min_enclosing
from .oracles import GridSpec, grid_obnoxious_center, grid_one_center

_PROBLEMS = ("one-center", "obnoxious-center", "k-cover")
_GRID_STEP = 1e-3
_GRID_TOL = 2e-3


@dataclass(frozen=True)
class InstanceFile:
    """Parsed, validated instance."""

    problem: str
    norm: NormP
    constraint: Segment
    segments: tuple
    points: tuple
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


def _xy(obj, field: str) -> Point:
    _want(isinstance(obj, (list, tuple)) and len(obj) == 2,
          field, "must be a pair [x, y]")
    return Point(_num(obj[0], field + "[0]"), _num(obj[1], field + "[1]"))


def parse_instance(doc) -> InstanceFile:
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

    segments = ()
    points = ()
    k = None
    agg = AggSpec()
    if problem in ("one-center", "obnoxious-center"):
        raw = doc.get("segments")
        _want(isinstance(raw, list) and len(raw) > 0,
              "segments", "must be a nonempty list")
        out = []
        for idx, item in enumerate(raw):
            _want(isinstance(item, (list, tuple)) and len(item) == 4,
                  f"segments[{idx}]", "must be [x1, y1, x2, y2]")
            out.append(Segment(
                Point(_num(item[0], f"segments[{idx}][0]"),
                      _num(item[1], f"segments[{idx}][1]")),
                Point(_num(item[2], f"segments[{idx}][2]"),
                      _num(item[3], f"segments[{idx}][3]"))))
        segments = tuple(out)
    else:
        raw = doc.get("points")
        _want(isinstance(raw, list) and len(raw) > 0,
              "points", "must be a nonempty list")
        points = tuple(_xy(item, f"points[{idx}]") for idx, item in enumerate(raw))
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
    return InstanceFile(problem, norm, constraint, segments, points, k, agg)


def _axis_instance(inst: InstanceFile):
    frame = transform_to_axis(inst.constraint, inst.norm)
    if inst.problem == "k-cover":
        return frame, None, tuple(frame.forward_point(q) for q in inst.points)
    return frame, tuple(frame.forward_segment(s) for s in inst.segments), None


def _verify_k_cover(ps: PointSet, inst: InstanceFile, tol: Tolerance, lists: str,
                    objective: float) -> dict:
    """Cross-check a k-cover objective: the other list builder at p = 2,
    else the exhaustive partition oracle when the instance is small
    enough for it."""
    if inst.norm.p == 2.0:
        other = "sweep" if lists == "naive" else "naive"
        kind = f"lists:{other}"
        other_objective = dp_solve(ps, inst.k, inst.norm, tol, inst.agg,
                                   lists=other).objective
    else:
        kind = "set-partition"
        try:
            other_objective = set_partition_oracle(ps, inst.k, inst.norm, tol,
                                                   inst.agg).objective
        except TooLarge as exc:
            # the solve stands; only its cross-check is out of reach
            return {"kind": kind, "ok": None, "reason": str(exc)}
    delta = abs(other_objective - objective)
    return {"kind": kind, "other_objective": other_objective, "delta": delta,
            "tolerance": 1e-6, "ok": delta <= 1e-6}


def _solve_payload(inst: InstanceFile, args) -> dict:
    tol = Tolerance(eps=args.eps, max_iters=args.max_iters)
    frame, segs, pts = _axis_instance(inst)
    t0 = time.perf_counter()
    if inst.problem == "one-center":
        c = min_enclosing(list(segs), frame.L, inst.norm, tol)
        center = frame.inverse_point(Point(c.cx, 0.0))
        payload = {
            "problem": inst.problem,
            "method": "exact",
            "eps": tol.eps,
            "center_x": c.cx,
            "center": [center.x, center.y],
            "radius": c.radius,
            "objective": c.radius,
        }
        if args.verify:
            grid = GridSpec(_GRID_STEP, Interval(0.0, frame.L))
            try:
                gc = grid_one_center(list(segs), grid, inst.norm)
            except TooLarge as exc:
                # the solve stands; only its cross-check is out of reach
                payload["verify"] = {"kind": "grid", "ok": None, "reason": str(exc)}
            else:
                delta = abs(gc.radius - c.radius)
                payload["verify"] = {"kind": "grid", "grid_radius": gc.radius,
                                     "delta": delta, "tolerance": _GRID_TOL,
                                     "ok": delta <= _GRID_TOL}
    elif inst.problem == "obnoxious-center":
        if args.method == "binsearch":
            best = max_empty_binsearch(list(segs), frame.L, inst.norm, tol)
        else:
            env = compute_lower_envelope(list(segs), frame.L, inst.norm, tol,
                                         split=args.split)
            best = largest_empty_from_envelope(env, list(segs), inst.norm, tol)
        cx, radius = best.cx, best.radius
        center = frame.inverse_point(Point(cx, 0.0))
        payload = {
            "problem": inst.problem,
            "method": args.method,
            "split": args.split if args.method == "envelope" else None,
            "eps": tol.eps,
            "center_x": cx,
            "center": [center.x, center.y],
            "radius": radius,
            "objective": radius,
        }
        if args.verify:
            if args.method == "binsearch":
                env = compute_lower_envelope(list(segs), frame.L, inst.norm, tol,
                                             split=args.split)
                oc = largest_empty_from_envelope(env, list(segs), inst.norm, tol)
                other = "envelope"
            else:
                oc = max_empty_binsearch(list(segs), frame.L, inst.norm, tol)
                other = "binsearch"
            tol_cmp = 2.0 * tol.eps
            delta = abs(oc.radius - radius)
            payload["verify"] = {"kind": other, "other_radius": oc.radius,
                                 "delta": delta, "tolerance": tol_cmp,
                                 "ok": delta <= tol_cmp}
    else:
        ps = PointSet(pts)
        sol = dp_solve(ps, inst.k, inst.norm, tol, inst.agg, lists=args.lists)
        circles = []
        for run, c in zip(sol.intervals, sol.circles):
            center = frame.inverse_point(Point(c.cx, 0.0))
            circles.append({"run": [run[0], run[1]], "center_x": c.cx,
                            "center": [center.x, center.y], "radius": c.radius})
        payload = {
            "problem": inst.problem,
            "lists": args.lists,
            "eps": tol.eps,
            "k": inst.k,
            "q": inst.agg.q,
            "agg": inst.agg.kind,
            "circles": circles,
            "objective": sol.objective,
        }
        if args.verify:
            payload["verify"] = _verify_k_cover(ps, inst, tol, args.lists, sol.objective)
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
    xs = [inst.constraint.a.x, inst.constraint.b.x]
    ys = [inst.constraint.a.y, inst.constraint.b.y]
    for s in inst.segments:
        xs += [s.a.x, s.b.x]
        ys += [s.a.y, s.b.y]
    for q in inst.points:
        xs.append(q.x)
        ys.append(q.y)
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
    for s in inst.segments:
        parts.append(f'<line x1="{s.a.x:.6g}" y1="{s.a.y:.6g}" '
                     f'x2="{s.b.x:.6g}" y2="{s.b.y:.6g}" '
                     f'stroke="#222" stroke-width="0.5%" stroke-linecap="round"/>')
    dot = 0.008 * max(vb[2], vb[3])
    for q in inst.points:
        parts.append(f'<circle cx="{q.x:.6g}" cy="{q.y:.6g}" r="{dot:.6g}" '
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
    ps.add_argument("--method", choices=("binsearch", "envelope"),
                    default="binsearch", help="obnoxious solver")
    ps.add_argument("--split", choices=("halves", "one-off"), default="halves",
                    help="envelope merge order")
    ps.add_argument("--lists", choices=("naive", "sweep"), default="naive",
                    help="k-cover candidate builder")
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
