"""Independent checks of solve answers, run outside the timed region.

obnoxious-center: the radius must match the other route (binary search
against lower envelope) within 2 * eps.

one-center: a distance certificate computed here with numpy, sharing no
code with the solver: the radius equals the largest distance from the
returned center, it is at least the largest per-segment constrained
minimum, and moving the center by a small step does not lower the
largest distance (the objective is convex, so this is a local
optimality test).

k-cover: the circles cover every point, there are at most K of them,
the objective is the aggregate of the radii, and at p = 2 it matches
the other candidate-list builder within 1e-6.

Reference answers come from the library and are cached per instance.
"""

from __future__ import annotations

import json
import math

import numpy as np

from lineplace.geometry import NormP, Point, Segment, Tolerance
from lineplace.k_cover import AggSpec, PointSet, dp_solve
from lineplace.obnoxious import compute_lower_envelope, largest_empty_from_envelope, \
    max_empty_binsearch

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
EPS = 1e-9          # the CLI default --eps, which every request uses
CERT_TOL = 1e-8     # absolute; coordinates are at most 100 in magnitude
KCOVER_TOL = 1e-6


def _lp(dx, dy, p: float):
    dx = np.abs(dx)
    dy = np.abs(dy)
    if p == 1.0:
        return dx + dy
    if p == 2.0:
        return np.hypot(dx, dy)
    m = np.maximum(dx, dy)
    md = np.where(m > 0.0, m, 1.0)
    return m * ((dx / md) ** p + (dy / md) ** p) ** (1.0 / p)


def _golden_min(f, n: int):
    """Minimum over t in [0, 1] of a convex f, for n problems at once."""
    lo = np.zeros(n)
    hi = np.ones(n)
    for _ in range(90):
        c = hi - _GOLDEN * (hi - lo)
        d = lo + _GOLDEN * (hi - lo)
        left = f(c) <= f(d)
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
    return np.minimum(np.minimum(f(lo), f(hi)), f(0.5 * (lo + hi)))


def _segment_arrays(doc):
    s = np.asarray(doc["segments"], dtype=float)
    return s[:, 0], s[:, 1], s[:, 2] - s[:, 0], s[:, 3] - s[:, 1]


def farthest_distance(doc, x: float) -> float:
    """max over segments of the L_p distance from (x, 0)."""
    ax, ay, ux, uy = _segment_arrays(doc)
    p = float(doc["p"])
    d = _golden_min(lambda t: _lp(ax + t * ux - x, ay + t * uy, p), len(ax))
    return float(d.max())


def constrained_lower_bound(doc, L: float) -> float:
    """max over segments of min over x in [0, L] of the distance."""
    ax, ay, ux, uy = _segment_arrays(doc)
    p = float(doc["p"])

    def gap(t):
        qx = ax + t * ux
        return _lp(np.maximum(0.0, np.maximum(-qx, qx - L)), ay + t * uy, p)

    return float(_golden_min(gap, len(ax)).max())


def _result(text: str):
    """(result without wall_time_ms, None), or (None, why it is unusable)."""
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON ({exc})"
    if out.get("ok") is not True:
        return None, f"output is not ok: {text[:200]!r}"
    res = out["result"]
    res.pop("wall_time_ms", None)
    return res, None


class Checker:
    """Checks CLI answers against certificates and references.

    A k-cover answer at p = 2 is compared with the answer the other
    list builder gave for the same instance in the same run; only when
    the run holds none is the other builder called here.
    """

    def __init__(self, docs: dict):
        self.docs = docs
        self._refs = {}
        self._verdicts = {}
        self.unchecked = []  # reference routes that raised

    def check_records(self, records, max_listed: int) -> tuple:
        """(failed, wrong, listed) over (request, exit code, stdout, error)."""
        parsed = []
        for request, rc, text, error in records:
            res = None
            if rc == 0:
                res, error = _result(text)
                if res is not None and "--lists" in request.flags:
                    self._refs.setdefault((request.path, res["lists"]), res["objective"])
            parsed.append((request, rc, res, error))
        failed = wrong = 0
        listed = []
        for request, rc, res, error in parsed:
            if rc != 0:
                failed += 1
                reason = error.strip().splitlines()[-1] if error else f"exit code {rc}"
            else:
                reason = error if res is None else self.check(request, res)
                if reason is None:
                    continue
                wrong += 1
            if len(listed) < max_listed:
                listed.append({"request": request.label,
                               "instance": request.path.rsplit("/", 1)[-1],
                               "reason": reason})
        return failed, wrong, listed

    def check(self, request, res: dict):
        """None if the answer is right, else a one-line reason."""
        key = (request.path, request.flags, json.dumps(res, sort_keys=True))
        if key not in self._verdicts:
            doc = self.docs[request.path]
            if doc["problem"] == "one-center":
                verdict = self._check_one_center(doc, res)
            elif doc["problem"] == "obnoxious-center":
                verdict = self._check_obnoxious(request, doc, res)
            else:
                verdict = self._check_k_cover(request, doc, res)
            self._verdicts[key] = verdict
        return self._verdicts[key]

    def _reference(self, key, compute):
        """compute(), cached per key = (instance path, route).

        None when the reference route raises: the answer cannot be
        compared, so the comparison is skipped and the instance listed in
        `unchecked`. Where the workload sends that route too, its own
        request fails and counts in fail_frac.
        """
        if key not in self._refs:
            try:
                self._refs[key] = compute()
            except Exception as exc:
                self._refs[key] = None
                self.unchecked.append({"instance": key[0].rsplit("/", 1)[-1],
                                       "route": key[1],
                                       "reason": f"{type(exc).__name__}: {exc}"})
        return self._refs[key]

    def _check_one_center(self, doc, res):
        L = doc["constraint"][2]
        cx, radius = res["center_x"], res["radius"]
        far = farthest_distance(doc, cx)
        if abs(far - radius) > CERT_TOL:
            return f"radius {radius!r} but farthest distance {far!r}"
        lb = constrained_lower_bound(doc, L)
        if radius < lb - CERT_TOL:
            return f"radius {radius!r} below the lower bound {lb!r}"
        step = 1e-3 * L
        for x in (max(cx - step, 0.0), min(cx + step, L)):
            fx = farthest_distance(doc, x)
            if fx < far - CERT_TOL:
                return f"not optimal: farthest distance {fx!r} at x={x!r} < {far!r}"
        return None

    def _check_obnoxious(self, request, doc, res):
        envelope = "envelope" in request.flags
        other = "binsearch" if envelope else "envelope"

        def solve_other():
            segs = [Segment(Point(s[0], s[1]), Point(s[2], s[3]))
                    for s in doc["segments"]]
            L = doc["constraint"][2]
            norm = NormP(float(doc["p"]))
            tol = Tolerance(eps=EPS)
            if other == "binsearch":
                return max_empty_binsearch(segs, L, norm, tol).radius
            env = compute_lower_envelope(segs, L, norm, tol, split="one-off")
            return largest_empty_from_envelope(env, segs, norm, tol).radius

        ref = self._reference((request.path, other), solve_other)
        if ref is not None and abs(ref - res["radius"]) > 2.0 * EPS:
            return f"radius {res['radius']!r} but {other} gives {ref!r}"
        return None

    def _check_k_cover(self, request, doc, res):
        p = float(doc["p"])
        k = doc["k"]
        q = float(doc["q"])
        circles = res["circles"]
        if k is not None and len(circles) > k:
            return f"{len(circles)} circles exceed k={k}"
        pts = np.asarray(doc["points"], dtype=float)
        cx = np.array([c["center"][0] for c in circles])
        cy = np.array([c["center"][1] for c in circles])
        rad = np.array([c["radius"] for c in circles])
        dist = _lp(pts[:, :1] - cx[None, :], pts[:, 1:] - cy[None, :], p)
        slack = (dist - rad[None, :]).min(axis=1)
        worst = int(np.argmax(slack))
        if slack[worst] > CERT_TOL:
            return f"point {worst} is outside every circle by {float(slack[worst])!r}"
        weights = [r ** q for r in rad.tolist()]
        agg = math.fsum(weights) if doc["agg"] == "sum" else max(weights)
        if abs(agg - res["objective"]) > CERT_TOL * max(1.0, abs(agg)):
            return f"objective {res['objective']!r} but radii aggregate to {agg!r}"
        if p == 2.0:
            lists = "sweep" if "naive" in request.flags else "naive"

            def solve_other():
                ps = PointSet(tuple(Point(x, y) for x, y in doc["points"]))
                return dp_solve(ps, k, NormP(p), Tolerance(eps=EPS),
                                AggSpec(q, doc["agg"]), lists=lists).objective

            ref = self._reference((request.path, lists), solve_other)
            if ref is not None and abs(ref - res["objective"]) > KCOVER_TOL:
                return f"objective {res['objective']!r} but {lists} lists give {ref!r}"
        return None
