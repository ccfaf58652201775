"""Spans at the module boundaries of lineplace, recorded from outside.

Tracer.install() replaces each traced function by a wrapper in every
loaded lineplace module whose namespace binds it (the defining module
included, so intra-module calls are caught too); uninstall() puts the
originals back. Each call records a span (name, start, end, parent,
request) in flat arrays kept in memory. Self time is a span's duration
minus that of its direct children (calls are nested, never
overlapping, in this single-threaded process). Counts come from the
same boundaries: span counts, plus counts read off return values.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter

import numpy as np

# (span name, function name). The function is wrapped wherever a
# lineplace module binds that name to it; a name that no module binds
# any more is skipped, so its metrics read 0.
SPANS = (
    ("cli.parse", "_read_doc"),
    ("cli.parse", "parse_instance"),
    ("cli.transform", "_axis_instance"),
    ("cli.serialise", "_write_text"),
    ("intervals.covering_interval", "covering_interval"),
    ("intervals.intersect_all", "intersect_all"),
    ("intervals.union_covers", "union_covers"),
    ("one_center.min_enclosing", "min_enclosing"),
    ("obnoxious.max_empty_binsearch", "max_empty_binsearch"),
    ("obnoxious.compute_lower_envelope", "compute_lower_envelope"),
    ("obnoxious.largest_empty_from_envelope", "largest_empty_from_envelope"),
    ("geometry.point_segment_distance", "point_segment_distance"),
    ("geometry.axis_argmin_exact", "axis_argmin_exact"),
    ("geometry.equal_distance_point", "equal_distance_point"),
    ("k_cover.build_lists", "build_lists_naive"),
    ("k_cover.build_lists", "build_lists_sweep"),
    ("k_cover.two_point_circle", "two_point_circle"),
    ("k_cover.dp_solve", "dp_solve"),
    ("k_cover.rmin_on_axis", "rmin_on_axis"),
)

# Methods are wrapped on their class: (span name, class name, method).
METHOD_SPANS = (
    ("cli.serialise", "ResultRecord", "to_json"),
)

# Boundaries that are only counted. Every envelope merge, whichever
# split strategy drives it, goes through _merge_raw; a span there would
# move cell resolution out of obnoxious.envelope_s.
COUNTED = (
    ("obnoxious.merge_calls", "_merge_raw"),
)


def _envelope_pieces(env) -> int:
    return len(env.pieces)


def _candidates(lists) -> int:
    return sum(len(lst) for lst in lists)


# Counts read off return values: span name -> (count name, function).
RESULT_COUNTS = {
    "obnoxious.compute_lower_envelope": ("obnoxious.envelope_pieces", _envelope_pieces),
    "k_cover.build_lists": ("k_cover.candidates", _candidates),
}

ROOT = "cli.main"


def _lineplace_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if name.startswith("lineplace.") and mod is not None]


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.counts = {}
        self.current_request = -1
        self._stack = [-1]
        self._saved = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span: str, fn):
        nid = self._id(span)
        start, end, names, parent, request = (self.start, self.end, self.name,
                                              self.parent, self.request)
        stack = self._stack
        tracer = self
        counted = RESULT_COUNTS.get(span)

        def traced(*args, **kwargs):
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            names.append(nid)
            parent.append(stack[-1])
            request.append(tracer.current_request)
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if counted is not None:
                cname, measure = counted
                tracer.counts[cname] = tracer.counts.get(cname, 0) + measure(out)
            return out

        return traced

    def _count(self, cname: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[cname] = counts.get(cname, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, fname: str, make) -> None:
        for mod in _lineplace_modules():
            orig = vars(mod).get(fname)
            if callable(orig) and getattr(orig, "__module__", "").startswith("lineplace"):
                self._saved.append((mod, fname, orig))
                setattr(mod, fname, make(orig))

    def install(self) -> None:
        for span, fname in SPANS:
            self._patch(fname, lambda fn, span=span: self.wrap(span, fn))
        for cname, fname in COUNTED:
            self._patch(fname, lambda fn, cname=cname: self._count(cname, fn))
        for span, cls_name, meth in METHOD_SPANS:
            for mod in _lineplace_modules():
                cls = vars(mod).get(cls_name)
                if isinstance(cls, type) and meth in vars(cls):
                    orig = vars(cls)[meth]
                    self._saved.append((cls, meth, orig))
                    setattr(cls, meth, self.wrap(span, orig))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def clear(self) -> None:
        """Drop recorded spans and counts, keeping the wrappers."""
        for arr in (self.start, self.end, self.name, self.parent, self.request):
            del arr[:]
        self.counts.clear()

    def spans(self) -> dict:
        """The recorded spans as numpy arrays."""
        return {
            "names": np.array(self.names),
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start),
            "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int32),
            "request": np.array(self.request, dtype=np.int32),
        }

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus counts."""
        s = self.spans()
        dur = s["end"] - s["start"]
        child = np.zeros(len(dur))
        has_parent = s["parent"] >= 0
        np.add.at(child, s["parent"][has_parent], dur[has_parent])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(s["name"], minlength=k)
        total = np.bincount(s["name"], weights=dur, minlength=k)
        self_s = np.bincount(s["name"], weights=own, minlength=k)
        per_span = {n: {"calls": int(calls[i]), "total_s": float(total[i]),
                        "self_s": float(self_s[i])}
                    for i, n in enumerate(self.names)}
        return {"spans": per_span, "counts": dict(self.counts)}


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics of one traced cycle, from its summary."""
    spans = summary["spans"]
    counts = summary["counts"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def own(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    return {
        "cli.parse_s": own("cli.parse"),
        "cli.transform_s": own("cli.transform"),
        "cli.serialise_s": own("cli.serialise"),
        "intervals.covering_calls": calls("intervals.covering_interval"),
        "intervals.covering_s": own("intervals.covering_interval"),
        "intervals.combine_s": own("intervals.intersect_all", "intervals.union_covers"),
        "one_center.min_enclosing_s": own("one_center.min_enclosing"),
        "one_center.iters": _ratio(calls("intervals.intersect_all"),
                                   calls("one_center.min_enclosing")),
        "obnoxious.binsearch_s": own("obnoxious.max_empty_binsearch"),
        "obnoxious.binsearch_iters": _ratio(calls("intervals.union_covers"),
                                            calls("obnoxious.max_empty_binsearch")),
        "obnoxious.envelope_s": own("obnoxious.compute_lower_envelope"),
        "obnoxious.merge_calls": counts.get("obnoxious.merge_calls", 0),
        "obnoxious.envelope_pieces": counts.get("obnoxious.envelope_pieces", 0),
        "obnoxious.extract_s": own("obnoxious.largest_empty_from_envelope"),
        "geometry.point_segment_distance_calls": calls("geometry.point_segment_distance"),
        "geometry.point_segment_distance_s": own("geometry.point_segment_distance"),
        "geometry.axis_argmin_calls": calls("geometry.axis_argmin_exact"),
        "geometry.axis_argmin_s": own("geometry.axis_argmin_exact"),
        "geometry.equal_distance_calls": calls("geometry.equal_distance_point"),
        "geometry.equal_distance_s": own("geometry.equal_distance_point"),
        "k_cover.lists_s": own("k_cover.build_lists"),
        "k_cover.candidates": counts.get("k_cover.candidates", 0),
        "k_cover.two_point_circle_calls": calls("k_cover.two_point_circle"),
        "k_cover.two_point_circle_s": own("k_cover.two_point_circle"),
        "k_cover.dp_s": own("k_cover.dp_solve"),
        "k_cover.reconstruct_s": own("k_cover.rmin_on_axis"),
    }


# Unit of every per-layer metric; _s metrics are self seconds per traced
# cycle, counts are per cycle, *_iters and one_center.iters per call.
PER_LAYER_UNITS = {
    name: ("s" if name.endswith("_s") else "count")
    for name in layer_metrics({"spans": {}, "counts": {}})
}
PER_LAYER_UNITS.update({"trace.untraced_s": "s", "trace.traced_s": "s",
                        "trace.overhead_s": "s"})
