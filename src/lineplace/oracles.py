"""Brute-force grid oracles, independent of the solver geometry.

Distances are evaluated with vectorised numpy code (geometry._np_lp)
that shares nothing with the exact scalar routines: the Euclidean case
uses the closed form projection and every other norm runs a
golden-section search over the segment parameter, per abscissa, all
abscissas of a chunk in lockstep with one evaluation a step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, TooLarge
from .geometry import NormP, Segment, _np_lp
from .intervals import Interval
from .one_center import PlacedCircle

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_CHUNK = 4096
# The scans hold _CHUNK abscissas at a time, so this limit bounds their
# time, not their memory: 1e7 steps (a constraint of length 1e4 at the
# CLI's step 1e-3) took 0.55 s for two segments at p = 2 and 109 s at
# p = 3, where a golden-section search runs per abscissa (2-vCPU Xeon
# VM, numpy 2.4; peak RSS 29 MiB, against 106 MiB when all abscissas
# were built at once).
MAX_GRID_STEPS = 10_000_000


@dataclass(frozen=True)
class GridSpec:
    """Evaluation abscissas: domain.lo, steps of `step`, then domain.hi."""

    step: float
    domain: Interval

    def __post_init__(self) -> None:
        if not (isinstance(self.step, (int, float)) and math.isfinite(self.step)
                and self.step > 0.0):
            raise ValueError("step must be a finite positive real")
        if self.domain.is_empty:
            raise ValueError("domain must be nonempty")
        object.__setattr__(self, "step", float(self.step))

    def chunks(self):
        """The abscissas in order, as arrays of at most _CHUNK values.

        Memory stays O(_CHUNK) whatever the domain length; the values
        are those of abscissas(), bit for bit.
        """
        lo, hi = self.domain.lo, self.domain.hi
        n = int(math.floor((hi - lo) / self.step + 1e-9)) + 1
        last = None
        for start in range(0, n, _CHUNK):
            xs = lo + self.step * np.arange(start, min(start + _CHUNK, n), dtype=float)
            xs = xs[xs <= hi]  # only the last step can pass hi
            if len(xs):
                last = xs[-1]
                yield xs
        if last is None or last < hi:
            yield np.array([hi])

    def abscissas(self) -> np.ndarray:
        return np.concatenate(tuple(self.chunks()))


def segment_distances(xs: np.ndarray, seg: Segment, norm: NormP) -> np.ndarray:
    """Distance from (x, 0) to the segment for every x in xs."""
    xs = np.asarray(xs, dtype=float)
    p = norm.p
    ax, ay = seg.a.x, seg.a.y
    bx, by = seg.b.x, seg.b.y
    ux, uy = bx - ax, by - ay
    if ux == 0.0 and uy == 0.0:
        return _np_lp(xs - ax, np.full_like(xs, ay), p)
    if p == 2.0:
        t = ((xs - ax) * ux + (0.0 - ay) * uy) / (ux * ux + uy * uy)
        t = np.clip(t, 0.0, 1.0)
        return np.hypot(xs - (ax + t * ux), ay + t * uy)

    def f(t: np.ndarray) -> np.ndarray:
        return _np_lp(xs - (ax + t * ux), ay + t * uy, p)

    # golden-section search in lockstep over the abscissas: the interior
    # point that survives a step is the next step's other interior point,
    # so each step evaluates f once, at the one new point of each search
    lo = np.zeros_like(xs)
    hi = np.ones_like(xs)
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(80):
        left = fc <= fd
        # keep [lo, d] with c as its upper point, or [c, hi] with d as its lower
        hi = np.where(left, d, hi)
        lo = np.where(left, lo, c)
        kept, fkept = np.where(left, c, d), np.where(left, fc, fd)
        new = np.where(left, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo))
        fnew = f(new)
        c, fc = np.where(left, new, kept), np.where(left, fnew, fkept)
        d, fd = np.where(left, kept, new), np.where(left, fkept, fnew)
    mid = 0.5 * (lo + hi)
    return np.minimum(np.minimum(f(lo), f(hi)), f(mid))


def _scan(segments, grid: GridSpec, norm: NormP, maximize: bool):
    if not segments:
        raise EmptyInput("need at least one segment")
    ratio = (grid.domain.hi - grid.domain.lo) / grid.step  # may be inf
    if ratio > MAX_GRID_STEPS:
        raise TooLarge(f"grid of {ratio:.3g} steps exceeds the limit of {MAX_GRID_STEPS:.0e}")
    inner = np.minimum if maximize else np.maximum
    pick = np.argmax if maximize else np.argmin
    best_x = None
    best_val = None
    for chunk in grid.chunks():
        vals = None
        for seg in segments:
            d = segment_distances(chunk, seg, norm)
            vals = d if vals is None else inner(vals, d)
        i = int(pick(vals))
        v = float(vals[i])
        # strict improvement keeps the smallest abscissa on ties
        if best_val is None or (v > best_val if maximize else v < best_val):
            best_val = v
            best_x = float(chunk[i])
    return best_x, best_val


def grid_one_center(segments, grid: GridSpec, norm: NormP) -> PlacedCircle:
    """Grid minimiser of the farthest-segment distance."""
    x, val = _scan(segments, grid, norm, maximize=False)
    return PlacedCircle(x, val)


def grid_obnoxious_center(segments, grid: GridSpec, norm: NormP) -> PlacedCircle:
    """Grid maximiser of the nearest-segment distance."""
    x, val = _scan(segments, grid, norm, maximize=True)
    return PlacedCircle(x, val)
