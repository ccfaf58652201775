"""Workload definitions: seeded instance files and the request round.

A workload is a fixed list of request types (problem, p, CLI flags).
Each type gets one instance of its family per entry of the workload's
SIZES (or per stride-th entry), and one round sends each of them once.
Types that differ only in flags (envelope split, list builder) share
their instances. Instances depend only on (workload, seed, family,
size, pool index).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

def geometric(lo: int, hi: int, count: int) -> tuple:
    """count sizes from lo to hi in a geometric progression."""
    return tuple(round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count))


# Instance sizes N per workload, one instance of every family per entry.
# "full" is the measured configuration; "tiny" only exercises every code
# path for the smoke test. Every configuration sends more than ten
# distinct requests a round, so that the tail percentile (the highest
# with ten samples beyond it in each round) exists. The sizes are spread
# rather than all equal, so that request times do not fall into a few
# clusters with gaps between them, where a median would jump with the
# seed. Every seed gets the same sizes.
SIZES = {
    "full": {
        "segments-spread": geometric(800, 1600, 14),
        "segments-nearline": geometric(220, 480, 8),
        "points-nearline": geometric(100, 150, 6),
        "points-spread": geometric(100, 260, 17),
    },
    "tiny": {
        "segments-spread": (12, 13, 14),
        "segments-nearline": (10, 12),
        "points-nearline": (8, 9),
        "points-spread": (8, 9, 10, 11),
    },
}

WORKLOADS = tuple(SIZES["full"])

@dataclass(frozen=True)
class RequestType:
    """One kind of request: an instance family plus the CLI flags."""

    label: str
    family: tuple  # (problem, regime, p, k, agg, q); one pool per family
    flags: tuple
    stride: int = 1  # sent at every stride-th size only


@dataclass(frozen=True)
class Request:
    kind: str  # the RequestType's label
    n: int
    path: str
    flags: tuple

    @property
    def label(self) -> str:
        return f"{self.kind} n={self.n}"

    @property
    def argv(self) -> list:
        return ["solve", "--in", self.path, *self.flags]


def request_types(workload: str) -> list:
    """The request types of the workload, in sending order."""
    out = []
    if workload == "segments-spread":
        # About two thirds of the one-center requests return at the
        # certified lower bound in a few ms and the rest bisect, with a
        # share that moves with the seed. Sent at every other size, they
        # are a fifth of the round, so the median request falls among
        # the binary searches, whose time follows N.
        for p in (1.0, 2.0, 3.0):
            for problem, stride in (("one-center", 2), ("obnoxious-center", 1)):
                fam = (problem, "spread", p, None, None, None)
                out.append(RequestType(f"{problem} p={p:g}", fam, (), stride))
    elif workload == "segments-nearline":
        for p in (1.0, 2.0, 3.0):
            fam = ("obnoxious-center", "nearline", p, None, None, None)
            for split in ("halves", "one-off"):
                out.append(RequestType(
                    f"envelope {split} p={p:g}", fam,
                    ("--method", "envelope", "--split", split)))
    elif workload == "points-nearline":
        for k in (5, None):
            for agg, q in (("sum", 1.0), ("max", 2.0)):
                fam = ("k-cover", "nearline", 2.0, k, agg, q)
                for lists in ("naive", "sweep"):
                    out.append(RequestType(
                        f"k-cover {lists} p=2 k={k} {agg} q={q:g}",
                        fam, ("--lists", lists)))
        for p in (1.0, 1.5):
            fam = ("k-cover", "nearline", p, 5, "sum", 1.0)
            out.append(RequestType(f"k-cover naive p={p:g} k=5 sum q=1",
                                   fam, ("--lists", "naive")))
    elif workload == "points-spread":
        fam = ("k-cover", "spread", 2.0, 5, "sum", 1.0)
        for lists in ("naive", "sweep"):
            out.append(RequestType(f"k-cover {lists} p=2 k=5 sum q=1",
                                   fam, ("--lists", lists)))
        fam = ("k-cover", "spread", 1.5, 5, "sum", 1.0)
        out.append(RequestType("k-cover naive p=1.5 k=5 sum q=1",
                               fam, ("--lists", "naive")))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def make_instance(workload: str, seed: int, family: tuple, n: int, idx: int) -> dict:
    """Instance document for one pool entry; same arguments, same document.

    "spread" follows `lineplace gen` (coordinates uniform in
    [-100, 100]^2, L = 10). "nearline" puts every coordinate in
    x in [0, 100], |y| <= 2 with L = 100.
    """
    problem, regime, p, k, agg, q = family
    rng = random.Random(f"{workload}|{seed}|{family}|{n}|{idx}")
    if regime == "spread":
        L = 10.0

        def xy():
            return [round(rng.uniform(-100.0, 100.0), 6),
                    round(rng.uniform(-100.0, 100.0), 6)]
    else:
        L = 100.0

        def xy():
            return [round(rng.uniform(0.0, 100.0), 6),
                    round(rng.uniform(-2.0, 2.0), 6)]
    doc = {"problem": problem, "p": p, "constraint": [0.0, 0.0, L, 0.0]}
    if problem == "k-cover":
        doc["points"] = [xy() for _ in range(n)]
        doc.update(k=k, agg=agg, q=q)
    else:
        doc["segments"] = [xy() + xy() for _ in range(n)]
    return doc


def write_pool(workload: str, seed: int, size: str, directory: Path):
    """Write every instance up front; return the round's requests and docs.

    The round is pool entry 0 of every type, then entry 1, and so on,
    so neighbouring requests differ in type.
    """
    docs = {}
    paths = {}
    requests = []
    for idx, n in enumerate(SIZES[size][workload]):
        for t in request_types(workload):
            if idx % t.stride:
                continue
            key = (t.family, idx)
            if key not in paths:
                path = str(directory / f"inst_{len(paths):03d}.json")
                doc = make_instance(workload, seed, t.family, n, idx)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
                paths[key] = path
                docs[path] = doc
            requests.append(Request(t.label, n, paths[key], t.flags))
    return requests, docs
