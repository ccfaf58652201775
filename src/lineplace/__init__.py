"""Placement of service and avoidance centers on a line segment.

Solvers for three planar facility location problems whose center is
restricted to a given segment, all under general L_p norms:

* smallest enclosing ball of segments (min_enclosing),
* largest empty ball among segments (max_empty_binsearch, or the
  lower-envelope route via compute_lower_envelope),
* covering points by at most K balls minimising an aggregate of the
  radii (dp_solve).

Grid oracles and an exhaustive partition oracle provide independent
cross-checks. The other second routes, which the tests compare the
solvers against, live in the non-exported lineplace._reference.
"""

from .errors import (
    EmptyInput,
    NoBisectorRoot,
    NonIsometricRotation,
    SchemaError,
    SolverError,
    TooLarge,
    UnsupportedNorm,
)
from .geometry import (
    AxisFrame,
    NormP,
    Point,
    Segment,
    Tolerance,
    axis_argmin_exact,
    lp_distance,
    point_segment_distance,
    segment_ox_intersection,
    transform_to_axis,
)
from .intervals import Interval, covering_interval, intersect_all, union_covers
from .k_cover import (
    AggSpec,
    Candidate,
    CoverSolution,
    OraclePartition,
    PointSet,
    build_lists_naive,
    build_lists_sweep,
    dp_solve,
    enumerate_partitions,
    rmin_on_axis,
    set_partition_oracle,
    two_point_circle,
)
from .obnoxious import (
    EnvelopePiece,
    LowerEnvelope,
    base_envelope,
    compact,
    compute_lower_envelope,
    largest_empty_from_envelope,
    max_empty_binsearch,
    merge_lower_envelopes,
)
from .one_center import PlacedCircle, min_enclosing
from .oracles import (
    GridSpec,
    grid_obnoxious_center,
    grid_one_center,
    segment_distances,
)

__version__ = "1.0.0"

__all__ = [
    "AggSpec",
    "AxisFrame",
    "Candidate",
    "CoverSolution",
    "EmptyInput",
    "EnvelopePiece",
    "GridSpec",
    "Interval",
    "LowerEnvelope",
    "NoBisectorRoot",
    "NonIsometricRotation",
    "NormP",
    "OraclePartition",
    "PlacedCircle",
    "Point",
    "PointSet",
    "SchemaError",
    "Segment",
    "SolverError",
    "Tolerance",
    "TooLarge",
    "UnsupportedNorm",
    "axis_argmin_exact",
    "base_envelope",
    "build_lists_naive",
    "build_lists_sweep",
    "compact",
    "compute_lower_envelope",
    "covering_interval",
    "dp_solve",
    "enumerate_partitions",
    "grid_obnoxious_center",
    "grid_one_center",
    "intersect_all",
    "largest_empty_from_envelope",
    "lp_distance",
    "max_empty_binsearch",
    "merge_lower_envelopes",
    "min_enclosing",
    "point_segment_distance",
    "rmin_on_axis",
    "segment_distances",
    "segment_ox_intersection",
    "set_partition_oracle",
    "transform_to_axis",
    "two_point_circle",
    "union_covers",
]
