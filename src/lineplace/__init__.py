"""Placement of service and avoidance centers on a line segment.

Solvers for three planar facility location problems whose center is
restricted to a given segment, all under general L_p norms:

* smallest enclosing ball of segments (min_enclosing),
* largest empty ball among segments (max_empty_binsearch),
* covering points by at most K balls minimising an aggregate of the
  radii (dp_solve).

The cross-checks of `lineplace solve --verify` live in lineplace.verify,
which only the CLI imports; the second routes that the tests compare
the solvers against, and the entry points only the tests call, live in
lineplace._reference. Neither is exported. The lower envelope of the
distance profiles, the --verify route of the largest empty ball,
which one scalar merge of halves builds, stays in lineplace.obnoxious
(compute_lower_envelope, largest_empty_from_envelope) and is not
exported either.
"""

from .errors import (
    EmptyInput,
    NonIsometricRotation,
    SchemaError,
    SolverError,
)
from .geometry import (
    AxisFrame,
    NormP,
    Point,
    Segment,
    Tolerance,
    lp_distance,
    point_segment_distance,
    transform_to_axis,
)
from .intervals import Interval
from .k_cover import (
    AggSpec,
    CoverSolution,
    PointSet,
    dp_solve,
)
from .obnoxious import max_empty_binsearch
from .one_center import PlacedCircle, min_enclosing

__version__ = "1.0.0"

__all__ = [
    "AggSpec",
    "AxisFrame",
    "CoverSolution",
    "EmptyInput",
    "Interval",
    "NonIsometricRotation",
    "NormP",
    "PlacedCircle",
    "Point",
    "PointSet",
    "SchemaError",
    "Segment",
    "SolverError",
    "Tolerance",
    "dp_solve",
    "lp_distance",
    "max_empty_binsearch",
    "min_enclosing",
    "point_segment_distance",
    "transform_to_axis",
]
