"""Exception types raised by the solvers and the CLI."""


class SolverError(Exception):
    """Base class for all solver-level failures."""


class EmptyInput(SolverError):
    """A solver was called with zero obstacles or zero points."""


class NonIsometricRotation(SolverError):
    """The constraint segment is diagonal and the norm is not L_2.

    Rotating the plane preserves L_p distances only for p = 2, so a
    diagonal constraint under any other norm cannot be mapped onto the
    horizontal axis without changing the problem. Axis-parallel
    constraints are fine for every p (translation plus quarter-turn
    rotations permute coordinates and flip signs, which every L_p norm
    ignores).
    """


class TooLarge(SolverError):
    """An exhaustive oracle was asked to enumerate beyond its caps.

    Raised and caught only inside lineplace.verify.
    """


class SchemaError(SolverError):
    """An instance file failed validation; the message names the field."""
