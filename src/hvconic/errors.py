"""Exception types shared across the package.

Every domain error raised by this package derives from :class:`ConicError`
so callers (in particular the command line front end) can catch one base
class and map it to a machine-readable failure.
"""

from __future__ import annotations

__all__ = [
    "ConicError",
    "InvalidParameter",
    "GeometryMismatch",
    "EmptySet",
    "CoverageError",
    "TooLarge",
    "ZeroMass",
    "PreconditionViolated",
    "NonSimpleChain",
    "FormatError",
]


class ConicError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidParameter(ConicError, ValueError):
    """A numeric or structural argument is outside its documented range."""

    @classmethod
    def whole(cls, value, least: int, message: str) -> int:
        """``int(value)`` of a whole number ``value >= least``, which may be
        an integral float such as ``4.0``; anything else, NaN and inf
        included, raises with ``message``."""
        if not (value >= least and value % 1 == 0):
            raise cls(message)
        return int(value)


class GeometryMismatch(ConicError, ValueError):
    """Two operands live on incompatible grids or reference boxes."""


class EmptySet(ConicError, ValueError):
    """An operation that needs at least one occupied cell got none."""


class CoverageError(ConicError, ValueError):
    """A covering grid does not contain the set it is asked to cover."""


class TooLarge(ConicError, ValueError):
    """An exhaustive operation was requested on a grid beyond its guard."""


class ZeroMass(ConicError, ValueError):
    """A weighted field would divide by a vanishing total mass."""


class PreconditionViolated(ConicError, ValueError):
    """A checker refused to run because its hypotheses do not hold."""


class NonSimpleChain(ConicError, ValueError):
    """A polyline intersects itself and cannot be used as a simple chain."""


class FormatError(ConicError, ValueError):
    """A text payload does not follow one of the documented file formats."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
