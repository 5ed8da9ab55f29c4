"""Exception types shared across the package, and the input rules that
its modules share, each a classmethod of the error it raises.

Every domain error raised by this package derives from :class:`ConicError`
so callers (in particular the command line front end) can catch one base
class and map it to a machine-readable failure.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

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

# the most cells a grid mask or a raster may hold (128 MiB of distances)
_RASTER_CELLS = 1 << 24


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

    @classmethod
    def weight(cls, t) -> Fraction:
        """The combination weight ``t`` (a ``Fraction``, a whole ``(p, q)``
        pair or anything ``Fraction`` parses) as a ``Fraction`` in ``[0, 1]``."""
        try:
            if isinstance(t, Fraction):
                f = t
            elif isinstance(t, tuple) and len(t) == 2:
                f = Fraction(cls.whole(t[0], 0, "expected a whole p >= 0"),
                             cls.whole(t[1], 1, "expected a whole q >= 1"))
            else:
                f = Fraction(t)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise cls(f"bad combination weight {t!r}: {exc}") from None
        if not 0 <= f <= 1:
            raise cls(f"combination weight {t} outside [0, 1]")
        if f.denominator > 1024:
            raise cls(f"weight denominator {f.denominator} too large; pass an exact "
                      "rational such as Fraction(1, 3)")
        return f


class GeometryMismatch(ConicError, ValueError):
    """Two operands live on incompatible grids or reference boxes."""


class EmptySet(ConicError, ValueError):
    """An operation that needs at least one occupied cell got none."""


class CoverageError(ConicError, ValueError):
    """A covering grid does not contain the set it is asked to cover."""


class TooLarge(ConicError, ValueError):
    """An exhaustive operation was requested on a grid beyond its guard."""

    @classmethod
    def raster(cls, cols, rows) -> None:
        """Raise unless a ``cols`` by ``rows`` raster fits.  The sizes are
        ints or floats; one beyond float range counts as inf, and so does a
        product that overflows."""
        cols, rows = (float(v) if v <= sys.float_info.max else math.inf for v in (cols, rows))
        cells = cols * rows
        if not (math.isfinite(cells) and cells <= _RASTER_CELLS):
            raise cls(f"a {cols:.3g} x {rows:.3g} raster exceeds {_RASTER_CELLS} cells")


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
