"""Grid sets, coordinate X-rays, conic distance fields, and their checkers.

The package models finite unions of axis-aligned grid cells, the
piecewise-quadratic taxicab distance fields they generate, certified
set metrics (Hausdorff, tube areas), executable verifiers for the
quantitative properties of those objects, and reconstruction of a set
from its field by exhaustive search, from its X-ray class, or by
simulated annealing.
"""

from . import checks, conic, errors, grid, metrics, reconstruct
from .checks import *
from .conic import *
from .errors import *
from .grid import *
from .metrics import *
from .reconstruct import *

__version__ = "0.1.0"

__all__ = [
    *grid.__all__,
    *metrics.__all__,
    *conic.__all__,
    *checks.__all__,
    *reconstruct.__all__,
    *errors.__all__,
    "__version__",
]
