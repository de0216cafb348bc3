"""Certified evaluation of zeta-family sums: direct summation with rigorous
truncation bounds, exact closed forms, and fast reciprocal-lattice
transformations.

Each module lists its public names once, in its __all__; the package
re-exports exactly those.
"""

from . import catalog, closed, errors, special, sums, transforms
from .errors import *
from .special import *
from .sums import *
from .closed import *
from .transforms import *
from .catalog import *

__version__ = "0.1.0"

__all__ = (
    errors.__all__ + special.__all__ + sums.__all__
    + closed.__all__ + transforms.__all__ + catalog.__all__
)
