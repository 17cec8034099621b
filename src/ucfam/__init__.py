"""Union-closed and simply rooted set families over small ground sets.

Families live as 2^n-bit characteristic vectors, inequalities are evaluated
in exact integer or rational arithmetic, and every counting statement in the
package ships with a runnable check (see ucfam.verify and the ucfam CLI).
Each module's __all__ is its public API, and all of it is re-exported here.
"""
from . import colex, compression, core, enumeration, errors, stability, verify
from .colex import *
from .compression import *
from .core import *
from .enumeration import *
from .errors import *
from .stability import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (colex, compression, core, enumeration, errors, stability, verify)
    for name in module.__all__
]
