"""Certified entropy and deviation bounds for countable discrete models.

The pipeline: describe a distribution on the positive integers together
with a verifiable tail certificate, certify an upper estimate of its
fractional power sum, and turn that constant into entropy enclosures,
Bernstein-type deviation bounds, and sample size calculations. A seeded
Monte Carlo harness checks the bounds empirically.
"""

from . import bounds, certify, distributions, errors, montecarlo
from .bounds import *
from .certify import *
from .distributions import *
from .errors import *
from .montecarlo import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *distributions.__all__,
    *certify.__all__,
    *bounds.__all__,
    *montecarlo.__all__,
    *errors.__all__,
]
