"""Load curves as vectors: L2 algebra, dynamism coordinates, tariff billing.

The package treats a power trajectory on [t1, t2] as an element of the
L2 function space, decomposes it into Fourier-based dynamism coordinates,
bills it under flat, spot and dynamism tariffs, and calibrates the
supply-cost characteristic those tariffs should reflect.

The public names are those of each module's own ``__all__``.
"""
from . import calibrate, curve, scenarios, spectrum, tariff
from .curve import *
from .spectrum import *
from .tariff import *
from .calibrate import *
from .scenarios import *

__version__ = "0.1.0"

__all__ = [
    *curve.__all__,
    *spectrum.__all__,
    *tariff.__all__,
    *calibrate.__all__,
    *scenarios.__all__,
    "__version__",
]
