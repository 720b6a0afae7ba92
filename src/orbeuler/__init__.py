"""Exact certificates for orbifold Euler numbers of complex surface pairs.

The library evaluates local orbifold Euler numbers of surface pair germs
(ordinary points, cyclic and star-shaped quotients, reduced germs via
Milnor/Tjurina numbers), assembles the global orbifold Euler number of a
projective pair, and certifies the Bogomolov-Miyaoka-Yau style inequalities
together with their plane-curve and general-type applications.  All
arithmetic is exact over the rationals.
"""

# Each module's __all__ is the public interface it contributes.
from .rationals import *
from .local import *
from .germs import *
from .pairs import *
from .applications import *

__version__ = "0.1.0"
