"""Early exercise boundary of the zero-dividend American put.

Five closed-form near-expiry approximations, a closed integral formula with
its convexity analysis, a sequential solver for the governing nonlinear
integral equation, a finite-difference benchmark, and the closed
normal-CDF price-gap integral that turns boundary differences into option
mispricing numbers.  The package exports exactly its modules' __all__.
"""

from .core import *
from .asymptotics import *
from .zhu import *
from .ssch import *
from .psor import *
from .pricing import *

__version__ = "0.1.0"
