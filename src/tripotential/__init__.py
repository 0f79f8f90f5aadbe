"""Potentials of a uniformly charged triangle and their extreme points."""

from . import center, errors, estimates, geometry, potential, riesz
from .errors import *
from .geometry import *
from .potential import *
from .center import *
from .estimates import *
from .riesz import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__, *geometry.__all__, *potential.__all__,
    *center.__all__, *estimates.__all__, *riesz.__all__,
]
