"""Exact-arithmetic workbench for exceptional collections on classical homogeneous spaces."""

from . import bwb, characters, collections, homcalc, roots
from .roots import *
from .characters import *
from .bwb import *
from .homcalc import *
from .collections import *

__version__ = "0.1.0"

__all__ = sorted({
    name
    for module in (roots, characters, bwb, homcalc, collections)
    for name in module.__all__
})
