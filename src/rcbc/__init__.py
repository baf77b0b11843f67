"""Redundant combinatorial batch codes.

Placements of n files on m servers that serve any batch of k distinct files
from any m - r servers, one file per server, at minimal total storage.
"""

from . import constructions, core, graphs, matrixio, retrieval, search
from .constructions import *
from .core import *
from .graphs import *
from .matrixio import *
from .retrieval import *
from .search import *

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (constructions, core, graphs, matrixio, retrieval, search)
    for name in module.__all__
)
