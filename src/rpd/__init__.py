"""Distances, dependence tests, and spectral trainers for word embedding spaces.

Each module lists its own public names in ``__all__``; the package exports
exactly those names, sorted.
"""

from . import errors, evaluation, layout, metric, nullmodel, spectral, store
from .errors import *
from .evaluation import *
from .layout import *
from .metric import *
from .nullmodel import *
from .spectral import *
from .store import *

__version__ = "0.1.0"

__all__ = sorted([*errors.__all__, *evaluation.__all__, *layout.__all__, *metric.__all__,
                  *nullmodel.__all__, *spectral.__all__, *store.__all__])
