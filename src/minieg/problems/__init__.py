"""Benchmark problem families exposing the monotone-mapping contract."""

# Each public name is declared once, in the ``__all__`` of the module that defines it.
from . import affine, lasso, libsvm, logreg, spectral
from .affine import *
from .lasso import *
from .libsvm import *
from .logreg import *
from .spectral import *

__all__ = [*affine.__all__, *lasso.__all__, *libsvm.__all__, *logreg.__all__, *spectral.__all__]
