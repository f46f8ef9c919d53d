"""Extragradient and single-coordinate mini-extragradient solvers.

Solve monotone nonlinear systems ``F(x) = 0`` over a closed convex set with
a family of projection-type methods whose per-iteration cost ranges from two
full map evaluations (classic extragradient) down to one full plus a couple
of coordinate reads (the mini variants). Ships with benchmark problem
families (regularized logistic regression, sparse recovery via a
complementarity reformulation, affine test maps), an experiment harness with
deterministic seeding, and the ``minieg`` command-line tool.
"""

# Each public name is declared once, in the ``__all__`` of the module that defines it.
from . import core, solvers
from .core import *
from .solvers import *

__version__ = "0.1.0"

__all__ = [*core.__all__, *solvers.__all__, "__version__"]
