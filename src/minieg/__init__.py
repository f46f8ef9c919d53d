"""Extragradient and single-coordinate mini-extragradient solvers.

Solve monotone nonlinear systems ``F(x) = 0`` over a closed convex set with
a family of projection-type methods whose per-iteration cost ranges from two
full map evaluations (classic extragradient) down to one full plus a couple
of coordinate reads (the mini variants). Ships with benchmark problem
families (regularized logistic regression, sparse recovery via a
complementarity reformulation, affine test maps), an experiment harness with
deterministic seeding, and the ``minieg`` command-line tool.
"""

from .core import (
    BoxProjection,
    ConfigurationError,
    CostLedger,
    EvaluationSession,
    IdentityProjection,
    MonotoneMapping,
    NonnegativeProjection,
    Projection,
    seeded_generator,
    weighted_norm,
)
from .solvers import (
    METHOD_IDS,
    RunResult,
    RunStatus,
    SolverConfig,
    StepObservation,
    StepsizeFailure,
    lipschitz_power_sampler,
    method_display_name,
    run_solver,
)

__version__ = "0.1.0"

__all__ = [
    "BoxProjection",
    "ConfigurationError",
    "CostLedger",
    "EvaluationSession",
    "IdentityProjection",
    "MonotoneMapping",
    "NonnegativeProjection",
    "Projection",
    "seeded_generator",
    "weighted_norm",
    "METHOD_IDS",
    "RunResult",
    "RunStatus",
    "SolverConfig",
    "StepObservation",
    "StepsizeFailure",
    "lipschitz_power_sampler",
    "method_display_name",
    "run_solver",
    "__version__",
]
