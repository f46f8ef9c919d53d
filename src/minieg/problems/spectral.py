"""Largest-eigenvalue estimation for symmetric PSD operators.

Problem builders need an upper bound on the spectral norm of a Gram-type
matrix to derive global Lipschitz constants. A plain power iteration with a
Rayleigh-quotient stopping rule is enough: the operators involved are
symmetric positive semidefinite, so the dominant eigenvalue is real and the
quotient converges monotonically from below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core import ConfigurationError, STREAM_POWER, seeded_generator

__all__ = ["SpectralEstimate", "estimate_lambda_max", "require_converged"]


@dataclass(frozen=True)
class SpectralEstimate:
    """Result of a power-iteration run.

    ``converged`` is False when the iteration cap was hit before the Rayleigh
    quotient stabilized; ``value`` is then the best estimate so far and
    callers should treat it as a lower bound.
    """

    value: float
    iterations: int
    converged: bool


def estimate_lambda_max(
    matvec: Callable[[np.ndarray], np.ndarray],
    dim: int,
    *,
    seed: int = 0,
    tol: float = 1e-6,
    max_iterations: int = 10_000,
) -> SpectralEstimate:
    """Estimate the largest eigenvalue of a symmetric PSD operator.

    Parameters
    ----------
    matvec:
        Callable computing ``A @ v`` for the symmetric PSD matrix ``A``.
    dim:
        Ambient dimension of the operator.
    seed:
        Seeds the random start vector (its own stream, so reusing a solver
        seed here cannot correlate the draws).
    tol:
        Relative change in the Rayleigh quotient below which the iteration
        stops.

    Stops early with an exact answer when the operator annihilates the
    current vector (e.g. the zero matrix).
    """
    if dim <= 0:
        raise ConfigurationError(f"operator dimension must be positive, got {dim}")
    if tol <= 0:
        raise ConfigurationError(f"tolerance must be positive, got {tol}")
    if max_iterations < 1:
        raise ConfigurationError("max_iterations must be at least 1")

    gen = seeded_generator(seed, STREAM_POWER)
    v = gen.standard_normal(dim)
    v /= np.linalg.norm(v)

    rayleigh = 0.0
    previous = None
    for k in range(1, max_iterations + 1):
        w = np.asarray(matvec(v), dtype=float)
        rayleigh = float(np.dot(v, w))
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            # The operator maps v to zero; for a PSD matrix reached from a
            # generic start this means the estimate is exact.
            return SpectralEstimate(value=rayleigh, iterations=k, converged=True)
        if previous is not None and abs(rayleigh - previous) <= tol * max(abs(rayleigh), 1e-30):
            return SpectralEstimate(value=rayleigh, iterations=k, converged=True)
        previous = rayleigh
        v = w / norm_w

    return SpectralEstimate(value=rayleigh, iterations=max_iterations, converged=False)


def require_converged(estimate: SpectralEstimate) -> None:
    """Raise :class:`ConfigurationError` unless the power iteration converged.

    An unconverged estimate is only a lower bound on the largest eigenvalue;
    a global Lipschitz bound scaled from it could be too small.
    """
    if not estimate.converged:
        raise ConfigurationError(
            f"the spectral estimate did not converge within {estimate.iterations} "
            f"matvecs (last value {estimate.value:.6e}); it is only a lower bound "
            "and cannot give a global Lipschitz bound"
        )
