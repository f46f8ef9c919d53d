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

# Estimated spectral bounds get a 1% safety margin so that the componentwise
# constants (which are exact) can never exceed the global one numerically.
_SPECTRAL_SAFETY = 1.01
# The power iteration stops once the Rayleigh quotient changes by at most
# this fraction of itself.
_TOLERANCE = 1e-6
# The cap on matrix-vector products.
_MAX_ITERATIONS = 10_000


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
    seed: int,
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

    The iteration stops once the Rayleigh quotient changes by at most a
    relative 1e-6, early with an exact answer when the operator annihilates
    the current vector (e.g. the zero matrix), and unconverged after 10 000
    matrix-vector products.
    """
    if dim <= 0:
        raise ConfigurationError(f"operator dimension must be positive, got {dim}")

    gen = seeded_generator(seed, STREAM_POWER)
    v = gen.standard_normal(dim)
    v /= np.linalg.norm(v)

    rayleigh = 0.0
    previous = None
    for k in range(1, _MAX_ITERATIONS + 1):
        w = np.asarray(matvec(v), dtype=float)
        rayleigh = float(np.dot(v, w))
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            # The operator maps v to zero; for a PSD matrix reached from a
            # generic start this means the estimate is exact.
            return SpectralEstimate(value=rayleigh, iterations=k, converged=True)
        if previous is not None and abs(rayleigh - previous) <= _TOLERANCE * max(abs(rayleigh), 1e-30):
            return SpectralEstimate(value=rayleigh, iterations=k, converged=True)
        previous = rayleigh
        v = w / norm_w

    return SpectralEstimate(value=rayleigh, iterations=_MAX_ITERATIONS, converged=False)


def require_converged(estimate: SpectralEstimate) -> float:
    """The largest eigenvalue to build a global Lipschitz bound on.

    Returns ``1.01 * estimate.value``: the estimate with the 1% safety
    margin every global bound carries. Raises :class:`ConfigurationError`
    unless the power iteration converged: an unconverged estimate is only a
    lower bound on the largest eigenvalue, and a global Lipschitz bound
    scaled from it could be too small.
    """
    if not estimate.converged:
        raise ConfigurationError(
            f"the spectral estimate did not converge within {estimate.iterations} "
            f"matvecs (last value {estimate.value:.6e}); it is only a lower bound "
            "and cannot give a global Lipschitz bound"
        )
    return _SPECTRAL_SAFETY * estimate.value
