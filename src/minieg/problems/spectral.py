"""Largest eigenvalue of symmetric PSD operators, for global Lipschitz bounds.

Problem builders need an upper bound on the spectral norm of a Gram-type
matrix to derive global Lipschitz constants. Where the problem holds that
Gram matrix explicitly, :func:`dense_lambda_max` takes the eigenvalue from
LAPACK's symmetric eigensolver: forming the matrix already cost its side
cubed, the solver costs about as much again in BLAS, and its value is
correct to rounding, so the 1% margin of :func:`require_converged` covers it.
Where the operator is given only as products, :func:`estimate_lambda_max`
runs a power iteration with a Rayleigh-quotient stopping rule: the operators
are symmetric positive semidefinite, so the quotient converges from below,
but its stopping rule bounds no error, so the value can lie further below
the eigenvalue than its 1e-6 relative tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core import ConfigurationError, STREAM_POWER, _check_sizes, seeded_generator

__all__ = ["SpectralEstimate", "dense_lambda_max", "estimate_lambda_max", "require_converged"]

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
    """Result of a power-iteration run, or of a dense eigensolve.

    A dense eigensolve makes no product: ``iterations`` is 0, and
    ``converged`` is False only for a matrix that is not finite, whose
    ``value`` is then not finite either (see :func:`dense_lambda_max`).
    For a power iteration, ``converged`` is False when the iteration cap
    was hit before the Rayleigh quotient stabilized; ``value`` is then the
    best estimate so far and callers should treat it as a lower bound. It is
    False too when a product's quotient or norm is not finite (a NaN, or an
    overflow); the run stops at that product and ``value`` is the quotient,
    or the norm when the quotient is finite, so it is not finite either.
    """

    value: float
    iterations: int
    converged: bool


def dense_lambda_max(gram: np.ndarray) -> SpectralEstimate:
    """The largest eigenvalue of the explicit symmetric PSD matrix ``gram``.

    LAPACK's symmetric eigensolver (``numpy.linalg.eigvalsh``) reads the
    lower triangle and returns the eigenvalue to rounding, with
    ``iterations=0``. A ``gram`` holding a value that is not finite gives
    ``converged=False`` with its largest absolute entry (inf, or NaN) as the
    value, which :func:`require_converged` rejects as not finite.
    """
    if not np.all(np.isfinite(gram)):
        return SpectralEstimate(value=float(np.max(np.abs(gram))), iterations=0, converged=False)
    return SpectralEstimate(value=float(np.linalg.eigvalsh(gram)[-1]), iterations=0, converged=True)


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
        Ambient dimension of the operator: a positive integer.
    seed:
        Seeds the random start vector (its own stream, so reusing a solver
        seed here cannot correlate the draws).

    The iteration stops once the Rayleigh quotient changes by at most a
    relative 1e-6, early with an exact answer when the operator annihilates
    the current vector (e.g. the zero matrix), and unconverged at the first
    product whose quotient or norm is not finite or after 10 000
    matrix-vector products.
    """
    _check_sizes(dim=dim)
    if dim <= 0:
        raise ConfigurationError(f"operator dimension must be positive, got {dim}")

    gen = seeded_generator(seed, STREAM_POWER)
    v = gen.standard_normal(dim)
    v /= _norm(v)

    rayleigh = 0.0
    previous = None
    for k in range(1, _MAX_ITERATIONS + 1):
        w = np.asarray(matvec(v), dtype=float)
        rayleigh = float(np.dot(v, w))
        norm_w = _norm(w)
        if not (math.isfinite(rayleigh) and math.isfinite(norm_w)):
            value = norm_w if math.isfinite(rayleigh) else rayleigh
            return SpectralEstimate(value=value, iterations=k, converged=False)
        if norm_w == 0.0:
            # The operator maps v to zero; for a PSD matrix reached from a
            # generic start this means the estimate is exact.
            return SpectralEstimate(value=rayleigh, iterations=k, converged=True)
        if previous is not None and abs(rayleigh - previous) <= _TOLERANCE * max(abs(rayleigh), 1e-30):
            return SpectralEstimate(value=rayleigh, iterations=k, converged=True)
        previous = rayleigh
        np.divide(w, norm_w, out=v)  # the bits of w / norm_w, in the iterate's own buffer

    return SpectralEstimate(value=rayleigh, iterations=_MAX_ITERATIONS, converged=False)


def _norm(v: np.ndarray) -> float:
    """The Euclidean norm of the real vector ``v``, with the bits of
    ``np.linalg.norm(v)``, which numpy computes as ``sqrt(v.dot(v))`` too,
    with more overhead."""
    return math.sqrt(float(np.dot(v, v)))


def require_converged(estimate: SpectralEstimate) -> float:
    """The largest eigenvalue to build a global Lipschitz bound on.

    Returns ``1.01 * estimate.value``: the estimate with the 1% safety
    margin every global bound carries. Raises :class:`ConfigurationError`
    unless the estimate converged: an estimate that is not finite
    bounds nothing, and an unconverged one is only a lower bound on the
    largest eigenvalue, so a global Lipschitz bound scaled from it could be
    too small.
    """
    if not math.isfinite(estimate.value):
        raise ConfigurationError(
            f"the spectral estimate is not finite ({estimate.value}) after "
            f"{estimate.iterations} matvecs: the operator, or a product of it, overflowed "
            "or holds a NaN, so it cannot give a global Lipschitz bound"
        )
    if not estimate.converged:
        raise ConfigurationError(
            f"the spectral estimate did not converge within {estimate.iterations} "
            f"matvecs (last value {estimate.value:.6e}); it is only a lower bound "
            "and cannot give a global Lipschitz bound"
        )
    return _SPECTRAL_SAFETY * estimate.value
