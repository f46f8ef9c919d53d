"""Regularized logistic regression as a monotone nonlinear system.

The map is the gradient of the (strongly convex) regularized log-loss

    F(x) = (1/N) * sum_s  -b_s * sigmoid(-b_s <a_s, x>) * a_s  +  reg * x,

so its roots are the training optima. Sessions cache the per-sample margins
``m_s = b_s <a_s, x>``; a single-coordinate move touches only the samples in
which that feature occurs.

The features are stored feature-major, one row per feature, in the layout
the input arrived in. Dense input becomes one C-contiguous ``(n, N)`` array:
full evaluations and margin rebuilds are BLAS products, and a coordinate
read or shift walks one contiguous row of ``N`` entries. Scipy-sparse input
becomes CSR: products run scipy's sparse kernels, and a coordinate read or
shift touches only the row's stored entries.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from ..core import (
    ConfigurationError,
    CostLedger,
    EvaluationSession,
    MonotoneMapping,
    STREAM_INSTANCE,
    seeded_generator,
)
from .spectral import estimate_lambda_max, require_converged

__all__ = ["LogRegProblem", "synthetic_logreg"]

# Estimated spectral bounds get a 1% safety margin so that the componentwise
# constants (which are exact) can never exceed the global one numerically.
_SPECTRAL_SAFETY = 1.01


class LogRegProblem(MonotoneMapping):
    """Gradient map of L2-regularized logistic regression.

    Parameters
    ----------
    features:
        ``(N, n)`` sample-major design matrix, dense or scipy sparse. The
        input type picks the storage: a dense array is kept as one
        C-contiguous feature-major ``ndarray``, scipy-sparse input as CSR.
    labels:
        ``(N,)`` vector of +-1 labels.
    reg:
        Ridge coefficient (must be positive and finite: it is what makes the
        map strongly monotone and the componentwise constants nonzero for
        features that never occur).

    The componentwise Lipschitz constants are ``h_ii / (4N) + reg`` with
    ``h_ii`` the squared Euclidean norm of feature ``i`` across samples; the
    global constant ``lambda_1(A A^T) / (4N) + reg`` is estimated by power
    iteration over the smaller of the two Gram matrices, and an iteration
    that does not converge raises :class:`ConfigurationError`. A coordinate read
    or shift costs one row of the feature matrix: ``N`` contiguous entries
    for dense input, the feature's stored entries for sparse input.
    """

    def __init__(self, features, labels, *, reg: float = 0.1, spectral_seed: int = 0) -> None:
        if not (np.isfinite(reg) and reg > 0):
            raise ConfigurationError(f"reg must be positive and finite, got {reg}")
        labels = np.asarray(labels, dtype=float).ravel()
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ConfigurationError("labels must be +-1")

        # Store feature-major (n, N): column s is sample a_s.
        self._sparse = sp.issparse(features)
        if self._sparse:
            A = sp.csr_matrix(features).T.tocsr()  # a fresh copy, safe to canonicalize
            A.sum_duplicates()  # a shift must move every stored copy of an entry
            finite = np.all(np.isfinite(A.data))
        else:
            X = np.asarray(features, dtype=float)
            if X.ndim != 2:
                raise ConfigurationError(f"features must be 2-d, got shape {X.shape}")
            A = np.array(X.T, order="C")
            finite = np.all(np.isfinite(A))
        if not finite:
            raise ConfigurationError("features must be finite")
        if A.shape[1] != labels.shape[0]:
            raise ConfigurationError(
                f"feature matrix has {A.shape[1]} samples but there are {labels.shape[0]} labels"
            )

        self._A = A  # (n, N) feature-major
        # (N, n) for margin rebuilds: a transposed view of a dense A, a CSR copy of a sparse one.
        self._At = A.T.tocsr() if self._sparse else A.T
        self._b = labels
        self._reg = float(reg)
        self._n, self._N = A.shape
        if self._n == 0 or self._N == 0:
            raise ConfigurationError("need at least one feature and one sample")

        # Per-feature squared norms.
        if self._sparse:
            h = np.asarray(A.multiply(A).sum(axis=1)).ravel()
        else:
            h = np.einsum("ij,ij->i", A, A)
        self._l = h / (4.0 * self._N) + self._reg
        self._spectral_seed = spectral_seed
        self._global_lipschitz: float | None = None
        self.lambda_setup = None  # SpectralEstimate once computed

    # -- contract ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self._n

    @property
    def n_samples(self) -> int:
        return self._N

    @property
    def reg(self) -> float:
        return self._reg

    @property
    def componentwise_lipschitz(self) -> np.ndarray:
        return self._l

    def ensure_global_lipschitz(self) -> float:
        if self._global_lipschitz is None:
            A, At = self._A, self._At
            # lambda_1(A A^T) == lambda_1(A^T A); iterate over the smaller side.
            if self._N <= self._n:
                matvec = lambda v: At @ (A @ v)
                dim = self._N
            else:
                matvec = lambda v: A @ (At @ v)
                dim = self._n
            est = estimate_lambda_max(matvec, dim, seed=self._spectral_seed)
            self.lambda_setup = est
            require_converged(est)
            self._global_lipschitz = (
                _SPECTRAL_SAFETY * est.value / (4.0 * self._N) + self._reg
            )
        return self._global_lipschitz

    def eval_full(self, x: np.ndarray) -> np.ndarray:
        x = self._check_point(x)
        m = self._b * (self._At @ x)
        w = -self._b * expit(-m) / self._N
        return self._A @ w + self._reg * x

    def open_session(self, x0: np.ndarray, ledger: CostLedger) -> "LogRegSession":
        return LogRegSession(self, x0, ledger)


_ALL_SAMPLES = slice(None)


class LogRegSession(EvaluationSession):
    """Caches margins and sample weights; coordinate moves cost one feature row."""

    _problem: LogRegProblem

    def __init__(self, problem: LogRegProblem, x0: np.ndarray, ledger: CostLedger) -> None:
        self._f = np.empty(problem.dim)  # F(x); eval_full hands out copies
        self._ridge = np.empty(problem.dim)  # reg * x
        super().__init__(problem, x0, ledger)

    def _row(self, i: int):
        """Feature ``i`` as ``(sample indices, values)``; the indices are a slice when dense."""
        A = self._problem._A
        if not self._problem._sparse:
            return _ALL_SAMPLES, A[i]
        lo, hi = A.indptr[i], A.indptr[i + 1]
        return A.indices[lo:hi], A.data[lo:hi]

    def _rebuild(self) -> None:
        p = self._problem
        self._m = p._b * (p._At @ self._x)
        self._w = -p._b * expit(-self._m) / p._N

    def _shift(self, i: int, delta: float) -> None:
        p = self._problem
        idx, values = self._row(i)
        if values.size == 0:
            return
        b_idx = p._b[idx]
        self._m[idx] += b_idx * values * delta
        self._w[idx] = -b_idx * expit(-self._m[idx]) / p._N

    def _compute_full(self) -> np.ndarray:
        p = self._problem
        np.multiply(p._reg, self._x, out=self._ridge)
        # A sparse product cannot write into a buffer; a dense one can.
        product = p._A @ self._w if p._sparse else np.matmul(p._A, self._w, out=self._f)
        return np.add(product, self._ridge, out=self._f)

    def _compute_component(self, i: int) -> float:
        p = self._problem
        idx, values = self._row(i)
        acc = float(np.dot(values, self._w[idx]))
        return acc + p._reg * float(self._x[i])


def synthetic_logreg(
    n_features: int,
    n_samples: int,
    *,
    seed: int = 0,
    scale_spread: float = 0.0,
    normalize: bool = True,
    reg: float = 0.1,
) -> LogRegProblem:
    """Generate a dense synthetic classification problem.

    Features are Gaussian with per-feature scales ``exp(scale_spread * g)``
    (``scale_spread = 0`` gives homogeneous columns); with ``normalize`` every
    feature is rescaled into ``[-1, 1]``, the common preprocessing for the
    microarray-style datasets this mimics. Labels are sampled from the
    logistic model of a random dense weight vector.
    """
    if n_features < 1 or n_samples < 1:
        raise ConfigurationError("need at least one feature and one sample")
    gen = seeded_generator(seed, STREAM_INSTANCE)
    X = gen.standard_normal((n_samples, n_features))
    if scale_spread:
        X *= np.exp(scale_spread * gen.standard_normal(n_features))
    if normalize:
        peaks = np.abs(X).max(axis=0)
        peaks[peaks == 0] = 1.0
        X /= peaks
    truth = gen.standard_normal(n_features) / np.sqrt(n_features)
    margins = X @ truth
    labels = np.where(gen.random(n_samples) < expit(margins), 1.0, -1.0)
    return LogRegProblem(X, labels, reg=reg, spectral_seed=seed)
