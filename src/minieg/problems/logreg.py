"""Regularized logistic regression as a monotone nonlinear system.

The map is the gradient of the (strongly convex) regularized log-loss

    F(x) = (1/N) * sum_s  -b_s * sigmoid(-b_s <a_s, x>) * a_s  +  reg * x,

so its roots are the training optima. Sessions cache the unsigned
per-sample margins ``z_s = <a_s, x>``; a single-coordinate move touches only
the samples in which that feature occurs. The labels are +-1, so the signed
margins ``b_s z_s`` and every weight built from them come out exactly as if
those were cached.

The features are stored feature-major, one row per feature, in the layout
the input arrived in. Dense input becomes one C-contiguous ``(n, N)`` array:
full evaluations and margin rebuilds are BLAS products, and a coordinate
read or shift walks one contiguous row of ``N`` entries. Scipy-sparse input
becomes CSR: products run scipy's sparse kernels, and a coordinate read or
shift touches only the row's stored entries.

With fewer samples than the design stores entries per sample (``N < n``
dense, ``N * N < nnz`` sparse), the problem also keeps the sample-space Gram
matrix ``K = A^T A`` (``N x N``, dense). The power iteration behind the
global constant then runs on ``K``, and a session moved by a solver step
updates its margins in ``O(N^2)`` instead of rebuilding them in ``O(nN)``
(see :class:`LogRegSession`).
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
    _is_real,
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

    The sample-space Gram matrix ``K = A^T A`` is formed once, as a dense
    ``N x N`` array, when it has fewer entries than ``A`` stores: ``N < n``
    for dense input, ``N * N < nnz`` for sparse input. The power iteration
    then multiplies by ``K`` alone, and sessions use it for their step
    updates. Otherwise ``K`` is None and nothing changes.
    """

    def __init__(self, features, labels, *, reg: float = 0.1, spectral_seed: int = 0) -> None:
        if not (_is_real(reg) and np.isfinite(reg) and reg > 0):
            raise ConfigurationError(f"reg must be a positive and finite real number, got {reg!r}")
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
        self._nb = -labels  # -b and -b * N, for the sample weights
        self._nb_n = self._nb * self._N

        # Per-feature squared norms.
        if self._sparse:
            h = np.asarray(A.multiply(A).sum(axis=1)).ravel()
        else:
            h = np.einsum("ij,ij->i", A, A)
        self._l = h / (4.0 * self._N) + self._reg
        # K = A^T A (N x N), kept where it is smaller than A's stored entries.
        self._K = None
        if self._N * self._N < (A.nnz if self._sparse else A.size):
            K = self._At @ A
            self._K = K.toarray() if self._sparse else K
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
            if self._K is not None:
                matvec = self._K.__matmul__
                dim = self._N
            elif self._N <= self._n:
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
        w = _sample_weights(self._At @ x, self._nb, self._nb_n)
        return self._A @ w + self._reg * x

    def open_session(self, x0: np.ndarray, ledger: CostLedger) -> "LogRegSession":
        return LogRegSession(self, x0, ledger)


# A session with a Gram matrix rebuilds its margins exactly at every
# _EXACT_EVERY-th update in a row, probe or step, so the rounding of the
# O(N^2) updates between them cannot pile up.
_EXACT_EVERY = 64


def _sample_weights(z, nb, nb_n, out=None):
    """The sample weights ``w = -b * expit(-b * z) / N``, given ``nb = -b`` and ``nb_n = -b * N``.

    The labels are +-1, so ``-b * z`` is exact and dividing by ``-b * N``
    flips the sign of a correctly rounded quotient: the result has the bits
    of ``-b * expit(-m) / N`` with ``m = b * z``.
    """
    w = np.multiply(nb, z, out=out)
    expit(w, out=w)
    return np.divide(w, nb_n, out=w)


class LogRegSession(EvaluationSession):
    """Caches margins and sample weights; coordinate moves cost one feature row.

    The session keeps the unsigned margins ``z = A^T x`` and the weights
    ``w = -b * expit(-b * z) / N``. The labels are +-1, so ``b * z``,
    ``-b * z`` and ``b * (v * delta)`` are exact and rounding is symmetric in
    sign: the weights, ``F`` and every trace have the bits they would have
    with signed margins ``m = b * z`` cached instead.

    When the problem keeps ``K = A^T A``, the session also keeps the margins
    of its anchor, and its probe and step update the margins in ``O(N^2)``
    along the move ``x = anchor - s * F(current)`` they make:

        z(x) = z(anchor) - s * (K w + reg * z(current)),

    with ``w`` the current sample weights. A step takes the update only when
    the projection hands back the candidate ``anchor - beta * F`` itself;
    any other point goes to ``set_point`` and is rebuilt exactly. So is every
    ``_EXACT_EVERY``-th update in a row, probes included. A probe rebuilt
    that way loses the anchor's margins, so the step after it is rebuilt
    exactly as well.
    """

    _problem: LogRegProblem

    def __init__(self, problem: LogRegProblem, x0: np.ndarray, ledger: CostLedger) -> None:
        n, N = problem.dim, problem.n_samples
        self._f = np.empty(n)  # F(x); eval_full hands out copies
        self._ridge = np.empty(n)  # reg * x
        self._z = np.empty(N)  # A^T x
        self._w = np.empty(N)
        self._dz = np.empty(N)  # a shift's or an update's change of z
        self._anchor_z = np.empty(N)  # A^T anchor, read only with a Gram matrix
        super().__init__(problem, x0, ledger)

    def probe(self, scale: float) -> None:
        if self._gram_due():
            self._update(self._stepped(scale), scale)
        else:
            super().probe(scale)
            # y's rebuild overwrote the anchor's margins: the next move rebuilds too.
            self._updates = _EXACT_EVERY - 1

    def _commit(self, x: np.ndarray, beta: float) -> None:
        if x is not self._candidate or not self._gram_due():
            return self.set_point(x)
        self._update(x, beta)
        np.copyto(self._anchor, self._x)
        np.copyto(self._anchor_z, self._z)
        self._at_anchor = True

    def _gram_due(self) -> bool:
        """Whether the next move takes the Gram update rather than an exact rebuild."""
        return self._problem._K is not None and self._updates < _EXACT_EVERY - 1

    def _update(self, x: np.ndarray, step: float) -> None:
        """Move to ``x = anchor - step * F(current)``, updating the margins through ``K``."""
        p = self._problem
        self._full, self._at_anchor = None, False
        np.copyto(self._x, x)
        change = np.matmul(p._K, self._w, out=self._dz)
        # reg * z(current) can take z's buffer: z(x) overwrites it next.
        np.add(change, np.multiply(self._z, p._reg, out=self._z), out=change)
        np.multiply(change, step, out=change)
        np.subtract(self._anchor_z, change, out=self._z)
        _sample_weights(self._z, p._nb, p._nb_n, out=self._w)
        self._updates += 1

    def _rebuild(self) -> None:
        p = self._problem
        np.copyto(self._z, p._At @ self._x)
        _sample_weights(self._z, p._nb, p._nb_n, out=self._w)
        np.copyto(self._anchor_z, self._z)
        self._updates = 0  # Gram updates since the last exact rebuild

    # A dense row spans every sample, so a dense shift or read works on whole
    # buffers; a sparse one gathers the row's samples.

    def _shift(self, i: int, delta: float) -> None:
        p, A = self._problem, self._problem._A
        if not p._sparse:
            np.add(self._z, np.multiply(A[i], delta, out=self._dz), out=self._z)
            _sample_weights(self._z, p._nb, p._nb_n, out=self._w)
            return
        lo, hi = A.indptr[i], A.indptr[i + 1]
        idx = A.indices[lo:hi]
        z = self._z[idx] + A.data[lo:hi] * delta
        self._z[idx] = z
        self._w[idx] = _sample_weights(z, p._nb[idx], p._nb_n[idx], out=z)

    def _compute_full(self) -> np.ndarray:
        p = self._problem
        np.multiply(p._reg, self._x, out=self._ridge)
        # A sparse product cannot write into a buffer; a dense one can.
        product = p._A @ self._w if p._sparse else np.matmul(p._A, self._w, out=self._f)
        return np.add(product, self._ridge, out=self._f)

    def _compute_component(self, i: int) -> float:
        p, A = self._problem, self._problem._A
        if not p._sparse:
            return float(np.dot(A[i], self._w)) + p._reg * self._x.item(i)
        lo, hi = A.indptr[i], A.indptr[i + 1]
        return float(np.dot(A.data[lo:hi], self._w[A.indices[lo:hi]])) + p._reg * self._x.item(i)


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
