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
matrix ``K = A^T A`` (``N x N``, dense). The global constant's eigenvalue
then comes from a dense symmetric eigensolve of ``K``, and a session moved
by a solver's probe or step updates its margins in ``O(N^2)`` instead of
rebuilding them in ``O(nN)``. One rule keeps the rounding of those updates bounded: every 64th
step since the last exact rebuild is rebuilt exactly, and a probe never is
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
    _check_finite,
    _check_sizes,
    _checked_reg,
    seeded_generator,
)
from .spectral import dense_lambda_max, estimate_lambda_max, require_converged

__all__ = ["LogRegProblem", "synthetic_logreg"]

# The default ridge weight reg.
_REG = 0.1


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
        Ridge coefficient, 0.1 by default (must be positive and finite: it
        is what makes the map strongly monotone and the componentwise
        constants nonzero for features that never occur).

    The componentwise Lipschitz constants are ``h_ii / (4N) + reg`` with
    ``h_ii`` the squared Euclidean norm of feature ``i`` across samples; the
    global constant is ``lambda_1(A A^T) / (4N) + reg``, with the eigenvalue
    taken from a dense symmetric eigensolver
    (:func:`~minieg.problems.spectral.dense_lambda_max`) on ``K`` when the
    problem keeps it, and otherwise estimated by power iteration, seeded with
    ``spectral_seed``, over the smaller of the two Gram matrices given as
    products; an iteration that does not converge raises
    :class:`ConfigurationError`. A coordinate read or shift costs one row of
    the feature matrix: ``N`` contiguous entries for dense input, the
    feature's stored entries for sparse input.

    The sample-space Gram matrix ``K = A^T A`` is formed once, as a dense
    ``N x N`` array, when it has fewer entries than ``A`` stores: ``N < n``
    for dense input, ``N * N < nnz`` for sparse input. The global constant
    then reads ``K`` alone, and sessions use it for their step updates.
    Otherwise ``K`` is None and nothing changes.

    Every value error names the argument at fault first, quoted: dense
    ``features`` that are not 2-d, ``features`` that hold a value that is not
    finite or lack a feature or a sample, ``features`` whose squared norms or
    kept ``K`` overflow (the error gives their largest absolute entry),
    ``labels`` that are not 1-d, not all +-1 or not one per sample, or a
    ``reg`` that is not a positive and finite real number.
    """

    def __init__(self, features, labels, *, reg: float = _REG, spectral_seed: int = 0) -> None:
        reg = _checked_reg(reg)
        labels = np.asarray(labels, dtype=float)
        if labels.ndim != 1:
            raise ConfigurationError(f"'labels' must be 1-d, got shape {labels.shape}")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ConfigurationError("'labels' must be +-1")

        # Store feature-major (n, N): column s is sample a_s.
        self._sparse = sp.issparse(features)
        if self._sparse:
            A = sp.csr_matrix(features).T.tocsr()  # a fresh copy, safe to canonicalize
            A.sum_duplicates()  # a shift must move every stored copy of an entry
        else:
            X = np.asarray(features, dtype=float)
            if X.ndim != 2:
                raise ConfigurationError(f"'features' must be 2-d, got shape {X.shape}")
            A = np.array(X.T, order="C")
        _check_finite(features=A.data if self._sparse else A)
        if A.shape[1] != labels.shape[0]:
            raise ConfigurationError(
                f"'labels' holds {labels.shape[0]} entries, but 'features' has {A.shape[1]} rows"
            )

        self._A = A  # (n, N) feature-major
        # (N, n) for margin rebuilds: a transposed view of a dense A, a CSR copy of a sparse one.
        self._At = A.T.tocsr() if self._sparse else A.T
        self._b = labels
        self._reg = reg
        self._n, self._N = A.shape
        if self._n == 0 or self._N == 0:
            raise ConfigurationError("'features' must hold at least one feature and one sample")
        self._nb = -labels  # -b and -b * N, for the sample weights
        self._nb_n = self._nb * self._N

        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
            # Per-feature squared norms.
            if self._sparse:
                h = np.asarray(A.multiply(A).sum(axis=1)).ravel()
            else:
                h = np.einsum("ij,ij->i", A, A)
            # K = A^T A (N x N), kept where it is smaller than A's stored entries.
            self._K = None
            if self._N * self._N < (A.nnz if self._sparse else A.size):
                K = self._At @ A
                self._K = K.toarray() if self._sparse else K
        if not (np.all(np.isfinite(h)) and (self._K is None or np.all(np.isfinite(self._K)))):
            raise ConfigurationError(
                f"'features' are too large: their squared norms or Gram matrix AᵀA overflow "
                f"(largest absolute entry {float(abs(A).max())!r})"
            )
        self._l = h / (4.0 * self._N) + self._reg
        self._spectral_seed = spectral_seed

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

    def _compute_global_lipschitz(self) -> float:
        A, At = self._A, self._At
        # lambda_1(A A^T) == lambda_1(A^T A); work on the smaller side.
        if self._K is not None:
            self.lambda_setup = dense_lambda_max(self._K)
        elif self._N <= self._n:
            self.lambda_setup = estimate_lambda_max(
                lambda v: At @ (A @ v), self._N, seed=self._spectral_seed
            )
        else:
            self.lambda_setup = estimate_lambda_max(
                lambda v: A @ (At @ v), self._n, seed=self._spectral_seed
            )
        return require_converged(self.lambda_setup) / (4.0 * self._N) + self._reg

    def eval_full(self, x: np.ndarray) -> np.ndarray:
        x = self._check_point(x)
        w = _sample_weights(self._At @ x, self._nb, self._nb_n)
        return self._A @ w + self._reg * x

    def open_session(self, x0: np.ndarray, ledger: CostLedger) -> "LogRegSession":
        return LogRegSession(self, x0, ledger)


# A session with a Gram matrix rebuilds its margins exactly at every
# _EXACT_EVERY-th step since the last exact rebuild, so the rounding of the
# O(N^2) updates between them cannot pile up. Probes are not counted: each
# one starts afresh from the anchor's margins, which the next step replaces.
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

    with ``w`` the current sample weights. A probe always takes the update.
    A step takes it only when the projection hands back the candidate
    ``anchor - beta * F`` itself; any other point goes to ``set_point`` and
    is rebuilt exactly. So is every ``_EXACT_EVERY``-th step since the last
    exact rebuild: probes do not count towards it, since each one starts from
    the anchor's margins and the next step leaves it behind.
    """

    _problem: LogRegProblem

    def _open(self) -> None:
        n, N = self._problem.dim, self._problem.n_samples
        self._f = np.empty(n)  # F(x); eval_full hands out copies
        self._ridge = np.empty(n)  # reg * x
        self._z = np.empty(N)  # A^T x
        self._w = np.empty(N)
        self._dz = np.empty(N)  # a shift's or an update's change of z
        self._anchor_z = np.empty(N)  # A^T anchor, read only with a Gram matrix
        self._rebuild()

    def probe(self, scale: float) -> None:
        if self._problem._K is None:
            return super().probe(scale)
        self._update(self._stepped(scale), scale)

    def _commit(self, x: np.ndarray, beta: float) -> None:
        self._steps += 1
        if self._problem._K is None or x is not self._candidate or self._steps == _EXACT_EVERY:
            return self.set_point(x)
        self._update(x, beta)
        np.copyto(self._anchor, self._x)
        np.copyto(self._anchor_z, self._z)
        self._at_anchor = True

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

    def _rebuild(self) -> None:
        p = self._problem
        np.copyto(self._z, p._At @ self._x)
        _sample_weights(self._z, p._nb, p._nb_n, out=self._w)
        np.copyto(self._anchor_z, self._z)
        self._steps = 0  # steps since the last exact rebuild

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
    reg: float = _REG,
) -> LogRegProblem:
    """Generate a dense synthetic classification problem.

    Features are Gaussian, each rescaled into ``[-1, 1]`` (the common
    preprocessing for the microarray-style datasets this mimics) and
    multiplied by its scale ``exp(scale_spread * g)``, ``g`` a standard
    normal draw: one division by ``peak / scale``. So ``scale_spread = 0``
    gives homogeneous features, and a positive one spreads the componentwise
    constants. Labels are sampled from the logistic model of a random dense
    weight vector. A ``seed`` that is not an integer in ``[0, 2**64)``
    raises :class:`ConfigurationError`, and so does a size that is not an
    integer, or is a bool, naming it.
    """
    _check_sizes(n_features=n_features, n_samples=n_samples)
    if n_features < 1 or n_samples < 1:
        raise ConfigurationError("need at least one feature and one sample")
    gen = seeded_generator(seed, STREAM_INSTANCE)
    X = gen.standard_normal((n_samples, n_features))
    peaks = np.abs(X).max(axis=0)
    peaks[peaks == 0] = 1.0
    if scale_spread:
        peaks /= np.exp(scale_spread * gen.standard_normal(n_features))
    X /= peaks
    truth = gen.standard_normal(n_features) / np.sqrt(n_features)
    margins = X @ truth
    labels = np.where(gen.random(n_samples) < expit(margins), 1.0, -1.0)
    return LogRegProblem(X, labels, reg=reg, spectral_seed=seed)
