"""Sparse recovery (LASSO) as a nonlinear complementarity system.

The l1-regularized least-squares problem

    min_x  0.5 * ||A x - b||^2 + reg * ||x||_1

is rewritten with the positive/negative split ``x = u - v``, ``u, v >= 0``,
whose KKT conditions form the complementarity system

    z >= 0,   H z + c >= 0,   z . (H z + c) = 0,       z = [u; v],

with ``H = [[B, -B], [-B, B]]``, ``B = A^T A`` and
``c = reg * 1 + [-A^T b; +A^T b]``. Solving it is equivalent to finding a
root of the monotone, nonsmooth map

    F(z) = min(z, H z + c)

over the nonnegative orthant, which is what the solvers here consume.

Sessions exploit the rank structure: ``H z = [g; -g]`` with ``g = B (u - v)``,
so a full evaluation needs two sensing-matrix products, a coordinate read is
O(1), and a coordinate shift updates ``g`` with a single cached Gram row.
"""

from __future__ import annotations

import math
import zipfile
from dataclasses import dataclass

import numpy as np

from ..core import (
    ConfigurationError,
    CostLedger,
    EvaluationSession,
    MonotoneMapping,
    NonnegativeProjection,
    Projection,
    STREAM_INSTANCE,
    _is_real,
    seeded_generator,
)
from .spectral import estimate_lambda_max, require_converged

__all__ = [
    "CSProblem",
    "CSInstanceMeta",
    "build_cs_instance",
    "save_instance",
    "load_instance",
]

_FORMAT_TAG = "minieg-cs-v1"
# The dtype kinds a member of the format may hold, by what it holds.
_DTYPE_KINDS = {"text": "U", "real": "iuf", "integer": "iu"}


@dataclass(frozen=True)
class CSInstanceMeta:
    """Generation record for a synthetic instance (None fields for real data)."""

    n: int
    n_measurements: int
    sparsity: int | None
    snr_db: float | None
    realized_snr_db: float | None
    seed: int | None


class CSProblem(MonotoneMapping):
    """Complementarity form of l1-regularized least squares.

    The ambient dimension is ``2n`` (positive and negative parts); the
    feasible region is the nonnegative orthant. Componentwise Lipschitz
    constants are ``max(diag(A^T A), 1)`` duplicated across both halves --
    the slope of ``min(z_i, (Hz+c)_i)`` along ``e_i`` is either 1 or
    ``H_ii``. The global constant scales the estimated spectral norm of
    ``H`` by ``sqrt(2n)`` to cover the nonsmooth min(); a power iteration
    that does not converge raises :class:`ConfigurationError`.
    """

    def __init__(
        self,
        sensing,
        measurements,
        *,
        reg: float | None = None,
        x_true: np.ndarray | None = None,
        meta: CSInstanceMeta | None = None,
        spectral_seed: int = 0,
    ) -> None:
        A = np.array(sensing, dtype=float)
        b = np.array(measurements, dtype=float).ravel()
        if A.ndim != 2:
            raise ConfigurationError(f"sensing matrix must be 2-d, got shape {A.shape}")
        if A.shape[0] != b.shape[0]:
            raise ConfigurationError(
                f"sensing matrix has {A.shape[0]} rows but rhs has {b.shape[0]} entries"
            )
        n = A.shape[1]
        if n == 0:
            raise ConfigurationError("sensing matrix needs at least one column")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ConfigurationError("sensing matrix and measurements must be finite")

        self._A = A
        self._b = b
        self._n_signal = n
        self._G = A.T @ A                      # Gram matrix, cached for row shifts
        atb = A.T @ b
        if reg is None:
            reg = 0.1 * float(np.abs(atb).max())
        if not (_is_real(reg) and np.isfinite(reg) and reg > 0):
            raise ConfigurationError(f"reg must be a positive and finite real number, got {reg!r}")
        self._reg = float(reg)
        self._c_top = self._reg - atb          # (Hz+c) upper half offset
        self._c_bot = self._reg + atb          # lower half offset

        h = np.maximum(np.diag(self._G), 1.0)
        self._l = np.concatenate([h, h])
        self._spectral_seed = spectral_seed

        self.x_true = None if x_true is None else np.array(x_true, dtype=float)
        self.meta = meta

    # -- contract ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return 2 * self._n_signal

    @property
    def n_signal(self) -> int:
        return self._n_signal

    @property
    def sensing(self) -> np.ndarray:
        return self._A

    @property
    def measurements(self) -> np.ndarray:
        return self._b

    @property
    def reg(self) -> float:
        return self._reg

    @property
    def componentwise_lipschitz(self) -> np.ndarray:
        return self._l

    @property
    def projection(self) -> Projection:
        return NonnegativeProjection()

    def _compute_global_lipschitz(self) -> float:
        self.lambda_setup = estimate_lambda_max(
            lambda v: self._G @ v, self._n_signal, seed=self._spectral_seed
        )
        lambda_h = 2.0 * require_converged(self.lambda_setup)  # spectrum of H is {0} U 2*spec(B)
        return float(np.sqrt(self.dim) * max(lambda_h, 1.0))

    def eval_full(self, z: np.ndarray) -> np.ndarray:
        z = self._check_point(z)
        n = self._n_signal
        g = self._A.T @ (self._A @ (z[:n] - z[n:]))
        q = np.concatenate([g + self._c_top, self._c_bot - g])
        return np.minimum(z, q)

    def open_session(self, x0: np.ndarray, ledger: CostLedger) -> "CSSession":
        return CSSession(self, x0, ledger)

    # -- LASSO-side views ---------------------------------------------------

    def signal_estimate(self, z: np.ndarray) -> np.ndarray:
        """Recover the signal ``x = u - v`` from a point of the split system."""
        z = self._check_point(z)
        n = self._n_signal
        return z[:n] - z[n:]

    def kkt_residual(self, z: np.ndarray, *, support_threshold: float = 1e-8) -> float:
        """Max violation of the LASSO optimality conditions at ``x = u - v``.

        Coordinates with ``|x_i| <= support_threshold`` are treated as zeros
        (requiring ``|grad_i| <= reg``), the others as active (requiring
        ``grad_i = -reg * sign(x_i)``).
        """
        x = self.signal_estimate(z)
        grad = self._A.T @ (self._A @ x - self._b)
        off = np.maximum(np.abs(grad) - self._reg, 0.0)
        on = np.abs(grad + self._reg * np.sign(x))
        return float(np.max(np.where(np.abs(x) <= support_threshold, off, on)))

    def recovery_error(self, z: np.ndarray) -> float:
        """Relative l2 error of the recovered signal against the planted one."""
        if self.x_true is None:
            raise ConfigurationError("instance has no planted signal")
        x = self.signal_estimate(z)
        denom = max(float(np.linalg.norm(self.x_true)), 1e-30)
        return float(np.linalg.norm(x - self.x_true)) / denom


class CSSession(EvaluationSession):
    """Caches ``g = A^T A (u - v)``; shifts add one Gram row.

    Every product and elementwise step writes into a buffer allocated once
    per session, with the same operations in the same order as
    :meth:`CSProblem.eval_full`, so the results match it bit for bit.
    """

    _problem: CSProblem

    def __init__(self, problem: CSProblem, x0: np.ndarray, ledger: CostLedger) -> None:
        n = problem._n_signal
        self._d = np.empty(n)  # u - v
        self._ad = np.empty(problem._A.shape[0])  # A (u - v)
        self._g = np.empty(n)
        self._step = np.empty(n)  # delta times one Gram row
        self._f = np.empty(2 * n)  # H z + c, then F(z)
        self._f_top, self._f_bot = self._f[:n], self._f[n:]
        super().__init__(problem, x0, ledger)

    def _rebuild(self) -> None:
        p = self._problem
        n = p._n_signal
        np.subtract(self._x[:n], self._x[n:], out=self._d)
        # Two sensing products rather than one Gram product: cheaper when
        # measurements are few, and identical in structure to eval_full.
        # np.dot calls the same BLAS product as matmul, with less overhead.
        np.dot(p._A, self._d, out=self._ad)
        np.dot(p._A.T, self._ad, out=self._g)

    def _shift(self, i: int, delta: float) -> None:
        p = self._problem
        n = p._n_signal
        # The Gram matrix is exactly symmetric, so the contiguous row holds
        # the bits of the strided column.
        if i < n:
            np.multiply(p._G[i], delta, out=self._step)
            np.add(self._g, self._step, out=self._g)
        else:
            np.multiply(p._G[i - n], delta, out=self._step)
            np.subtract(self._g, self._step, out=self._g)

    def _compute_full(self) -> np.ndarray:
        p = self._problem
        np.add(self._g, p._c_top, out=self._f_top)
        np.subtract(p._c_bot, self._g, out=self._f_bot)
        return np.minimum(self._x, self._f, out=self._f)

    def _compute_component(self, i: int) -> float:
        # Python floats round as numpy scalars do, and cost less to make.
        p = self._problem
        n = p._n_signal
        if i < n:
            q = self._g.item(i) + p._c_top.item(i)
        else:
            q = p._c_bot.item(i - n) - self._g.item(i - n)
        return min(self._x.item(i), q)

    def first_nonzero_read(self, sampler, gen, most):
        """Read each draw from the ``F`` kept at the point, charging all reads at once.

        A component read computes ``min(x_i, g_i + c_i)`` with the rounding
        of the full read's entry, so the two are equal; they can differ only
        in the sign of a zero, and a zero read is not returned.
        """
        if self._full is None:
            self._full = self._compute_full()
        f, zeros = self._full, 0
        while zeros < most:
            i = sampler(gen, self)
            f_i = f.item(i)
            if f_i != 0.0:
                self._ledger.charge_component(zeros + 1)
                return zeros, (i, f_i)
            zeros += 1
        self._ledger.charge_component(zeros)
        return zeros, None


def build_cs_instance(
    n: int,
    n_measurements: int,
    sparsity: int,
    *,
    snr_db: float = 20.0,
    seed: int = 0,
    reg_scale: float = 0.1,
) -> CSProblem:
    """Generate a synthetic sparse-recovery instance.

    The sensing matrix has i.i.d. Gaussian entries with variance ``1/N``
    (unit expected column norms), the planted signal has ``sparsity``
    Gaussian spikes on a random support, and Gaussian measurement noise is
    scaled to the requested SNR. The regularization weight follows the usual
    ``reg_scale * ||A^T b||_inf`` rule. An ``snr_db`` of +inf builds a
    noiseless instance; one whose noise scale ``10 ** (snr_db / 20)`` is not a
    positive finite float (NaN, -inf, below about -6472 dB or above about
    6165 dB) is rejected, and so is one so low that the scaled noise or its
    norm would overflow (below about -3080 dB for a signal of unit norm).
    """
    try:
        noise_scale_ok = _is_real(snr_db) and (
            snr_db == math.inf or 0.0 < 10.0 ** (float(snr_db) / 20.0) < math.inf
        )
    except OverflowError:
        noise_scale_ok = False
    if not noise_scale_ok:
        raise ConfigurationError(
            f"snr_db must be +inf or a real number whose 10 ** (snr_db / 20) is a positive "
            f"finite float, got {snr_db!r}"
        )
    if not 0 < sparsity <= n:
        raise ConfigurationError(f"sparsity must be in [1, {n}], got {sparsity}")
    if n_measurements < 1:
        raise ConfigurationError("need at least one measurement")
    gen = seeded_generator(seed, STREAM_INSTANCE)
    A = gen.standard_normal((n_measurements, n)) / np.sqrt(n_measurements)
    support = gen.choice(n, size=sparsity, replace=False)
    x_true = np.zeros(n)
    x_true[support] = gen.standard_normal(sparsity)
    clean = A @ x_true
    noise = gen.standard_normal(n_measurements)
    target = float(np.linalg.norm(clean)) / 10.0 ** (snr_db / 20.0)
    norm_noise = float(np.linalg.norm(noise))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite noise is rejected below
        if norm_noise > 0 and target > 0:
            noise *= target / norm_noise
        else:
            noise[:] = 0.0
        scaled_norm = np.linalg.norm(noise)
    if not np.isfinite(scaled_norm):
        raise ConfigurationError(
            f"snr_db={snr_db!r} is too low: the noise scaled to it, or its norm, is not finite"
        )
    b = clean + noise
    realized = 20.0 * np.log10(np.linalg.norm(clean) / scaled_norm) if scaled_norm > 0 else np.inf
    atb = A.T @ b
    meta = CSInstanceMeta(
        n=n,
        n_measurements=n_measurements,
        sparsity=sparsity,
        snr_db=snr_db,
        realized_snr_db=float(realized),
        seed=seed,
    )
    return CSProblem(
        A,
        b,
        reg=reg_scale * float(np.abs(atb).max()),
        x_true=x_true,
        meta=meta,
        spectral_seed=seed,
    )


def save_instance(path, problem: CSProblem) -> None:
    """Write an instance to an NPZ container (bit-exact round trip)."""
    meta = problem.meta
    np.savez(
        path,
        format=_FORMAT_TAG,
        sensing=problem.sensing,
        measurements=problem.measurements,
        reg=problem.reg,
        x_true=problem.x_true if problem.x_true is not None else np.zeros(0),
        sparsity=-1 if meta is None or meta.sparsity is None else meta.sparsity,
        snr_db=np.nan if meta is None or meta.snr_db is None else meta.snr_db,
        realized_snr_db=(
            np.nan if meta is None or meta.realized_snr_db is None else meta.realized_snr_db
        ),
        seed=-1 if meta is None or meta.seed is None else meta.seed,
    )


def load_instance(path, *, spectral_seed: int = 0) -> CSProblem:
    """Read an instance written by :func:`save_instance`.

    Raises :class:`ConfigurationError` naming the path for a file that
    :func:`numpy.load` cannot read as an archive without pickles, and naming
    the path and the key for an archive that lacks a key of the
    ``minieg-cs-v1`` format, holds pickled objects under it, or holds a
    member of the wrong kind or shape: ``sensing`` must be a 2-d and
    ``measurements`` a 1-d real array, ``x_true`` an empty one or one with an
    entry per column of ``sensing``, ``reg``, ``snr_db`` and
    ``realized_snr_db`` real scalars, and ``sparsity`` and ``seed`` integer
    scalars. So does a value no instance can hold: ``measurements`` without
    one entry per row of ``sensing``, a ``sensing`` without columns, a
    ``sensing`` or ``measurements`` with a value that is not finite, or a
    ``reg`` that is not positive and finite. A missing or unreadable file
    raises :class:`OSError`.
    """
    # An open file: numpy.load leaves its own file open when a zip header is bad.
    with open(path, "rb") as file:
        try:
            data = np.load(file, allow_pickle=False)
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise ConfigurationError(f"{path} is not an instance archive: {exc}") from None
        if isinstance(data, np.ndarray):
            raise ConfigurationError(f"{path} is not an instance archive: it holds one bare array")
        tag = str(_member(data, "format", path, "text", 0))
        if tag != _FORMAT_TAG:
            raise ConfigurationError(f"{path}: unrecognized instance container format {tag!r}")
        A = _member(data, "sensing", path, "real", 2)
        b = _member(data, "measurements", path, "real", 1)
        reg = float(_member(data, "reg", path, "real", 0))
        x_true = _member(data, "x_true", path, "real", 1)
        sparsity = int(_member(data, "sparsity", path, "integer", 0))
        snr_db = float(_member(data, "snr_db", path, "real", 0))
        realized = float(_member(data, "realized_snr_db", path, "real", 0))
        seed = int(_member(data, "seed", path, "integer", 0))
    # The values CSProblem would reject, named by the key at fault.
    if b.size != A.shape[0]:
        raise ConfigurationError(
            f"{path}: key 'measurements' holds {b.size} entries, but 'sensing' has "
            f"{A.shape[0]} rows"
        )
    if x_true.size not in (0, A.shape[1]):
        raise ConfigurationError(
            f"{path}: key 'x_true' holds {x_true.size} entries, but 'sensing' has "
            f"{A.shape[1]} columns"
        )
    if A.shape[1] == 0:
        raise ConfigurationError(f"{path}: key 'sensing' holds no column")
    for key, value in (("sensing", A), ("measurements", b)):
        if not np.all(np.isfinite(value)):
            raise ConfigurationError(f"{path}: key {key!r} holds a value that is not finite")
    if not 0.0 < reg < math.inf:
        raise ConfigurationError(f"{path}: key 'reg' must hold a positive finite number, got {reg!r}")
    meta = CSInstanceMeta(
        n=A.shape[1],
        n_measurements=A.shape[0],
        sparsity=None if sparsity < 0 else sparsity,
        snr_db=None if np.isnan(snr_db) else snr_db,
        realized_snr_db=None if np.isnan(realized) else realized,
        seed=None if seed < 0 else seed,
    )
    return CSProblem(
        A,
        b,
        reg=reg,
        x_true=None if x_true.size == 0 else x_true,
        meta=meta,
        spectral_seed=spectral_seed,
    )


def _member(data, key: str, path, kind: str, ndim: int):
    """The ``ndim``-d array of ``kind`` under ``key`` in the instance archive
    ``data`` read from ``path``; ``kind`` is a key of ``_DTYPE_KINDS``."""
    if key not in data.files:
        raise ConfigurationError(f"{path} has no key {key!r} of the {_FORMAT_TAG} format")
    try:
        value = data[key]
    except ValueError as exc:  # pickled objects
        raise ConfigurationError(f"{path}: key {key!r}: {exc}") from None
    if value.dtype.kind not in _DTYPE_KINDS[kind] or value.ndim != ndim:
        raise ConfigurationError(
            f"{path}: key {key!r} must hold a {ndim}-d {kind} array, "
            f"got dtype {value.dtype} and shape {value.shape}"
        )
    return value
