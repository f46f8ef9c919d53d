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
    _check_finite,
    _check_sizes,
    _checked_reg,
    _is_real,
    seeded_generator,
)
from .spectral import dense_lambda_max, require_converged

__all__ = [
    "CSProblem",
    "CSInstanceMeta",
    "build_cs_instance",
    "save_instance",
    "load_instance",
]

_FORMAT_TAG = "minieg-cs-v1"
# The default reg is this multiple of ||A^T b||_inf (see _derived_reg).
_REG_SCALE = 0.1
# The default signal-to-noise ratio of a generated instance, in dB.
_SNR_DB = 20.0
# The dtype kinds a member of the format may hold, by what it holds.
_DTYPE_KINDS = {"text": "U", "real": "iuf", "integer": "iu"}
# numpy aligns an array's data to 16 bytes only, so a matrix often starts 16,
# 32 or 48 bytes past a 64-byte cache line. OpenBLAS's matrix-vector kernels
# then take up to a third longer, with the same bits: on a 2-core Xeon VM,
# 2.7 µs against 2.0 µs for ``A @ d`` with the desk's 64x256 ``A``, and 2.8
# against 1.8 µs for ``A.T @ (A d)``. So ``A`` and ``G`` start on a line.
_CACHE_LINE = 64


def _aligned(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialized C-contiguous float64 array whose data start on a cache line."""
    size = math.prod(shape) * 8
    buffer = np.empty(size + _CACHE_LINE, dtype=np.uint8)
    start = -buffer.ctypes.data % _CACHE_LINE
    return buffer[start:start + size].view(float).reshape(shape)


@dataclass(frozen=True)
class CSInstanceMeta:
    """Generation record for a synthetic instance (None fields for real data).

    The sizes are not recorded: they are the shape of the sensing matrix.
    """

    sparsity: int | None
    snr_db: float | None
    realized_snr_db: float | None
    seed: int | None


def _derived_reg(atb: np.ndarray, scale: float, name: str | None = None) -> float:
    """The regularization weight ``scale * ||A^T b||_inf``.

    Raises :class:`ConfigurationError` naming the rule and its scale (as
    ``name`` when one is given) when the weight is not positive and finite:
    a zero ``b``, a sensing matrix without rows, or a scale that is not
    positive and finite.
    """
    reg = scale * float(np.abs(atb).max())
    if not (np.isfinite(reg) and reg > 0):
        rule = f"{scale!r}·‖Aᵀb‖∞" if name is None else f"{name}·‖Aᵀb‖∞ ({name}={scale!r})"
        raise ConfigurationError(
            f"the derived reg {rule} is {reg!r}; it must be positive and finite"
        )
    return reg


class CSProblem(MonotoneMapping):
    """Complementarity form of l1-regularized least squares.

    The ambient dimension is ``2n`` (positive and negative parts); the
    feasible region is the nonnegative orthant. Componentwise Lipschitz
    constants are ``max(diag(A^T A), 1)`` duplicated across both halves --
    the slope of ``min(z_i, (Hz+c)_i)`` along ``e_i`` is either 1 or
    ``H_ii``. The global constant scales the estimated spectral norm of
    ``H`` by ``sqrt(2n)`` to cover the nonsmooth min(). The spectral norm of
    ``H`` is twice ``lambda_1(A^T A) == lambda_1(A A^T)``, taken from a dense
    symmetric eigensolver (:func:`~minieg.problems.spectral.dense_lambda_max`)
    on the smaller of the two Gram matrices: the kept ``G = A^T A``, or
    ``A A^T`` formed for it when ``sensing`` has fewer rows than columns. It
    depends on the matrix alone, so an instance and its saved archive share
    one global bound, bit for bit. ``reg`` defaults to
    ``0.1 * ||A^T b||_inf``.

    Every value error names the argument at fault first, quoted: a
    ``sensing`` that is not 2-d or has no column, ``measurements`` that are
    not 1-d with one entry per row of ``sensing``, an ``x_true`` without one
    entry per column of ``sensing``, any of the three holding a value that is
    not finite, a ``sensing`` whose Gram matrix ``A^T A`` overflows or
    ``measurements`` whose ``A^T b`` overflows (each error gives the
    argument's largest absolute entry), or an explicit ``reg`` that is not a
    positive and finite real number. A derived ``reg`` that is not
    positive and finite names its rule.
    """

    def __init__(
        self,
        sensing,
        measurements,
        *,
        reg: float | None = None,
        x_true: np.ndarray | None = None,
        meta: CSInstanceMeta | None = None,
    ) -> None:
        A = np.array(sensing, dtype=float)
        b = np.array(measurements, dtype=float)
        x = None if x_true is None else np.array(x_true, dtype=float)
        if A.ndim != 2:
            raise ConfigurationError(f"'sensing' must be 2-d, got shape {A.shape}")
        n = A.shape[1]
        if n == 0:
            raise ConfigurationError("'sensing' holds no column")
        if b.ndim != 1:
            raise ConfigurationError(f"'measurements' must be 1-d, got shape {b.shape}")
        if b.size != A.shape[0]:
            raise ConfigurationError(
                f"'measurements' holds {b.size} entries, but 'sensing' has {A.shape[0]} rows"
            )
        if x is not None and x.shape != (n,):
            raise ConfigurationError(
                f"'x_true' must hold one entry per column of 'sensing' ({n}), got shape {x.shape}"
            )
        _check_finite(sensing=A, measurements=b, x_true=x)
        if reg is not None:
            reg = _checked_reg(reg)

        self._A = _aligned(A.shape)
        self._A[...] = A
        self._b = b
        self._n_signal = n
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
            self._G = np.matmul(A.T, A, out=_aligned((n, n)))  # Gram matrix, cached for row shifts
            atb = A.T @ b
        if not np.all(np.isfinite(self._G)):
            raise ConfigurationError(
                f"'sensing' is too large: its Gram matrix AᵀA overflows (largest absolute "
                f"entry {float(np.abs(A).max())!r})"
            )
        if not np.all(np.isfinite(atb)):
            raise ConfigurationError(
                f"'measurements' are too large: Aᵀb overflows (largest absolute entry "
                f"{float(np.abs(b).max())!r})"
            )
        self._reg = _derived_reg(atb, _REG_SCALE) if reg is None else reg
        self._c_top = self._reg - atb          # (Hz+c) upper half offset
        self._c_bot = self._reg + atb          # lower half offset

        h = np.maximum(np.diag(self._G), 1.0)
        self._l = np.concatenate([h, h])

        self.x_true = x
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
        A = self._A
        m, n = A.shape
        # lambda_1(A A^T) == lambda_1(A^T A); solve on the smaller side.
        self.lambda_setup = dense_lambda_max(A @ A.T if m < n else self._G)
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

    def kkt_residual(self, z: np.ndarray) -> float:
        """Max violation of the LASSO optimality conditions at ``x = u - v``.

        Coordinates with ``|x_i| <= 1e-8`` are treated as zeros
        (requiring ``|grad_i| <= reg``), the others as active (requiring
        ``grad_i = -reg * sign(x_i)``).
        """
        x = self.signal_estimate(z)
        grad = self._A.T @ (self._A @ x - self._b)
        off = np.maximum(np.abs(grad) - self._reg, 0.0)
        on = np.abs(grad + self._reg * np.sign(x))
        return float(np.max(np.where(np.abs(x) <= 1e-8, off, on)))

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
    :meth:`CSProblem.eval_full`, so the results match it bit for bit. The
    scan of :meth:`~minieg.core.EvaluationSession.first_nonzero_read` reads
    each draw from the ``F`` kept at the point, one ``item`` call per draw.
    """

    _problem: CSProblem

    def _open(self) -> None:
        p = self._problem
        n = p._n_signal
        # Views made once: the point keeps its buffer for the session's life.
        self._u, self._v = self._x[:n], self._x[n:]
        self._A, self._At = p._A, p._A.T
        self._d = np.empty(n)  # u - v
        self._ad = np.empty(p._A.shape[0])  # A (u - v)
        self._g = np.empty(n)
        self._step = np.empty(n)  # delta times one Gram row
        self._f = np.empty(2 * n)  # H z + c, then F(z)
        self._f_top, self._f_bot = self._f[:n], self._f[n:]
        self._rebuild()

    def _rebuild(self) -> None:
        np.subtract(self._u, self._v, out=self._d)
        # Two sensing products rather than one Gram product: cheaper when
        # measurements are few, and identical in structure to eval_full.
        # np.dot calls the same BLAS product as matmul, with less overhead.
        np.dot(self._A, self._d, out=self._ad)
        np.dot(self._At, self._ad, out=self._g)

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

    def _null_read(self):
        """Reads from the ``F`` kept at the point, computing it first if none is kept.

        A component read computes ``min(x_i, g_i + c_i)`` with the rounding
        of the full read's entry, so the two are equal; they can differ only
        in the sign of a zero, and a zero read is not returned.
        """
        if self._full is None:
            self._full = self._compute_full()
        return self._full.item


def build_cs_instance(
    n: int,
    n_measurements: int,
    sparsity: int,
    *,
    snr_db: float = _SNR_DB,
    seed: int = 0,
    reg_scale: float = _REG_SCALE,
) -> CSProblem:
    """Generate a synthetic sparse-recovery instance.

    The sensing matrix has i.i.d. Gaussian entries with variance ``1/N``
    (unit expected column norms), the planted signal has ``sparsity``
    Gaussian spikes on a random support, and Gaussian measurement noise is
    scaled to the requested SNR (20 dB by default). The regularization weight
    follows the usual ``reg_scale * ||A^T b||_inf`` rule. ``seed`` is kept in
    the record ``meta``; a ``seed`` that is not an integer in ``[0, 2**64)``
    raises :class:`ConfigurationError`.
    An ``snr_db`` of +inf builds a noiseless instance; one whose noise scale
    ``10 ** (snr_db / 20)`` is not a positive finite float (NaN, -inf, below
    about -6472 dB or above about 6165 dB) is rejected, and so is one so low
    that the scaled noise or its norm would overflow (below about -3080 dB
    for a signal of unit norm). A size that is not an integer, or is a bool,
    raises :class:`ConfigurationError` naming it.
    """
    _check_sizes(n=n, n_measurements=n_measurements, sparsity=sparsity)
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
    meta = CSInstanceMeta(
        sparsity=sparsity,
        snr_db=snr_db,
        realized_snr_db=float(realized),
        seed=seed,
    )
    return CSProblem(
        A,
        b,
        reg=_derived_reg(A.T @ b, reg_scale, "reg_scale"),
        x_true=x_true,
        meta=meta,
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


def load_instance(path) -> CSProblem:
    """Read an instance written by :func:`save_instance`.

    Raises :class:`ConfigurationError` naming the path for a file that
    :func:`numpy.load` cannot read as an archive without pickles, and naming
    the path and the key for an archive that lacks a key of the
    ``minieg-cs-v1`` format, holds pickled objects under it, or holds a
    member of the wrong kind or rank: ``sensing`` must be a 2-d and
    ``measurements`` and ``x_true`` 1-d real arrays, ``reg``, ``snr_db`` and
    ``realized_snr_db`` real scalars, and ``sparsity`` and ``seed`` integer
    scalars. The value rules come from :class:`CSProblem`, whose errors name
    the argument at fault, which is also its key; they are raised again as
    ``"{path}: key {error}"``. An empty ``x_true`` stands for none. A
    missing or unreadable file raises :class:`OSError`.

    The record ``meta`` keeps the archive's ``seed``, or None when it is
    negative (no generator). A generated instance loads with the same global
    bound, bit for bit, and solves alike.
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
    meta = CSInstanceMeta(
        sparsity=None if sparsity < 0 else sparsity,
        snr_db=None if np.isnan(snr_db) else snr_db,
        realized_snr_db=None if np.isnan(realized) else realized,
        seed=None if seed < 0 else seed,
    )
    x_true = None if x_true.size == 0 else x_true
    try:  # CSProblem names the argument at fault first, and each argument is its key
        return CSProblem(A, b, reg=reg, x_true=x_true, meta=meta)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: key {exc}") from None


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
