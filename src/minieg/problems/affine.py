"""Affine monotone test problems ``F(x) = M x - b``.

These are the workhorses of the verification suite: the map is monotone iff
the symmetric part of ``M`` is positive semidefinite, every constant is known
in closed form, and a root can be planted exactly. Skew-symmetric instances
(zero diagonal) exercise the solvers in the regime where the componentwise
bounds carry no information about the mapping's rotation.
"""

from __future__ import annotations

import numpy as np

from ..core import (
    ConfigurationError,
    CostLedger,
    EvaluationSession,
    MonotoneMapping,
    STREAM_INSTANCE,
    _check_finite,
    _check_sizes,
    seeded_generator,
)

__all__ = ["AffineMonotoneProblem", "random_spd_affine", "skew_rotation_problem"]


class AffineMonotoneProblem(MonotoneMapping):
    """``F(x) = M x - b`` for a matrix with PSD symmetric part.

    Componentwise Lipschitz constants default to ``|diag(M)|`` (the exact
    slope of ``F_i`` along ``e_i``); matrices with zeros on the diagonal
    require explicit constants, since the solvers divide by them. The global
    constant is the spectral norm of ``M``, computed exactly on demand. A
    ``matrix``, ``rhs`` or planted ``root`` with a value that is not finite,
    or a ``root`` without one entry per row of ``matrix``, raises
    :class:`ConfigurationError`; ``run_solver`` checks the constants.
    """

    def __init__(
        self,
        matrix,
        rhs=None,
        *,
        componentwise_lipschitz=None,
        global_lipschitz: float | None = None,
        root: np.ndarray | None = None,
        validate: bool = True,
    ) -> None:
        M = np.array(matrix, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ConfigurationError(f"matrix must be square, got shape {M.shape}")
        n = M.shape[0]
        self._M = M
        self._rhs = np.zeros(n) if rhs is None else np.array(rhs, dtype=float)
        if self._rhs.shape != (n,):
            raise ConfigurationError(f"rhs must have shape ({n},), got {self._rhs.shape}")
        self.root = None if root is None else np.array(root, dtype=float)
        if self.root is not None and self.root.shape != (n,):
            raise ConfigurationError(
                f"'root' must hold one entry per row of 'matrix' ({n}), got shape {self.root.shape}"
            )
        _check_finite(matrix=M, rhs=self._rhs, root=self.root)

        if validate:
            sym = 0.5 * (M + M.T)
            lo = float(np.linalg.eigvalsh(sym)[0])
            scale = max(1.0, float(np.abs(M).max()))
            if lo < -1e-10 * scale:
                raise ConfigurationError(
                    f"matrix is not monotone: symmetric part has eigenvalue {lo:.3e}"
                )

        diag = np.abs(np.diag(M))
        if componentwise_lipschitz is None:
            if np.any(diag == 0):
                raise ConfigurationError(
                    "matrix has zero diagonal entries; pass componentwise_lipschitz explicitly"
                )
            self._l = diag.copy()
        else:
            l = np.asarray(componentwise_lipschitz, dtype=float)
            if l.shape != (n,):
                raise ConfigurationError(f"componentwise_lipschitz must have shape ({n},)")
            if np.any(l <= 0):
                raise ConfigurationError("componentwise Lipschitz constants must be positive")
            if np.any(l < diag - 1e-12 * np.maximum(diag, 1.0)):
                raise ConfigurationError(
                    "componentwise Lipschitz constants must dominate |diag(M)|"
                )
            self._l = l.copy()

        self._global_lipschitz = (
            None if global_lipschitz is None else float(global_lipschitz)
        )

    # -- contract ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self._M.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return self._M

    @property
    def rhs(self) -> np.ndarray:
        return self._rhs

    @property
    def componentwise_lipschitz(self) -> np.ndarray:
        return self._l

    def _compute_global_lipschitz(self) -> float:
        return float(np.linalg.norm(self._M, 2))  # exact: test instances are small

    def eval_full(self, x: np.ndarray) -> np.ndarray:
        x = self._check_point(x)
        return self._M @ x - self._rhs

    def open_session(self, x0: np.ndarray, ledger: CostLedger) -> "AffineSession":
        return AffineSession(self, x0, ledger)


class AffineSession(EvaluationSession):
    """Caches the full map vector; coordinate shifts add one matrix column."""

    _problem: AffineMonotoneProblem

    def _rebuild(self) -> None:
        self._f = self._problem._M @ self._x - self._problem._rhs

    def _shift(self, i: int, delta: float) -> None:
        self._f += delta * self._problem._M[:, i]

    def _compute_full(self) -> np.ndarray:
        return self._f  # eval_full copies it

    def _compute_component(self, i: int) -> float:
        return float(self._f[i])


def random_spd_affine(dim: int, seed: int) -> AffineMonotoneProblem:
    """A random symmetric positive-definite instance with a planted root.

    ``M = G G^T / dim + 0.1 * I`` for Gaussian ``G``, the right-hand side is
    chosen so that a known Gaussian point solves the system exactly, and the
    global Lipschitz constant is the exact largest eigenvalue.
    """
    _check_sizes(dim=dim)
    if dim < 1:
        raise ConfigurationError("dim must be at least 1")
    gen = seeded_generator(seed, STREAM_INSTANCE)
    G = gen.standard_normal((dim, dim))
    M = G @ G.T / dim + 0.1 * np.eye(dim)
    x_star = gen.standard_normal(dim)
    rhs = M @ x_star
    lam_max = float(np.linalg.eigvalsh(M)[-1])
    return AffineMonotoneProblem(
        M,
        rhs,
        global_lipschitz=lam_max,
        root=x_star,
        validate=False,  # M is SPD by construction
    )


def skew_rotation_problem(dim: int) -> AffineMonotoneProblem:
    """Block-diagonal rotation map ``F(x) = (x_2, -x_1, x_4, -x_3, ...)``.

    Monotone but in no way strongly so; the unique root is the origin. The
    diagonal of the matrix is identically zero, so the componentwise
    constants are set to 1 (any positive value is valid: ``F_i`` does not
    change at all along ``e_i``).
    """
    _check_sizes(dim=dim)
    if dim < 2 or dim % 2:
        raise ConfigurationError("skew rotation problems need an even dim >= 2")
    M = np.zeros((dim, dim))
    for j in range(0, dim, 2):
        M[j, j + 1] = 1.0
        M[j + 1, j] = -1.0
    return AffineMonotoneProblem(
        M,
        componentwise_lipschitz=np.ones(dim),
        global_lipschitz=1.0,
        root=np.zeros(dim),
    )
