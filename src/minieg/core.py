"""Shared infrastructure: evaluation accounting, projections, mapping contracts.

Everything downstream (solvers, benchmark problems, the CLI) is built on the
three contracts defined here:

* :class:`CostLedger` -- counts full and per-coordinate map evaluations and
  converts them into the normalized "number of full evaluations" metric
  (one coordinate evaluation costs ``1/n`` of a full one).
* :class:`MonotoneMapping` -- a monotone operator ``F`` on R^n together with
  the constants the solvers need (componentwise Lipschitz bounds, a global
  Lipschitz bound on demand) and its feasible region.
* :class:`EvaluationSession` -- a stateful cursor on a mapping that supports
  cheap single-coordinate reads and incremental point updates, charging every
  read to a ledger.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "ConfigurationError",
    "CostLedger",
    "Projection",
    "IdentityProjection",
    "NonnegativeProjection",
    "BoxProjection",
    "weighted_norm",
    "MonotoneMapping",
    "EvaluationSession",
    "seeded_generator",
    "STREAM_SOLVER",
    "STREAM_X0",
    "STREAM_INSTANCE",
    "STREAM_POWER",
]


class ConfigurationError(ValueError):
    """Raised when user-supplied parameters are out of range or inconsistent."""


# ---------------------------------------------------------------------------
# Deterministic random streams
# ---------------------------------------------------------------------------

# Stream ids keep draws for different purposes independent even when the same
# base seed is reused (e.g. solver index draws vs. instance generation).
STREAM_SOLVER = 0
STREAM_X0 = 1
STREAM_INSTANCE = 2
STREAM_POWER = 3


def seeded_generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Return a counter-based generator keyed by ``(seed, stream)``.

    Philox is used so that the mapping from the pair to the random sequence is
    explicit and stable; two generators differing in either component produce
    independent streams.
    """
    if not 0 <= int(seed) < 2**64:
        raise ConfigurationError(f"seed must be in [0, 2**64), got {seed!r}")
    key = np.array([int(seed), int(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# Evaluation accounting
# ---------------------------------------------------------------------------


@dataclass
class CostLedger:
    """Tally of map evaluations, in units where a full evaluation costs 1.

    ``nf`` is the standard normalized count: ``full_evals + component_evals/n``.
    Counts are kept as exact integers so identities such as "extragradient
    performs exactly two full evaluations per iteration" can be asserted
    without floating-point slack.
    """

    n: int
    full_evals: int = 0
    component_evals: int = 0

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ConfigurationError(f"ledger dimension must be positive, got {self.n}")

    def charge_full(self, count: int = 1) -> None:
        self.full_evals += count

    def charge_component(self, count: int = 1) -> None:
        self.component_evals += count

    @property
    def nf(self) -> float:
        return self.full_evals + self.component_evals / self.n

    def nf_exact(self) -> Fraction:
        """The normalized evaluation count as an exact rational."""
        return Fraction(self.full_evals) + Fraction(self.component_evals, self.n)


# ---------------------------------------------------------------------------
# Feasible regions
# ---------------------------------------------------------------------------


class Projection(ABC):
    """Euclidean projection onto a closed convex set."""

    @abstractmethod
    def __call__(self, x: np.ndarray) -> np.ndarray: ...


class IdentityProjection(Projection):
    """Projection onto all of R^n (returns its argument unchanged)."""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x


class NonnegativeProjection(Projection):
    """Projection onto the nonnegative orthant."""

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)


class BoxProjection(Projection):
    """Projection onto the box ``[lower, upper]`` (bounds broadcast over x)."""

    def __init__(self, lower, upper) -> None:
        self.lower = np.asarray(lower, dtype=float)
        self.upper = np.asarray(upper, dtype=float)
        if np.any(self.lower > self.upper):
            raise ConfigurationError("box projection requires lower <= upper")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.clip(x, self.lower, self.upper)


def weighted_norm(x: np.ndarray, weights: np.ndarray) -> float:
    """``sqrt(sum_i weights_i * x_i**2)`` for nonnegative weights."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(weights, dtype=float)
    if w.shape != x.shape:
        raise ConfigurationError(
            f"weight shape {w.shape} does not match vector shape {x.shape}"
        )
    if np.any(w < 0):
        raise ConfigurationError("weighted_norm requires nonnegative weights")
    return float(np.sqrt(np.dot(w, x * x)))


# ---------------------------------------------------------------------------
# Mapping and session contracts
# ---------------------------------------------------------------------------


class MonotoneMapping(ABC):
    """A monotone operator ``F: R^n -> R^n`` with solver-facing metadata.

    Concrete problems expose:

    * ``dim`` -- the ambient dimension ``n``;
    * ``componentwise_lipschitz`` -- a positive vector ``l`` with
      ``|F_i(x + t e_i) - F_i(x)| <= l_i |t|`` for every coordinate ``i``;
    * ``ensure_global_lipschitz()`` -- a (possibly estimated) bound ``L`` on
      the global Lipschitz constant, computed lazily because it can be the
      single most expensive piece of setup;
    * ``projection`` -- the feasible region the iterates must stay in;
    * ``open_session`` -- a stateful evaluation cursor (see
      :class:`EvaluationSession`).

    ``eval_full`` evaluates the raw map without touching any ledger; it is
    meant for tests and diagnostics, not for the solver loops.
    """

    @property
    @abstractmethod
    def dim(self) -> int: ...

    @property
    @abstractmethod
    def componentwise_lipschitz(self) -> np.ndarray: ...

    @property
    def projection(self) -> Projection:
        return IdentityProjection()

    @property
    def global_lipschitz(self) -> float | None:
        """The cached global bound, or None if not computed yet."""
        return getattr(self, "_global_lipschitz", None)

    @abstractmethod
    def ensure_global_lipschitz(self) -> float:
        """Compute (once) and return the global Lipschitz bound."""

    @abstractmethod
    def eval_full(self, x: np.ndarray) -> np.ndarray:
        """Evaluate ``F(x)`` from scratch. Not charged to any ledger."""

    @abstractmethod
    def open_session(self, x0: np.ndarray, ledger: CostLedger) -> "EvaluationSession": ...

    def _check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ConfigurationError(
                f"expected a point of shape ({self.dim},), got {x.shape}"
            )
        return x


class EvaluationSession(ABC):
    """Stateful evaluation cursor over a :class:`MonotoneMapping`.

    A session tracks a current point and whatever backend cache makes
    coordinate reads cheap (margin vectors for logistic regression, Gram
    products for the complementarity backend, ...). Moving the point is free;
    reading the map is charged:

    * ``eval_full()`` charges one full evaluation,
    * ``eval_component(i)`` charges ``1/n`` of one.

    ``set_point`` rebuilds the cache from scratch; ``shift_coordinate``
    performs the incremental update that makes single-coordinate methods
    cheap. Subclasses implement the four ``_``-prefixed hooks.

    ``eval_full`` keeps the last ``F`` it computed until the next shift or
    rebuild, so a repeated read at a point that has not moved costs a copy;
    it is charged all the same. ``set_point`` always rebuilds: a caller
    that knows the point has not moved (the solver loop after a zero step)
    skips the call.
    """

    def __init__(self, problem: MonotoneMapping, x0: np.ndarray, ledger: CostLedger) -> None:
        if ledger.n != problem.dim:
            raise ConfigurationError(
                f"ledger dimension {ledger.n} does not match problem dimension {problem.dim}"
            )
        self._problem = problem
        self._ledger = ledger
        self._x = problem._check_point(x0).copy()
        self._rebuild()
        self._full: np.ndarray | None = None  # F at _x once computed, until the next move

    # -- state ---------------------------------------------------------------

    @property
    def problem(self) -> MonotoneMapping:
        return self._problem

    @property
    def ledger(self) -> CostLedger:
        return self._ledger

    @property
    def point(self) -> np.ndarray:
        """The current point. Treat as read-only; copy before storing."""
        return self._x

    def set_point(self, x: np.ndarray) -> None:
        """Move to ``x`` and rebuild the backend cache. Not charged."""
        x = self._problem._check_point(x)
        self._full = None
        self._x[:] = x
        self._rebuild()

    def shift_coordinate(self, i: int, delta: float) -> None:
        """Add ``delta`` to coordinate ``i``, updating the cache incrementally."""
        self._full = None
        self._x[i] += delta
        self._shift(i, float(delta))

    # -- charged reads ---------------------------------------------------------

    def eval_full(self) -> np.ndarray:
        """``F`` at the current point (a fresh array). Charges 1 full eval.

        A repeated read at an unchanged point returns a copy of the ``F``
        computed before, and is charged all the same.
        """
        self._ledger.charge_full()
        if self._full is None:
            self._full = self._compute_full()
        return self._full.copy()

    def eval_component(self, i: int) -> float:
        """``F_i`` at the current point. Charges ``1/n`` of a full eval."""
        self._ledger.charge_component()
        return self._compute_component(int(i))

    # -- backend hooks ---------------------------------------------------------

    @abstractmethod
    def _rebuild(self) -> None:
        """Refresh all caches from ``self._x``."""

    def _shift(self, i: int, delta: float) -> None:
        # Default: no incremental structure, recompute from scratch.
        self._rebuild()

    @abstractmethod
    def _compute_full(self) -> np.ndarray:
        """``F`` at ``self._x``. May return a buffer the session owns: it is
        copied before it is handed out, and must stay unchanged until the
        next ``_shift`` or ``_rebuild``."""

    @abstractmethod
    def _compute_component(self, i: int) -> float: ...
