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
from typing import Callable

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


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer, and not a bool.

    Floats are not integers here, even when integral.
    """
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """Whether ``value`` is a Python or numpy real number, and not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _checked_seed(seed) -> int:
    """A random seed as a plain int.

    Raises :class:`ConfigurationError`, naming the seed, unless it is a
    Python or numpy integer (not a bool) in ``[0, 2**64)``.
    """
    if not (_is_integer(seed) and 0 <= seed < 2**64):
        raise ConfigurationError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return int(seed)


def _check_sizes(**sizes) -> None:
    """Raise :class:`ConfigurationError`, naming the argument first, for the
    first size in ``sizes`` (argument name to value) that is not a Python or
    numpy integer, or is a bool. Each caller checks the range itself."""
    for name, value in sizes.items():
        if not _is_integer(value):
            raise ConfigurationError(f"{name!r} must be an integer, got {value!r}")


def _checked_reg(reg) -> float:
    """An explicit regularization weight ``reg`` as a float.

    Raises :class:`ConfigurationError`, naming ``'reg'`` first, unless it is
    a positive and finite real number.
    """
    if not (_is_real(reg) and np.isfinite(reg) and reg > 0):
        raise ConfigurationError(f"'reg' must be a positive and finite real number, got {reg!r}")
    return float(reg)


# ---------------------------------------------------------------------------
# Deterministic random streams
# ---------------------------------------------------------------------------

# Stream ids keep draws for different purposes independent even when the same
# base seed is reused (e.g. solver index draws vs. instance generation).
STREAM_SOLVER = 0
STREAM_X0 = 1
STREAM_INSTANCE = 2
STREAM_POWER = 3


def seeded_generator(seed: int, stream: int) -> np.random.Generator:
    """Return a counter-based generator keyed by ``(seed, stream)``.

    Philox is used so that the mapping from the pair to the random sequence is
    explicit and stable; two generators differing in either component produce
    independent streams. ``stream`` is one of the ``STREAM_*`` ids, and has
    no default, so no caller draws from the solver's stream by leaving it
    out. A seed that is not an integer in ``[0, 2**64)`` raises
    :class:`ConfigurationError`.
    """
    key = np.array([_checked_seed(seed), int(stream)], dtype=np.uint64)
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
    without floating-point slack. A ledger is built as ``CostLedger(n)``, and
    both counts start at 0.
    """

    n: int
    full_evals: int = field(default=0, init=False)
    component_evals: int = field(default=0, init=False)

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
    """Euclidean projection onto a closed convex set.

    A projection returns a new array or its argument unchanged, and never
    writes into its argument: a session's step hands it a read-only view of
    the candidate point, and a session may update its cache along the move
    only when that very view comes back.
    """

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


_FLOAT = np.dtype(float)  # the native float64 dtype, which numpy hands out as one object


def _same_bytes(a, b: np.ndarray) -> bool:
    """Whether ``a`` holds exactly the float64 bytes of ``b``.

    -0.0 and 0.0 differ, and a NaN equals itself. Comparing two ``tobytes``
    copies runs as one ``memcmp``, several times faster than comparing
    memoryviews item by item.
    """
    a = np.asarray(a, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


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
      single most expensive piece of setup. It computes the bound once, through
      the backend hook ``_compute_global_lipschitz()``, and caches it; a
      backend that builds the bound on a spectral estimate records the
      estimate as ``lambda_setup``;
    * ``projection`` -- the feasible region the iterates must stay in;
    * ``open_session`` -- a stateful evaluation cursor (see
      :class:`EvaluationSession`).

    ``eval_full`` evaluates the raw map without touching any ledger; it is
    meant for tests and diagnostics, not for the solver loops.
    """

    _global_lipschitz: float | None = None
    lambda_setup = None  # the SpectralEstimate behind an estimated global bound

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
        return self._global_lipschitz

    def ensure_global_lipschitz(self) -> float:
        """Compute (once) and return the global Lipschitz bound."""
        if self._global_lipschitz is None:
            self._global_lipschitz = self._compute_global_lipschitz()
        return self._global_lipschitz

    def _compute_global_lipschitz(self) -> float:
        """The global Lipschitz bound, computed from scratch; cached by the caller.

        A hook that raises caches nothing, so the next call tries again.
        """
        raise ConfigurationError(f"{type(self).__name__} has no global Lipschitz bound")

    @abstractmethod
    def eval_full(self, x: np.ndarray) -> np.ndarray:
        """Evaluate ``F(x)`` from scratch. Not charged to any ledger."""

    @abstractmethod
    def open_session(self, x0: np.ndarray, ledger: CostLedger) -> "EvaluationSession": ...

    def _check_point(self, x: np.ndarray) -> np.ndarray:
        """``x`` as ``np.asarray(x, dtype=float)`` gives it, of shape ``(dim,)``.

        A float64 ndarray is that array itself, so it skips the conversion call.
        """
        if type(x) is not np.ndarray or x.dtype is not _FLOAT:
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
    * ``eval_component(i)`` charges ``1/n`` of one, and
    * ``first_nonzero_read(sampler, gen, most)`` charges ``1/n`` for each
      coordinate it draws and reads.

    The session also keeps the committed point, its ``anchor``, and makes
    the solver's two moves itself, with ``F`` the full read kept at the
    current point:

    * ``probe(scale)`` moves to ``anchor - scale * F`` and keeps the anchor
      (eg's probe, made at the anchor);
    * ``step(beta, projection)`` commits ``projection(anchor - beta * F)``,
      which becomes the new anchor.

    ``set_point`` moves to a point, rebuilds the cache from scratch and makes
    the point the anchor; ``shift_coordinate`` performs the incremental
    update that makes single-coordinate methods cheap and keeps the anchor.
    This class makes both solver moves with the solver loop's arithmetic,
    operation for operation, and then moves through ``set_point``; a backend
    may override ``probe`` and ``_commit`` to update its cache along the move
    instead. Subclasses implement the four backend hooks (``_rebuild``,
    ``_shift``, ``_compute_full`` and ``_compute_component``); one that keeps
    views of the point makes them once, in ``_open``.

    ``eval_full`` keeps the last ``F`` it computed until the next shift or
    rebuild, so a repeated read at a point that has not moved costs a copy;
    it is charged all the same. ``set_point`` always rebuilds; a ``step``
    that an unmoved session takes with ``beta == 0`` and whose projection
    keeps the anchor's bytes stays where it is and rebuilds nothing.
    """

    def __init__(self, problem: MonotoneMapping, x0: np.ndarray, ledger: CostLedger) -> None:
        if ledger.n != problem.dim:
            raise ConfigurationError(
                f"ledger dimension {ledger.n} does not match problem dimension {problem.dim}"
            )
        self._problem = problem
        self._ledger = ledger
        self._x = problem._check_point(x0).copy()
        self._anchor = self._x.copy()
        self._at_anchor = True  # no shift or probe since the anchor was set
        self._move = np.empty_like(self._x)  # the candidate of a probe or a step
        self._candidate = self._move.view()  # the step's candidate, as projections see it
        self._candidate.flags.writeable = False
        self._open()
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

    @property
    def anchor(self) -> np.ndarray:
        """The committed point: that of the last ``set_point`` or ``step``, or
        the opening one. Treat as read-only; copy before storing."""
        return self._anchor

    def set_point(self, x: np.ndarray) -> None:
        """Move to ``x``, rebuild the backend cache and make ``x`` the anchor. Not charged."""
        x = self._problem._check_point(x)
        self._full = None
        self._x[:] = x
        if x is not self._anchor:  # probe hands over the anchor's own buffer
            self._anchor[:] = self._x
        self._at_anchor = True
        self._rebuild()

    def shift_coordinate(self, i: int, delta: float) -> None:
        """Add ``delta`` to coordinate ``i``, updating the cache incrementally."""
        self._full = None
        self._at_anchor = False
        self._x[i] += delta
        self._shift(i, float(delta))

    def probe(self, scale: float) -> None:
        """Move to ``anchor - scale * F`` and keep the anchor. Not charged."""
        y = self._stepped(scale)
        # set_point makes its point the anchor: with y's buffer as the anchor it copies nothing.
        anchor, self._anchor = self._anchor, y
        self.set_point(y)
        self._anchor, self._at_anchor = anchor, False

    def step(self, beta: float, projection: Projection) -> bool:
        """Commit ``projection(anchor - beta * F)`` as the point and the anchor. Not charged.

        The projection gets a read-only view of the candidate. Returns
        False, and moves nothing, when the session has not moved since the
        anchor was set, ``beta == 0`` and the projection keeps the anchor's
        exact bytes; True otherwise.
        """
        self._stepped(beta)
        x = projection(self._candidate)
        if self._at_anchor and beta == 0.0 and _same_bytes(x, self._anchor):
            return False
        self._commit(x, beta)
        return True

    def _stepped(self, scale: float) -> np.ndarray:
        """``anchor - scale * F`` in the move buffer, computed as the solver loop computes it."""
        if self._full is None:
            raise RuntimeError("a move steps along the full read at the current point; read it first")
        return np.subtract(self._anchor, np.multiply(self._full, scale, out=self._move), out=self._move)

    def _commit(self, x: np.ndarray, beta: float) -> None:
        """Make ``x``, the projection of ``anchor - beta * F``, the point and the
        anchor. ``x is self._candidate`` when the projection kept the candidate."""
        self.set_point(x)

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

    def first_nonzero_read(
        self,
        sampler: Callable[[np.random.Generator, EvaluationSession], int],
        gen: np.random.Generator,
        most: int,
    ) -> tuple[int, tuple[int, float] | None]:
        """Draw coordinates with ``sampler(gen, self)`` and read each, until one
        reads nonzero or ``most`` have read zero. Charges ``1/n`` per read.

        Returns the number of zero reads and the first nonzero ``(i, F_i)``,
        or None when all ``most`` read zero. Meant for a point the session
        has not left since its last full read; this class reads every draw
        through ``eval_component``, which is exact anywhere. A backend whose
        component read computes the full read's entry the same way may read
        the ``F`` it keeps instead.
        """
        zeros = 0
        while zeros < most:
            i = sampler(gen, self)
            f_i = self.eval_component(i)
            if f_i != 0.0:
                return zeros, (i, f_i)
            zeros += 1
        return zeros, None

    # -- backend hooks ---------------------------------------------------------

    def _open(self) -> None:
        """Build the cache at the opening point: ``_x`` exists from here on, so a
        backend that keeps views of it makes them here, then rebuilds."""
        self._rebuild()

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
