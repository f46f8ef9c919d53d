"""Extragradient-family solvers for monotone nonlinear systems.

All four methods share one probe-then-project loop (:func:`run_solver`): a
probe moves the iterate ``x_k`` to ``y_k`` and the loop reads ``F(y_k)`` in
full. It returns ``y_k`` as the solution once that norm is within the
tolerance, and otherwise projects ``x_k - beta_k F(y_k)`` onto the feasible
region, with ``beta_k`` from :func:`beta_full` or :func:`beta_component`.
Only the probe differs:

``eg``
    Classic extragradient: a full step of ``rho/L`` along ``-F(x_k)``.
``gmini``
    Greedy single-coordinate variant: probes only the coordinate with the
    largest map magnitude, scaled by that coordinate's own Lipschitz bound.
``rmini``
    Randomized variant: the probed coordinate is drawn with probability
    proportional to ``l_i**gamma``.
``wmax``
    Randomized variant with a watchdog: a remembered reference coordinate is
    defended against a random challenger each iteration, so the probe always
    uses the larger of the two magnitudes without any full argmax scan.

Evaluation costs are charged to a :class:`~minieg.core.CostLedger` in units
of full map evaluations (a coordinate read costs ``1/n``), giving the exact
ledger identities::

    eg:     nf == 2 * iterations
    gmini:  nf == 2 * iterations
    rmini:  nf == iterations * (1 + 1/n)
    wmax:   nf == 1 + iterations * (1 + 2/n)

A run also ends at the iteration cap, when a step-size sign test fails, or
when the probe residual is not finite (NaN or infinite).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .core import (
    ConfigurationError,
    CostLedger,
    EvaluationSession,
    MonotoneMapping,
    Projection,
    STREAM_SOLVER,
    seeded_generator,
)

__all__ = [
    "SolutionFound",
    "StepsizeFailure",
    "RunStatus",
    "TraceLevel",
    "SolverConfig",
    "IterationRecord",
    "StepObservation",
    "RunResult",
    "beta_full",
    "beta_component",
    "lipschitz_power_sampler",
    "METHOD_IDS",
    "method_display_name",
    "run_solver",
]

IndexSampler = Callable[[int, np.random.Generator, EvaluationSession], int]


class SolutionFound(Exception):
    """The map vanished at the probe point: it is an exact solution.

    Raised by the step-size rules when ``||F(y)|| = 0`` so that callers using
    them outside the solver loop cannot divide by zero. The driver never
    triggers it (the residual test fires first).
    """

    def __init__(self, point: np.ndarray | None = None) -> None:
        super().__init__("the probe point solves the system exactly")
        self.point = point


class StepsizeFailure(RuntimeError):
    """The step-size sign test failed: ``<F(y), x - y> < 0``.

    After a probe along coordinate ``i`` the test reads ``F_i(y) * F_i(x)``;
    after the full probe ``coordinate`` is None. A negative value would make
    the projection step size negative and break the Fejer-monotonicity of
    the iterates, which indicates that the Lipschitz constants underestimate
    the true slopes.
    """

    def __init__(
        self,
        product: float,
        *,
        iteration: int | None = None,
        coordinate: int | None = None,
        point: np.ndarray | None = None,
    ) -> None:
        where = "" if iteration is None else f" at iteration {iteration}"
        which = "" if coordinate is None else f", coordinate {coordinate}"
        tested = "<F(y), x - y>" if coordinate is None else "F_i(y) * F_i(x)"
        super().__init__(
            f"step-size sign test failed{where}{which}: {tested} = {product:.6e} < 0 "
            "(the Lipschitz constants are too small)"
        )
        self.product = product
        self.iteration = iteration
        self.coordinate = coordinate
        self.point = point


class RunStatus(str, Enum):
    CONVERGED = "converged"
    ITERATION_CAP = "iteration_cap_reached"
    STEPSIZE_FAILURE = "stepsize_failure"
    NON_FINITE_RESIDUAL = "non_finite_residual"


class TraceLevel(str, Enum):
    NONE = "none"
    SUMMARY = "summary"  # every 100th iteration plus the final one
    FULL = "full"


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver knobs.

    ``rho`` is the probe-step fraction in (0, 1); ``gamma`` shapes the
    randomized coordinate distribution ``p_i ~ l_i**gamma`` (0 = uniform);
    ``seed`` drives every random draw the solver makes.
    """

    rho: float = 0.999
    gamma: float = 0.0
    tolerance: float = 1e-8
    max_iterations: int = 500_000
    seed: int = 0
    trace: TraceLevel = TraceLevel.NONE

    def __post_init__(self) -> None:
        if not 0.0 < self.rho < 1.0:
            raise ConfigurationError(f"rho must lie strictly in (0, 1), got {self.rho}")
        if self.gamma < 0:
            raise ConfigurationError(f"gamma must be nonnegative, got {self.gamma}")
        if self.tolerance <= 0:
            raise ConfigurationError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be at least 1, got {self.max_iterations}"
            )
        if not 0 <= int(self.seed) < 2**64:
            raise ConfigurationError(f"seed must be in [0, 2**64), got {self.seed}")
        if not isinstance(self.trace, TraceLevel):
            object.__setattr__(self, "trace", TraceLevel(self.trace))


@dataclass
class IterationRecord:
    """One completed iteration, as stored in a run trace.

    ``beta`` is 0.0 on iterations that converge at the probe point (the
    projection step is never formed there). ``selected_index`` is None for
    the full-vector method; ``reset`` flags watchdog iterations whose
    challenger strictly beat the reference.
    """

    k: int
    selected_index: int | None
    residual_y: float
    beta: float
    nf_so_far: float
    reset: bool | None = None


@dataclass
class StepObservation:
    """Full per-iteration state handed to callbacks (arrays are copies).

    ``f_x`` is only populated by methods that actually compute the full map
    at ``x_k`` (eg, gmini); the coordinate methods never see it, and
    observers that need it can evaluate the problem directly. ``x_next`` is
    None on the converging iteration.
    """

    k: int
    x: np.ndarray
    y: np.ndarray
    x_next: np.ndarray | None
    f_y: np.ndarray
    f_x: np.ndarray | None
    selected_index: int | None
    selected_value: float | None
    beta: float
    residual_y: float
    converged: bool
    challenger_index: int | None = None
    challenger_value: float | None = None
    reference_value: float | None = None
    reset: bool | None = None


@dataclass
class RunResult:
    """Outcome of one solver run.

    ``final_point`` is the accepted probe point on convergence or the last
    probe point when the iteration cap is hit, and ``final_residual`` is the
    map norm measured at that point -- so the status is ``CONVERGED`` exactly
    when ``final_residual <= tolerance``. After a step-size failure the pair
    reports the iterate the failing step started from; after a non-finite
    residual, the probe point and the residual read there. Either failure
    counts only the iterations completed before it.
    """

    method: str
    status: RunStatus
    final_point: np.ndarray
    final_residual: float
    iterations: int
    nf: float
    wall_time_seconds: float
    trace: list[IterationRecord]
    ledger: CostLedger
    config: SolverConfig
    failure: StepsizeFailure | None = None

    @property
    def converged(self) -> bool:
        return self.status is RunStatus.CONVERGED


# ---------------------------------------------------------------------------
# Step-size rules
# ---------------------------------------------------------------------------


def beta_full(
    f_y: np.ndarray, x: np.ndarray, y: np.ndarray, *,
    norm_sq: float | None = None, iteration: int | None = None,
) -> float:
    """Projection step size for the full-vector method.

    ``beta = <F(y), x - y> / ||F(y)||^2``. Raises :class:`SolutionFound`
    when ``F(y)`` vanishes -- the probe point is then an exact solution and
    no step is needed. A strictly negative inner product raises
    :class:`StepsizeFailure`, as in :func:`beta_component`.
    """
    if norm_sq is None:
        norm_sq = float(np.dot(f_y, f_y))
    if norm_sq == 0.0:
        raise SolutionFound(np.array(y, dtype=float, copy=True))
    product = float(np.dot(f_y, x - y))
    if product < 0.0:
        raise StepsizeFailure(product, iteration=iteration)
    return product / norm_sq


def beta_component(
    f_y: np.ndarray,
    i: int,
    f_x_i: float,
    l_i: float,
    rho: float,
    *,
    norm_sq: float | None = None,
    iteration: int | None = None,
) -> float:
    """Projection step size for the single-coordinate methods.

    ``beta = rho * F_i(y) * F_i(x) / (l_i * ||F(y)||^2)``. A zero product
    gives the legal degenerate step ``beta = 0``; a strictly negative one
    raises :class:`StepsizeFailure` since it would break Fejer monotonicity.
    """
    product = float(f_y[i]) * float(f_x_i)
    if product < 0.0:
        raise StepsizeFailure(product, iteration=iteration, coordinate=int(i))
    if norm_sq is None:
        norm_sq = float(np.dot(f_y, f_y))
    if norm_sq == 0.0:
        raise SolutionFound()
    return rho * product / (l_i * norm_sq)


def lipschitz_power_sampler(
    componentwise_lipschitz: np.ndarray, gamma: float
) -> IndexSampler:
    """Sampler drawing index ``i`` with probability proportional to ``l_i**gamma``.

    Uses an inverse-CDF lookup over a precomputed cumulative table;
    ``gamma = 0`` reduces to the uniform distribution.
    """
    weights = np.asarray(componentwise_lipschitz, dtype=float) ** gamma
    total = float(weights.sum())
    if not np.isfinite(total) or total <= 0:
        raise ConfigurationError("index weights must have a positive finite sum")
    cumulative = np.cumsum(weights / total)
    top = len(weights) - 1

    def sampler(k: int, gen: np.random.Generator, session: EvaluationSession) -> int:
        u = gen.random()
        return min(int(np.searchsorted(cumulative, u, side="right")), top)

    return sampler


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


@dataclass
class _Run:
    """What the probes of one run read: its session, draws and constants."""

    session: EvaluationSession
    gen: np.random.Generator
    sampler: IndexSampler | None
    scale: float | None  # eg's probe step rho / L
    reference: int | None = None  # wmax's remembered coordinate


_NO_WATCH = (None, None, None, None)  # (challenger, F_c, F_ref, reset) outside wmax


def _probe_eg(run: _Run, k: int):
    """Full probe ``y = x - (rho/L) F(x)``: one full evaluation."""
    session = run.session
    f_x = session.eval_full()
    session.set_point(session.point - run.scale * f_x)
    return None, None, f_x, _NO_WATCH


def _probe_gmini(run: _Run, k: int):
    """The largest ``|F_i(x)|`` of one full evaluation; ties go to the smallest index."""
    f_x = run.session.eval_full()
    magnitudes = np.abs(f_x)
    if float(magnitudes.max()) == 0.0:
        return None, None, f_x, _NO_WATCH  # x is an exact root; probe in place
    i = int(np.argmax(magnitudes))
    return i, float(f_x[i]), f_x, _NO_WATCH


def _probe_rmini(run: _Run, k: int):
    """One drawn coordinate: a single coordinate read."""
    i = int(run.sampler(k, run.gen, run.session))
    return i, run.session.eval_component(i), None, _NO_WATCH


def _start_wmax(run: _Run) -> bool:
    """Seed the reference with one full evaluation; True when ``x_0`` is a root."""
    magnitudes = np.abs(run.session.eval_full())
    if float(magnitudes.max()) == 0.0:
        return True
    run.reference = int(np.argmax(magnitudes))
    return False


def _probe_wmax(run: _Run, k: int):
    """Randomized probing guarded by a remembered reference coordinate.

    Each iteration charges exactly two coordinate reads (reference and
    challenger -- even when the draw lands on the reference itself) and one
    full evaluation, after a single full evaluation at start-up to seed the
    reference. The probed coordinate always carries the larger magnitude of
    the two, so its magnitude dominates the challenger's by construction.
    """
    session = run.session
    challenger = int(run.sampler(k, run.gen, session))
    f_ref = session.eval_component(run.reference)
    f_ch = session.eval_component(challenger)  # charged even when it is the reference
    reset = bool(abs(f_ch) > abs(f_ref))  # ties keep the reference
    i, f_x_i = (challenger, f_ch) if reset else (run.reference, f_ref)
    run.reference = i
    return i, f_x_i, None, (challenger, f_ch, f_ref, reset)


# method id -> (display name, probe, start hook). A probe makes the method's
# charged reads at x_k and returns (i, F_i(x_k), F(x_k) or None, watchdog
# tuple); the driver then moves coordinate i to reach y_k, or finds the
# session at y_k already when i is None. A start hook runs once before the
# first iteration and returns True when x_0 is an exact root.
_METHODS = {
    "eg": ("EG", _probe_eg, None),
    "gmini": ("G-Mini-EG", _probe_gmini, None),
    "rmini": ("R-Mini-EG", _probe_rmini, None),
    "wmax": ("Watchdog-Max", _probe_wmax, _start_wmax),
}

METHOD_IDS = tuple(_METHODS)


def method_display_name(method: str) -> str:
    if method not in _METHODS:
        raise ConfigurationError(
            f"unknown method {method!r}; choose from {', '.join(METHOD_IDS)}"
        )
    return _METHODS[method][0]


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_solver(
    problem: MonotoneMapping,
    method: str,
    config: SolverConfig | None = None,
    *,
    x0: np.ndarray | None = None,
    projection: Projection | None = None,
    callback: Callable[[StepObservation], None] | None = None,
    index_sampler: IndexSampler | None = None,
) -> RunResult:
    """Run one solver on one problem instance.

    ``x0`` defaults to the origin and is projected onto the feasible region
    before the run starts (a non-finite projected start raises
    :class:`~minieg.core.ConfigurationError`); ``projection`` defaults to the
    problem's feasible region. ``callback`` receives a
    :class:`StepObservation` after every iteration (this forces
    per-iteration array copies; leave it None for timed runs) --
    :func:`minieg.bench.rank_trace` builds its rank diagnostics on it.
    ``index_sampler`` overrides the coordinate draw of the randomized
    methods -- chiefly a testing hook.

    Wall time covers the solve loop only; any spectral setup the method
    needs is performed (and cached on the problem) before the clock starts.
    """
    method_display_name(method)  # rejects an unknown method id
    cfg = config if config is not None else SolverConfig()
    proj = projection if projection is not None else problem.projection
    x0 = np.zeros(problem.dim) if x0 is None else np.asarray(x0, dtype=float)
    x0 = np.asarray(proj(x0), dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ConfigurationError("the projected start point must be finite")

    l = np.asarray(problem.componentwise_lipschitz, dtype=float)
    if l.shape != (problem.dim,) or np.any(l <= 0) or not np.all(np.isfinite(l)):
        raise ConfigurationError(
            "problem must provide positive finite componentwise Lipschitz constants"
        )
    scale = None
    if method == "eg":
        L = problem.ensure_global_lipschitz()  # outside the timed section
        if L is None or L <= 0 or not np.isfinite(L):
            raise ConfigurationError(f"global Lipschitz bound must be positive, got {L}")
        scale = cfg.rho / L
    if index_sampler is None and method in ("rmini", "wmax"):
        index_sampler = lipschitz_power_sampler(l, cfg.gamma)

    _, probe, start = _METHODS[method]
    ledger = CostLedger(problem.dim)
    session = problem.open_session(x0, ledger)
    run = _Run(session, seeded_generator(cfg.seed, STREAM_SOLVER), index_sampler, scale)

    trace: list[IterationRecord] = []
    record_every = {TraceLevel.FULL: 1, TraceLevel.SUMMARY: 100}.get(cfg.trace)
    rho, tolerance, last_k = cfg.rho, cfg.tolerance, cfg.max_iterations - 1

    status, iterations = RunStatus.ITERATION_CAP, cfg.max_iterations
    final_point = final_residual = failure = None

    t0 = time.perf_counter()
    if start is not None and start(run):  # x_0 is an exact root: nothing to iterate
        status, iterations = RunStatus.CONVERGED, 0
        final_point, final_residual = session.point.copy(), 0.0

    for k in range(iterations):
        x = session.point.copy()
        i, f_x_i, f_x, (challenger, f_ch, f_ref, reset) = probe(run, k)
        if i is not None:
            delta = -(rho / l[i]) * f_x_i
            if delta != 0.0:
                session.shift_coordinate(i, delta)
        f_y = session.eval_full()
        norm_sq = float(np.dot(f_y, f_y))
        residual = float(np.sqrt(norm_sq))
        converged = residual <= tolerance
        # The probe point is copied only where it is reported.
        y = session.point.copy() if converged or k == last_k or callback is not None else None

        beta, x_next = 0.0, None
        if not converged:
            if not math.isfinite(residual):
                status, iterations = RunStatus.NON_FINITE_RESIDUAL, k
                final_point, final_residual = session.point.copy(), residual
                break
            try:
                if i is None:
                    beta = beta_full(f_y, x, session.point, norm_sq=norm_sq, iteration=k)
                else:
                    beta = beta_component(f_y, i, f_x_i, l[i], rho, norm_sq=norm_sq, iteration=k)
            except StepsizeFailure as exc:
                exc.point = x  # report the iterate the failing step started from
                status, iterations, failure = RunStatus.STEPSIZE_FAILURE, k, exc
                final_point = x.copy()
                break
            x_next = proj(x - beta * f_y)
            session.set_point(x_next)

        if record_every and (k % record_every == 0 or converged or k == last_k):
            trace.append(IterationRecord(k, i, residual, beta, ledger.nf, reset))
        if callback is not None:
            callback(StepObservation(
                k=k, x=x, y=y,
                x_next=None if converged else np.array(x_next, dtype=float, copy=True),
                f_y=f_y, f_x=f_x, selected_index=i, selected_value=f_x_i,
                beta=beta, residual_y=residual, converged=converged,
                challenger_index=challenger, challenger_value=f_ch,
                reference_value=f_ref, reset=reset,
            ))
        if converged:
            status, iterations = RunStatus.CONVERGED, k + 1
            break

    wall = time.perf_counter() - t0

    if failure is not None:
        # Reporting-only evaluation; deliberately not charged to the ledger.
        final_residual = float(np.linalg.norm(problem.eval_full(final_point)))
    elif final_point is None:
        # The last probe point and the residual measured there, so status and residual agree.
        final_point, final_residual = y.copy(), residual

    return RunResult(
        method=method, status=status, final_point=final_point,
        final_residual=final_residual, iterations=iterations, nf=ledger.nf,
        wall_time_seconds=wall, trace=trace, ledger=ledger, config=cfg, failure=failure,
    )
