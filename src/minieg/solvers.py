"""Extragradient-family solvers for monotone nonlinear systems.

All four methods share one probe-then-project loop (:func:`run_solver`): a
probe moves the iterate ``x_k`` to ``y_k`` and the loop reads ``F(y_k)`` in
full. It returns ``y_k`` as the solution once that norm is within the
tolerance, and otherwise projects ``x_k - beta_k F(y_k)`` onto the feasible
region. Every method takes the same step size
``beta_k = <F(y_k), x_k - y_k> / ||F(y_k)||^2``. After a probe along ``e_i``
(a step of ``rho/l_i``) the inner product is ``(rho/l_i) F_i(y_k) F_i(x_k)``,
and the sign test reads ``F_i(y_k) F_i(x_k)`` alone. A negative value ends
the run with :class:`StepsizeFailure`; zero gives the legal null step
``beta_k = 0``. Only the probe differs:

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

Most ``rmini`` iterations on sparse recovery are null steps: the drawn
coordinate has ``F_i(x) = 0``, so ``y = x``, ``beta = 0`` and nothing moves.
Once a null step has kept ``x``'s exact bytes (and ``x`` holds no -0.0,
which a later zero step could turn into 0.0), and at least one iteration is
left to skip before the cap, the loop fast-forwards: one
``session.first_nonzero_read`` call draws and reads coordinates until one
reads nonzero, and each skipped iteration is charged what the loop would
charge it, so results and ledgers stay bit for bit the same. The scan
reads each draw through the session's ``_null_read`` hook and charges its
reads in one charge: the sparse-recovery session reads the drawn
coordinates from the full read it keeps at ``x``, which the null step made;
other sessions make their exact component read. The loop fast-forwards only when no callback is set and
the library's own sampler draws, since skipped iterations are neither
observed nor drawn through a custom sampler.

The session makes the loop's moves and keeps ``x_k`` as its ``anchor``:
eg's probe is ``session.probe(rho/L)`` and every step is
``session.step(beta, projection)``, which the session computes as
``projection(x_k - beta F(y_k))`` from the full read it keeps at ``y_k``. A
session can therefore update its cache along a move it makes itself
instead of rebuilding; the base session rebuilds through ``set_point``.
Every read, shift, move, projection and draw goes through the public
session methods (``eval_full``, ``eval_component``, ``first_nonzero_read``,
``shift_coordinate``, ``probe``, ``step``), the projection's ``__call__`` and the sampler, which
the benchmark traces; only a fast-forward charges reads without making
them through those methods: the skipped full ones, and the skipped
coordinate ones, which its scan reads through the hook. The loop copies
only what it reports.
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
    _checked_seed,
    _is_integer,
    _is_real,
    _same_bytes,
    seeded_generator,
)

__all__ = [
    "StepsizeFailure",
    "RunStatus",
    "SolverConfig",
    "StepObservation",
    "RunResult",
    "lipschitz_power_sampler",
    "METHOD_IDS",
    "method_display_name",
    "run_solver",
]

IndexSampler = Callable[[np.random.Generator, EvaluationSession], int]


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
        iteration: int,
        point: np.ndarray,
        coordinate: int | None = None,
    ) -> None:
        which = "" if coordinate is None else f", coordinate {coordinate}"
        tested = "<F(y), x - y>" if coordinate is None else "F_i(y) * F_i(x)"
        super().__init__(
            f"step-size sign test failed at iteration {iteration}{which}: "
            f"{tested} = {product:.6e} < 0 (the Lipschitz constants are too small)"
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

    def __post_init__(self) -> None:
        for name in ("rho", "gamma", "tolerance"):
            value = getattr(self, name)
            if not _is_real(value):  # a bool passes the range checks and exports as JSON true
                raise ConfigurationError(f"{name} must be a real number, got {value!r}")
        if not 0.0 < self.rho < 1.0:
            raise ConfigurationError(f"rho must lie strictly in (0, 1), got {self.rho}")
        if not 0 <= self.gamma < math.inf:  # also rejects NaN
            raise ConfigurationError(f"gamma must be finite and nonnegative, got {self.gamma}")
        if not 0 < self.tolerance < math.inf:
            raise ConfigurationError(f"tolerance must be finite and positive, got {self.tolerance}")
        if not _is_integer(self.max_iterations) or self.max_iterations < 1:
            raise ConfigurationError(
                f"max_iterations must be an integer of at least 1, got {self.max_iterations!r}"
            )
        # Plain ints, so results export as JSON.
        object.__setattr__(self, "max_iterations", int(self.max_iterations))
        object.__setattr__(self, "seed", _checked_seed(self.seed))


@dataclass
class StepObservation:
    """Full per-iteration state handed to callbacks (arrays are copies).

    ``x_next`` is None, and ``beta`` 0.0, on the converging iteration;
    ``nf_so_far`` is the ledger's NF after the iteration's charges. The
    fields with defaults are filled only by the methods that compute them:
    ``f_x`` by those that evaluate the full map at ``x_k`` (eg, gmini), the
    last four by wmax. Observers that need ``f_x`` elsewhere can evaluate
    the problem.
    """

    k: int
    x: np.ndarray
    y: np.ndarray
    x_next: np.ndarray | None
    f_y: np.ndarray
    selected_index: int | None
    selected_value: float | None
    beta: float
    residual_y: float
    converged: bool
    nf_so_far: float
    f_x: np.ndarray | None = None
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
    ledger: CostLedger
    config: SolverConfig
    failure: StepsizeFailure | None = None

    @property
    def converged(self) -> bool:
        return self.status is RunStatus.CONVERGED


_SAMPLER_BLOCK = 1024


def lipschitz_power_sampler(
    componentwise_lipschitz: np.ndarray, gamma: float
) -> IndexSampler:
    """Sampler drawing index ``i`` with probability proportional to ``l_i**gamma``.

    Uses an inverse-CDF lookup over a precomputed cumulative table;
    ``gamma = 0`` reduces to the uniform distribution.

    Uniforms are drawn ``_SAMPLER_BLOCK`` at a time and mapped by one
    vectorized lookup. A block of ``gen.random(k)`` holds the same values
    as ``k`` scalar ``gen.random()`` calls, so the indices handed out are the
    ones scalar draws would give; the generator itself runs up to one block
    ahead. A block belongs to the generator that drew it: a call with any
    other generator discards what is left of it.
    """
    weights = np.asarray(componentwise_lipschitz, dtype=float) ** gamma
    total = float(weights.sum())
    if not np.isfinite(total) or total <= 0:
        raise ConfigurationError("index weights must have a positive finite sum")
    cumulative = np.cumsum(weights / total)
    top = len(weights) - 1
    owner: np.random.Generator | None = None  # the generator of the pending block
    pending = iter(())

    def sampler(gen: np.random.Generator, session: EvaluationSession) -> int:
        nonlocal owner, pending
        if gen is owner:
            i = next(pending, None)
            if i is not None:
                return i
        owner = gen
        u = gen.random(_SAMPLER_BLOCK)
        pending = iter(np.minimum(np.searchsorted(cumulative, u, side="right"), top).tolist())
        return next(pending)

    return sampler


def _checked_sampler(sampler: IndexSampler, n: int) -> IndexSampler:
    """``sampler`` with every draw checked to be an integer, not a bool, in ``[0, n)``.

    ``rmini`` and ``wmax`` draw once per iteration, so the number of draws
    made before is the iteration's index.
    """
    draws = 0

    def checked(gen: np.random.Generator, session: EvaluationSession) -> int:
        nonlocal draws
        i = sampler(gen, session)
        if not (_is_integer(i) and 0 <= i < n):
            raise ConfigurationError(
                f"index sampler drew {i!r} at iteration {draws}; "
                f"a draw must be an integer in [0, {n})"
            )
        draws += 1
        return i

    return checked


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
    ahead: tuple[int, float] | None = None  # rmini's next (i, F_i(x)), read by a fast-forward


def _probe_eg(run: _Run):
    """Full probe ``y = x - (rho/L) F(x)``: one full evaluation."""
    f_x = run.session.eval_full()
    run.session.probe(run.scale)
    return None, None, {"f_x": f_x}


def _probe_gmini(run: _Run):
    """The largest ``|F_i(x)|`` of one full evaluation; ties go to the smallest index."""
    f_x = run.session.eval_full()
    i = int(np.abs(f_x).argmax())  # a NaN counts as largest, and is no root
    if f_x[i] == 0.0:
        return None, None, {"f_x": f_x}  # x is an exact root; probe in place
    return i, float(f_x[i]), {"f_x": f_x}


def _probe_rmini(run: _Run):
    """One drawn coordinate: a single coordinate read, or the one a fast-forward made."""
    if run.ahead is not None:
        (i, f_x_i), run.ahead = run.ahead, None
        return i, f_x_i, {}
    i = int(run.sampler(run.gen, run.session))
    return i, run.session.eval_component(i), {}


def _start_wmax(run: _Run) -> bool:
    """Seed the reference with gmini's probe at ``x_0``; True when ``x_0`` is a root."""
    run.reference = _probe_gmini(run)[0]
    return run.reference is None


def _probe_wmax(run: _Run):
    """Randomized probing guarded by a remembered reference coordinate.

    Each iteration charges exactly two coordinate reads (reference and
    challenger -- even when the draw lands on the reference itself) and one
    full evaluation, after a single full evaluation at start-up to seed the
    reference. The probed coordinate always carries the larger magnitude of
    the two, so its magnitude dominates the challenger's by construction.
    """
    session = run.session
    challenger = int(run.sampler(run.gen, session))
    f_ref = session.eval_component(run.reference)
    f_ch = session.eval_component(challenger)  # charged even when it is the reference
    reset = bool(abs(f_ch) > abs(f_ref))  # ties keep the reference
    i, f_x_i = (challenger, f_ch) if reset else (run.reference, f_ref)
    run.reference = i
    return i, f_x_i, {
        "challenger_index": challenger, "challenger_value": f_ch,
        "reference_value": f_ref, "reset": reset,
    }


# method id -> (display name, probe, start hook). A probe makes the method's
# charged reads at x_k and returns (i, F_i(x_k), observation-only fields);
# run_solver then moves coordinate i to reach y_k, or finds the session at
# y_k already when i is None, and hands the fields to the callback's
# StepObservation alone. A start hook runs once before the first iteration
# and returns True when x_0 is an exact root.
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
    problem's feasible region. ``callback``, the one per-iteration output,
    receives a :class:`StepObservation` after every iteration (this forces
    per-iteration array copies; leave it None for timed runs) --
    :func:`minieg.bench.rank_trace` builds its rank diagnostics on it.
    ``index_sampler`` overrides the coordinate draw of the randomized
    methods -- chiefly a testing hook; a draw that is not an integer in
    ``[0, n)``, or is a bool, raises :class:`~minieg.core.ConfigurationError`
    naming the draw, the iteration and ``n``. Either one keeps ``rmini`` on the
    per-step path, which calls the sampler and the session once per
    iteration; without them ``rmini`` fast-forwards through each run of null
    steps with one ``session.first_nonzero_read`` call (see the module
    docstring), with the same result, bit for bit. The map, the session and
    the projection are taken to be deterministic.

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
    l_list = l.tolist()  # Python floats: the same arithmetic, without numpy scalars
    scale = None
    if method == "eg":
        L = problem.ensure_global_lipschitz()  # outside the timed section
        if L is None or L <= 0 or not np.isfinite(L):
            raise ConfigurationError(f"global Lipschitz bound must be positive, got {L}")
        scale = cfg.rho / L
    # rmini fast-forwards through null runs only where nothing can observe
    # the skipped iterations: no callback and the library's own sampler.
    fast_forward = method == "rmini" and callback is None and index_sampler is None
    if index_sampler is not None:
        index_sampler = _checked_sampler(index_sampler, problem.dim)
    elif method in ("rmini", "wmax"):
        index_sampler = lipschitz_power_sampler(l, cfg.gamma)  # draws in range: unchecked

    _, probe, start = _METHODS[method]
    ledger = CostLedger(problem.dim)
    session = problem.open_session(x0, ledger)
    diff = np.empty(problem.dim)  # x_k - y_k, for eg's step size
    run = _Run(session, seeded_generator(cfg.seed, STREAM_SOLVER), index_sampler, scale)

    rho, tolerance, last_k = cfg.rho, cfg.tolerance, cfg.max_iterations - 1

    status, iterations = RunStatus.ITERATION_CAP, cfg.max_iterations
    final_point = final_residual = failure = None

    t0 = time.perf_counter()
    if start is not None and start(run):  # x_0 is an exact root: nothing to iterate
        status, iterations = RunStatus.CONVERGED, 0
        final_point, final_residual = session.point.copy(), 0.0

    k = 0
    while k < iterations:
        x = session.anchor  # x_k, until the step moves it
        x_seen = x.copy() if callback is not None else None
        i, f_x_i, seen = probe(run)
        if i is not None:  # eg's probe moves the session to y itself
            delta = -(rho / l_list[i]) * f_x_i
            if delta != 0.0:
                session.shift_coordinate(i, delta)
        f_y = session.eval_full()
        norm_sq = float(np.dot(f_y, f_y))
        residual = math.sqrt(norm_sq)
        converged = residual <= tolerance
        # The probe point is copied only where it is reported.
        y = session.point.copy() if converged or k == last_k or callback is not None else None

        beta = 0.0
        if not converged:
            if not math.isfinite(residual):
                status, iterations = RunStatus.NON_FINITE_RESIDUAL, k
                final_point, final_residual = session.point.copy(), residual
                break
            # The step size <F(y), x - y> / ||F(y)||^2, read along e_i after a
            # coordinate probe; norm_sq > 0 here, as the tolerance is positive.
            if i is None:
                product = float(np.dot(f_y, np.subtract(x, session.point, out=diff)))
            else:
                product = f_y.item(i) * f_x_i
            if product < 0.0:  # report the iterate the failing step started from
                failure = StepsizeFailure(product, iteration=k, coordinate=i, point=x.copy())
                status, iterations = RunStatus.STEPSIZE_FAILURE, k
                final_point = x.copy()
                break
            beta = product / norm_sq if i is None else rho * product / (l_list[i] * norm_sq)
            # A step that keeps an unmoved session's bytes returns False and
            # leaves the session at x, rebuilt and read in full. x + 0.0 turns
            # -0.0 into 0.0 and keeps every other byte. The first nonzero read
            # waits in run.ahead as the next probe, and the skipped iterations'
            # full reads at y = x are charged here in one bulk charge.
            if (not session.step(beta, proj) and fast_forward
                    and (most := last_k - k - 1) >= 1 and _same_bytes(x + 0.0, x)):
                skipped, run.ahead = session.first_nonzero_read(run.sampler, run.gen, most)
                ledger.charge_full(skipped)
                k += skipped

        if callback is not None:
            callback(StepObservation(
                k=k, x=x_seen, y=y,
                x_next=None if converged else session.anchor.copy(),
                f_y=f_y, selected_index=i, selected_value=f_x_i, beta=beta,
                residual_y=residual, converged=converged, nf_so_far=ledger.nf, **seen,
            ))
        if converged:
            status, iterations = RunStatus.CONVERGED, k + 1
            break
        k += 1

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
        wall_time_seconds=wall, ledger=ledger, config=cfg, failure=failure,
    )
