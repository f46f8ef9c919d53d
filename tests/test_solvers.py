"""Solver unit tests: step-size rules, hand-checked trajectories, accounting.

The hand-checked values below are exact in IEEE arithmetic (they only involve
powers of two), so the assertions use strict equality where that holds.
"""

import math
import re
from fractions import Fraction

import numpy as np
import pytest

from minieg import (
    BoxProjection,
    ConfigurationError,
    CostLedger,
    EvaluationSession,
    IdentityProjection,
    METHOD_IDS,
    MonotoneMapping,
    Projection,
    RunStatus,
    SolverConfig,
    StepsizeFailure,
    lipschitz_power_sampler,
    method_display_name,
    run_solver,
    seeded_generator,
)
from minieg.bench import rank_trace
from minieg.core import STREAM_INSTANCE, STREAM_SOLVER
from minieg.problems import (
    AffineMonotoneProblem,
    build_cs_instance,
    random_spd_affine,
    synthetic_logreg,
)


# ---------------------------------------------------------------------------
# Step size
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method", ["gmini", "rmini", "wmax"])
def test_the_mini_step_size_is_the_general_rule_at_the_probe(method):
    """Along ``e_i`` run_solver's step size is ``<F(y), x - y> / ||F(y)||^2``.

    The first 100 iterations stay far enough from the root that ``x - y``,
    recomputed in floating point, still holds the probe's displacement to
    full precision.
    """
    problem = random_spd_affine(8, seed=21)
    config = SolverConfig(rho=0.7, max_iterations=100, tolerance=1e-300)
    _, obs = _collect(problem, method, config)
    assert len(obs) == 100 and not any(o.converged for o in obs)
    for o in obs:
        general = float(np.dot(o.f_y, o.x - o.y)) / float(np.dot(o.f_y, o.f_y))
        assert o.beta == pytest.approx(general, rel=1e-12, abs=0.0)


class _TableMap(MonotoneMapping):
    """A map given point by point: ``table[tuple(x)]`` where listed, else ``x``.

    It need not be monotone; it feeds the driver's step rule chosen values of
    ``F(x)`` and ``F(y)``. ``l_i = 1`` and ``L = 1``.
    """

    def __init__(self, dim, table):
        self._dim = dim
        self._table = {k: np.asarray(v, dtype=float) for k, v in table.items()}

    @property
    def dim(self):
        return self._dim

    @property
    def componentwise_lipschitz(self):
        return np.ones(self._dim)

    def ensure_global_lipschitz(self):
        return 1.0

    def eval_full(self, x):
        x = self._check_point(x)
        return self._table.get(tuple(x.tolist()), x).copy()

    def open_session(self, x0, ledger):
        return _GenericSession(self, x0, ledger)


def test_beta_full_hand_values():
    # rho/L = 0.5 and F(x0) = 2 x0 put the probe at y = 0, where F(y) = f_y:
    # beta = <f_y, x0> / ||f_y||^2.
    config = SolverConfig(rho=0.5, max_iterations=1, tolerance=1e-12)
    for x0, f_y, expected in [
        ((2.0, 0.0), (1.0, 0.0), 2.0),
        ((3.0, 0.0), (0.0, 1.0), 0.0),
        ((1.0, 3.0), (1.0, 1.0), 2.0),
    ]:
        problem = _TableMap(2, {x0: 2.0 * np.array(x0), (0.0, 0.0): f_y})
        _, obs = _collect(problem, "eg", config, x0=np.array(x0))
        np.testing.assert_array_equal(obs[0].y, [0.0, 0.0])
        assert obs[0].beta == expected
        np.testing.assert_array_equal(obs[0].x_next, np.array(x0) - expected * np.array(f_y))


def test_beta_full_negative_inner_product_fails():
    # F(x) = x halves x0 = (32, 0) four times (beta = 1, 1, 1, 0.5); at
    # x_4 = (2, 0) the probe lands on y = 0, where <F(y), x - y> = (-1) * 2 < 0.
    problem = _TableMap(2, {(2.0, 0.0): (4.0, 0.0), (0.0, 0.0): (-1.0, 0.0)})
    config = SolverConfig(rho=0.5)
    _, obs = _collect(problem, "eg", config, x0=np.array([32.0, 0.0]))
    assert [o.beta for o in obs] == [1.0, 1.0, 1.0, 0.5]
    result = run_solver(problem, "eg", config, x0=np.array([32.0, 0.0]))
    assert result.status is RunStatus.STEPSIZE_FAILURE
    err = result.failure
    assert err.product == -2.0
    assert err.coordinate is None
    assert err.iteration == 4
    assert "<F(y), x - y>" in str(err)
    np.testing.assert_array_equal(err.point, [2.0, 0.0])


def test_beta_component_hand_value():
    # F(x) = 2x on the line, l = 2, rho = 0.5, x0 = 1: F_i(x) = 2, y = 0.5,
    # F_i(y) = 1, ||F(y)||^2 = 1  ->  beta = 0.5*1*2/(2*1) = 0.5, x1 = 0.5.
    problem = AffineMonotoneProblem(np.array([[2.0]]))
    config = SolverConfig(rho=0.5, max_iterations=1, tolerance=1e-12)
    for method in ("gmini", "rmini", "wmax"):
        _, obs = _collect(problem, method, config, x0=np.array([1.0]))
        assert obs[0].selected_index == 0
        assert obs[0].beta == 0.5
        np.testing.assert_array_equal(obs[0].x_next, [0.5])


def test_beta_component_zero_product_is_legal_degenerate_step():
    config = SolverConfig(rho=0.5, max_iterations=1, tolerance=1e-12)
    # F_i(y) = 0 with F(y) = (0, 1) != 0: greedy picks i = 0 (F_0(x) = 2),
    # the probe y = (0, 0) zeroes F_0, and beta = 0 keeps the point.
    problem = _TableMap(2, {(1.0, 0.0): (2.0, 0.0), (0.0, 0.0): (0.0, 1.0)})
    _, obs = _collect(problem, "gmini", config, x0=np.array([1.0, 0.0]))
    assert obs[0].selected_index == 0
    np.testing.assert_array_equal(obs[0].f_y, [0.0, 1.0])
    assert obs[0].beta == 0.0
    np.testing.assert_array_equal(obs[0].x_next, [1.0, 0.0])
    # F_i(x) = 0 on the drawn coordinate, F(y) = F(x) = (0, 1): beta = 0 again.
    problem = _TableMap(2, {(1.0, 0.0): (0.0, 1.0)})
    _, obs = _collect(
        problem, "rmini", config, x0=np.array([1.0, 0.0]),
        index_sampler=lambda gen, session: 0,
    )
    assert obs[0].selected_index == 0 and obs[0].selected_value == 0.0
    assert obs[0].beta == 0.0
    np.testing.assert_array_equal(obs[0].x_next, [1.0, 0.0])


def test_beta_component_negative_product_fails():
    # F(x) = x, l = 1, rho = 0.5 halves x0 = 2^18 seventeen times (beta = 1);
    # at x_17 = 2 the probe lands on y = 1, where F_i(y) * F_i(x) = (-1) * 2 < 0.
    problem = _TableMap(1, {(1.0,): (-1.0,)})
    result = run_solver(problem, "gmini", SolverConfig(rho=0.5), x0=np.array([2.0**18]))
    assert result.status is RunStatus.STEPSIZE_FAILURE
    err = result.failure
    assert err.product == -2.0
    assert err.coordinate == 0
    assert err.iteration == 17
    assert "F_i(y) * F_i(x)" in str(err)
    np.testing.assert_array_equal(err.point, [2.0])


# ---------------------------------------------------------------------------
# Coordinate sampling
# ---------------------------------------------------------------------------


def _empirical_frequencies(l, gamma, draws, seed):
    """Draw frequencies from the sampler, cross-checked against a vectorized
    replica of its inverse-CDF lookup fed by the same random stream."""
    l = np.asarray(l, dtype=float)
    sampler = lipschitz_power_sampler(l, gamma)
    gen = seeded_generator(seed, STREAM_SOLVER)
    sequential = np.array([sampler(gen, None) for _ in range(1000)])

    weights = l**gamma
    cumulative = np.cumsum(weights / weights.sum())
    gen2 = seeded_generator(seed, STREAM_SOLVER)
    u = gen2.random(draws)
    vectorized = np.minimum(
        np.searchsorted(cumulative, u, side="right"), len(l) - 1
    )
    np.testing.assert_array_equal(sequential, vectorized[:1000])
    return np.bincount(vectorized, minlength=len(l)) / draws


def _assert_within_3_sigma(freq, target, draws):
    target = np.asarray(target, dtype=float)
    sigma = np.sqrt(target * (1 - target) / draws)
    assert np.all(np.abs(freq - target) <= 3 * sigma), (freq, target)


def test_sampler_uniform_at_zero_exponent():
    freq = _empirical_frequencies([5.0, 0.1, 2.0, 7.0], 0.0, 10**6, seed=6)
    _assert_within_3_sigma(freq, np.full(4, 0.25), 10**6)


def test_sampler_weights_by_constant_power():
    freq = _empirical_frequencies([1.0, 2.0], 1.0, 10**6, seed=7)
    _assert_within_3_sigma(freq, [1.0 / 3.0, 2.0 / 3.0], 10**6)


def test_sampler_equal_constants_stay_uniform_at_any_power():
    freq = _empirical_frequencies([2.0, 2.0, 2.0], 7.0, 10**6, seed=8)
    _assert_within_3_sigma(freq, np.full(3, 1.0 / 3.0), 10**6)


def test_sampler_rejects_degenerate_weights():
    with pytest.raises(ConfigurationError):
        lipschitz_power_sampler(np.zeros(3), 1.0)


def _scalar_draws(l, gamma, gen, count):
    """The reference lookup: one scalar uniform and one search per index."""
    weights = np.asarray(l, dtype=float) ** gamma
    cumulative = np.cumsum(weights / weights.sum())
    return [
        min(int(np.searchsorted(cumulative, gen.random(), side="right")), len(l) - 1)
        for _ in range(count)
    ]


def test_sampler_block_draws_equal_scalar_draws_across_block_boundaries():
    l = np.linspace(0.5, 4.0, 37)
    sampler = lipschitz_power_sampler(l, 1.5)
    gen = seeded_generator(21, STREAM_SOLVER)
    count = 3 * 1024 + 517  # past three block boundaries
    drawn = [sampler(gen, None) for _ in range(count)]
    assert drawn == _scalar_draws(l, 1.5, seeded_generator(21, STREAM_SOLVER), count)
    assert all(type(i) is int for i in drawn[:5])


def test_sampler_hands_no_leftover_draws_to_another_generator():
    l = np.array([1.0, 3.0, 0.5, 2.0, 5.0])
    sampler = lipschitz_power_sampler(l, 1.0)
    for seed in (4, 5, 4):  # the second run with seed 4 starts afresh too
        gen = seeded_generator(seed, STREAM_SOLVER)
        drawn = [sampler(gen, None) for _ in range(50)]
        assert drawn == _scalar_draws(l, 1.0, seeded_generator(seed, STREAM_SOLVER), 50)


# ---------------------------------------------------------------------------
# Hand-checked single steps
# ---------------------------------------------------------------------------


def _collect(problem, method, config, **kwargs):
    observations = []
    result = run_solver(
        problem, method, config, callback=observations.append, **kwargs
    )
    return result, observations


def test_full_method_hand_trajectory():
    # F(x) = x, L = 1, rho = 0.5, x0 = (1, 0):
    #   y = (0.5, 0); beta = (0.5*0.5)/0.25 = 1; x1 = (1,0) - 1*(0.5,0) = (0.5, 0)
    problem = AffineMonotoneProblem(np.eye(2), global_lipschitz=1.0)
    config = SolverConfig(rho=0.5, max_iterations=1, tolerance=1e-12)
    result, obs = _collect(problem, "eg", config, x0=np.array([1.0, 0.0]))

    step = obs[0]
    np.testing.assert_array_equal(step.y, [0.5, 0.0])
    assert step.beta == 1.0
    np.testing.assert_array_equal(step.x_next, [0.5, 0.0])
    # Capped run reports the probe point and the residual measured there.
    assert result.status is RunStatus.ITERATION_CAP
    np.testing.assert_array_equal(result.final_point, [0.5, 0.0])
    assert result.final_residual == 0.5


def test_greedy_method_hand_trajectory():
    # F(x) = diag(2,1) x, rho = 0.5, x0 = (1, 0): coordinate 0 is selected,
    # y = (0.5, 0), F(y) = (1, 0), beta = 0.5*1*2/(2*1) = 0.5, x1 = (0.5, 0).
    problem = AffineMonotoneProblem(np.diag([2.0, 1.0]))
    config = SolverConfig(rho=0.5, max_iterations=1, tolerance=1e-12)
    result, obs = _collect(problem, "gmini", config, x0=np.array([1.0, 0.0]))

    step = obs[0]
    assert step.selected_index == 0
    assert step.selected_value == 2.0
    np.testing.assert_array_equal(step.y, [0.5, 0.0])
    assert step.beta == 0.5
    np.testing.assert_array_equal(step.x_next, [0.5, 0.0])
    assert result.status is RunStatus.ITERATION_CAP


@pytest.mark.parametrize(
    "values, expected",
    [((1.0, -3.0, 2.0), 1), ((2.0, -2.0), 0), ((0.0, 0.0, 5.0), 2)],
)
def test_greedy_selection_and_tie_breaking(values, expected):
    """Largest magnitude wins; exact ties go to the smallest index."""
    n = len(values)
    problem = AffineMonotoneProblem(
        np.eye(n), rhs=-np.asarray(values, dtype=float)
    )  # F(0) = values
    config = SolverConfig(rho=0.5, max_iterations=1, tolerance=1e-300)
    _, obs = _collect(problem, "gmini", config, x0=np.zeros(n))
    assert obs[0].selected_index == expected


# ---------------------------------------------------------------------------
# Cross-method equivalences under rigged index draws
# ---------------------------------------------------------------------------


def _greedy_oracle_sampler(problem):
    def sampler(gen, session):
        f = problem.eval_full(session.point)
        return int(np.argmax(np.abs(f)))

    return sampler


@pytest.mark.parametrize("problem_factory", [
    lambda: random_spd_affine(8, seed=5),
    lambda: build_cs_instance(24, 8, 3, seed=5),
])
def test_randomized_method_with_greedy_draws_replays_greedy(problem_factory):
    """Forcing the randomized variant to draw the argmax coordinate must
    reproduce the greedy trajectory bit for bit (costs differ, paths not)."""
    problem = problem_factory()
    config = SolverConfig(rho=0.9, max_iterations=150, tolerance=1e-300)

    _, greedy_obs = _collect(problem, "gmini", config)
    _, rigged_obs = _collect(
        problem, "rmini", config, index_sampler=_greedy_oracle_sampler(problem)
    )

    assert len(greedy_obs) == len(rigged_obs) == 150
    for a, b in zip(greedy_obs, rigged_obs):
        assert a.selected_index == b.selected_index
        assert a.beta == b.beta
        np.testing.assert_array_equal(a.x_next, b.x_next)


def test_watchdog_with_self_challenges_keeps_its_reference():
    problem = random_spd_affine(8, seed=9)
    reference = int(np.argmax(np.abs(problem.eval_full(np.zeros(8)))))
    config = SolverConfig(rho=0.9, max_iterations=60, tolerance=1e-300)
    _, obs = _collect(
        problem, "wmax", config, index_sampler=lambda gen, session: reference
    )
    assert len(obs) == 60
    for o in obs:
        assert o.selected_index == reference
        assert o.reset is False


def test_watchdog_challenger_equal_to_reference_still_charges_two_reads():
    problem = random_spd_affine(4, seed=2)
    config = SolverConfig(max_iterations=25, tolerance=1e-300)
    result = run_solver(
        problem, "wmax", config, index_sampler=lambda gen, session: 0
    )
    assert result.ledger.component_evals == 2 * 25


# ---------------------------------------------------------------------------
# Evaluation accounting identities
# ---------------------------------------------------------------------------


def _nf_identity(method, iterations, n):
    if method in ("eg", "gmini"):
        return Fraction(2 * iterations)
    if method == "rmini":
        return Fraction(iterations) * (1 + Fraction(1, n))
    return 1 + Fraction(iterations) * (1 + Fraction(2, n))


@pytest.mark.parametrize("method", METHOD_IDS)
@pytest.mark.parametrize("cap", [1, 37])
def test_ledger_identities_hold_at_the_cap(method, cap):
    problem = build_cs_instance(16, 6, 2, seed=3)
    config = SolverConfig(max_iterations=cap, tolerance=1e-300)
    result = run_solver(problem, method, config)
    assert result.status is RunStatus.ITERATION_CAP
    assert result.iterations == cap
    assert result.ledger.nf_exact() == _nf_identity(method, cap, problem.dim)


@pytest.mark.parametrize("method", METHOD_IDS)
def test_ledger_identities_hold_at_convergence(method):
    problem = build_cs_instance(16, 6, 2, seed=4)
    result = run_solver(problem, method, SolverConfig(tolerance=1e-6))
    assert result.converged
    assert result.ledger.nf_exact() == _nf_identity(
        method, result.iterations, problem.dim
    )
    assert result.nf == float(result.ledger.nf_exact())


# ---------------------------------------------------------------------------
# Termination behavior
# ---------------------------------------------------------------------------


def test_full_method_at_exact_root_stops_on_first_probe():
    problem = random_spd_affine(5, seed=1)
    result = run_solver(problem, "eg", x0=problem.root)
    assert result.converged
    assert result.iterations == 1
    assert result.ledger.nf_exact() == 2
    np.testing.assert_allclose(result.final_point, problem.root, atol=1e-12)


def test_greedy_method_at_exact_root_stops_on_first_probe():
    problem = random_spd_affine(5, seed=1)
    result = run_solver(problem, "gmini", x0=problem.root)
    assert result.converged
    assert result.iterations == 1
    assert result.final_residual == 0.0
    assert result.ledger.nf_exact() == 2


def test_randomized_method_at_exact_root_stops_on_first_probe():
    problem = random_spd_affine(5, seed=1)
    result = run_solver(problem, "rmini", x0=problem.root)
    assert result.converged
    assert result.iterations == 1
    assert result.ledger.nf_exact() == 1 + Fraction(1, 5)


def test_watchdog_at_exact_root_stops_before_iterating():
    problem = random_spd_affine(5, seed=1)
    result = run_solver(problem, "wmax", x0=problem.root)
    assert result.converged
    assert result.iterations == 0
    assert result.ledger.nf_exact() == 1
    assert result.final_residual == 0.0
    np.testing.assert_array_equal(result.final_point, problem.root)


def test_full_method_converges_on_identity_mapping():
    rhs = np.array([1.0, -2.0, 0.5, 3.0])
    problem = AffineMonotoneProblem(np.eye(4), rhs=rhs, global_lipschitz=1.0)
    for rho in (0.1, 0.5, 0.999):
        result = run_solver(problem, "eg", SolverConfig(rho=rho))
        assert result.converged
        assert result.final_residual <= 1e-8
        np.testing.assert_allclose(result.final_point, rhs, atol=1e-7)


@pytest.mark.parametrize("method", METHOD_IDS)
def test_cap_exit_reports_the_measured_probe_residual(method):
    problem = random_spd_affine(8, seed=3)
    config = SolverConfig(rho=0.5, tolerance=1e-300, max_iterations=40)
    result = run_solver(problem, method, config)
    assert result.status is RunStatus.ITERATION_CAP
    assert result.final_residual > config.tolerance
    recomputed = float(np.linalg.norm(problem.eval_full(result.final_point)))
    assert recomputed == pytest.approx(result.final_residual, rel=1e-12)


def test_status_and_residual_agree_on_converged_runs():
    problem = build_cs_instance(32, 8, 2, seed=6)
    result = run_solver(problem, "gmini")
    assert result.converged
    assert result.final_residual <= 1e-8
    recomputed = float(np.linalg.norm(problem.eval_full(result.final_point)))
    assert recomputed == pytest.approx(result.final_residual, rel=1e-12)


# ---------------------------------------------------------------------------
# Step-size failure on misdeclared constants
# ---------------------------------------------------------------------------


class _GenericSession(EvaluationSession):
    def _rebuild(self):
        self._f = self._problem.eval_full(self._x)

    def _compute_full(self):
        return self._f.copy()

    def _compute_component(self, i):
        return float(self._f[i])


class _MisdeclaredSlope(MonotoneMapping):
    """F(x) = 2x - 2 on the line, advertising a slope bound of only 0.5.

    The probe step then overshoots far enough that the map changes sign
    between x and y, which the component step-size rule must refuse.
    """

    @property
    def dim(self):
        return 1

    @property
    def componentwise_lipschitz(self):
        return np.array([0.5])

    def ensure_global_lipschitz(self):
        return 2.0

    def eval_full(self, x):
        x = self._check_point(x)
        return 2.0 * x - 2.0

    def open_session(self, x0, ledger):
        return _GenericSession(self, x0, ledger)


@pytest.mark.parametrize("method", ["gmini", "rmini", "wmax"])
def test_misdeclared_slope_aborts_with_stepsize_failure(method):
    problem = _MisdeclaredSlope()
    rho = 0.999
    result = run_solver(problem, method, SolverConfig(rho=rho))
    assert result.status is RunStatus.STEPSIZE_FAILURE
    assert not result.converged
    assert result.iterations == 0
    assert result.failure is not None
    assert result.failure.iteration == 0
    assert result.failure.coordinate == 0
    assert result.failure.product < 0
    # The tested quantity is F_i(y) * F_i(x) at the probe y = x - (rho/l_i) F_i(x) e_i.
    x = result.failure.point
    f_x = problem.eval_full(x)
    y = x - (rho / 0.5) * f_x
    assert result.failure.product == problem.eval_full(y)[0] * f_x[0]
    assert "F_i(y) * F_i(x)" in str(result.failure)
    # The reported point is the iterate the failing step started from.
    np.testing.assert_array_equal(result.final_point, [0.0])
    assert result.final_residual == 2.0
    _assert_separate_copies(result.failure.point, result.final_point)


def _assert_separate_copies(a, b):
    assert a.tobytes() == b.tobytes()
    assert a is not b and not np.shares_memory(a, b)


def test_underestimated_global_constant_aborts_the_full_method():
    matrix = random_spd_affine(8, seed=1)._M
    problem = AffineMonotoneProblem(
        matrix, global_lipschitz=0.05 * float(np.linalg.norm(matrix, 2))
    )
    x0 = np.ones(8)
    config = SolverConfig(max_iterations=5000)
    result = run_solver(problem, "eg", config, x0=x0)
    assert result.status is RunStatus.STEPSIZE_FAILURE
    assert result.iterations == 0
    assert result.failure.iteration == 0
    assert result.failure.coordinate is None
    assert result.failure.product < 0
    # The tested quantity is <F(y), x - y> at the probe y = x - (rho/L) F(x).
    y = x0 - (config.rho / problem.ensure_global_lipschitz()) * problem.eval_full(x0)
    expected = float(np.dot(problem.eval_full(y), x0 - y))
    assert result.failure.product == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert "<F(y), x - y>" in str(result.failure)
    np.testing.assert_array_equal(result.final_point, x0)
    assert result.final_residual == float(np.linalg.norm(matrix @ x0))
    _assert_separate_copies(result.failure.point, result.final_point)


def test_correct_constants_do_not_fail():
    problem = random_spd_affine(6, seed=8)
    for method in ("gmini", "rmini", "wmax"):
        result = run_solver(problem, method, SolverConfig(max_iterations=500))
        assert result.status is not RunStatus.STEPSIZE_FAILURE


class _TurnsNaN(MonotoneMapping):
    """The rotation F(x) = (x_2, -x_1), which reads NaN from its tenth evaluation on."""

    def __init__(self):
        self.calls = 0

    @property
    def dim(self):
        return 2

    @property
    def componentwise_lipschitz(self):
        return np.ones(2)

    def ensure_global_lipschitz(self):
        return 1.0

    def eval_full(self, x):
        x = self._check_point(x)
        self.calls += 1
        if self.calls >= 10:
            return np.full(2, np.nan)
        return np.array([x[1], -x[0]])

    def open_session(self, x0, ledger):
        return _GenericSession(self, x0, ledger)


@pytest.mark.parametrize("method", METHOD_IDS)
def test_a_non_finite_residual_ends_the_run(method):
    problem = _TurnsNaN()
    config = SolverConfig(max_iterations=1000)
    result, seen = _collect(problem, method, config, x0=np.array([1.0, 0.0]))
    assert result.status is RunStatus.NON_FINITE_RESIDUAL
    assert not result.converged and result.failure is None
    # The run stops at the first probe that reads NaN: it completed every
    # earlier iteration and nothing after it.
    assert 0 < result.iterations < 10
    assert len(seen) == result.iterations
    assert all(math.isfinite(o.residual_y) for o in seen)
    assert math.isnan(result.final_residual)
    assert result.final_point.shape == (2,)


# ---------------------------------------------------------------------------
# Traces and diagnostics
# ---------------------------------------------------------------------------


def test_the_converging_iteration_is_observed_with_a_zero_step():
    problem = random_spd_affine(6, seed=2)
    result, obs = _collect(problem, "gmini", SolverConfig())
    assert result.converged
    assert [o.k for o in obs] == list(range(result.iterations))
    assert obs[-1].converged and obs[-1].x_next is None
    assert obs[-1].residual_y <= 1e-8
    assert obs[-1].beta == 0.0


def test_every_iteration_is_observed():
    problem = random_spd_affine(6, seed=2)
    config = SolverConfig(max_iterations=30, tolerance=1e-300)
    _, obs = _collect(problem, "wmax", config)
    assert [o.k for o in obs] == list(range(30))
    nf_values = [o.nf_so_far for o in obs]
    assert nf_values == sorted(nf_values)
    assert all(o.reset in (True, False) for o in obs)


@pytest.mark.parametrize("case", ["cs", "affine"])  # nonnegative and identity projections
@pytest.mark.parametrize("method", METHOD_IDS)
def test_observed_vectors_are_not_overwritten_by_later_iterations(method, case):
    build = {
        "cs": lambda: build_cs_instance(24, 8, 3, seed=1),
        "affine": lambda: random_spd_affine(6, seed=2),
    }[case]
    config = SolverConfig(max_iterations=40, tolerance=1e-300)
    _, obs = _collect(build(), method, config)
    assert len(obs) == 40
    assert len({o.x.tobytes() for o in obs}) > 1  # the iterate moved
    for before, after in zip(obs, obs[1:]):
        assert after.x.tobytes() == before.x_next.tobytes()


class _ShrinksAfterTheStart(Projection):
    """Projects the start point faithfully, then drops the last coordinate."""

    def __init__(self):
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return x if self.calls == 1 else x[:-1]


@pytest.mark.parametrize("method", METHOD_IDS)
def test_a_projection_of_the_wrong_shape_fails_fast(method):
    problem = random_spd_affine(6, seed=2)
    config = SolverConfig(max_iterations=5, tolerance=1e-300)
    with pytest.raises(ConfigurationError, match="shape"):
        run_solver(problem, method, config, projection=_ShrinksAfterTheStart())


@pytest.mark.parametrize("method", METHOD_IDS)
def test_observed_nf_follows_the_ledger_identity(method):
    """After ``k + 1`` iterations a method has made exactly the charged reads
    its ledger identity counts, so ``nf_so_far`` is ``full + component / n``
    for those counts; the last observation carries the run's NF."""
    problem = random_spd_affine(8, seed=4)
    n = problem.dim
    config = SolverConfig(max_iterations=40, tolerance=1e-300)
    result, obs = _collect(problem, method, config)
    assert len(obs) == 40
    for o in obs:
        done = o.k + 1
        full, component = {
            "eg": (2 * done, 0),
            "gmini": (2 * done, 0),
            "rmini": (done, done),
            "wmax": (1 + done, 2 * done),
        }[method]
        assert o.nf_so_far == full + component / n
    assert obs[-1].nf_so_far == result.nf


def _count_uncharged_evaluations(problem):
    """Count calls of ``problem.eval_full``, which no ledger is charged for."""
    calls = []
    evaluate = problem.eval_full

    def counted(x):
        calls.append(1)
        return evaluate(x)

    problem.eval_full = counted
    return calls


def test_diagnostics_record_integer_ranks():
    problem = build_cs_instance(24, 8, 3, seed=7)
    config = SolverConfig(max_iterations=40, tolerance=1e-300)
    uncharged = _count_uncharged_evaluations(problem)
    result, points = rank_trace(problem, "rmini", config)
    ranks = [p.normalized_rank * problem.dim for p in points]
    assert len(ranks) == 40
    assert all(r == pytest.approx(round(r)) and 1 <= round(r) <= problem.dim for r in ranks)
    # One extra evaluation per point, none of them charged to the run's ledger.
    assert len(uncharged) == 40
    assert result.ledger.nf_exact() == _nf_identity("rmini", 40, problem.dim)


def test_greedy_diagnostics_rank_is_always_one():
    problem = random_spd_affine(10, seed=12)
    config = SolverConfig(max_iterations=25, tolerance=1e-300)
    _, points = rank_trace(problem, "gmini", config)
    assert len(points) == 25
    assert all(p.normalized_rank == 1 / problem.dim for p in points)


def test_rank_is_absent_without_diagnostics():
    problem = random_spd_affine(6, seed=2)
    config = SolverConfig(max_iterations=10, tolerance=1e-300)
    uncharged = _count_uncharged_evaluations(problem)
    result, obs = _collect(problem, "rmini", config)
    assert len(obs) == 10
    assert uncharged == []
    assert result.ledger.nf_exact() == _nf_identity("rmini", 10, problem.dim)


# ---------------------------------------------------------------------------
# R-Mini-EG fast-forward through null steps
# ---------------------------------------------------------------------------


def _outcome(result):
    """Everything a run returns, floats and points as exact bytes."""
    return (
        result.status, result.iterations, result.ledger.full_evals,
        result.ledger.component_evals, result.final_residual.hex(),
        result.final_point.tobytes(),
    )


def _count_session_calls(problem, names=("eval_full", "eval_component")):
    """Count calls of the named methods of every session the problem opens from now on.

    The methods are wrapped on the session instance, as the benchmark's
    traced runs wrap them, so a call that bypasses them goes uncounted.
    """
    calls = dict.fromkeys(names, 0)
    open_session = problem.open_session

    def open_counted(x0, ledger):
        session = open_session(x0, ledger)
        for name in names:
            bound = getattr(session, name)

            def counted(*args, _name=name, _call=bound):
                calls[_name] += 1
                return _call(*args)

            setattr(session, name, counted)
        return session

    problem.open_session = open_counted
    return calls


FAST_FORWARD_CASES = {
    "cs": (lambda: build_cs_instance(32, 12, 4, seed=11), SolverConfig(seed=1)),
    "logreg-dense": (lambda: synthetic_logreg(20, 40, seed=11), SolverConfig(seed=1, tolerance=1e-6)),
    # Iterations 388-397 are null steps; the cap ends the run at 394.
    "cs-cap": (lambda: build_cs_instance(32, 12, 4, seed=11), SolverConfig(seed=1, max_iterations=395)),
    # The benchmark's desk shape, whose rmini runs are mostly null steps.
    **{
        f"cs-desk-{s}": (lambda s=s: build_cs_instance(256, 64, 8, seed=s),
                         SolverConfig(seed=s, tolerance=1e-3))
        for s in range(2)
    },
}


@pytest.mark.parametrize("case", list(FAST_FORWARD_CASES))
def test_fast_forward_matches_the_per_step_path(case):
    build, config = FAST_FORWARD_CASES[case]
    problem = build()
    reads = _count_session_calls(problem)
    fast = run_solver(problem, "rmini", config)
    stepped = run_solver(build(), "rmini", config, callback=lambda obs: None)
    assert _outcome(fast) == _outcome(stepped)
    if case.startswith("cs"):  # null steps were skipped, and charged all the same
        assert reads["eval_full"] < fast.ledger.full_evals
        # The skipped coordinates were read from the kept full read.
        assert reads["eval_component"] < fast.ledger.component_evals
    else:  # no null steps: every iteration went through the loop
        assert reads["eval_full"] == fast.ledger.full_evals


class _SignedZeroDiagonal(MonotoneMapping):
    """``F(x) = (1, x_1, x_2)``, whose component reads give -0.0 where ``F_2`` is 0.0.

    Both reads are exact; they differ only in the sign of a zero, as reads
    summed in different orders may. A null step on coordinate 2 then takes
    ``beta = -0.0``, which turns a -0.0 at coordinate 0 into 0.0, while one
    on coordinate 1 keeps every byte. Coordinate 0 has so small a constant
    that ``gamma = 1`` never draws it.
    """

    @property
    def dim(self):
        return 3

    @property
    def componentwise_lipschitz(self):
        return np.array([1e-12, 1.0, 1.0])

    def ensure_global_lipschitz(self):
        return 1.0

    def eval_full(self, x):
        x = self._check_point(x)
        return np.array([1.0, x[1], x[2]])

    def open_session(self, x0, ledger):
        return _SignedZeroSession(self, x0, ledger)


class _SignedZeroSession(_GenericSession):
    def _compute_component(self, i):
        value = float(self._f[i])
        return -(0.0 - value) if i == 2 else value  # -(0.0 - 0.0) is -0.0


@pytest.mark.parametrize(
    "projection", [IdentityProjection(), BoxProjection(-1.0, 1.0)], ids=["identity", "box"]
)
@pytest.mark.parametrize("seed", range(4))
def test_fast_forward_keeps_negative_zeros_exact(projection, seed):
    problem = _SignedZeroDiagonal()
    config = SolverConfig(seed=seed, gamma=1.0, max_iterations=40)
    x0 = np.array([-0.0, 0.0, 0.0])
    fast = run_solver(problem, "rmini", config, x0=x0, projection=projection)
    stepped, obs = _collect(problem, "rmini", config, x0=x0, projection=projection)
    assert _outcome(fast) == _outcome(stepped)
    assert all(o.selected_index != 0 and o.selected_value == 0.0 for o in obs)
    # The -0.0 turns into 0.0 at the first draw of coordinate 2.
    first = next(o.k for o in obs if o.selected_index == 2)
    assert all(np.signbit(o.x_next[0]) == (o.k < first) for o in obs)


class _HiddenCoordinate(MonotoneMapping):
    """``F(x) = x - 1`` on R^2, whose session reads coordinate 1 as exactly 0.0.

    The full read's entry ``x_1 - 1`` is not zero, so a fast-forward that read
    the kept ``F`` instead of calling ``eval_component`` would take a probe
    along coordinate 1 that the per-step path never takes.
    """

    @property
    def dim(self):
        return 2

    @property
    def componentwise_lipschitz(self):
        return np.ones(2)

    def eval_full(self, x):
        return self._check_point(x) - 1.0

    def open_session(self, x0, ledger):
        return _HiddenCoordinateSession(self, x0, ledger)


class _HiddenCoordinateSession(_GenericSession):
    def _compute_component(self, i):
        return 0.0 if i == 1 else float(self._f[i])


def test_a_fast_forward_reads_each_draw_through_a_generic_session():
    problem = _HiddenCoordinate()
    # Iterations 17-21 draw coordinate 1, so the cap ends a fast-forward too.
    config = SolverConfig(seed=1, max_iterations=21)
    reads = _count_session_calls(problem)
    fast = run_solver(problem, "rmini", config)
    stepped, obs = _collect(_HiddenCoordinate(), "rmini", config)
    assert _outcome(fast) == _outcome(stepped)
    assert reads["eval_full"] < fast.ledger.full_evals  # it did fast-forward
    assert reads["eval_component"] == fast.ledger.component_evals
    assert {o.selected_index for o in obs} == {0, 1}
    assert all(o.selected_value == 0.0 for o in obs if o.selected_index == 1)
    assert problem.eval_full(fast.final_point)[1] != 0.0


def _record_scans(problem):
    """The ``most`` of every ``first_nonzero_read`` call of the sessions the problem opens."""
    asks = []
    open_session = problem.open_session

    def open_recorded(x0, ledger):
        session = open_session(x0, ledger)
        scan = session.first_nonzero_read

        def recorded(sampler, gen, most):
            asks.append(most)
            return scan(sampler, gen, most)

        session.first_nonzero_read = recorded
        return session

    problem.open_session = open_recorded
    return asks


NULL_RUN_ENDS = {
    # Null steps on the last iterations: the cap falls inside a null run.
    "hidden-21": (_HiddenCoordinate, SolverConfig(seed=1, max_iterations=21)),
    "hidden-40": (_HiddenCoordinate, SolverConfig(seed=1, max_iterations=40)),
    "cs-desk-cap": (lambda: build_cs_instance(256, 64, 8, seed=0),
                    SolverConfig(seed=0, max_iterations=1316, tolerance=1e-8)),
}


@pytest.mark.parametrize("case", list(NULL_RUN_ENDS))
def test_a_fast_forward_is_entered_only_with_an_iteration_to_skip(case):
    build, config = NULL_RUN_ENDS[case]
    problem = build()
    asks = _record_scans(problem)
    fast = run_solver(problem, "rmini", config)
    stepped = run_solver(build(), "rmini", config, callback=lambda obs: None)
    assert _outcome(fast) == _outcome(stepped)
    assert asks and min(asks) >= 1


def test_a_custom_sampler_reads_every_iteration_through_the_session():
    problem = build_cs_instance(32, 12, 4, seed=11)
    config = SolverConfig(seed=1)
    reads = _count_session_calls(problem)
    sampler = lipschitz_power_sampler(problem.componentwise_lipschitz, config.gamma)
    result = run_solver(problem, "rmini", config, index_sampler=sampler)
    assert reads == {
        "eval_full": result.ledger.full_evals,
        "eval_component": result.ledger.component_evals,
    }
    # The custom sampler draws what the default one draws, so only the path differs.
    assert _outcome(result) == _outcome(run_solver(problem, "rmini", config))


BAD_DRAW_PROBLEMS = {
    "cs": lambda: build_cs_instance(16, 8, 2),
    "logreg": lambda: synthetic_logreg(60, 20, seed=3),
}


@pytest.mark.parametrize("name", sorted(BAD_DRAW_PROBLEMS))
@pytest.mark.parametrize("method", ["rmini", "wmax"])
@pytest.mark.parametrize("bad", [-1, "n", 2.7, True, np.True_, np.float64(2.0)])
def test_a_custom_sampler_draw_that_is_no_coordinate_fails_fast(name, method, bad):
    problem = BAD_DRAW_PROBLEMS[name]()
    n = problem.dim
    bad = n if bad == "n" else bad
    draws = iter([1, np.int64(2)])  # a Python int and a numpy integer are coordinates

    def sampler(gen, session):
        return next(draws, bad)

    message = rf"drew {re.escape(repr(bad))} at iteration 2; .* integer in \[0, {n}\)"
    with pytest.raises(ConfigurationError, match=message):
        run_solver(problem, method, SolverConfig(), index_sampler=sampler)


# ---------------------------------------------------------------------------
# Call pattern at the public boundaries
# ---------------------------------------------------------------------------


class _CountedProjection(Projection):
    """Defines only ``__call__``, as the benchmark's traced projection does."""

    def __init__(self, inner, calls):
        self._inner = inner
        self._calls = calls

    def __call__(self, x):
        self._calls["projection"] += 1
        return self._inner(x)


CALL_PATTERN_CASES = {
    "cs": (lambda: build_cs_instance(32, 12, 4, seed=11), SolverConfig(seed=1, tolerance=1e-6)),
    "logreg-dense": (lambda: synthetic_logreg(20, 40, seed=11), SolverConfig(seed=1, tolerance=1e-6)),
}

# (eval_full, eval_component, shift_coordinate, set_point, projection, sampler)
# calls of callback-free runs, captured before the step loop reused its vectors.
CALL_PATTERN = {
    ("eg", "cs"): (19786, 0, 0, 19785, 9893, 0),
    ("gmini", "cs"): (4252, 0, 2126, 2125, 2126, 0),
    ("rmini", "cs"): (18255, 18255, 2293, 2292, 18255, 18255),
    ("wmax", "cs"): (2131, 4260, 2130, 2129, 2130, 2130),
    ("eg", "logreg-dense"): (40, 0, 0, 39, 20, 0),
    ("gmini", "logreg-dense"): (950, 0, 475, 474, 475, 0),
    ("rmini", "logreg-dense"): (6151, 6151, 6151, 6150, 6151, 6151),
    ("wmax", "logreg-dense"): (505, 1008, 504, 503, 504, 504),
}


@pytest.mark.parametrize("case", list(CALL_PATTERN_CASES))
@pytest.mark.parametrize("method", METHOD_IDS)
def test_every_charged_read_and_move_goes_through_the_public_boundaries(method, case):
    build, config = CALL_PATTERN_CASES[case]
    problem = build()
    calls = _count_session_calls(
        problem, ("eval_full", "eval_component", "shift_coordinate", "set_point")
    )
    calls.update(projection=0, sampler=0)
    draw = lipschitz_power_sampler(problem.componentwise_lipschitz, config.gamma)

    def sampler(gen, session):
        calls["sampler"] += 1
        return draw(gen, session)

    result = run_solver(
        problem, method, config,
        projection=_CountedProjection(problem.projection, calls), index_sampler=sampler,
    )
    assert result.converged
    assert tuple(calls.values()) == CALL_PATTERN[method, case]
    assert (calls["eval_full"], calls["eval_component"]) == (
        result.ledger.full_evals, result.ledger.component_evals
    )


# ---------------------------------------------------------------------------
# Determinism and configuration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method", ["rmini", "wmax"])
def test_same_seed_reproduces_the_trace_bitwise(method):
    problem = build_cs_instance(24, 8, 3, seed=1)
    config = SolverConfig(seed=42, max_iterations=120, tolerance=1e-300)
    a, a_obs = _collect(problem, method, config)
    b, b_obs = _collect(problem, method, config)
    assert len(a_obs) == len(b_obs) == 120
    for u, v in zip(a_obs, b_obs):
        assert (u.selected_index, u.residual_y, u.beta, u.nf_so_far, u.reset) == (
            v.selected_index, v.residual_y, v.beta, v.nf_so_far, v.reset
        )
        np.testing.assert_array_equal(u.x_next, v.x_next)
    np.testing.assert_array_equal(a.final_point, b.final_point)
    assert a.ledger == b.ledger


def test_different_seeds_draw_different_coordinates():
    problem = build_cs_instance(24, 8, 3, seed=1)
    picks = {}
    for seed in (0, 1):
        config = SolverConfig(seed=seed, max_iterations=60, tolerance=1e-300)
        picks[seed] = [o.selected_index for o in _collect(problem, "rmini", config)[1]]
    assert picks[0] != picks[1]


def test_start_point_is_projected_into_the_feasible_region():
    problem = build_cs_instance(16, 6, 2, seed=2)  # nonnegative orthant
    config = SolverConfig(max_iterations=1, tolerance=1e-300)
    _, obs = _collect(problem, "gmini", config, x0=-np.ones(problem.dim))
    np.testing.assert_array_equal(obs[0].x, np.zeros(problem.dim))


def test_config_validation():
    for bad in (dict(rho=0.0), dict(rho=1.0), dict(rho=-0.1), dict(gamma=-1.0),
                dict(tolerance=0.0), dict(max_iterations=0), dict(seed=-1),
                dict(seed=2**64), dict(tolerance=math.nan), dict(tolerance=math.inf),
                dict(gamma=math.nan), dict(gamma=math.inf), dict(max_iterations=1e3),
                dict(max_iterations=10.0), dict(seed=1.5), dict(seed=np.float64(2.0)),
                dict(seed="3"), dict(seed=True), dict(seed=False),
                dict(max_iterations=True), dict(max_iterations=np.bool_(True))):
        with pytest.raises(ConfigurationError):
            SolverConfig(**bad)
    config = SolverConfig(max_iterations=np.int64(7), seed=np.uint32(3))
    assert (config.max_iterations, config.seed) == (7, 3)
    assert type(config.max_iterations) is int and type(config.seed) is int


@pytest.mark.parametrize("name", ["rho", "gamma", "tolerance"])
@pytest.mark.parametrize("value", [True, False, np.bool_(True), "0.5", None])
def test_config_rejects_real_knobs_that_are_no_numbers(name, value):
    # A bool passed the range checks (True == 1) and exported as JSON true,
    # which the results schema rejects.
    with pytest.raises(ConfigurationError, match=f"{name} must be a real number"):
        SolverConfig(**{name: value})


def test_method_registry():
    assert METHOD_IDS == ("eg", "gmini", "rmini", "wmax")
    names = [method_display_name(m) for m in METHOD_IDS]
    assert names == ["EG", "G-Mini-EG", "R-Mini-EG", "Watchdog-Max"]
    with pytest.raises(ConfigurationError):
        method_display_name("newton")
    with pytest.raises(ConfigurationError):
        run_solver(random_spd_affine(2, seed=0), "newton")


@pytest.mark.parametrize("method", METHOD_IDS)
def test_rejects_a_non_finite_start_point(method):
    problem = build_cs_instance(64, 16, 4, seed=3)
    x0 = np.zeros(problem.dim)
    x0[3] = np.nan
    with pytest.raises(ConfigurationError, match="finite"):
        run_solver(problem, method, SolverConfig(max_iterations=20_000), x0=x0)


class _SlopeOfShape(_MisdeclaredSlope):
    """The one-dimensional line map, advertising constants of a given value."""

    def __init__(self, constants):
        self.constants = np.asarray(constants, dtype=float)

    @property
    def componentwise_lipschitz(self):
        return self.constants


@pytest.mark.parametrize("constants", [[1.0, 1.0], [0.0], [-1.0], [np.inf], [np.nan]])
@pytest.mark.parametrize("method", METHOD_IDS)
def test_rejects_unusable_componentwise_constants(method, constants):
    with pytest.raises(ConfigurationError, match="componentwise Lipschitz constants"):
        run_solver(_SlopeOfShape(constants), method)


@pytest.mark.parametrize("bound", [0.0, -1.0, np.inf, np.nan])
def test_the_full_method_rejects_an_unusable_global_constant(bound):
    problem = AffineMonotoneProblem(np.eye(2), global_lipschitz=bound)
    with pytest.raises(ConfigurationError, match="global Lipschitz bound"):
        run_solver(problem, "eg")
    assert run_solver(problem, "gmini").converged  # only eg reads the bound


def test_rejects_mismatched_start_dimension():
    with pytest.raises(ConfigurationError):
        run_solver(random_spd_affine(4, seed=0), "eg", x0=np.zeros(5))


# ---------------------------------------------------------------------------
# Step-size positivity along instrumented runs
# ---------------------------------------------------------------------------


def _assert_probe_alignment(problem, method, config):
    """F(y).(x - y) >= rho(1-rho)/l_i |F_i(x)|^2 - 1e-10 on every mini step."""
    l = problem.componentwise_lipschitz
    rho = config.rho
    checked = []

    def callback(obs):
        if obs.selected_index is None:
            return
        i = obs.selected_index
        lhs = float(np.dot(obs.f_y, obs.x - obs.y))
        rhs = rho * (1 - rho) / l[i] * obs.selected_value**2
        assert lhs >= rhs - 1e-10
        checked.append(i)

    run_solver(problem, method, config, callback=callback)
    assert checked


@pytest.mark.parametrize("method", ["gmini", "rmini", "wmax"])
def test_probe_alignment_on_affine(method):
    _assert_probe_alignment(
        random_spd_affine(8, seed=15),
        method,
        SolverConfig(rho=0.999, max_iterations=300, tolerance=1e-300),
    )


@pytest.mark.parametrize("method", ["gmini", "rmini", "wmax"])
def test_probe_alignment_on_complementarity(method):
    _assert_probe_alignment(
        build_cs_instance(32, 8, 2, seed=15),
        method,
        SolverConfig(rho=0.999, max_iterations=300, tolerance=1e-300),
    )


# ---------------------------------------------------------------------------
# Cross-method agreement at desk scale
# ---------------------------------------------------------------------------


def test_full_and_greedy_agree_on_the_desk_instance():
    problem = build_cs_instance(256, 64, 8, snr_db=20.0, seed=0)
    reference = run_solver(problem, "eg")
    candidate = run_solver(problem, "gmini")
    assert reference.converged and candidate.converged
    gap = float(np.abs(reference.final_point - candidate.final_point).max())
    assert gap <= 1e-5
