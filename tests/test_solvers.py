"""Solver unit tests: step-size rules, hand-checked trajectories, accounting.

The hand-checked values below are exact in IEEE arithmetic (they only involve
powers of two), so the assertions use strict equality where that holds.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from minieg import (
    ConfigurationError,
    CostLedger,
    EvaluationSession,
    METHOD_IDS,
    MonotoneMapping,
    RunStatus,
    SolutionFound,
    SolverConfig,
    StepsizeFailure,
    TraceLevel,
    beta_component,
    beta_full,
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
)


# ---------------------------------------------------------------------------
# Step-size rules
# ---------------------------------------------------------------------------


def test_beta_full_hand_values():
    zero = np.zeros(2)
    assert beta_full(np.array([1.0, 0.0]), np.array([2.0, 0.0]), zero) == 2.0
    assert beta_full(np.array([0.0, 1.0]), np.array([3.0, 0.0]), zero) == 0.0
    assert beta_full(np.array([1.0, 1.0]), np.array([1.0, 3.0]), zero) == 2.0


def test_beta_full_zero_map_raises_solution_found():
    y = np.array([4.0, 5.0])
    with pytest.raises(SolutionFound) as info:
        beta_full(np.zeros(2), np.ones(2), y)
    np.testing.assert_array_equal(info.value.point, y)


def test_beta_full_negative_inner_product_fails():
    # <F(y), x - y> = (-1) * 2 < 0: the full probe overshot the root.
    with pytest.raises(StepsizeFailure) as info:
        beta_full(np.array([-1.0, 0.0]), np.array([2.0, 0.0]), np.zeros(2), iteration=4)
    err = info.value
    assert err.product == -2.0
    assert err.coordinate is None
    assert err.iteration == 4
    assert "<F(y), x - y>" in str(err)


def test_beta_component_hand_value():
    # rho=0.5, F_i(x)=2, F_i(y)=1, l_i=2, ||F(y)||^2=1  ->  0.5*1*2/(2*1) = 0.5
    f_y = np.array([1.0, 0.0])
    assert beta_component(f_y, 0, 2.0, 2.0, 0.5) == 0.5


def test_beta_component_zero_product_is_legal_degenerate_step():
    f_y = np.array([0.0, 1.0])
    assert beta_component(f_y, 0, 2.0, 1.0, 0.9) == 0.0
    f_y2 = np.array([1.0, 1.0])
    assert beta_component(f_y2, 0, 0.0, 1.0, 0.9) == 0.0


def test_beta_component_negative_product_fails():
    f_y = np.array([-1.0, 0.0])
    with pytest.raises(StepsizeFailure) as info:
        beta_component(f_y, 0, 2.0, 1.0, 0.9, iteration=17)
    err = info.value
    assert err.product == -2.0
    assert err.coordinate == 0
    assert err.iteration == 17


def test_beta_component_zero_norm_raises_solution_found():
    with pytest.raises(SolutionFound):
        beta_component(np.zeros(3), 1, 0.0, 1.0, 0.5)


def test_beta_component_matches_beta_full_on_mini_steps():
    """The component rule equals the general rule at the mini-step displacement."""
    problem = random_spd_affine(8, seed=21)
    l = problem.componentwise_lipschitz
    gen = seeded_generator(21, STREAM_SOLVER)
    rho = 0.7
    worst = 0.0
    for _ in range(1000):
        x = gen.standard_normal(8) * 2.0
        i = int(gen.integers(0, 8))
        f_x = problem.eval_full(x)
        y = x.copy()
        y[i] -= (rho / l[i]) * f_x[i]
        f_y = problem.eval_full(y)
        a = beta_component(f_y, i, float(f_x[i]), float(l[i]), rho)
        b = beta_full(f_y, x, y)
        scale = max(abs(a), abs(b), 1e-30)
        worst = max(worst, abs(a - b) / scale)
    assert worst < 1e-12


# ---------------------------------------------------------------------------
# Coordinate sampling
# ---------------------------------------------------------------------------


def _empirical_frequencies(l, gamma, draws, seed):
    """Draw frequencies from the sampler, cross-checked against a vectorized
    replica of its inverse-CDF lookup fed by the same random stream."""
    l = np.asarray(l, dtype=float)
    sampler = lipschitz_power_sampler(l, gamma)
    gen = seeded_generator(seed, STREAM_SOLVER)
    sequential = np.array([sampler(k, gen, None) for k in range(1000)])

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
    def sampler(k, gen, session):
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
    config = SolverConfig(
        rho=0.9, max_iterations=60, tolerance=1e-300, trace=TraceLevel.FULL
    )
    result = run_solver(
        problem, "wmax", config, index_sampler=lambda k, gen, session: reference
    )
    assert len(result.trace) == 60
    for record in result.trace:
        assert record.selected_index == reference
        assert record.reset is False


def test_watchdog_challenger_equal_to_reference_still_charges_two_reads():
    problem = random_spd_affine(4, seed=2)
    config = SolverConfig(max_iterations=25, tolerance=1e-300)
    result = run_solver(
        problem, "wmax", config, index_sampler=lambda k, gen, session: 0
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
    result = run_solver(problem, method, SolverConfig(rho=0.999))
    assert result.status is RunStatus.STEPSIZE_FAILURE
    assert not result.converged
    assert result.iterations == 0
    assert result.failure is not None
    assert result.failure.iteration == 0
    assert result.failure.coordinate == 0
    assert result.failure.product < 0
    # The reported point is the iterate the failing step started from.
    np.testing.assert_array_equal(result.final_point, [0.0])
    assert result.final_residual == 2.0


def test_underestimated_global_constant_aborts_the_full_method():
    matrix = random_spd_affine(8, seed=1)._M
    problem = AffineMonotoneProblem(
        matrix, global_lipschitz=0.05 * float(np.linalg.norm(matrix, 2))
    )
    x0 = np.ones(8)
    result = run_solver(problem, "eg", SolverConfig(max_iterations=5000), x0=x0)
    assert result.status is RunStatus.STEPSIZE_FAILURE
    assert result.iterations == 0
    assert result.failure.iteration == 0
    assert result.failure.coordinate is None
    assert result.failure.product < 0
    np.testing.assert_array_equal(result.final_point, x0)
    assert result.final_residual == float(np.linalg.norm(matrix @ x0))


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
    config = SolverConfig(max_iterations=1000, trace="full")
    seen = []
    result = run_solver(problem, method, config, x0=np.array([1.0, 0.0]), callback=seen.append)
    assert result.status is RunStatus.NON_FINITE_RESIDUAL
    assert not result.converged and result.failure is None
    # The run stops at the first probe that reads NaN: it completed every
    # earlier iteration and nothing after it.
    assert 0 < result.iterations < 10
    assert len(result.trace) == len(seen) == result.iterations
    assert all(math.isfinite(record.residual_y) for record in result.trace)
    assert math.isnan(result.final_residual)
    assert result.final_point.shape == (2,)


# ---------------------------------------------------------------------------
# Traces and diagnostics
# ---------------------------------------------------------------------------


def test_trace_level_none_records_nothing():
    problem = random_spd_affine(6, seed=2)
    result = run_solver(problem, "gmini", SolverConfig(max_iterations=50))
    assert result.trace == []


def test_trace_level_summary_records_every_hundredth_and_final():
    problem = random_spd_affine(6, seed=2)
    config = SolverConfig(
        max_iterations=250, tolerance=1e-300, trace=TraceLevel.SUMMARY
    )
    result = run_solver(problem, "rmini", config)
    assert [r.k for r in result.trace] == [0, 100, 200, 249]


def test_trace_level_summary_includes_the_converging_iteration():
    problem = random_spd_affine(6, seed=2)
    result = run_solver(problem, "gmini", SolverConfig(trace="summary"))
    assert result.converged
    ks = [r.k for r in result.trace]
    assert ks[-1] == result.iterations - 1
    assert result.trace[-1].residual_y <= 1e-8
    assert result.trace[-1].beta == 0.0


def test_trace_level_full_records_every_iteration():
    problem = random_spd_affine(6, seed=2)
    config = SolverConfig(max_iterations=30, tolerance=1e-300, trace="full")
    result = run_solver(problem, "wmax", config)
    assert [r.k for r in result.trace] == list(range(30))
    nf_values = [r.nf_so_far for r in result.trace]
    assert nf_values == sorted(nf_values)
    assert all(r.reset in (True, False) for r in result.trace)


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
    config = SolverConfig(max_iterations=10, tolerance=1e-300, trace="full")
    uncharged = _count_uncharged_evaluations(problem)
    result = run_solver(problem, "rmini", config)
    assert len(result.trace) == 10
    assert uncharged == []
    assert result.ledger.nf_exact() == _nf_identity("rmini", 10, problem.dim)


# ---------------------------------------------------------------------------
# Determinism and configuration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method", ["rmini", "wmax"])
def test_same_seed_reproduces_the_trace_bitwise(method):
    problem = build_cs_instance(24, 8, 3, seed=1)
    config = SolverConfig(
        seed=42, max_iterations=120, tolerance=1e-300, trace="full"
    )
    a = run_solver(problem, method, config)
    b = run_solver(problem, method, config)
    assert a.trace == b.trace
    np.testing.assert_array_equal(a.final_point, b.final_point)
    assert a.ledger == b.ledger


def test_different_seeds_draw_different_coordinates():
    problem = build_cs_instance(24, 8, 3, seed=1)
    picks = {}
    for seed in (0, 1):
        config = SolverConfig(
            seed=seed, max_iterations=60, tolerance=1e-300, trace="full"
        )
        picks[seed] = [r.selected_index for r in run_solver(problem, "rmini", config).trace]
    assert picks[0] != picks[1]


def test_start_point_is_projected_into_the_feasible_region():
    problem = build_cs_instance(16, 6, 2, seed=2)  # nonnegative orthant
    config = SolverConfig(max_iterations=1, tolerance=1e-300)
    _, obs = _collect(problem, "gmini", config, x0=-np.ones(problem.dim))
    np.testing.assert_array_equal(obs[0].x, np.zeros(problem.dim))


def test_config_validation():
    for bad in (dict(rho=0.0), dict(rho=1.0), dict(rho=-0.1), dict(gamma=-1.0),
                dict(tolerance=0.0), dict(max_iterations=0), dict(seed=-1),
                dict(seed=2**64)):
        with pytest.raises(ConfigurationError):
            SolverConfig(**bad)
    with pytest.raises(ValueError):
        SolverConfig(trace="loud")
    assert SolverConfig(trace="summary").trace is TraceLevel.SUMMARY


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
