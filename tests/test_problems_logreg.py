"""Regularized logistic-gradient problem: constants, oracles, validation."""

import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from property_checks import sparse_twin
from test_sessions import _count_rebuilds

from minieg import ConfigurationError, SolverConfig, run_solver, seeded_generator
from minieg.core import STREAM_INSTANCE, STREAM_SOLVER
from minieg.problems import (
    LogRegProblem,
    SpectralEstimate,
    estimate_lambda_max,
    logreg,
    synthetic_logreg,
)


def test_hand_computed_constants_and_gradient_at_zero():
    # One sample a = (2, 0) with label +1 and ridge 0.1:
    #   l = (4/4 + 0.1, 0/4 + 0.1) = (1.1, 0.1)
    #   F(0) = -sigmoid(0) * a + 0 = (-1, 0)
    problem = LogRegProblem(np.array([[2.0, 0.0]]), [1.0], reg=0.1)
    np.testing.assert_allclose(
        problem.componentwise_lipschitz, [1.1, 0.1], rtol=0.0, atol=1e-15
    )
    np.testing.assert_allclose(
        problem.eval_full(np.zeros(2)), [-1.0, 0.0], rtol=0.0, atol=1e-15
    )


def test_global_constant_tracks_the_dense_spectral_oracle():
    for seed in range(10):
        gen = seeded_generator(seed, STREAM_INSTANCE)
        n_samples, n_features = int(gen.integers(10, 60)), int(gen.integers(5, 40))
        X = gen.standard_normal((n_samples, n_features))
        labels = np.where(gen.random(n_samples) < 0.5, -1.0, 1.0)
        problem = LogRegProblem(X, labels, reg=0.1, spectral_seed=seed)

        lam = float(np.linalg.eigvalsh(X.T @ X).max())
        exact = lam / (4.0 * n_samples) + 0.1
        estimated = problem.ensure_global_lipschitz()
        # Inflated by 1% over a power-iteration estimate of the top eigenvalue.
        assert estimated >= exact * (1.0 - 1e-9)
        assert abs(estimated - (1.01 * lam / (4.0 * n_samples) + 0.1)) <= 1e-3 * exact
        assert problem.componentwise_lipschitz.max() <= estimated + 1e-9


def test_spectral_setup_is_cached_and_exposed():
    problem = synthetic_logreg(12, 25, seed=4)
    assert problem.lambda_setup is None
    first = problem.ensure_global_lipschitz()
    assert isinstance(problem.lambda_setup, SpectralEstimate)
    assert problem.lambda_setup.converged
    assert problem.ensure_global_lipschitz() == first
    assert problem.global_lipschitz == first


def test_unconverged_spectral_estimate_fails_fast(monkeypatch):
    capped = SpectralEstimate(value=3.0, iterations=23, converged=False)
    monkeypatch.setattr(logreg, "estimate_lambda_max", lambda *args, **kwargs: capped)
    problem = synthetic_logreg(12, 25, seed=4)
    with pytest.raises(ConfigurationError, match="23 matvecs"):
        problem.ensure_global_lipschitz()
    assert problem.global_lipschitz is None
    assert problem.lambda_setup is capped


def test_synthetic_generator_is_deterministic():
    a = synthetic_logreg(16, 30, seed=8)
    b = synthetic_logreg(16, 30, seed=8)
    c = synthetic_logreg(16, 30, seed=9)
    np.testing.assert_array_equal(
        a.componentwise_lipschitz, b.componentwise_lipschitz
    )
    gen = seeded_generator(0, STREAM_SOLVER)
    x = gen.standard_normal(16)
    np.testing.assert_array_equal(a.eval_full(x), b.eval_full(x))
    assert not np.array_equal(a.eval_full(x), c.eval_full(x))


def test_synthetic_normalization_bounds_the_constants():
    n_samples = 50
    problem = synthetic_logreg(30, n_samples, seed=3, scale_spread=2.0)
    # Every feature is rescaled into [-1, 1] and then multiplied by its
    # scale, drawn right after the features, so its squared norm across
    # samples lies in [1, N] times the squared scale.
    gen = seeded_generator(3, STREAM_INSTANCE)
    gen.standard_normal((n_samples, 30))
    scales = np.exp(2.0 * gen.standard_normal(30))
    h = (problem.componentwise_lipschitz - problem.reg) * 4.0 * n_samples / scales**2
    assert np.all(h >= 1.0 - 1e-12)
    assert np.all(h <= n_samples + 1e-12)


def test_scale_spread_spreads_the_normalized_constants():
    problem = synthetic_logreg(30, 50, seed=3, scale_spread=1.5)
    h = problem.componentwise_lipschitz - problem.reg
    assert h.max() / h.min() > 10.0


def test_gradient_matches_a_plain_dense_formula():
    gen = seeded_generator(2, STREAM_INSTANCE)
    X = gen.standard_normal((25, 10))
    labels = np.where(gen.random(25) < 0.5, -1.0, 1.0)
    problem = LogRegProblem(sp.csr_matrix(X), labels, reg=0.3)

    for _ in range(5):
        x = gen.standard_normal(10)
        margins = labels * (X @ x)
        weights = -labels / (1.0 + np.exp(margins)) / 25.0
        expected = X.T @ weights + 0.3 * x
        np.testing.assert_allclose(
            problem.eval_full(x), expected, rtol=1e-12, atol=1e-14
        )


def test_validation_errors():
    X = np.ones((4, 3))
    good = np.array([1.0, -1.0, 1.0, -1.0])
    with pytest.raises(ConfigurationError):
        LogRegProblem(X, np.array([0.0, 1.0, 0.0, 1.0]))  # not +-1 labels
    with pytest.raises(ConfigurationError):
        LogRegProblem(X, good, reg=0.0)
    with pytest.raises(ConfigurationError):
        LogRegProblem(X, good, reg=-0.5)
    with pytest.raises(ConfigurationError):
        LogRegProblem(np.ones(4), good)  # 1-d features
    with pytest.raises(ConfigurationError):
        LogRegProblem(X, good[:3])  # sample count mismatch
    with pytest.raises(ConfigurationError, match=r"^'labels' must be 1-d, got shape \(2, 2\)"):
        LogRegProblem(X, good.reshape(2, 2))
    for empty in (np.ones((0, 3)), np.ones((4, 0)), sp.csr_matrix((4, 0))):
        with pytest.raises(ConfigurationError, match="at least one feature and one sample"):
            LogRegProblem(empty, good[: empty.shape[0]])
    with pytest.raises(ConfigurationError):
        synthetic_logreg(0, 10)
    with pytest.raises(ConfigurationError):
        synthetic_logreg(10, 0)


_GOOD_LABELS = np.array([1.0, -1.0, 1.0, -1.0])


# Each rejection names the argument at fault first, quoted, as CSProblem's do.
NAMED_REJECTIONS = {
    "features-1d": ((np.ones(4), _GOOD_LABELS), r"^'features' must be 2-d, got shape \(4,\)"),
    "features-nan": (
        (np.array([[np.nan, 1.0]] * 4), _GOOD_LABELS), r"^'features' holds a value that is not finite$",
    ),
    "features-empty": (
        (np.ones((4, 0)), _GOOD_LABELS), "^'features' must hold at least one feature and one sample",
    ),
    "labels-not-pm1": ((np.ones((4, 2)), [0.0, 1.0, 0.0, 1.0]), r"^'labels' must be \+-1"),
    "labels-count": (
        (np.ones((4, 2)), _GOOD_LABELS[:3]), r"^'labels' holds 3 entries, but 'features' has 4 rows",
    ),
}


@pytest.mark.parametrize("case", list(NAMED_REJECTIONS))
def test_a_rejection_names_the_argument_first(case):
    args, message = NAMED_REJECTIONS[case]
    with pytest.raises(ConfigurationError, match=message):
        LogRegProblem(*args)


@pytest.mark.parametrize("features, reg", [
    (np.array([[1.0, np.nan, 0.0]] + [[1.0, 1.0, 1.0]] * 3), 0.1),
    (np.array([[1.0, np.inf, 0.0]] + [[1.0, 1.0, 1.0]] * 3), 0.1),
    (sp.csr_matrix(np.array([[1.0, np.nan, 0.0]] + [[1.0, 0.0, 1.0]] * 3)), 0.1),
    (sp.csr_matrix(np.array([[1.0, -np.inf, 0.0]] + [[1.0, 0.0, 1.0]] * 3)), 0.1),
    (np.ones((4, 3)), float("nan")),
    (np.ones((4, 3)), float("inf")),
], ids=["dense-nan", "dense-inf", "sparse-nan", "sparse-inf", "nan-reg", "inf-reg"])
def test_rejects_non_finite_problem_data(features, reg):
    with pytest.raises(ConfigurationError, match="finite"):
        LogRegProblem(features, _GOOD_LABELS, reg=reg)


def test_input_type_picks_the_layout():
    dense = synthetic_logreg(12, 25, seed=4)
    assert isinstance(dense._A, np.ndarray) and dense._A.flags.c_contiguous
    assert dense._A.shape == (12, 25)
    assert not any(sp.issparse(v) for v in vars(dense).values())  # no CSR copy
    sparse = sparse_twin(dense)
    assert sp.isspmatrix_csr(sparse._A) and sp.isspmatrix_csr(sparse._At)


def test_dense_and_sparse_layouts_take_the_same_solver_path():
    # BLAS and scipy's CSR kernel sum in different orders. Six hundred
    # coordinate steps grow those last-bit differences: the final points
    # differ by 4e-16 (eg), 2.5e-10 (gmini) and 1.0e-9 (wmax) relative to
    # their norm. The tolerance keeps a tenfold margin over that, far inside
    # the 1e-3 that two points with residual 1e-4 may differ by at reg 0.1.
    dense = synthetic_logreg(2000, 62, seed=0)
    sparse = sparse_twin(dense)
    config = SolverConfig(tolerance=1e-4)
    for method, iterations in (("eg", 35), ("gmini", 611), ("wmax", 611)):
        a = run_solver(dense, method, config)
        b = run_solver(sparse, method, config)
        assert a.converged and b.converged
        assert a.iterations == b.iterations == iterations
        assert a.ledger.nf_exact() == b.ledger.nf_exact()
        gap = np.linalg.norm(a.final_point - b.final_point)
        assert gap <= 1e-8 * np.linalg.norm(b.final_point), (method, gap)


@pytest.mark.parametrize("n_features, n_samples", [(60, 20), (21, 20), (20, 20), (20, 60)])
def test_dense_and_sparse_layouts_form_the_gram_matrix_under_one_rule(n_features, n_samples):
    # K = A^T A is kept when it has fewer entries than A stores. A dense
    # design stores all n * N entries, so the rule reads N < n.
    dense = synthetic_logreg(n_features, n_samples, seed=2)
    sparse = sparse_twin(dense)
    assert sparse._A.nnz == n_features * n_samples  # no zero entries to drop
    assert (dense._K is None) == (sparse._K is None) == (n_samples >= n_features)
    if dense._K is not None:
        X = dense._A.T
        assert isinstance(sparse._K, np.ndarray) and sparse._K.shape == (n_samples, n_samples)
        np.testing.assert_allclose(dense._K, X @ X.T, rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(sparse._K, dense._K, rtol=1e-13, atol=1e-13)


def test_a_sparse_design_keeps_the_gram_matrix_only_above_n_squared_entries():
    # Ten samples, two hundred features: K has 100 entries.
    gen = seeded_generator(8, STREAM_INSTANCE)
    labels = np.where(gen.random(10) < 0.5, -1.0, 1.0)
    for per_sample, kept in ((10, False), (11, True)):
        X = np.zeros((10, 200))
        for s in range(10):
            X[s, gen.choice(200, per_sample, replace=False)] = gen.uniform(0.5, 1.0, per_sample)
        sparse = LogRegProblem(sp.csr_matrix(X), labels)
        assert sparse._A.nnz == 10 * per_sample
        assert (sparse._K is not None) == kept
        assert LogRegProblem(X, labels)._K is not None  # 2 000 dense entries


@pytest.mark.parametrize("seed", range(6))
def test_the_gram_power_iteration_matches_the_product_one(seed):
    problem = synthetic_logreg(2000, 62, seed=seed)
    A, At = problem._A, problem._At
    products = estimate_lambda_max(lambda v: At @ (A @ v), problem.n_samples, seed=seed)
    gram = estimate_lambda_max(problem._K.__matmul__, problem.n_samples, seed=seed)
    assert gram.converged and products.converged
    assert gram.iterations == products.iterations
    assert abs(gram.value - products.value) <= 1e-12 * products.value
    # The bound takes its eigenvalue from a dense eigensolve of K instead.
    # The power iteration's quotient lies below it: here by 1.6e-5 to 5.5e-5
    # relative, which its stopping rule does not bound.
    problem.ensure_global_lipschitz()
    solved = problem.lambda_setup
    assert solved.converged and solved.iterations == 0
    assert solved.value.hex() == float(np.linalg.eigvalsh(problem._K)[-1]).hex()
    assert solved.value * (1.0 - 1e-4) <= products.value <= solved.value * (1.0 + 1e-12)


def test_the_gram_bound_covers_the_eigenvalue_with_its_margin():
    # The power iteration once stopped 1.1e-4 below the eigenvalue here, and
    # the bound fell short of its 1% margin. The SVD reads the 2000 x 62
    # design, where an eigensolve of the 2000 x 2000 side would take long.
    problems = [synthetic_logreg(2000, 62, seed=21) for _ in range(2)]
    sigma = np.linalg.svd(problems[0]._A, compute_uv=False)[0]
    bounds = [problem.ensure_global_lipschitz() for problem in problems]
    assert bounds[0] >= 1.01 * sigma**2 / (4.0 * 62) + 0.1
    assert bounds[0].hex() == bounds[1].hex()  # built twice, the same bits


@pytest.mark.parametrize("features, peak", [
    (np.array([[1e200, 1.0, 3.0], [1.0, 1e200, 3.0]]), "1e+200"),  # a squared norm overflows
    (np.array([[1.2e154] * 3, [1.0] * 3]), "1.2e+154"),  # finite squared norms, but K overflows
    (sp.csr_matrix(np.array([[1.2e154] * 3, [1.0] * 3])), "1.2e+154"),
], ids=["dense-norms", "dense-gram", "sparse-gram"])
def test_features_whose_gram_matrix_overflows_are_rejected_at_construction(features, peak):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning leaks
        with pytest.raises(ConfigurationError) as error:
            LogRegProblem(features, [1.0, -1.0])
    assert str(error.value) == ("'features' are too large: their squared norms or Gram matrix "
                                f"AᵀA overflow (largest absolute entry {peak})")


@pytest.mark.parametrize("shape, seed, tolerance", [
    ((60, 20), 3, 1e-8), ((2000, 62), 0, 1e-4), ((2000, 62), 1, 1e-4), ((2000, 62), 2, 1e-4),
])
def test_eg_through_the_gram_matrix_matches_exact_rebuilds(shape, seed, tolerance):
    # The same problem with K dropped after the global constant is set:
    # every set_point of that run is an exact rebuild.
    gram = synthetic_logreg(*shape, seed=seed)
    plain = synthetic_logreg(*shape, seed=seed)
    plain.ensure_global_lipschitz()
    plain._K = None
    assert gram._K is not None
    config = SolverConfig(tolerance=tolerance)
    a, b = run_solver(gram, "eg", config), run_solver(plain, "eg", config)
    assert a.status == b.status and a.converged
    assert a.iterations == b.iterations
    assert a.ledger.nf_exact() == b.ledger.nf_exact()
    gap = np.linalg.norm(a.final_point - b.final_point)
    assert gap <= 1e-12 * np.linalg.norm(b.final_point)


def _eg_with_counted_rebuilds(problem, config):
    """Run eg; returns the result and the exact rebuilds after the opening one."""
    rebuilds = []
    open_session = problem.open_session

    def open_counted(x0, ledger):
        session = open_session(x0, ledger)
        rebuilds.append(_count_rebuilds(session))  # counts after the opening
        return session

    problem.open_session = open_counted
    result = run_solver(problem, "eg", config)
    return result, len(rebuilds[0])


def test_an_eg_solve_rebuilds_only_for_the_periodic_exact_update():
    result, rebuilds = _eg_with_counted_rebuilds(
        synthetic_logreg(2000, 62, seed=0), SolverConfig(tolerance=1e-4)
    )
    assert result.iterations == 35
    # 35 probes and 34 steps move the session, each through the Gram update:
    # only the 64th step since the last exact rebuild would be one.
    assert rebuilds == 0


def test_a_long_eg_run_rebuilds_once_per_64_steps():
    problem = synthetic_logreg(60, 20, seed=3, reg=0.01)
    assert problem._K is not None
    result, rebuilds = _eg_with_counted_rebuilds(problem, SolverConfig(tolerance=1e-8))
    assert result.converged and result.iterations == 346
    steps = result.iterations - 1  # the converged iteration does not step
    assert rebuilds == steps // logreg._EXACT_EVERY == 5


@pytest.mark.parametrize("reg", [-0.5, math.nan, math.inf, True, "0.1"])
def test_reg_must_be_a_positive_real_number(reg):
    with pytest.raises(ConfigurationError, match="reg"):
        LogRegProblem(np.array([[2.0, 0.0]]), [1.0], reg=reg)


@pytest.mark.parametrize("reg", [0.1, np.float64(0.1)])
def test_a_positive_real_reg_is_accepted(reg):
    assert LogRegProblem(np.array([[2.0, 0.0]]), [1.0], reg=reg).reg == 0.1


def test_a_sparse_design_without_gram_iterates_over_its_samples():
    # 20 samples, 40 features, 240 stored entries: K's 400 entries are not
    # kept, and the power iteration runs on A^T A over the 20 samples.
    X = sp.random(20, 40, density=0.3, random_state=np.random.default_rng(0), format="csr")
    problem = LogRegProblem(X, np.where(np.arange(20) % 2, 1.0, -1.0))
    assert X.nnz == 240 and problem._K is None
    bound = problem.ensure_global_lipschitz()
    lam = float(np.linalg.eigvalsh((X @ X.T).toarray())[-1])
    assert problem.lambda_setup.converged
    assert problem.lambda_setup.value == pytest.approx(lam, rel=1e-7)
    assert bound == 1.01 * problem.lambda_setup.value / (4.0 * 20) + 0.1
