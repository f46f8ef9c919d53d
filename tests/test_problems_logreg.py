"""Regularized logistic-gradient problem: constants, oracles, validation."""

import numpy as np
import pytest
import scipy.sparse as sp

from property_checks import sparse_twin

from minieg import ConfigurationError, SolverConfig, run_solver, seeded_generator
from minieg.core import STREAM_INSTANCE, STREAM_SOLVER
from minieg.problems import LogRegProblem, SpectralEstimate, logreg, synthetic_logreg


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
    # Every feature is rescaled into [-1, 1], so its squared norm across
    # samples lies in [1, N] and the constants inherit tight bounds.
    h = (problem.componentwise_lipschitz - problem.reg) * 4.0 * n_samples
    assert np.all(h >= 1.0 - 1e-12)
    assert np.all(h <= n_samples + 1e-12)


def test_scale_spread_without_normalization_spreads_the_constants():
    problem = synthetic_logreg(
        30, 50, seed=3, scale_spread=1.5, normalize=False
    )
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
    with pytest.raises(ConfigurationError):
        synthetic_logreg(0, 10)
    with pytest.raises(ConfigurationError):
        synthetic_logreg(10, 0)


_GOOD_LABELS = np.array([1.0, -1.0, 1.0, -1.0])


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
