"""Power-iteration estimator tests against dense eigendecomposition oracles."""

import numpy as np
import pytest

from minieg import ConfigurationError
from minieg.problems import estimate_lambda_max, spectral


def test_diagonal_matrix_recovers_top_entry():
    M = np.diag([1.0, 2.0, 3.0])
    est = estimate_lambda_max(lambda v: M @ v, 3, seed=0)
    assert est.converged
    assert est.value == pytest.approx(3.0, rel=1e-4)


def test_random_spd_matches_dense_eigensolver():
    worst = 0.0
    for s in range(20):
        gen = np.random.Generator(np.random.Philox(key=np.array([s, 99], dtype=np.uint64)))
        n = int(gen.integers(4, 65))
        G = gen.standard_normal((n, n))
        M = G @ G.T / n
        est = estimate_lambda_max(lambda v: M @ v, n, seed=s)
        true = float(np.linalg.eigvalsh(M)[-1])
        assert est.converged
        worst = max(worst, abs(est.value - true) / true)
    assert worst <= 1e-4


def test_estimate_never_exceeds_true_eigenvalue():
    # The Rayleigh quotient of a PSD matrix is bounded by its top eigenvalue,
    # so the estimate is always a valid lower bound.
    for s in range(10):
        gen = np.random.Generator(np.random.Philox(key=np.array([s, 7], dtype=np.uint64)))
        G = gen.standard_normal((12, 12))
        M = G @ G.T
        est = estimate_lambda_max(lambda v: M @ v, 12, seed=s)
        true = float(np.linalg.eigvalsh(M)[-1])
        assert est.value <= true * (1 + 1e-12)


def test_zero_operator_is_exact():
    est = estimate_lambda_max(lambda v: np.zeros_like(v), 5, seed=1)
    assert est.converged
    assert est.value == 0.0


def test_iteration_cap_reports_nonconvergence(monkeypatch):
    monkeypatch.setattr(spectral, "_MAX_ITERATIONS", 1)
    M = np.diag([1.0, 0.999])  # tiny spectral gap, one iteration cannot settle
    est = estimate_lambda_max(lambda v: M @ v, 2, seed=0)
    assert not est.converged
    assert est.iterations == 1
    assert 0.0 < est.value <= 1.0 + 1e-12


def test_estimator_validates_arguments():
    with pytest.raises(ConfigurationError):
        estimate_lambda_max(lambda v: v, 0, seed=0)


def test_same_seed_same_estimate():
    gen = np.random.Generator(np.random.Philox(key=np.array([0, 13], dtype=np.uint64)))
    G = gen.standard_normal((9, 9))
    M = G @ G.T
    a = estimate_lambda_max(lambda v: M @ v, 9, seed=4)
    b = estimate_lambda_max(lambda v: M @ v, 9, seed=4)
    assert a == b
