"""Power-iteration estimator tests against dense eigendecomposition oracles."""

import numpy as np
import pytest

from minieg import ConfigurationError, seeded_generator
from minieg.core import STREAM_INSTANCE, STREAM_POWER
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
    for dim in (2.5, 3.0, True):
        with pytest.raises(ConfigurationError, match=f"^'dim' must be an integer, got {dim!r}$"):
            estimate_lambda_max(lambda v: v, dim, seed=0)
    assert estimate_lambda_max(lambda v: v, np.int64(3), seed=0).converged


@pytest.mark.parametrize("matvec", [
    lambda v: np.full_like(v, np.nan),
    lambda v: np.full_like(v, np.inf),
    lambda v: 1e160 * v,  # finite, but its squared norm overflows
], ids=["nan", "inf", "norm-overflow"])
def test_a_product_that_is_not_finite_stops_the_iteration_at_once(matvec):
    with np.errstate(invalid="ignore", over="ignore"):  # inf times entries of both signs is NaN
        est = estimate_lambda_max(matvec, 3, seed=0)
    assert not est.converged
    assert est.iterations == 1
    assert not np.isfinite(est.value)
    with pytest.raises(ConfigurationError, match=r"^the spectral estimate is not finite \((nan|-?inf)\) "
                       r"after 1 matvecs"):
        spectral.require_converged(est)


def _reference_estimate(matvec, dim, seed):
    """The power iteration with a plain step: ``np.linalg.norm``, then a fresh ``w / norm_w``."""
    v = seeded_generator(seed, STREAM_POWER).standard_normal(dim)
    v /= np.linalg.norm(v)
    previous = None
    for k in range(1, spectral._MAX_ITERATIONS + 1):
        w = np.asarray(matvec(v), dtype=float)
        rayleigh = float(np.dot(v, w))
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return rayleigh, k
        if previous is not None and abs(rayleigh - previous) <= 1e-6 * max(abs(rayleigh), 1e-30):
            return rayleigh, k
        previous = rayleigh
        v = w / norm_w
    return rayleigh, spectral._MAX_ITERATIONS


def test_the_lean_power_step_keeps_the_bits_of_the_reference_step():
    operators = [(lambda v: np.zeros_like(v), 5, 1), (lambda v: v, 4, 2)]
    for s, n in enumerate((6, 17, 64)):
        G = seeded_generator(s, STREAM_INSTANCE).standard_normal((n, n))
        M = G @ G.T / n
        operators += [(M.__matmul__, n, seed) for seed in (0, 7, 2**40)]
    for matvec, dim, seed in operators:
        value, iterations = _reference_estimate(matvec, dim, seed)
        est = estimate_lambda_max(matvec, dim, seed=seed)
        assert (est.value.hex(), est.iterations) == (value.hex(), iterations)


def test_same_seed_same_estimate():
    gen = np.random.Generator(np.random.Philox(key=np.array([0, 13], dtype=np.uint64)))
    G = gen.standard_normal((9, 9))
    M = G @ G.T
    a = estimate_lambda_max(lambda v: M @ v, 9, seed=4)
    b = estimate_lambda_max(lambda v: M @ v, 9, seed=4)
    assert a == b
