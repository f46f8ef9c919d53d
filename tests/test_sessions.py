"""Cross-backend evaluation-session consistency checks.

Every session backend must satisfy the same contract: component reads agree
with the corresponding entry of a full read, coordinate shifts track the
point exactly, and incremental caches do not drift away from a from-scratch
evaluation.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from property_checks import sparse_twin

from minieg import CostLedger, seeded_generator
from minieg.core import STREAM_INSTANCE, STREAM_SOLVER
from minieg.problems import (
    LogRegProblem,
    build_cs_instance,
    random_spd_affine,
    synthetic_logreg,
)


def _random_design(seed, n_samples=40, n_features=20):
    gen = seeded_generator(seed, STREAM_INSTANCE)
    X = gen.standard_normal((n_samples, n_features))
    labels = np.where(gen.random(n_samples) < 0.5, -1.0, 1.0)
    return X, labels


def _logreg_pair(seed):
    X, labels = _random_design(seed)
    sparse = LogRegProblem(sp.csr_matrix(X), labels, reg=0.1, spectral_seed=seed)
    dense = LogRegProblem(X, labels, reg=0.1, spectral_seed=seed)
    return sparse, dense


BACKENDS = {
    "affine": lambda: random_spd_affine(24, seed=11),
    "cs": lambda: build_cs_instance(32, 12, 4, seed=11),
    "logreg-sparse": lambda: sparse_twin(synthetic_logreg(20, 40, seed=11)),
    "logreg-dense": lambda: _logreg_pair(11)[1],
}


def _random_walk(problem, session, gen, steps):
    """Drive the session through a mix of shifts and wholesale moves."""
    for step in range(steps):
        if step % 7 == 3:
            session.set_point(gen.standard_normal(problem.dim))
        else:
            i = int(gen.integers(0, problem.dim))
            session.shift_coordinate(i, float(gen.standard_normal() * 0.5))


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_component_reads_match_full_reads_after_a_walk(name):
    problem = BACKENDS[name]()
    gen = seeded_generator(3, STREAM_SOLVER)
    session = problem.open_session(np.zeros(problem.dim), CostLedger(problem.dim))
    _random_walk(problem, session, gen, steps=60)

    full = session.eval_full()
    for i in gen.integers(0, problem.dim, size=32):
        c = session.eval_component(int(i))
        assert abs(c - full[int(i)]) <= 1e-10 * max(1.0, abs(full[int(i)]))


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_shift_and_unshift_restores_the_component(name):
    problem = BACKENDS[name]()
    gen = seeded_generator(4, STREAM_SOLVER)
    session = problem.open_session(
        gen.standard_normal(problem.dim), CostLedger(problem.dim)
    )
    for _ in range(20):
        i = int(gen.integers(0, problem.dim))
        before = session.eval_component(i)
        delta = float(gen.standard_normal())
        session.shift_coordinate(i, delta)
        session.shift_coordinate(i, -delta)
        after = session.eval_component(i)
        assert abs(after - before) <= 1e-10 * max(1.0, abs(before))


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_full_reads_match_the_problem_map(name):
    problem = BACKENDS[name]()
    gen = seeded_generator(5, STREAM_SOLVER)
    session = problem.open_session(np.zeros(problem.dim), CostLedger(problem.dim))
    for _ in range(5):
        x = gen.standard_normal(problem.dim)
        session.set_point(x)
        np.testing.assert_allclose(
            session.eval_full(), problem.eval_full(x), rtol=0.0, atol=1e-12
        )


def test_cs_cache_rebuild_is_bitwise_and_shift_drift_stays_small():
    problem = build_cs_instance(48, 16, 4, seed=9)
    gen = seeded_generator(6, STREAM_SOLVER)
    session = problem.open_session(np.zeros(problem.dim), CostLedger(problem.dim))

    x = np.abs(gen.standard_normal(problem.dim))
    session.set_point(x)
    np.testing.assert_array_equal(session.eval_full(), problem.eval_full(x))

    # A long run of incremental shifts must stay glued to a fresh evaluation.
    for _ in range(100):
        i = int(gen.integers(0, problem.dim))
        session.shift_coordinate(i, float(gen.standard_normal() * 0.1))
    drift = np.abs(session.eval_full() - problem.eval_full(session.point))
    assert float(drift.max()) <= 1e-11


def test_sparse_and_dense_gradient_backends_agree():
    sparse, dense = _logreg_pair(13)
    np.testing.assert_allclose(
        sparse.componentwise_lipschitz, dense.componentwise_lipschitz,
        rtol=1e-13, atol=0.0,
    )
    gen = seeded_generator(13, STREAM_SOLVER)
    for _ in range(5):
        x = gen.standard_normal(sparse.dim)
        np.testing.assert_allclose(
            sparse.eval_full(x), dense.eval_full(x), rtol=0.0, atol=1e-13
        )


def test_duplicated_sparse_entries_are_summed_before_a_shift():
    # Sample 0 stores feature 1 twice (0.5 + 0.5): the design is [[1, 1, 0], [0, 2, 1]].
    features = sp.csr_matrix(
        (np.array([1.0, 0.5, 0.5, 2.0, 1.0]), np.array([0, 1, 1, 1, 2]), np.array([0, 3, 5])),
        shape=(2, 3),
    )
    problem = LogRegProblem(features, [1.0, -1.0], reg=0.1)
    assert features.nnz == 5  # the caller's matrix is left as it was
    session = problem.open_session(np.zeros(3), CostLedger(3))
    session.shift_coordinate(1, 0.7)
    fresh = problem.eval_full(session.point)
    np.testing.assert_allclose(session.eval_full(), fresh, rtol=0.0, atol=1e-15)
    assert abs(session.eval_component(1) - fresh[1]) <= 1e-15
