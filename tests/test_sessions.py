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

from minieg import CostLedger, Projection, SolverConfig, run_solver, seeded_generator
from minieg.core import STREAM_INSTANCE, STREAM_SOLVER
from minieg.problems import (
    AffineMonotoneProblem,
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


def _count_rebuilds(session):
    """Wrap the session's ``_rebuild`` hook; the returned list grows by one per call."""
    calls = []
    rebuild = session._rebuild

    def counted():
        calls.append(None)
        rebuild()

    session._rebuild = counted
    return calls


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_repeated_full_reads_are_fresh_copies_and_charged(name):
    problem = BACKENDS[name]()
    ledger = CostLedger(problem.dim)
    session = problem.open_session(np.zeros(problem.dim), ledger)
    first = session.eval_full()
    second = session.eval_full()
    assert second is not first
    np.testing.assert_array_equal(second, first)
    expected = first.copy()
    first[:] = 1e9
    second[:] = -1e9
    np.testing.assert_array_equal(session.eval_full(), expected)
    assert (ledger.full_evals, ledger.component_evals) == (3, 0)


def _zero_feature_logreg(sparse):
    """A design whose feature 0 is all zeros, so ``F_0`` reads exactly 0 at the origin."""
    X, labels = _random_design(11)
    X[:, 0] = 0.0
    return LogRegProblem(sp.csr_matrix(X) if sparse else X, labels, reg=0.1)


# Each problem's map reads exactly zero along some coordinate at the origin.
NULL_AT_ORIGIN = {
    "affine": lambda: AffineMonotoneProblem(
        random_spd_affine(24, seed=11).matrix, rhs=np.r_[0.0, np.ones(23)]
    ),
    "cs": BACKENDS["cs"],
    "logreg-sparse": lambda: _zero_feature_logreg(sparse=True),
    "logreg-dense": lambda: _zero_feature_logreg(sparse=False),
}


class _ZeroSignFlip(Projection):
    """The identity, except that coordinate ``c`` becomes 0.0 and -0.0 on alternate calls."""

    def __init__(self, c):
        self.c, self.calls = c, 0

    def __call__(self, x):
        self.calls += 1
        x = np.array(x, dtype=float)
        x[self.c] = 0.0 if self.calls % 2 else -0.0
        return x


def _null_coordinate(problem):
    return int(np.flatnonzero(problem.eval_full(np.zeros(problem.dim)) == 0.0)[0])


def _null_steps(problem, iterations, projection=None):
    """``rmini`` from the origin, always drawing a coordinate whose map reads 0 there.

    Returns the observations and the rebuilds counted after each iteration
    (the opening one excluded).
    """
    null = _null_coordinate(problem)
    rebuilds = []
    open_session = problem.open_session

    def open_counted(x0, ledger):
        session = open_session(x0, ledger)
        rebuilds.append(_count_rebuilds(session))
        return session

    problem.open_session = open_counted
    observations, counts = [], []

    def observe(obs):
        observations.append(obs)
        counts.append(len(rebuilds[0]))

    run_solver(
        problem, "rmini", SolverConfig(max_iterations=iterations), projection=projection,
        index_sampler=lambda gen, session: null, callback=observe,
    )
    return observations, counts


@pytest.mark.parametrize("name", sorted(NULL_AT_ORIGIN))
def test_a_step_that_keeps_the_point_skips_the_rebuild(name):
    observations, counts = _null_steps(NULL_AT_ORIGIN[name](), 4)
    assert counts == [0, 0, 0, 0]
    first = observations[0]
    assert first.selected_value == 0.0 and first.beta == 0.0
    for obs in observations:
        assert obs.x_next.tobytes() == first.x.tobytes()
        np.testing.assert_array_equal(obs.f_y, first.f_y)  # the kept F

    # -0.0 equals 0.0 as a number, not as bytes: each step onto it rebuilds.
    problem = NULL_AT_ORIGIN[name]()
    flip = (_null_coordinate(problem) + 1) % problem.dim
    observations, counts = _null_steps(problem, 4, _ZeroSignFlip(flip))
    assert counts == [1, 2, 3, 4]
    for obs in observations:
        np.testing.assert_array_equal(obs.x_next, obs.x)
        assert np.signbit(obs.x_next[flip]) == (obs.k % 2 == 0)


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_set_point_after_a_shift_rebuilds(name):
    problem = BACKENDS[name]()
    gen = seeded_generator(8, STREAM_SOLVER)
    x = np.abs(gen.standard_normal(problem.dim))
    session = problem.open_session(x, CostLedger(problem.dim))
    calls = _count_rebuilds(session)
    before = session.eval_full()
    session.shift_coordinate(1, 0.25)
    assert session.eval_full()[1] != before[1]  # the kept F was dropped
    shifted = session.point.copy()
    session.set_point(shifted)  # the same bytes, but the cache was shifted, not rebuilt
    assert len(calls) == 1
    if name == "cs":
        np.testing.assert_array_equal(session.eval_full(), problem.eval_full(shifted))
    else:
        np.testing.assert_allclose(
            session.eval_full(), problem.eval_full(shifted), rtol=0.0, atol=1e-12
        )
