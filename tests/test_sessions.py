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

from minieg import (
    BoxProjection,
    ConfigurationError,
    CostLedger,
    IdentityProjection,
    Projection,
    SolverConfig,
    run_solver,
    seeded_generator,
)
from minieg.core import STREAM_INSTANCE, STREAM_SOLVER
from minieg.problems import (
    AffineMonotoneProblem,
    LogRegProblem,
    build_cs_instance,
    logreg,
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


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_a_session_hands_out_the_ledger_it_charges(name):
    problem = BACKENDS[name]()
    ledger = CostLedger(problem.dim)
    assert problem.open_session(np.zeros(problem.dim), ledger).ledger is ledger


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


@pytest.mark.parametrize("read_first", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize("name", sorted(NULL_AT_ORIGIN))
def test_first_nonzero_read_returns_what_component_reads_return(name, read_first):
    problem = NULL_AT_ORIGIN[name]()
    origin = np.zeros(problem.dim)
    reference = problem.open_session(origin, CostLedger(problem.dim))
    reads = [reference.eval_component(i) for i in range(problem.dim)]
    zeros = [i for i, value in enumerate(reads) if value == 0.0]
    nonzero = next(i for i, value in enumerate(reads) if value != 0.0)
    ledger = CostLedger(problem.dim)
    session = problem.open_session(origin, ledger)
    if read_first:  # the fast-forward's case: a full read kept at the point
        session.eval_full()
    draws = iter(zeros[:3] + [nonzero] + [zeros[0]] * 2)
    gen = seeded_generator(0, STREAM_SOLVER)

    def sampler(drawn_with, drawn_for):
        assert drawn_with is gen and drawn_for is session
        return next(draws)

    def charged():  # what the scans charged: every draw read, and no full read
        return ledger.full_evals - read_first, ledger.component_evals

    zero_reads, (i, f_i) = session.first_nonzero_read(sampler, gen, problem.dim)
    assert (zero_reads, i) == (len(zeros[:3]), nonzero)
    assert f_i.hex() == reads[nonzero].hex()
    assert charged() == (0, zero_reads + 1)
    assert session.first_nonzero_read(sampler, gen, 2) == (2, None)
    assert charged() == (0, zero_reads + 3)
    assert session.first_nonzero_read(sampler, gen, 0) == (0, None)
    assert charged() == (0, zero_reads + 3)


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


# -- the Gram-matrix step update of logistic regression ------------------------

# Twenty samples, sixty features: both layouts keep K = A^T A.
GRAM_LAYOUTS = {
    "dense": lambda: synthetic_logreg(60, 20, seed=3),
    "sparse": lambda: sparse_twin(synthetic_logreg(60, 20, seed=3)),
}


MOVERS = {**BACKENDS, **{f"gram-{layout}": build for layout, build in GRAM_LAYOUTS.items()}}


def _assert_same_cache(moved, plain, gram):
    if gram:  # the Gram update, within rounding of the rebuild
        np.testing.assert_allclose(moved.eval_full(), plain.eval_full(), rtol=0.0, atol=1e-13)
    else:
        assert moved.eval_full().tobytes() == plain.eval_full().tobytes()


@pytest.mark.parametrize("name", sorted(MOVERS))
def test_probe_and_step_equal_set_point_of_the_loop_point(name):
    # The loop's arithmetic: x - scale * F(x) for eg's probe, P(x - beta * F(y)) for a step.
    problem = MOVERS[name]()
    gen = seeded_generator(23, STREAM_SOLVER)
    x = np.abs(gen.standard_normal(problem.dim))
    moved = problem.open_session(x, CostLedger(problem.dim))
    plain = problem.open_session(x, CostLedger(problem.dim))
    rebuilds = _count_rebuilds(moved)
    l_max = problem.componentwise_lipschitz.max()
    gram = getattr(problem, "_K", None) is not None

    scale = 0.5 / l_max
    y = x - np.multiply(moved.eval_full(), scale)
    moved.probe(scale)
    plain.set_point(y)
    assert moved.point.tobytes() == y.tobytes()
    assert moved.anchor.tobytes() == x.tobytes()
    _assert_same_cache(moved, plain, gram)

    beta = 0.75 / l_max
    x_next = problem.projection(x - np.multiply(moved.eval_full(), beta))
    assert moved.step(beta, problem.projection) is True
    plain.set_point(x_next)
    assert moved.point.tobytes() == moved.anchor.tobytes() == x_next.tobytes()
    _assert_same_cache(moved, plain, gram)
    # The base session moves through set_point, so each move rebuilds once.
    assert len(rebuilds) == (0 if gram else 2)


@pytest.mark.parametrize("name", sorted(MOVERS))
def test_set_point_takes_a_point_as_asarray_gives_it(name):
    problem = MOVERS[name]()
    n = problem.dim
    session = problem.open_session(np.zeros(n), CostLedger(n))
    with pytest.raises(ConfigurationError, match="expected a point of shape"):
        session.set_point(np.zeros(n + 1))
    wide = seeded_generator(29, STREAM_SOLVER).standard_normal(2 * n)
    for x in (list(wide[:n]), np.arange(n), wide[:n].astype(np.float32), wide[::2]):
        session.set_point(x)
        expected = np.asarray(x, dtype=float).tobytes()
        assert session.point.tobytes() == session.anchor.tobytes() == expected
    # The session's own buffers, after a shift has moved the point off the anchor.
    for own in ("point", "anchor"):
        session.shift_coordinate(0, 0.5)
        target = getattr(session, own).copy()
        session.set_point(getattr(session, own))
        assert session.point.tobytes() == session.anchor.tobytes() == target.tobytes()
        np.testing.assert_array_equal(session.eval_full(), problem.eval_full(target))


def _coordinate_step(session, gen, shift):
    """Move as a coordinate method does: an optional coordinate probe, a full
    read, then the step ``anchor - beta * F``, which is returned."""
    problem = session.problem
    l = problem.componentwise_lipschitz
    if shift:
        i = int(gen.integers(0, problem.dim))
        session.shift_coordinate(i, -0.5 * session.eval_component(i) / l[i])
    beta = float(gen.uniform(0.5, 1.0)) / l.max()
    x_next = session.anchor - np.multiply(session.eval_full(), beta)
    session.step(beta, IdentityProjection())
    assert session.point.tobytes() == session.anchor.tobytes() == x_next.tobytes()
    return x_next


def _eg_pair(session, gen):
    """Move as eg does: the probe ``y = x - s * F(x)``, a full read at ``y``,
    then the step ``x - beta * F(y)``, which is returned."""
    l_max = session.problem.componentwise_lipschitz.max()
    x = session.anchor.copy()
    scale = 0.5 / l_max
    y = x - np.multiply(session.eval_full(), scale)
    session.probe(scale)
    assert session.point.tobytes() == y.tobytes()
    assert session.anchor.tobytes() == x.tobytes()
    beta = float(gen.uniform(0.5, 1.0)) / l_max
    x_next = x - np.multiply(session.eval_full(), beta)
    session.step(beta, IdentityProjection())
    assert session.point.tobytes() == session.anchor.tobytes() == x_next.tobytes()
    return x_next


def _assert_rebuilt_exactly(session, x):
    fresh = session.problem.open_session(x, CostLedger(session.problem.dim))
    assert session._z.tobytes() == fresh._z.tobytes()
    assert session.eval_full().tobytes() == fresh.eval_full().tobytes()


def _assert_close_to_a_rebuild(session):
    problem = session.problem
    exact = problem._At @ session.point
    assert np.linalg.norm(session._z - exact) <= 1e-12 * np.linalg.norm(exact)
    np.testing.assert_allclose(session.eval_full(), problem.eval_full(session.point),
                               rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("layout", sorted(GRAM_LAYOUTS))
def test_gram_updates_stay_close_and_every_rth_one_rebuilds_exactly(layout):
    problem = GRAM_LAYOUTS[layout]()
    assert problem._K is not None
    gen = seeded_generator(21, STREAM_SOLVER)
    session = problem.open_session(gen.standard_normal(problem.dim), CostLedger(problem.dim))
    rebuilds = _count_rebuilds(session)
    for k in range(logreg._EXACT_EVERY - 1):  # steps with and without a coordinate probe
        _coordinate_step(session, gen, shift=k % 3 != 0)
    assert rebuilds == []  # each of them took the Gram update
    _assert_close_to_a_rebuild(session)

    x = _coordinate_step(session, gen, shift=True)  # the R-th update
    assert len(rebuilds) == 1
    _assert_rebuilt_exactly(session, x)
    _coordinate_step(session, gen, shift=True)  # the count starts again
    assert len(rebuilds) == 1


@pytest.mark.parametrize("layout", sorted(GRAM_LAYOUTS))
def test_eg_pairs_rebuild_exactly_at_every_64th_step_and_never_on_a_probe(layout):
    problem = GRAM_LAYOUTS[layout]()
    gen = seeded_generator(24, STREAM_SOLVER)
    session = problem.open_session(gen.standard_normal(problem.dim), CostLedger(problem.dim))
    rebuilds = _count_rebuilds(session)
    probe_rebuilds = []  # the rebuilds each probe made
    probe = session.probe

    def counted_probe(scale):
        before = len(rebuilds)
        probe(scale)
        probe_rebuilds.append(len(rebuilds) - before)

    session.probe = counted_probe
    for _ in range(logreg._EXACT_EVERY - 1):
        _eg_pair(session, gen)
    assert rebuilds == []  # every probe and every step took the Gram update
    _assert_close_to_a_rebuild(session)

    x = _eg_pair(session, gen)  # the 64th step
    assert len(rebuilds) == 1
    _assert_rebuilt_exactly(session, x)
    for _ in range(logreg._EXACT_EVERY - 1):  # the count starts again
        _eg_pair(session, gen)
    assert len(rebuilds) == 1
    _assert_close_to_a_rebuild(session)
    _eg_pair(session, gen)
    assert len(rebuilds) == 2
    assert probe_rebuilds == [0] * (2 * logreg._EXACT_EVERY)


@pytest.mark.parametrize("layout", sorted(GRAM_LAYOUTS))
def test_eg_pairs_build_one_candidate_per_move(layout, monkeypatch):
    # A candidate anchor - step * F is a point-sized subtract into a buffer.
    problem = GRAM_LAYOUTS[layout]()
    candidates = []
    subtract = np.subtract

    def counting_subtract(a, b, out=None, **kwargs):
        if out is not None and out.shape == (problem.dim,):
            candidates.append(None)
        return subtract(a, b, out=out, **kwargs)

    gen = seeded_generator(26, STREAM_SOLVER)
    session = problem.open_session(gen.standard_normal(problem.dim), CostLedger(problem.dim))
    rebuilds = _count_rebuilds(session)
    monkeypatch.setattr(np, "subtract", counting_subtract)
    for _ in range(4):
        _eg_pair(session, gen)
    assert len(candidates) == 8  # one per probe and one per step
    assert rebuilds == []


class _OneUlpUp(Projection):
    """The identity, except that coordinate 7 moves up by one ulp, in a new array."""

    def __call__(self, x):
        x = np.array(x)
        x[7] = np.nextafter(x[7], np.inf)
        return x


@pytest.mark.parametrize("layout", sorted(GRAM_LAYOUTS))
@pytest.mark.parametrize("projection", [BoxProjection(-0.05, 0.05), _OneUlpUp()],
                         ids=["box", "one-ulp-up"])
def test_a_step_the_projection_moves_rebuilds_exactly(layout, projection):
    problem = GRAM_LAYOUTS[layout]()
    gen = seeded_generator(22, STREAM_SOLVER)
    session = problem.open_session(gen.standard_normal(problem.dim), CostLedger(problem.dim))
    rebuilds = _count_rebuilds(session)
    _coordinate_step(session, gen, shift=True)
    assert rebuilds == []
    beta = 0.25 / problem.componentwise_lipschitz.max()
    x_next = projection(session.anchor - np.multiply(session.eval_full(), beta))
    session.step(beta, projection)
    assert len(rebuilds) == 1
    assert session.anchor.tobytes() == x_next.tobytes()
    _assert_rebuilt_exactly(session, x_next)


@pytest.mark.parametrize("layout", sorted(GRAM_LAYOUTS))
def test_moves_start_from_the_anchor_of_the_last_commit(layout):
    problem = GRAM_LAYOUTS[layout]()
    gen = seeded_generator(25, STREAM_SOLVER)
    x0 = gen.standard_normal(problem.dim)
    session = problem.open_session(x0, CostLedger(problem.dim))
    rebuilds = _count_rebuilds(session)
    beta = 0.25 / problem.componentwise_lipschitz.max()

    # A coordinate shift moves the point, not the anchor: the step goes from x0.
    session.shift_coordinate(3, 0.5)
    x1 = x0 - np.multiply(session.eval_full(), beta)
    session.step(beta, IdentityProjection())
    assert session.anchor.tobytes() == x1.tobytes()
    assert rebuilds == []
    _assert_close_to_a_rebuild(session)

    # set_point makes its point the anchor, and forgets the one before.
    y = x1 + 0.125
    session.set_point(y)
    assert len(rebuilds) == 1 and session.anchor.tobytes() == y.tobytes()
    x2 = y - np.multiply(session.eval_full(), beta)
    session.step(beta, IdentityProjection())
    assert session.anchor.tobytes() == x2.tobytes()
    assert len(rebuilds) == 1
    _assert_close_to_a_rebuild(session)

    # Without a full read kept since the last move there is nothing to move along.
    session.shift_coordinate(3, 0.5)
    with pytest.raises(RuntimeError, match="full read"):
        session.step(beta, IdentityProjection())
    with pytest.raises(RuntimeError, match="full read"):
        session.probe(beta)
    assert session.anchor.tobytes() == x2.tobytes()


@pytest.mark.parametrize("layout", sorted(GRAM_LAYOUTS))
def test_a_projection_that_writes_into_its_argument_raises(layout):
    class InPlace(Projection):
        def __call__(self, x):
            np.maximum(x, 0.0, out=x)
            return x

    problem = GRAM_LAYOUTS[layout]()
    gen = seeded_generator(27, STREAM_SOLVER)
    session = problem.open_session(gen.standard_normal(problem.dim), CostLedger(problem.dim))
    x = session.anchor.copy()
    session.eval_full()
    with pytest.raises(ValueError, match="read-only"):
        session.step(0.25 / problem.componentwise_lipschitz.max(), InPlace())
    assert session.anchor.tobytes() == session.point.tobytes() == x.tobytes()
    _assert_rebuilt_exactly(session, x)
