"""Unit tests for evaluation accounting, projections, and session plumbing."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from minieg import (
    BoxProjection,
    ConfigurationError,
    CostLedger,
    IdentityProjection,
    MonotoneMapping,
    NonnegativeProjection,
    seeded_generator,
    weighted_norm,
)
from minieg.core import STREAM_INSTANCE, STREAM_POWER, STREAM_SOLVER, STREAM_X0
from minieg.problems import (
    AffineMonotoneProblem,
    LogRegProblem,
    build_cs_instance,
    random_spd_affine,
    skew_rotation_problem,
    synthetic_logreg,
)


# ---------------------------------------------------------------------------
# CostLedger
# ---------------------------------------------------------------------------


def test_ledger_counts_and_nf():
    ledger = CostLedger(4)
    ledger.charge_full(3)
    ledger.charge_component(5)
    assert ledger.full_evals == 3
    assert ledger.component_evals == 5
    assert ledger.nf == 4.25
    assert ledger.nf_exact() == Fraction(17, 4)


def test_ledger_default_counts_are_zero():
    ledger = CostLedger(7)
    assert ledger.full_evals == 0 and ledger.component_evals == 0
    assert ledger.nf == 0.0
    ledger.charge_full()
    ledger.charge_component()
    assert ledger.nf_exact() == Fraction(8, 7)


def test_ledger_watchdog_style_accounting():
    # One full evaluation up front, then 6138 iterations each costing one full
    # evaluation plus two coordinate reads, at n=2000.
    ledger = CostLedger(2000)
    ledger.charge_full()
    for _ in range(3):  # charge in chunks to exercise the count argument
        ledger.charge_full(2046)
    ledger.charge_component(2 * 6138)
    assert ledger.full_evals == 1 + 6138
    assert ledger.component_evals == 12276
    assert ledger.nf_exact() == Fraction(6145138, 1000)
    assert ledger.nf == pytest.approx(6145.138, abs=1e-9)


def test_ledger_rejects_bad_dimension():
    with pytest.raises(ConfigurationError):
        CostLedger(0)
    with pytest.raises(ConfigurationError):
        CostLedger(-3)


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------


def test_identity_projection_returns_input():
    p = IdentityProjection()
    x = np.array([1.0, -2.0, 3.5])
    np.testing.assert_array_equal(p(x), x)


def test_nonnegative_projection_clamps_below_zero():
    p = NonnegativeProjection()
    np.testing.assert_array_equal(
        p(np.array([-1.0, 0.0, 2.0])), np.array([0.0, 0.0, 2.0])
    )


def test_box_projection_componentwise_clamp():
    p = BoxProjection([0.0, 0.0], [1.0, 1.0])
    np.testing.assert_array_equal(p(np.array([2.0, -3.0])), np.array([1.0, 0.0]))


def test_box_projection_scalar_bounds_broadcast():
    p = BoxProjection(-1.0, 1.0)
    np.testing.assert_array_equal(
        p(np.array([-5.0, 0.25, 9.0])), np.array([-1.0, 0.25, 1.0])
    )


def test_box_projection_rejects_crossed_bounds():
    with pytest.raises(ConfigurationError):
        BoxProjection([0.0, 2.0], [1.0, 1.0])


# ---------------------------------------------------------------------------
# Weighted norm
# ---------------------------------------------------------------------------


def test_weighted_norm_hand_values():
    # Unit weights reduce to the Euclidean norm.
    assert weighted_norm(np.array([3.0, 4.0]), np.ones(2)) == pytest.approx(5.0)
    # First-power weights (4, 9): sqrt(4*1 + 9*1) = sqrt(13).
    assert weighted_norm(np.array([1.0, 1.0]), np.array([4.0, 9.0])) == pytest.approx(
        np.sqrt(13.0)
    )


def test_weighted_norm_zeroth_power_matches_euclidean():
    gen = seeded_generator(11, STREAM_INSTANCE)
    for _ in range(50):
        n = int(gen.integers(1, 40))
        x = gen.standard_normal(n) * 10.0 ** gen.integers(-3, 4)
        l = np.abs(gen.standard_normal(n)) + 0.1
        lhs = weighted_norm(x, l**0.0)
        rhs = float(np.linalg.norm(x))
        assert lhs == pytest.approx(rhs, rel=1e-14)


def test_weighted_norm_validation():
    with pytest.raises(ConfigurationError):
        weighted_norm(np.ones(3), np.ones(2))
    with pytest.raises(ConfigurationError):
        weighted_norm(np.ones(2), np.array([1.0, -1.0]))


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------


def test_seeded_generator_is_deterministic():
    a = seeded_generator(123, STREAM_SOLVER).random(8)
    b = seeded_generator(123, STREAM_SOLVER).random(8)
    np.testing.assert_array_equal(a, b)


def test_seeded_generator_streams_are_independent():
    draws = {
        stream: seeded_generator(5, stream).random(6).tobytes()
        for stream in (STREAM_SOLVER, STREAM_X0, STREAM_INSTANCE, STREAM_POWER)
    }
    assert len(set(draws.values())) == 4


def test_seeded_generator_seeds_are_independent():
    a = seeded_generator(1, STREAM_SOLVER).random(6)
    b = seeded_generator(2, STREAM_SOLVER).random(6)
    assert not np.array_equal(a, b)


def test_seeded_generator_validates_seed_range():
    with pytest.raises(ConfigurationError):
        seeded_generator(-1, STREAM_SOLVER)
    with pytest.raises(ConfigurationError):
        seeded_generator(2**64, STREAM_SOLVER)
    # Boundary values are fine.
    seeded_generator(0, STREAM_SOLVER)
    seeded_generator(2**64 - 1, STREAM_SOLVER)
    # So are numpy integers, which draw as the same Python int does.
    for seed in (np.int64(3), np.uint64(3)):
        assert (seeded_generator(seed, STREAM_SOLVER).random()
                == seeded_generator(3, STREAM_SOLVER).random())


# A seed that is not an integer used to be truncated by int(seed).
NON_INTEGER_SEEDS = {
    "cs-float": lambda: build_cs_instance(16, 8, 2, seed=1.5),
    "cs-bool": lambda: build_cs_instance(16, 8, 2, seed=True),
    "logreg-float": lambda: synthetic_logreg(10, 5, seed=0.5),
}


@pytest.mark.parametrize("case", list(NON_INTEGER_SEEDS))
def test_a_seed_that_is_not_an_integer_is_named(case):
    with pytest.raises(ConfigurationError, match="seed must be an integer"):
        NON_INTEGER_SEEDS[case]()


# A generator size that is not an integer used to fail inside numpy with a
# TypeError that named no argument; True used to pass the range checks.
NON_INTEGER_SIZES = {
    "cs-n": (lambda: build_cs_instance(True, 8, 1), "n"),
    "cs-measurements": (lambda: build_cs_instance(16, 8.0, 2), "n_measurements"),
    "cs-sparsity": (lambda: build_cs_instance(16, 8, 2.5), "sparsity"),
    "logreg-features-float": (lambda: synthetic_logreg(10.5, 5), "n_features"),
    "logreg-features-bool": (lambda: synthetic_logreg(True, 5), "n_features"),
    "logreg-samples": (lambda: synthetic_logreg(5, 10.5), "n_samples"),
    "spd-dim-float": (lambda: random_spd_affine(4.0, 0), "dim"),
    "spd-dim-bool": (lambda: random_spd_affine(True, 0), "dim"),
    "skew-dim": (lambda: skew_rotation_problem(4.0), "dim"),
}


@pytest.mark.parametrize("case", list(NON_INTEGER_SIZES))
def test_a_size_that_is_not_an_integer_is_named(case):
    build, name = NON_INTEGER_SIZES[case]
    with pytest.raises(ConfigurationError, match=f"^'{name}' must be an integer, got "):
        build()


@pytest.mark.parametrize("size", [np.int64(4), np.uint8(4)])
def test_a_numpy_integer_size_is_accepted(size):
    assert random_spd_affine(size, 0).dim == 4
    assert skew_rotation_problem(size).dim == 4
    assert synthetic_logreg(size, size).dim == 4
    assert build_cs_instance(size, size, 1).n_signal == 4


# ---------------------------------------------------------------------------
# Session contract (exercised through the affine backend)
# ---------------------------------------------------------------------------


@pytest.fixture()
def small_problem():
    return random_spd_affine(6, seed=0)


def test_session_charges_full_and_component(small_problem):
    ledger = CostLedger(small_problem.dim)
    session = small_problem.open_session(np.zeros(6), ledger)
    assert ledger.nf == 0.0  # opening a session is free

    session.eval_full()
    assert ledger.full_evals == 1 and ledger.component_evals == 0

    session.eval_component(2)
    session.eval_component(2)
    assert ledger.component_evals == 2
    assert ledger.nf_exact() == Fraction(1) + Fraction(2, 6)


def test_session_moves_are_not_charged(small_problem):
    ledger = CostLedger(small_problem.dim)
    session = small_problem.open_session(np.zeros(6), ledger)
    session.set_point(np.ones(6))
    session.shift_coordinate(3, -0.5)
    assert ledger.nf == 0.0


def test_session_point_tracks_moves(small_problem):
    ledger = CostLedger(small_problem.dim)
    session = small_problem.open_session(np.zeros(6), ledger)
    session.shift_coordinate(1, 2.5)
    expected = np.zeros(6)
    expected[1] = 2.5
    np.testing.assert_array_equal(session.point, expected)


def test_session_copies_the_start_point(small_problem):
    x0 = np.zeros(6)
    session = small_problem.open_session(x0, CostLedger(6))
    x0[0] = 99.0
    assert session.point[0] == 0.0


def test_session_matches_direct_evaluation(small_problem):
    gen = seeded_generator(3, STREAM_INSTANCE)
    x = gen.standard_normal(6)
    session = small_problem.open_session(x, CostLedger(6))
    np.testing.assert_allclose(
        session.eval_full(), small_problem.eval_full(x), rtol=0, atol=1e-14
    )


def test_session_shift_matches_rebuild(small_problem):
    gen = seeded_generator(4, STREAM_INSTANCE)
    x = gen.standard_normal(6)
    shifted = small_problem.open_session(x, CostLedger(6))
    shifted.shift_coordinate(2, 0.75)

    rebuilt = small_problem.open_session(shifted.point, CostLedger(6))
    np.testing.assert_allclose(
        shifted.eval_full(), rebuilt.eval_full(), rtol=0, atol=1e-12
    )


def test_session_eval_full_returns_fresh_array(small_problem):
    session = small_problem.open_session(np.zeros(6), CostLedger(6))
    f = session.eval_full()
    f[:] = 1e9
    np.testing.assert_allclose(
        session.eval_full(), small_problem.eval_full(np.zeros(6)), atol=1e-14
    )


def test_session_rejects_mismatched_ledger(small_problem):
    with pytest.raises(ConfigurationError):
        small_problem.open_session(np.zeros(6), CostLedger(5))


def test_session_rejects_bad_start_shape(small_problem):
    with pytest.raises(ConfigurationError):
        small_problem.open_session(np.zeros(7), CostLedger(6))


def test_eval_full_rejects_bad_shape():
    problem = AffineMonotoneProblem(np.eye(2))
    with pytest.raises(ConfigurationError):
        problem.eval_full(np.zeros(3))


# ---------------------------------------------------------------------------
# Global Lipschitz bound
# ---------------------------------------------------------------------------

# One problem of each shipped backend, with its bound not yet computed.
BOUND_BACKENDS = {
    "cs": lambda: build_cs_instance(16, 8, 2, seed=1),
    "logreg-dense": lambda: synthetic_logreg(12, 25, seed=4),
    "logreg-sparse": lambda: LogRegProblem(
        sp.random(20, 40, density=0.3, random_state=np.random.default_rng(0)),
        np.where(np.arange(20) % 2, 1.0, -1.0),
    ),
    "affine": lambda: AffineMonotoneProblem([[2.0, 1.0], [-1.0, 3.0]]),
}


@pytest.mark.parametrize("backend", sorted(BOUND_BACKENDS))
def test_every_backend_computes_its_global_bound_once(backend):
    problem = BOUND_BACKENDS[backend]()
    computed = []
    compute = problem._compute_global_lipschitz
    problem._compute_global_lipschitz = lambda: computed.append(1) or compute()
    assert problem.global_lipschitz is None
    bound = problem.ensure_global_lipschitz()
    assert problem.ensure_global_lipschitz() == bound == problem.global_lipschitz
    assert len(computed) == 1
    assert bound >= problem.componentwise_lipschitz.max()


class _Unbounded(MonotoneMapping):
    """A mapping that states no global bound."""

    dim = 1
    componentwise_lipschitz = np.ones(1)

    def eval_full(self, x):
        return self._check_point(x)

    def open_session(self, x0, ledger):
        raise NotImplementedError


def test_a_mapping_without_a_bound_names_its_type_and_caches_nothing():
    problem = _Unbounded()
    assert problem.lambda_setup is None
    for _ in range(2):
        with pytest.raises(ConfigurationError, match="_Unbounded has no global Lipschitz bound"):
            problem.ensure_global_lipschitz()
        assert problem.global_lipschitz is None
