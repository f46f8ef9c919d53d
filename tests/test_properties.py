"""Property probes at unit scale (the acceptance suite reruns them larger)."""

import numpy as np
import pytest

from property_checks import (
    check_componentwise_lipschitz,
    check_cs_dense_equivalence,
    check_global_lipschitz,
    check_logreg_gradient,
    check_monotone,
    check_projection_nonexpansive,
    check_watchdog_dominance,
)

from minieg import (
    BoxProjection,
    IdentityProjection,
    NonnegativeProjection,
    SolverConfig,
    seeded_generator,
)
from minieg.core import STREAM_INSTANCE
from minieg.problems import (
    build_cs_instance,
    random_spd_affine,
    skew_rotation_problem,
    synthetic_logreg,
)

PROBLEMS = {
    "affine": lambda: random_spd_affine(12, seed=3),
    "cs": lambda: build_cs_instance(24, 8, 3, seed=3),
    "logreg": lambda: synthetic_logreg(16, 32, seed=3),
    "skew": lambda: skew_rotation_problem(2),
}


@pytest.mark.parametrize("projection, dim", [
    (IdentityProjection(), 6),
    (NonnegativeProjection(), 6),
    (BoxProjection(-np.ones(6), np.ones(6)), 6),
])
def test_projections_are_nonexpansive(projection, dim):
    worst = check_projection_nonexpansive(projection, dim, pairs=300, seed=1)
    assert worst <= 1.0 + 1e-12


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_componentwise_constants_bound_coordinate_slopes(name):
    check_componentwise_lipschitz(PROBLEMS[name](), probes=1500, seed=2)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_maps_are_monotone(name):
    check_monotone(PROBLEMS[name](), pairs=1500, seed=3)


def test_logistic_gradient_matches_finite_differences():
    gen = seeded_generator(5, STREAM_INSTANCE)
    X = gen.standard_normal((30, 12))
    labels = np.where(gen.random(30) < 0.5, -1.0, 1.0)
    worst = check_logreg_gradient(X, labels, reg=0.1, points=5, seed=5)
    assert worst <= 1e-5


def test_structured_cs_evaluation_matches_dense_assembly():
    check_cs_dense_equivalence(build_cs_instance(20, 8, 2, seed=4), points=50, seed=4)


def test_watchdog_selected_coordinate_dominates():
    result = check_watchdog_dominance(
        build_cs_instance(32, 12, 3, seed=4),
        SolverConfig(max_iterations=100_000),
    )
    assert result.converged


@pytest.mark.parametrize("seed", [0, 1])
def test_desk_secant_slopes_stay_under_both_global_constants(seed):
    # F(z) = min(z, Hz + c) is Lipschitz with sqrt(1 + ||H||^2): min is
    # 1-Lipschitz in the max-norm, so ||dF||^2 <= ||dz||^2 + ||H dz||^2.
    # The shipped constant sqrt(2n) * 1.01 * ||H|| is looser still.
    problem = build_cs_instance(256, 64, 8, snr_db=20.0, seed=seed)
    A = problem.sensing
    eigenvalues, eigenvectors = np.linalg.eigh(A.T @ A)
    norm_h = 2.0 * eigenvalues[-1]  # the spectrum of H is {0} and twice that of B
    tight = np.sqrt(1.0 + (1.01 * norm_h) ** 2)
    # Far inside the orthant, z > Hz + c along H's top eigenvector [e; -e],
    # so F is affine there and the secant slope reads ||H||.
    top = np.concatenate([eigenvectors[:, -1], -eigenvectors[:, -1]]) / np.sqrt(2.0)
    c = np.concatenate([problem._c_top, problem._c_bot])
    base = np.full(problem.dim, 10.0 * (norm_h + np.abs(c).max()))
    assert tight < problem.ensure_global_lipschitz()
    worst = check_global_lipschitz(problem, tight, (base, top), seed=seed)
    assert worst >= 0.99 * norm_h  # the sharp pairs reach ||H||


def test_logreg_secant_slopes_stay_under_the_global_constant():
    # Near the origin F is nearly affine with slope A A^T / (4N) + reg, so
    # its top eigenvector gives secant slopes close to lambda_1 / (4N) + reg.
    problem = synthetic_logreg(2000, 62, seed=0)
    left, singular, _ = np.linalg.svd(problem._A, full_matrices=False)
    steepest = singular[0] ** 2 / (4.0 * problem.n_samples) + problem.reg
    worst = check_global_lipschitz(problem, problem.ensure_global_lipschitz(),
                                   (np.zeros(problem.dim), left[:, 0]), seed=2)
    assert worst >= 0.95 * steepest
