"""Affine test maps: every rejected construction names its cause."""

import numpy as np
import pytest

from minieg import ConfigurationError
from minieg.problems import AffineMonotoneProblem, random_spd_affine, skew_rotation_problem

REJECTED = {
    "non-square": (lambda: AffineMonotoneProblem(np.ones((2, 3))), "must be square"),
    "rhs-shape": (lambda: AffineMonotoneProblem(np.eye(2), rhs=np.ones(3)), "rhs must have shape"),
    "nan-matrix": (
        lambda: AffineMonotoneProblem(np.full((2, 2), np.nan)),
        "'matrix' holds a value that is not finite",
    ),
    "inf-rhs": (
        lambda: AffineMonotoneProblem(np.eye(2), rhs=[np.inf, 0.0]),
        "'rhs' holds a value that is not finite",
    ),
    "not-monotone": (
        lambda: AffineMonotoneProblem(np.diag([1.0, -1.0]), componentwise_lipschitz=[1.0, 1.0]),
        "not monotone",
    ),
    "zero-diagonal": (
        lambda: AffineMonotoneProblem([[0.0, 1.0], [-1.0, 0.0]]), "zero diagonal entries"
    ),
    "constants-shape": (
        lambda: AffineMonotoneProblem(np.eye(2), componentwise_lipschitz=[1.0]),
        "componentwise_lipschitz must have shape",
    ),
    "constants-nonpositive": (
        lambda: AffineMonotoneProblem(np.eye(2), componentwise_lipschitz=[1.0, 0.0]),
        "must be positive",
    ),
    "constants-below-diagonal": (
        lambda: AffineMonotoneProblem(np.diag([2.0, 1.0]), componentwise_lipschitz=[1.0, 1.0]),
        "must dominate",
    ),
    "root-shape": (
        lambda: AffineMonotoneProblem(np.eye(2), root=[1.0, 2.0, 3.0]),
        r"'root' must hold one entry per row of 'matrix' \(2\)",
    ),
    "nan-root": (
        lambda: AffineMonotoneProblem(np.eye(2), root=[np.nan, 0.0]),
        "'root' holds a value that is not finite",
    ),
    "spd-dim": (lambda: random_spd_affine(0, seed=0), "dim must be at least 1"),
    "skew-odd-dim": (lambda: skew_rotation_problem(3), "even dim"),
}


@pytest.mark.parametrize("case", list(REJECTED))
def test_rejected_constructions_raise_configuration_errors(case):
    build, message = REJECTED[case]
    with pytest.raises(ConfigurationError, match=message):
        build()



def test_the_global_bound_defaults_to_the_exact_spectral_norm():
    matrix = np.array([[2.0, 1.0], [-1.0, 3.0]])
    problem = AffineMonotoneProblem(matrix)
    assert problem.ensure_global_lipschitz() == float(np.linalg.norm(matrix, 2))
    assert AffineMonotoneProblem(matrix, global_lipschitz=7).ensure_global_lipschitz() == 7.0


def test_the_right_hand_side_defaults_to_zero():
    np.testing.assert_array_equal(AffineMonotoneProblem(np.eye(2)).rhs, [0.0, 0.0])
    np.testing.assert_array_equal(AffineMonotoneProblem(np.eye(2), rhs=[1, 2]).rhs, [1.0, 2.0])
