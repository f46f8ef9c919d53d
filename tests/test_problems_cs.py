"""Sparse-recovery backend: construction, dense oracles, persistence."""

import io
import math
import re

import numpy as np
import pytest

from minieg import ConfigurationError, CostLedger, run_solver, SolverConfig, seeded_generator
from minieg.core import STREAM_SOLVER
from minieg.problems import (
    CSProblem,
    SpectralEstimate,
    build_cs_instance,
    estimate_lambda_max,
    lasso,
    load_instance,
    random_spd_affine,
    save_instance,
    synthetic_logreg,
)


def _dense_residual(problem, z):
    """From-scratch evaluation of the split complementarity map."""
    A, b, reg, n = problem.sensing, problem.measurements, problem.reg, problem.n_signal
    B = A.T @ A
    H = np.block([[B, -B], [-B, B]])
    c = np.concatenate([reg - A.T @ b, reg + A.T @ b])
    return np.minimum(z, H @ z + c)


def test_generator_scaling_and_regularization():
    problem = build_cs_instance(128, 32, 4, seed=5)
    A = problem.sensing
    assert A.shape == (32, 128)
    column_norms = np.linalg.norm(A, axis=0)
    assert abs(column_norms.mean() - 1.0) < 0.1
    assert abs(A.std() - 1.0 / np.sqrt(32)) < 0.1 / np.sqrt(32)
    # reg follows the reg_scale * ||A^T b||_inf rule exactly.
    assert problem.reg == 0.1 * float(np.abs(A.T @ problem.measurements).max())


def test_componentwise_constants_are_clipped_gram_diagonals():
    problem = build_cs_instance(48, 12, 4, seed=2)
    diag = np.diag(problem.sensing.T @ problem.sensing)
    expected = np.concatenate([np.maximum(diag, 1.0)] * 2)
    np.testing.assert_allclose(
        problem.componentwise_lipschitz, expected, rtol=1e-13, atol=0.0
    )
    assert problem.dim == 96


def test_global_constant_against_a_dense_eigenvalue_oracle():
    problem = build_cs_instance(16, 8, 3, seed=4)
    A = problem.sensing
    B = A.T @ A
    H = np.block([[B, -B], [-B, B]])
    lam_h = float(np.linalg.eigvalsh(H).max())
    # The doubled structure has spectrum {0} union 2*spec(B).
    assert lam_h == pytest.approx(2.0 * np.linalg.eigvalsh(B).max(), rel=1e-10)

    L = problem.ensure_global_lipschitz()
    est = estimate_lambda_max(lambda v: B @ v, 16, seed=4)
    expected = np.sqrt(32.0) * max(1.01 * 2.0 * est.value, 1.0)
    assert L == pytest.approx(expected, rel=1e-12)
    assert L >= np.sqrt(problem.dim) * 1.0 - 1e-12  # floor when the map is mild
    kappa = L / problem.componentwise_lipschitz.max()
    assert 1.0 - 1e-12 <= kappa <= problem.dim


@pytest.mark.parametrize("factory", [
    lambda: build_cs_instance(256, 64, 8, snr_db=20.0, seed=0),
    lambda: synthetic_logreg(64, 200, seed=1),
    lambda: random_spd_affine(16, seed=3),
])
def test_coupling_factor_stays_in_unit_to_dimension_band(factory):
    problem = factory()
    kappa = problem.ensure_global_lipschitz() / problem.componentwise_lipschitz.max()
    assert 1.0 - 1e-12 <= kappa <= problem.dim + 1e-12


def test_desk_gram_matrix_is_exactly_symmetric():
    # Coordinate shifts read the contiguous Gram row in place of the column;
    # that keeps traces bit for bit only while A.T @ A is built symmetric.
    G = build_cs_instance(256, 64, 8, seed=0)._G
    assert np.array_equal(G, G.T)


def test_unconverged_spectral_estimate_fails_fast(monkeypatch):
    capped = SpectralEstimate(value=3.0, iterations=17, converged=False)
    monkeypatch.setattr(lasso, "estimate_lambda_max", lambda *args, **kwargs: capped)
    problem = build_cs_instance(16, 8, 3, seed=4)
    with pytest.raises(ConfigurationError, match="17 matvecs"):
        problem.ensure_global_lipschitz()
    assert problem.global_lipschitz is None
    with pytest.raises(ConfigurationError, match="did not converge"):
        run_solver(problem, "eg", SolverConfig())


def test_structured_evaluation_matches_the_dense_formula():
    problem = build_cs_instance(32, 8, 2, seed=7)
    gen = seeded_generator(7, STREAM_SOLVER)
    for _ in range(100):
        z = gen.standard_normal(problem.dim) * 3.0  # negatives included
        np.testing.assert_allclose(
            problem.eval_full(z), _dense_residual(problem, z), rtol=0.0, atol=1e-11
        )


def _numpy_scalar_component(session, i):
    """The session's component formula, evaluated on numpy scalars as it once was."""
    p = session.problem
    n = p.n_signal
    if i < n:
        q = session._g[i] + p._c_top[i]
    else:
        q = p._c_bot[i - n] - session._g[i - n]
    return float(min(session._x[i], q))


def test_component_reads_are_python_floats_with_the_numpy_scalar_bytes():
    problem = build_cs_instance(256, 64, 8, seed=0)
    gen = seeded_generator(5, STREAM_SOLVER)
    dim = problem.dim
    sparse = gen.random(dim)
    sparse[gen.random(dim) < 0.8] = 0.0
    points = [gen.random(dim) * scale for scale in (1e-3, 1.0, 30.0)] + [sparse, np.zeros(dim)]
    for z in points:
        session = problem.open_session(z, CostLedger(dim))
        full = problem.eval_full(z)
        for i in range(dim):
            value = session.eval_component(i)
            assert type(value) is float
            assert value == full[i]
            assert value.hex() == _numpy_scalar_component(session, i).hex()
    # After shifts the cache drifts from a fresh evaluation, and with a NaN in
    # the point the min keeps whichever argument comes first: the bytes still
    # follow the numpy-scalar formula.
    z = sparse.copy()
    z[7] = np.nan
    session = problem.open_session(z, CostLedger(dim))
    for i in gen.integers(0, dim, size=50):
        session.shift_coordinate(int(i), float(gen.standard_normal()))
    for i in range(dim):
        assert session.eval_component(i).hex() == _numpy_scalar_component(session, i).hex()


def test_instance_round_trip_is_bit_exact(tmp_path):
    problem = build_cs_instance(40, 10, 3, seed=6)
    path = tmp_path / "instance.npz"
    save_instance(path, problem)
    loaded = load_instance(path)

    np.testing.assert_array_equal(loaded.sensing, problem.sensing)
    np.testing.assert_array_equal(loaded.measurements, problem.measurements)
    np.testing.assert_array_equal(loaded.x_true, problem.x_true)
    assert loaded.reg == problem.reg
    assert loaded.meta.sparsity == problem.meta.sparsity
    assert loaded.meta.snr_db == problem.meta.snr_db
    assert loaded.meta.realized_snr_db == problem.meta.realized_snr_db
    assert loaded.meta.seed == problem.meta.seed

    z = np.abs(np.sin(np.arange(problem.dim)))
    np.testing.assert_array_equal(loaded.eval_full(z), problem.eval_full(z))


def test_bare_instance_round_trip_keeps_optional_fields_empty(tmp_path):
    gen = seeded_generator(3, STREAM_SOLVER)
    problem = CSProblem(gen.standard_normal((6, 10)), gen.standard_normal(6))
    path = tmp_path / "bare.npz"
    save_instance(path, problem)
    loaded = load_instance(path)
    assert loaded.x_true is None
    assert loaded.meta.sparsity is None
    assert loaded.meta.snr_db is None
    assert loaded.meta.seed is None
    assert loaded.reg == problem.reg


def test_loading_a_foreign_container_fails_cleanly(tmp_path):
    path = tmp_path / "foreign.npz"
    np.savez(path, format="someone-elses-format", payload=np.zeros(3))
    with pytest.raises(ConfigurationError):
        load_instance(path)


def _npy_bytes(array):
    """``array`` as the bytes of a ``.npy`` file."""
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=True)
    return buffer.getvalue()


# Files that numpy.load cannot read as an archive without pickles.
NOT_ARCHIVES = {
    "text": b"not an archive at all",
    "empty": b"",
    "truncated-zip": b"PK\x03\x04" + bytes(12),
    "bare-array": _npy_bytes(np.zeros(3)),
    "pickled-array": _npy_bytes(np.array([{}])),
}


@pytest.mark.parametrize("kind", sorted(NOT_ARCHIVES))
def test_a_file_that_is_not_an_instance_archive_fails_cleanly(kind, tmp_path):
    path = tmp_path / "instance.npz"
    path.write_bytes(NOT_ARCHIVES[kind])
    with pytest.raises(ConfigurationError, match=f"{path} is not an instance archive"):
        load_instance(path)


INSTANCE_KEYS = ["format", "sensing", "measurements", "reg", "x_true",
                 "sparsity", "snr_db", "realized_snr_db", "seed"]


@pytest.mark.parametrize("key", INSTANCE_KEYS)
def test_an_archive_missing_a_key_names_the_path_and_the_key(key, tmp_path):
    path = tmp_path / "instance.npz"
    save_instance(path, build_cs_instance(16, 8, 2))
    with np.load(path) as data:
        assert sorted(data.files) == sorted(INSTANCE_KEYS)
        kept = {k: data[k] for k in data.files if k != key}
    np.savez(path, **kept)
    with pytest.raises(ConfigurationError, match=f"{path} has no key '{key}'"):
        load_instance(path)


def test_an_archive_with_a_pickled_member_names_the_path_and_the_key(tmp_path):
    path = tmp_path / "instance.npz"
    save_instance(path, build_cs_instance(16, 8, 2))
    with np.load(path) as data:
        fields = {k: data[k] for k in data.files}
    np.savez(path, **{**fields, "sensing": np.array([{}])})
    with pytest.raises(ConfigurationError, match=f"{path}: key 'sensing'"):
        load_instance(path)


def test_a_missing_instance_file_stays_an_os_error(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_instance(tmp_path / "absent.npz")


def test_solution_satisfies_the_lasso_optimality_conditions():
    problem = build_cs_instance(64, 16, 4, seed=1)
    result = run_solver(problem, "gmini", SolverConfig(tolerance=1e-10))
    assert result.converged
    assert problem.kkt_residual(result.final_point) <= 1e-8


def test_signal_views_and_recovery_error():
    problem = build_cs_instance(20, 8, 2, seed=9)
    z = np.concatenate([np.full(20, 2.0), np.full(20, 0.5)])
    np.testing.assert_allclose(problem.signal_estimate(z), np.full(20, 1.5))
    assert problem.recovery_error(
        np.concatenate([np.maximum(problem.x_true, 0), np.maximum(-problem.x_true, 0)])
    ) == pytest.approx(0.0, abs=1e-15)

    bare = CSProblem(problem.sensing, problem.measurements)
    with pytest.raises(ConfigurationError):
        bare.recovery_error(z)


def test_builder_validation_and_realized_snr():
    with pytest.raises(ConfigurationError):
        build_cs_instance(16, 4, 0)
    with pytest.raises(ConfigurationError):
        build_cs_instance(16, 4, 17)
    with pytest.raises(ConfigurationError):
        build_cs_instance(16, 0, 2)
    problem = build_cs_instance(64, 24, 4, snr_db=20.0, seed=3)
    assert problem.meta.realized_snr_db == pytest.approx(20.0, abs=1e-9)


def test_problem_validation():
    with pytest.raises(ConfigurationError):
        CSProblem(np.zeros((4, 0)), np.zeros(4))
    with pytest.raises(ConfigurationError):
        CSProblem(np.zeros(4), np.zeros(4))
    with pytest.raises(ConfigurationError):
        CSProblem(np.zeros((4, 3)), np.zeros(5))
    with pytest.raises(ConfigurationError):
        CSProblem(np.ones((2, 2)), np.zeros(2), reg=0.0)


def _with_nan(values, index):
    values = np.array(values, dtype=float)
    values[index] = np.nan
    return values


@pytest.mark.parametrize("sensing, measurements, reg", [
    (_with_nan(np.eye(3), (1, 2)), np.ones(3), None),
    (np.eye(3), _with_nan(np.ones(3), 0), None),  # would derive reg = nan
    (np.eye(3), np.array([1.0, np.inf, 1.0]), 0.5),
    (np.eye(3), np.ones(3), float("nan")),
    (np.eye(3), np.ones(3), float("inf")),
], ids=["nan-sensing", "nan-measurement", "inf-measurement", "nan-reg", "inf-reg"])
def test_rejects_non_finite_problem_data(sensing, measurements, reg):
    with pytest.raises(ConfigurationError, match="finite"):
        CSProblem(sensing, measurements, reg=reg)



@pytest.mark.parametrize("snr_db", [math.nan, -math.inf, -7000.0, 7000.0, True, "20"])
def test_snr_without_a_float_noise_scale_is_rejected(snr_db):
    with pytest.raises(ConfigurationError, match="snr_db"):
        build_cs_instance(24, 8, 2, snr_db=snr_db)


def test_nan_snr_is_rejected_and_infinite_snr_builds_a_noiseless_instance():
    with pytest.raises(ConfigurationError, match="snr_db"):
        build_cs_instance(24, 8, 2, snr_db=np.float64(np.nan))
    for snr_db in (math.inf, np.float64(np.inf)):
        problem = build_cs_instance(24, 8, 2, snr_db=snr_db, seed=3)
        assert problem.meta.snr_db == math.inf and problem.meta.realized_snr_db == math.inf
        np.testing.assert_array_equal(problem.measurements, problem.sensing @ problem.x_true)


@pytest.mark.parametrize("snr_db", [-6000.0, -6400.0])
def test_snr_whose_noise_overflows_is_rejected(snr_db):
    # -6000 dB: the noise norm overflows; -6400 dB: the scaled noise itself does.
    with pytest.raises(ConfigurationError, match="snr_db"):
        build_cs_instance(24, 8, 2, seed=1, snr_db=snr_db)


@pytest.mark.parametrize("snr_db", [-600.0, 600.0, 600])
def test_large_finite_snr_still_builds(snr_db):
    problem = build_cs_instance(24, 8, 2, snr_db=snr_db, seed=1)
    assert problem.meta.realized_snr_db == pytest.approx(snr_db)


@pytest.mark.parametrize("reg", [-0.5, math.nan, math.inf, True, "0.1"])
def test_reg_must_be_a_positive_real_number(reg):
    with pytest.raises(ConfigurationError, match="reg"):
        CSProblem(np.ones((2, 2)), np.ones(2), reg=reg)


@pytest.mark.parametrize("reg", [0.1, np.float64(0.1)])
def test_a_positive_real_reg_is_accepted(reg):
    assert CSProblem(np.ones((2, 2)), np.ones(2), reg=reg).reg == 0.1


def _rewrite_instance(path, **members):
    """Save a small instance to ``path`` with some of its members replaced."""
    save_instance(path, build_cs_instance(16, 8, 2))
    with np.load(path) as data:
        fields = {k: data[k] for k in data.files}
    np.savez(path, **{**fields, **members})


# One member of the wrong kind or shape per key.
MALFORMED_MEMBERS = {
    "format": np.array(["minieg-cs-v1"]),
    "sensing": np.zeros(16),
    "measurements": np.array(["x"] * 8),
    "reg": np.array("high"),
    "x_true": np.zeros(5),
    "sparsity": np.zeros(3),
    "snr_db": np.array([20.0, 20.0]),
    "realized_snr_db": np.array(True),
    "seed": np.array(1.5),
}


@pytest.mark.parametrize("key", INSTANCE_KEYS)
def test_an_archive_with_a_malformed_member_names_the_path_and_the_key(key, tmp_path):
    path = tmp_path / "instance.npz"
    _rewrite_instance(path, **{key: MALFORMED_MEMBERS[key]})
    with pytest.raises(ConfigurationError, match=f"{path}: key '{key}'"):
        load_instance(path)


def test_an_archive_may_hold_integers_for_its_reals(tmp_path):
    path = tmp_path / "instance.npz"
    _rewrite_instance(path, reg=np.array(1), snr_db=np.array(20), seed=np.uint64(3))
    loaded = load_instance(path)
    assert loaded.reg == 1.0 and loaded.meta.snr_db == 20.0 and loaded.meta.seed == 3


# Members of the right kind and shape whose values no instance can hold.
INVALID_VALUES = {
    "short-measurements": ({"measurements": np.zeros(5)},
                           "key 'measurements' holds 5 entries, but 'sensing' has 8 rows"),
    "negative-reg": ({"reg": np.array(-1.0)}, "key 'reg' must hold a positive finite number"),
    "nan-sensing": ({"sensing": np.full((8, 16), np.nan)}, "key 'sensing' holds a value that is not"),
    "no-columns": ({"sensing": np.zeros((8, 0)), "x_true": np.zeros(0)}, "key 'sensing' holds no"),
}


@pytest.mark.parametrize("case", sorted(INVALID_VALUES))
def test_an_archive_with_an_invalid_value_names_the_path_and_the_key(case, tmp_path):
    members, needle = INVALID_VALUES[case]
    path = tmp_path / "instance.npz"
    _rewrite_instance(path, **members)
    with pytest.raises(ConfigurationError, match=re.escape(f"{path}: {needle}")):
        load_instance(path)
