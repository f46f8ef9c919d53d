"""Golden traces: every method on every backend reproduces a fixed digest.

Each digest is a SHA-256 over everything a run exposes -- every trace record,
every field of every :class:`StepObservation` handed to the callback, the
charged ledger counts, the status and the bytes of the final point. Floats
are hashed exactly (``float.hex`` and raw array bytes), so a digest changes
whenever any iterate, step size or evaluation count changes by a single ulp.
The digests were captured from the per-method stepper implementation that
preceded the shared probe-then-project loop; they pin that the loop replays
it bit for bit. The ``logreg`` case hands its features over as CSR, the
layout every logistic-regression problem had then; ``logreg-dense`` passes
the same design as an ndarray, which is kept dense and summed by BLAS in a
different order, so its digests were captured from the dense layout itself.
"""

import hashlib

import numpy as np
import pytest
from property_checks import sparse_twin

from minieg import METHOD_IDS, SolverConfig, run_solver
from minieg.problems import (
    build_cs_instance,
    random_spd_affine,
    skew_rotation_problem,
    synthetic_logreg,
)

RECORD_FIELDS = ("k", "selected_index", "residual_y", "beta", "nf_so_far", "reset")
OBSERVATION_FIELDS = (
    "k", "x", "y", "x_next", "f_y", "f_x", "selected_index", "selected_value",
    "beta", "residual_y", "converged", "challenger_index", "challenger_value",
    "reference_value", "reset",
)

CASES = {
    "cs": (lambda: build_cs_instance(64, 16, 4, seed=3), None),
    "logreg": (lambda: sparse_twin(synthetic_logreg(50, 100, seed=3)), None),
    "logreg-dense": (lambda: synthetic_logreg(50, 100, seed=3), None),
    "affine": (lambda: random_spd_affine(16, seed=3), None),
    "skew": (lambda: skew_rotation_problem(2), np.array([1.0, 0.0])),
}

GOLDEN = {
    ("eg", "cs"): "60c17aa4c31a29a3bb7889f53021cdb63ce14c4b0756f693e743bb7537b7b377",
    ("eg", "logreg"): "e88e6e76886fd925377cf600373f9e1736eabe0c90fbfea0e89b3d59d9a04c9c",
    ("eg", "logreg-dense"): "6e9b658eaa5d1323cf3a406f534cb72992a9a9a28a76515d9d7b90c7b03f848a",
    ("eg", "affine"): "575f75d01642938ec60a9392d02394f3ec04a15a23b4fa283f3b435f7522ac60",
    ("eg", "skew"): "e46edbce02f4c3b29e888a9639d918f37a75598f9f51d379cb31277934af6078",
    ("gmini", "cs"): "1b60660f1bac955231c8a4adca153312176b5f1b2fed74d155e3f34cdda5b214",
    ("gmini", "logreg"): "133e60bd628d5cf237f32272759a387c12823256d17e9fb84889732bf25b1103",
    ("gmini", "logreg-dense"): "e81227a366c6ebcbf6109cdb8ab61c7aced5097e65c5f826eaf4f7fdf6182a6a",
    ("gmini", "affine"): "e1f31f3c3f0f65eebd8659d92323e45279890108933772c0d67d41d7a731c7e9",
    ("gmini", "skew"): "e5cfc49eb5ac4bdeba9324c367182e606f477cb7e68ba462484178352c666f89",
    ("rmini", "cs"): "ffde03e971489bd6d1f4c0308f0bf39576ef878ca26b6d00caef0f1ccc05a69f",
    ("rmini", "logreg"): "28c2703e75028c22e6a17e46ade25dca3a64d47bcb902a5aebfc9a4bdd853d2a",
    ("rmini", "logreg-dense"): "83234f51207a62e5fde9a07b51a651e1a65705654d7dd0b61a78ad0632a3bd67",
    ("rmini", "affine"): "49d991b74e616c779e8704d9c46192551e656d9c5afd3fe91d56ffeb9859aaec",
    ("rmini", "skew"): "5b84d4a5bf3f676794c0c8bf7317a0ba214b0d3b7f573960629965881ecc99ca",
    ("wmax", "cs"): "92ba0bc7c6816bb81ddf9fa52893be4cccadd0ee7814dcbff94b195a7cc15312",
    ("wmax", "logreg"): "a888f6e13e47de2bf08ed83a002aa7bb95336e019ad7e96bd9acf11ffe7f8716",
    ("wmax", "logreg-dense"): "79f5c752cafcfcbb42791430e68846468f2821d07215e68468a5a21c49ade770",
    ("wmax", "affine"): "c3c4886d822c00bd8dd093a63ca082b1a742df2fbf78d770fcbe93faf163ea73",
    ("wmax", "skew"): "038db2c730f19f4ad0b3d3eae4b179e6e8663e820efa77d3753bc6526c4f039a",
}


def _feed(digest, value) -> None:
    if value is None:
        digest.update(b"N;")
    elif isinstance(value, np.ndarray):
        digest.update(f"A{value.dtype.str}{value.shape};".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (bool, np.bool_)):
        digest.update(b"T;" if value else b"F;")
    elif isinstance(value, (int, np.integer)):
        digest.update(f"I{int(value)};".encode())
    elif isinstance(value, (float, np.floating)):
        digest.update(f"D{float(value).hex()};".encode())
    else:
        digest.update(f"S{value};".encode())


def run_digest(problem, method, x0) -> str:
    config = SolverConfig(seed=5, max_iterations=3000, tolerance=1e-6, trace="full")
    digest = hashlib.sha256()

    def callback(obs):
        for name in OBSERVATION_FIELDS:
            _feed(digest, getattr(obs, name))

    result = run_solver(problem, method, config, x0=x0, callback=callback)
    for record in result.trace:
        for name in RECORD_FIELDS:
            _feed(digest, getattr(record, name))
    for value in (
        result.ledger.full_evals,
        result.ledger.component_evals,
        result.status.value,
        result.iterations,
        result.final_residual,
        result.final_point,
    ):
        _feed(digest, value)
    return digest.hexdigest()


@pytest.mark.parametrize("backend", list(CASES))
@pytest.mark.parametrize("method", METHOD_IDS)
def test_golden_trace(method, backend):
    build, x0 = CASES[backend]
    assert run_digest(build(), method, x0) == GOLDEN[method, backend]
