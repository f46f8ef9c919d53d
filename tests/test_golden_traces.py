"""Golden traces: every method on every backend reproduces a fixed digest.

Each digest is a SHA-256 over everything a run exposes -- every field of
every :class:`StepObservation` handed to the callback, then a per-iteration
record of ``RECORD_FIELDS`` (including ``nf_so_far``) read back from those
observations, the charged ledger counts, the status and the bytes of the
final point. Floats are hashed exactly (``float.hex`` and raw array bytes),
so a digest changes whenever any iterate, step size or evaluation count
changes by a single ulp.
The digests were captured from the per-method stepper implementation that
preceded the shared probe-then-project loop; they pin that the loop replays
it bit for bit. The ``logreg`` case hands its features over as CSR, the
layout every logistic-regression problem had then; ``logreg-dense`` passes
the same design as an ndarray, which is kept dense and summed by BLAS in a
different order, so its digests were captured from the dense layout itself.

``RESULT_GOLDEN`` pins the same runs made without a callback, which are
the runs R-Mini-EG may fast-forward through its null steps: a digest over
the ledger counts, status, iterations, residual and final-point bytes.
They were captured from the per-step loop, before the fast-forward existed.
The extra ``cs-desk-cap`` case stops R-Mini-EG on the desk instance at a
cap that falls inside a run of null steps.

``GRAM_GOLDEN`` and ``GRAM_RESULT_GOLDEN`` pin the same two digests on a
design with fewer samples than features (20 and 60), where the problem keeps
``K = A^T A`` and sessions update their margins through it after a step.
Every other logistic-regression case has more samples than features and no
``K``. These digests were captured from the Gram-update code itself; the
two ``eg`` ones again when eg's step began to take the update from the
anchor before its probe point, which moves its trace in the last bits only.

The two ``eg`` digests of the ``cs`` case were captured again when the
sparse-recovery bound began to estimate its eigenvalue over the smaller Gram
matrix, ``A A^T`` for this wide instance: the estimate, and so eg's fixed
step, moved in its last digits. No other method reads the bound.

The two ``eg`` digests of the ``cs`` case and the two ``eg`` ones of the
Gram case were captured again when a bound on an explicit Gram matrix
(``A A^T`` here, ``K`` there) began to take its eigenvalue from a dense
symmetric eigensolver instead of a power iteration: the eigenvalue, and so
eg's fixed step, moved in its last digits. No other method reads the bound,
and the other logistic-regression cases keep no ``K``.
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
    ("eg", "cs"): "68e11e63fa81893dc99488ecf008ceb48456e1dd25c8b016263233a112ce35d3",
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


# A run of null steps covers iterations 1308-1322 of this run; the cap ends it at 1315.
DESK_CAP_CASE = (
    lambda: build_cs_instance(256, 64, 8, seed=0),
    SolverConfig(seed=0, max_iterations=1316, tolerance=1e-8),
)

RESULT_GOLDEN = {
    ("eg", "cs"): "5372330e4df87fd8a808d05ddf9473a8b8dcca673ae162cdcef164e1b91d7570",
    ("eg", "logreg"): "2d6662f9d830e1a4063e1d7f5067c62122f334d256ca0fb33f2876f0c0ee3e23",
    ("eg", "logreg-dense"): "b7227c3034b6558b33528d4b934ae71b13025f632b988028f8bc9d3ab7e96003",
    ("eg", "affine"): "11ff0ea1da36b2d6aa908ce0ebe93d321d06aa11949b02e4650c6dca642b2a4f",
    ("eg", "skew"): "8dd1e69281b9c4e29189f53f84bb297cc1f6d08fd0cf4c796d0186056f41c953",
    ("gmini", "cs"): "c45dfc3dc525d0c614504e6159a823feb9e9e4abe1c00973835586f1f124c4e8",
    ("gmini", "logreg"): "5bcfaf0377b166ae676c9a34a99b18eaf867cd82b079b588ff1bf680c01746e8",
    ("gmini", "logreg-dense"): "447e92e1da5f526ecfa5dcb2530d5487dfa4842dfdc9ca3c1f1f15def426d3c6",
    ("gmini", "affine"): "8f7a4c24cc8242c652d70674a9d30f6862aba00a00c1042c593d82433c71c5d6",
    ("gmini", "skew"): "a89265fe0778dcedd2fe61085ecfa5892ef1223675aea3fcd970d1297d9e52b0",
    ("rmini", "cs"): "5652d19c2fae48b135432ef96334fcf73220357382b414b97d6bfcfada064fde",
    ("rmini", "logreg"): "7e1f0ca2b6d8a209e9477c7863531271339e1b025b2b492bac7432123b2074b8",
    ("rmini", "logreg-dense"): "3aa32e9b19b654bb922c2378bab2d8617960e287abd906792034bd69bcacd17a",
    ("rmini", "affine"): "1ce886bfc2af746825f920fdeb6c6cf17c49259a45717b4ddd6fd2bef96730d7",
    ("rmini", "skew"): "51847413728615698120363fde6e26d85a147b406bc1afcc8d5314d0696707c8",
    ("wmax", "cs"): "67ebde106ecb304c9578e30e0a6e6baff02fd51581f75e868089aacb0952b998",
    ("wmax", "logreg"): "6083fc4ae8f63e1652e157bb516457a8c8bc2ac4c9f9444ca17b908e7321d584",
    ("wmax", "logreg-dense"): "c5cba348bf9260341a7d6065fd0daba22fe879ec3b4c3c333b687ffd7d72310d",
    ("wmax", "affine"): "577ffadfd419c3dd87ece53c6c0c649f0a0a871bfa4a1300a8b71a2f6cb2ac4d",
    ("wmax", "skew"): "4fedaa50016ea983228937d70451ff493b28a9f9f9e990969d8d2d356a7baa34",
    ("rmini", "cs-desk-cap"): "1622fa6d2f50788cc42c62c5ab0712c70eabc7ee910f6523016b83404a452220",
}


def GRAM_CASE():
    return synthetic_logreg(60, 20, seed=3)

GRAM_GOLDEN = {
    "eg": "77617e8105b87694adaa9acbd2c2818f534f2cf2da7a7302ece8a0a81c30ac07",
    "gmini": "09669690e3e2d40c3cf27cc4a50a3a1b0338a78dea81cf5f59ff9984275b8b84",
    "rmini": "369225760437e0d6ebb05d5a90ec88116dff6fc9e6eb9f396928cca19a9e2bd1",
    "wmax": "cea1c93fac14ac36562089b7b6203bac2c59e7777fbb0074c242dd74ebca0ac1",
}

GRAM_RESULT_GOLDEN = {
    "eg": "2e0c49975ae6c95e1ace5e0330b86552b4beb6cf8345542478d366887ef9d75e",
    "gmini": "9a2d501de6321870a788206101045f0974667c3abef5629094a7ead44990309d",
    "rmini": "f1f95c160042944fb7c90db2cafd99251a9ee7cb6bb4600dfaa359e45fe33391",
    "wmax": "a39ea6fbdf589a30b4e5487a8a1b275fc0e4791ae525572b06059f4c27b39887",
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


CONFIG = SolverConfig(seed=5, max_iterations=3000, tolerance=1e-6)


def _feed_result(digest, result) -> None:
    for value in (
        result.ledger.full_evals,
        result.ledger.component_evals,
        result.status.value,
        result.iterations,
        result.final_residual,
        result.final_point,
    ):
        _feed(digest, value)


def run_digest(problem, method, x0) -> str:
    digest = hashlib.sha256()
    observations = []

    def callback(obs):
        observations.append(obs)
        for name in OBSERVATION_FIELDS:
            _feed(digest, getattr(obs, name))

    result = run_solver(problem, method, CONFIG, x0=x0, callback=callback)
    for obs in observations:  # per-iteration records follow the observations, as when captured
        for name in RECORD_FIELDS:
            _feed(digest, getattr(obs, name))
    _feed_result(digest, result)
    return digest.hexdigest()


def result_digest(problem, method, x0=None, config=CONFIG) -> str:
    """Digest of a run made without a callback: what a timed run returns."""
    digest = hashlib.sha256()
    _feed_result(digest, run_solver(problem, method, config, x0=x0))
    return digest.hexdigest()


@pytest.mark.parametrize("backend", list(CASES))
@pytest.mark.parametrize("method", METHOD_IDS)
def test_golden_trace(method, backend):
    build, x0 = CASES[backend]
    assert run_digest(build(), method, x0) == GOLDEN[method, backend]


@pytest.mark.parametrize("backend", list(CASES))
@pytest.mark.parametrize("method", METHOD_IDS)
def test_golden_result_without_callback(method, backend):
    build, x0 = CASES[backend]
    assert result_digest(build(), method, x0) == RESULT_GOLDEN[method, backend]


def test_golden_result_at_a_cap_inside_a_null_run():
    build, config = DESK_CAP_CASE
    assert result_digest(build(), "rmini", config=config) == RESULT_GOLDEN["rmini", "cs-desk-cap"]


@pytest.mark.parametrize("method", METHOD_IDS)
def test_golden_trace_with_a_gram_matrix(method):
    problem = GRAM_CASE()
    assert problem._K is not None
    assert run_digest(problem, method, None) == GRAM_GOLDEN[method]


@pytest.mark.parametrize("method", METHOD_IDS)
def test_golden_result_with_a_gram_matrix(method):
    assert result_digest(GRAM_CASE(), method) == GRAM_RESULT_GOLDEN[method]
