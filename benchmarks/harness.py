"""Workloads, timed solves and the correctness gate of the solver benchmark.

The timed path is the library's public API and nothing else: build an
instance (``build_cs_instance`` / ``synthetic_logreg``), estimate its global
Lipschitz bound (``ensure_global_lipschitz``), then call
``minieg.run_solver`` with tracing off, timed around the call.  Every solve
is then checked, untimed, by :func:`check_solve`.

Importing this module puts the checkout's own ``src`` tree first on
``sys.path`` (the benchmark measures the code next to it, never an installed
copy) and pins OpenBLAS to ``BLAS_THREADS`` threads before numpy loads.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "minieg" / "__init__.py").is_file():
    raise ImportError(f"{SRC / 'minieg'} not found: run the benchmark from a checkout of the repository")

# One BLAS thread, which is <= any core count: the products here are too
# small to gain from more, and extra threads only add scheduling noise.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse  # noqa: E402
from scipy.special import expit  # noqa: E402

from minieg import RunResult, RunStatus, SolverConfig, run_solver  # noqa: E402
from minieg.core import MonotoneMapping  # noqa: E402
from minieg.problems import build_cs_instance, synthetic_logreg  # noqa: E402

METHODS = ("eg", "gmini", "rmini", "wmax")

# A recomputed residual may differ from the solver's incremental one only by
# rounding; this relative slack is far above that and far below any real miss.
RESIDUAL_SLACK = 1e-6


@dataclass(frozen=True)
class Workload:
    """A closed loop of sequential solves: one instance per round, every method on it.

    Instance ``i`` of a run with seed ``s`` is built with seed ``s + i``, and
    the solver seed equals the instance seed.  ``matrix_bytes`` is the size
    of the float64 matrix entries one ``set_point`` rebuild multiplies by,
    computed from the instance's shape.
    """

    name: str
    build: Callable[[int], MonotoneMapping]
    methods: tuple[str, ...]
    tolerance: float
    max_iterations: int
    matrix_bytes: Callable[[MonotoneMapping], int]


def _cs_rebuild_bytes(problem) -> int:
    m, n = problem.sensing.shape
    return 2 * 8 * m * n  # two products with A: A @ d, then A.T @ (A @ d)


def _logreg_rebuild_bytes(problem) -> int:
    return 8 * problem.dim * problem.n_samples  # one product with the feature matrix


_DEFAULT_CAP = SolverConfig.max_iterations

WORKLOADS = {
    wl.name: wl
    for wl in (
        # rmini's iteration counts here are heavy-tailed: 20 833 to 321 438
        # on instances 0-45, except 914 534 on instance 25, beyond the
        # library's default cap of 500 000.  The cap is raised so that slow
        # instances converge instead of counting as failed solves.
        Workload("cs-desk", lambda s: build_cs_instance(256, 64, 8, seed=s),
                 METHODS, 1e-8, 2_000_000, _cs_rebuild_bytes),
        Workload("logreg", lambda s: synthetic_logreg(2000, 62, seed=s),
                 METHODS, 1e-4, _DEFAULT_CAP, _logreg_rebuild_bytes),
        # rmini does not reach even 1e-2 here within 60 000 iterations, so
        # it is left out; see README.md for why BENCHMARK.json omits this one.
        Workload("cs-large", lambda s: build_cs_instance(2048, 512, 32, seed=s),
                 ("eg", "gmini", "wmax"), 1e-3, _DEFAULT_CAP, _cs_rebuild_bytes),
    )
}


@dataclass
class Setup:
    problem: MonotoneMapping
    build_s: float
    lipschitz_s: float


def set_up(workload: Workload, seed: int) -> Setup:
    t0 = time.perf_counter()
    problem = workload.build(seed)
    t1 = time.perf_counter()
    problem.ensure_global_lipschitz()
    t2 = time.perf_counter()
    return Setup(problem, t1 - t0, t2 - t1)


def config(workload: Workload, seed: int) -> SolverConfig:
    return SolverConfig(tolerance=workload.tolerance, seed=seed, max_iterations=workload.max_iterations)


def timed_solve(problem: MonotoneMapping, method: str, cfg: SolverConfig, **hooks) -> tuple[float, float, RunResult]:
    """One ``run_solver`` call with its start and end clock readings.

    A garbage collection runs first, untimed, so no solve pays for the
    garbage of the one before.
    """
    gc.collect()
    start = time.perf_counter()
    result = run_solver(problem, method, cfg, **hooks)
    return start, time.perf_counter(), result


class ReferenceKernel:
    """A fixed yardstick for the machine's current speed.

    On a shared host the same solve can run up to twice as long from one
    second to the next, and the drift shows in CPU time as much as in wall
    time.  This kernel is timed right before and after every solve; solve
    time divided by it cancels most of that drift.  None of it is library
    code, so no change to the library moves it.  One iteration is one step
    shaped like a desk sparse-recovery iteration (interpreter work, a pair of
    small dense products, elementwise calls) and, every tenth iteration, one
    step shaped like a logistic-regression evaluation (two sparse products
    and ``expit``), so each kind takes about half the time.
    """

    ITERATIONS = 330
    BURSTS = 3

    def __init__(self) -> None:
        gen = np.random.default_rng(0)
        self.dense = gen.standard_normal((64, 256))
        self.offset = gen.standard_normal(512)
        self.x0 = np.abs(gen.standard_normal(512))
        self.sparse = scipy.sparse.csr_matrix(gen.standard_normal((2000, 62)))
        self.sparse_t = self.sparse.T.tocsr()
        self.labels = np.sign(gen.standard_normal(62))

    def seconds_per_iteration(self) -> float:
        """The median of ``BURSTS`` timings, so one brief stall does not count."""
        return sorted(self._burst() for _ in range(self.BURSTS))[self.BURSTS // 2]

    def _burst(self) -> float:
        dense, offset, sparse, sparse_t, labels = (
            self.dense, self.offset, self.sparse, self.sparse_t, self.labels,
        )
        x = self.x0.copy()
        w = np.zeros(2000)
        start = time.perf_counter()
        for k in range(self.ITERATIONS):
            d = x[:256] - x[256:]
            g = dense.T @ (dense @ d)
            f = np.minimum(x, np.concatenate([g + offset[:256], offset[256:] - g]))
            i = int(np.argmax(np.abs(f)))
            x = np.maximum(x - (1e-3 / (1.0 + float(np.dot(f, f)))) * f, 0.0)
            x[i] += 1e-12
            if k % 10 == 0:
                m = labels * (sparse_t @ w)
                h = sparse @ (-labels * expit(-m) / 62) + 0.1 * w
                j = int(np.argmax(np.abs(h)))
                w[j] -= 0.5 * h[j]
        return (time.perf_counter() - start) / self.ITERATIONS


# ---------------------------------------------------------------------------
# Correctness gate
# ---------------------------------------------------------------------------


def expected_nf(method: str, iterations: int, n: int) -> Fraction:
    """The exact ledger identities of ``minieg.solvers``."""
    if method in ("eg", "gmini"):
        return Fraction(2 * iterations)
    if method == "rmini":
        return iterations * (1 + Fraction(1, n))
    if method == "wmax":
        return 1 + iterations * (1 + Fraction(2, n))
    raise ValueError(f"unknown method {method!r}")


def check_solve(problem: MonotoneMapping, method: str, result: RunResult, tolerance: float) -> list[str]:
    """Reasons the solve is wrong; empty when it passes every check."""
    errors = []
    if result.status is not RunStatus.CONVERGED:
        errors.append(f"status {result.status.value}")
    point = result.final_point
    residual = float(np.linalg.norm(problem.eval_full(point)))
    if not residual <= tolerance * (1 + RESIDUAL_SLACK):
        errors.append(f"recomputed residual {residual:.6e} > tolerance {tolerance:.1e}")
    if not np.array_equal(problem.projection(point), point):
        errors.append("final point is not feasible")
    ledger = result.ledger
    want = expected_nf(method, result.iterations, problem.dim)
    if ledger.n != problem.dim or ledger.nf_exact() != want or result.nf != ledger.nf:
        errors.append(
            f"ledger {ledger.full_evals} full + {ledger.component_evals}/{ledger.n} "
            f"after {result.iterations} iterations breaks nf == {want}"
        )
    return errors


# ---------------------------------------------------------------------------
# Statistics and environment
# ---------------------------------------------------------------------------


def tail_percentile(values: list[float]) -> tuple[str, float] | None:
    """The highest of p99.9/p99/p90/p75 with at least 10 samples beyond it."""
    for per_mille in (999, 990, 900, 750):
        if len(values) * (1000 - per_mille) >= 10 * 1000:
            return f"p{per_mille / 10:g}", float(np.percentile(values, per_mille / 10))
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # Linux reports KiB


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu_pinning": "none: the benchmark neither pins CPUs nor controls their frequency",
    }
