"""Experiment harness: problem sources, trial loops, aggregation.

An :class:`ExperimentSpec` pins everything that defines a benchmark run:
where problem instances come from, which solvers compete, the shared solver
configuration, how many trials to run and how iterates are initialized.
Running it produces per-trial rows plus per-method aggregates; trials are
paired (every method sees the same instance and start point within a trial)
and sequential, and all seeds are derived as ``base + trial_index`` so the
whole run is reproducible from the spec alone.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar, Protocol

import numpy as np

from ..core import (
    ConfigurationError,
    MonotoneMapping,
    STREAM_X0,
    _checked_seed,
    _is_integer,
    _is_real,
    seeded_generator,
)
from ..problems import (
    CSProblem,
    build_cs_instance,
    load_instance,
    load_libsvm,
    random_spd_affine,
    skew_rotation_problem,
)
from ..problems.lasso import _REG_SCALE, _SNR_DB
from ..problems.logreg import _REG, LogRegProblem
from ..solvers import (
    METHOD_IDS,
    RunStatus,
    SolverConfig,
    method_display_name,
    run_solver,
)

__all__ = [
    "ProblemSource",
    "SyntheticCSSource",
    "AffineSource",
    "LibsvmSource",
    "InstanceFileSource",
    "FixedProblemSource",
    "ExperimentSpec",
    "TrialRow",
    "MethodAggregate",
    "ExperimentResult",
    "run_experiment",
    "SweepResult",
    "sweep_rho",
    "RankPoint",
    "rank_trace",
]


class ProblemSource(Protocol):
    """Anything that can produce problem instances for a benchmark."""

    fresh_per_trial: bool

    def build(self, seed: int) -> MonotoneMapping: ...

    def describe(self) -> dict: ...


class _FieldSource:
    """Describes a dataclass source as its ``kind`` and its init fields."""

    kind: ClassVar[str]

    def describe(self) -> dict:
        """``{"kind": ..., <field>: <value>, ...}``, with a path as a string."""
        described = {"kind": self.kind}
        for f in fields(self):
            if f.init:
                value = getattr(self, f.name)
                described[f.name] = str(value) if isinstance(value, os.PathLike) else value
        return described


@dataclass(frozen=True)
class SyntheticCSSource(_FieldSource):
    """Synthetic sparse-recovery instances, regenerated per trial."""

    kind = "synthetic-cs"
    n: int
    n_measurements: int
    sparsity: int
    snr_db: float = _SNR_DB
    seed: int = 0
    reg_scale: float = _REG_SCALE
    fresh_per_trial: bool = field(default=True, init=False)

    def __post_init__(self) -> None:
        _checked_seed(self.seed)

    def build(self, seed: int) -> MonotoneMapping:
        return build_cs_instance(
            self.n,
            self.n_measurements,
            self.sparsity,
            snr_db=self.snr_db,
            seed=self.seed + seed,
            reg_scale=self.reg_scale,
        )


@dataclass(frozen=True)
class AffineSource(_FieldSource):
    """Random SPD or fixed skew-rotation affine instances."""

    kind = "affine"
    dim: int
    flavor: str = "spd"  # "spd" | "skew"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.flavor not in ("spd", "skew"):
            raise ConfigurationError(f"unknown affine flavor {self.flavor!r}")
        _checked_seed(self.seed)

    @property
    def fresh_per_trial(self) -> bool:
        return self.flavor == "spd"

    def build(self, seed: int) -> MonotoneMapping:
        if self.flavor == "spd":
            return random_spd_affine(self.dim, self.seed + seed)
        return skew_rotation_problem(self.dim)


@dataclass(frozen=True)
class LibsvmSource(_FieldSource):
    """A fixed classification dataset on disk (logistic regression map)."""

    kind = "libsvm"
    path: str
    reg: float = _REG
    fresh_per_trial: bool = field(default=False, init=False)

    def build(self, seed: int) -> MonotoneMapping:
        X, y = load_libsvm(self.path)
        return LogRegProblem(X, y, reg=self.reg)


@dataclass(frozen=True)
class InstanceFileSource(_FieldSource):
    """A sparse-recovery instance saved in the NPZ container format."""

    kind = "instance-file"
    path: str
    fresh_per_trial: bool = field(default=False, init=False)

    def build(self, seed: int) -> MonotoneMapping:
        return load_instance(self.path)


class FixedProblemSource:
    """Wrap an already-built problem (library use and tests)."""

    fresh_per_trial = False

    def __init__(self, problem: MonotoneMapping, label: str = "fixed") -> None:
        self.problem = problem
        self.label = label

    def build(self, seed: int) -> MonotoneMapping:
        return self.problem

    def describe(self) -> dict:
        return {"kind": "fixed", "label": self.label, "dim": self.problem.dim}


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete, reproducible description of one benchmark run."""

    source: ProblemSource
    methods: tuple[str, ...] = METHOD_IDS
    config: SolverConfig = field(default_factory=SolverConfig)
    trials: int = 100
    x0_policy: str = "zeros"  # "zeros" | "gaussian"
    x0_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.methods:
            raise ConfigurationError("at least one method is required")
        object.__setattr__(self, "methods", tuple(self.methods))
        for m in self.methods:
            method_display_name(m)  # rejects an unknown method id
        if len(set(self.methods)) != len(self.methods):
            raise ConfigurationError("methods must be unique")
        if not _is_integer(self.trials) or self.trials < 1:
            raise ConfigurationError(
                f"trials must be an integer of at least 1, got {self.trials!r}"
            )
        object.__setattr__(self, "trials", int(self.trials))
        if self.x0_policy not in ("zeros", "gaussian"):
            raise ConfigurationError(f"unknown x0 policy {self.x0_policy!r}")
        if not _is_real(self.x0_scale) or not 0 <= self.x0_scale < math.inf:  # also rejects NaN
            raise ConfigurationError(
                f"x0_scale must be a finite nonnegative number, got {self.x0_scale!r}"
            )


@dataclass
class TrialRow:
    """One (method, trial) cell of a benchmark run."""

    method: str
    trial: int
    seed: int
    itr: int
    nf: float
    tcpu_s: float
    final_residual: float
    status: str
    recovery_error: float | None = None


@dataclass
class MethodAggregate:
    """Per-method summary over the non-failed trials of a run."""

    method: str
    display_name: str
    trials: int
    converged: int
    capped: int
    failed: int
    mean_itr: float
    std_itr: float
    mean_nf: float
    std_nf: float
    mean_tcpu_s: float
    std_tcpu_s: float
    mean_final_residual: float
    speedup_vs_reference: float | None = None
    mean_recovery_error: float | None = None


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    rows: list[TrialRow]
    aggregates: dict[str, MethodAggregate]
    metadata: dict


def _make_x0(spec: ExperimentSpec, problem: MonotoneMapping, trial: int) -> np.ndarray | None:
    """The trial's start as drawn, or None for the origin; ``run_solver`` projects it."""
    if spec.x0_policy == "zeros":
        return None
    gen = seeded_generator(spec.config.seed + trial, STREAM_X0)
    return spec.x0_scale * gen.standard_normal(problem.dim)


def run_experiment(spec: ExperimentSpec, *, progress=None) -> ExperimentResult:
    """Run every method over every trial and aggregate the outcome.

    ``progress`` is an optional callable receiving ``(trial, method)`` before
    each run (the CLI uses it for a lightweight ticker). Within a trial all
    methods share one problem instance and one start point; any spectral
    setup (needed by the full-vector method) happens before the trial's
    timed runs and its total cost is reported separately in the metadata.
    """
    source = spec.source
    shared = None if source.fresh_per_trial else source.build(0)
    rows: list[TrialRow] = []
    lambda_setup_seconds = 0.0

    for trial in range(spec.trials):
        problem = source.build(trial) if source.fresh_per_trial else shared
        x0 = _make_x0(spec, problem, trial)
        if "eg" in spec.methods and problem.global_lipschitz is None:
            t0 = time.perf_counter()
            problem.ensure_global_lipschitz()
            lambda_setup_seconds += time.perf_counter() - t0
        trial_config = replace(spec.config, seed=spec.config.seed + trial)
        for method in spec.methods:
            if progress is not None:
                progress(trial, method)
            result = run_solver(problem, method, trial_config, x0=x0)
            recovery = None
            if isinstance(problem, CSProblem) and problem.x_true is not None:
                recovery = problem.recovery_error(result.final_point)
            rows.append(
                TrialRow(
                    method=method,
                    trial=trial,
                    seed=trial_config.seed,
                    itr=result.iterations,
                    nf=result.nf,
                    tcpu_s=result.wall_time_seconds,
                    final_residual=result.final_residual,
                    status=result.status.value,
                    recovery_error=recovery,
                )
            )

    reference = "eg" if "eg" in spec.methods else spec.methods[0]
    aggregates = _aggregate(spec, rows, reference)
    metadata = {
        "source": source.describe(),
        "reference_method": reference,
        "lambda_setup_seconds": lambda_setup_seconds,
    }
    return ExperimentResult(spec=spec, rows=rows, aggregates=aggregates, metadata=metadata)


# Statuses of runs that broke down; they are counted, not averaged.
_FAILED = (RunStatus.STEPSIZE_FAILURE.value, RunStatus.NON_FINITE_RESIDUAL.value)

# The TrialRow fields each MethodAggregate and sweep row summarises as a mean
# and a standard deviation; no std of the final residual is kept.
_TRIAL_METRICS = ("itr", "nf", "tcpu_s", "final_residual")


def _aggregate(
    spec: ExperimentSpec, rows: list[TrialRow], reference: str
) -> dict[str, MethodAggregate]:
    aggregates: dict[str, MethodAggregate] = {}
    for method in spec.methods:
        mine = [r for r in rows if r.method == method]
        kept = [r for r in mine if r.status not in _FAILED]
        failed = len(mine) - len(kept)

        summary = {}
        for metric in _TRIAL_METRICS:
            values = np.asarray([getattr(r, metric) for r in kept], dtype=float)
            summary[f"mean_{metric}"] = float(values.mean()) if kept else math.nan
            summary[f"std_{metric}"] = float(values.std()) if kept else math.nan
        del summary["std_final_residual"]
        recoveries = [r.recovery_error for r in kept if r.recovery_error is not None]
        mean_recovery = float(np.mean(recoveries)) if recoveries else None

        aggregates[method] = MethodAggregate(
            method=method,
            display_name=method_display_name(method),
            trials=len(mine),
            converged=sum(r.status == RunStatus.CONVERGED.value for r in mine),
            capped=sum(r.status == RunStatus.ITERATION_CAP.value for r in mine),
            failed=failed,
            **summary,
            mean_recovery_error=mean_recovery,
        )

    ref_mean = aggregates[reference].mean_tcpu_s
    for agg in aggregates.values():
        if np.isfinite(ref_mean) and np.isfinite(agg.mean_tcpu_s) and agg.mean_tcpu_s > 0:
            agg.speedup_vs_reference = ref_mean / agg.mean_tcpu_s
    return aggregates


# ---------------------------------------------------------------------------
# Parameter sweep
# ---------------------------------------------------------------------------


@dataclass
class SweepResult:
    """Long-format sweep table: one row per (method, rho, metric)."""

    grid: tuple[float, ...]
    rows: list[tuple[str, float, str, float, float]]  # method, rho, metric, mean, std
    metadata: dict


def sweep_rho(spec: ExperimentSpec, grid) -> SweepResult:
    """Re-run the experiment for each probe-step fraction in ``grid``."""
    grid = tuple(float(r) for r in grid)
    if not grid:
        raise ConfigurationError("rho grid must not be empty")
    rows: list[tuple[str, float, str, float, float]] = []
    for rho in grid:
        sub = replace(spec, config=replace(spec.config, rho=rho))
        outcome = run_experiment(sub)
        for method in spec.methods:
            agg = outcome.aggregates[method]
            for metric in _TRIAL_METRICS:  # no std of the final residual is kept: NaN
                rows.append((method, rho, metric, getattr(agg, f"mean_{metric}"),
                             getattr(agg, f"std_{metric}", math.nan)))
    metadata = {"source": spec.source.describe(), "grid": list(grid)}
    return SweepResult(grid=grid, rows=rows, metadata=metadata)


# ---------------------------------------------------------------------------
# Rank tracing
# ---------------------------------------------------------------------------


@dataclass
class RankPoint:
    """Normalized rank of the selected coordinate at one iteration."""

    k: int
    normalized_rank: float
    reset: bool | None


def rank_trace(
    problem: MonotoneMapping,
    method: str,
    config: SolverConfig | None = None,
):
    """Instrumented run recording where each selected coordinate ranks.

    Returns ``(result, points)``. The rank of the selected coordinate within
    ``|F(x_k)|`` (1 = largest magnitude) is normalized by the dimension, so
    ``normalized_rank`` lies in ``(0, 1]`` and small values mean near-greedy
    picks. Each point costs one additional full evaluation through
    ``problem.eval_full``, which is never charged to the run's ledger, so
    this is strictly a diagnostic mode, never a timing mode.
    """
    if method == "eg":
        raise ConfigurationError("rank tracing needs a coordinate-selecting method")
    points: list[RankPoint] = []

    def record_rank(obs) -> None:
        if obs.selected_index is None:
            return
        magnitudes = np.abs(problem.eval_full(obs.x))
        rank = 1 + int(np.count_nonzero(magnitudes > magnitudes[obs.selected_index]))
        points.append(RankPoint(k=obs.k, normalized_rank=rank / problem.dim, reset=obs.reset))

    result = run_solver(problem, method, config, callback=record_rank)
    return result, points
