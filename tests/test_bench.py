"""Benchmark harness: trial bookkeeping, aggregation, exports, sweeps."""

import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from minieg import (
    ConfigurationError,
    CostLedger,
    EvaluationSession,
    MonotoneMapping,
    SolverConfig,
    run_solver,
)
from minieg.bench import (
    AffineSource,
    ExperimentResult,
    ExperimentSpec,
    FixedProblemSource,
    InstanceFileSource,
    LibsvmSource,
    MethodAggregate,
    SyntheticCSSource,
    TrialRow,
    load_results_schema,
    rank_csv_lines,
    rank_trace,
    render_table,
    result_to_jsonable,
    run_experiment,
    sweep_csv_lines,
    sweep_rho,
    sweep_to_jsonable,
    trial_csv_lines,
)
from minieg.bench.runner import _make_x0
from minieg.problems import (
    AffineMonotoneProblem,
    build_cs_instance,
    save_instance,
    skew_rotation_problem,
    synthetic_logreg,
)


@pytest.fixture(scope="module")
def cs_result():
    spec = ExperimentSpec(
        source=SyntheticCSSource(n=64, n_measurements=16, sparsity=4),
        trials=2,
        config=SolverConfig(seed=7),
    )
    return run_experiment(spec)


def test_experiment_produces_one_row_per_method_and_trial(cs_result):
    rows = cs_result.rows
    assert len(rows) == 8  # 4 methods x 2 trials
    assert {r.method for r in rows} == {"eg", "gmini", "rmini", "wmax"}
    assert all(r.status == "converged" for r in rows)
    assert all(r.final_residual <= 1e-8 for r in rows)
    # Trial seeds are offsets from the configured base seed.
    assert sorted({r.seed for r in rows}) == [7, 8]
    # The planted signal gives every row a recovery error.
    assert all(r.recovery_error is not None for r in rows)


def test_aggregates_summarize_the_rows(cs_result):
    aggregates = cs_result.aggregates
    assert set(aggregates) == {"eg", "gmini", "rmini", "wmax"}
    eg = aggregates["eg"]
    assert eg.display_name == "EG"
    assert eg.trials == 2 and eg.converged == 2 and eg.failed == 0
    eg_rows = [r for r in cs_result.rows if r.method == "eg"]
    assert eg.mean_nf == pytest.approx(np.mean([r.nf for r in eg_rows]))
    assert eg.std_nf == pytest.approx(np.std([r.nf for r in eg_rows]))
    assert eg.speedup_vs_reference == pytest.approx(1.0)
    assert eg.mean_recovery_error is not None
    assert cs_result.metadata["reference_method"] == "eg"
    assert cs_result.metadata["lambda_setup_seconds"] > 0.0
    assert cs_result.metadata["source"]["kind"] == "synthetic-cs"


def test_gaussian_starts_are_feasible_and_seeded():
    spec = ExperimentSpec(
        source=SyntheticCSSource(n=32, n_measurements=8, sparsity=2),
        x0_policy="gaussian",
        x0_scale=2.0,
        trials=1,
    )
    problem = spec.source.build(0)
    a = _make_x0(spec, problem, trial=0)
    b = _make_x0(spec, problem, trial=0)
    c = _make_x0(spec, problem, trial=1)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    # run_solver projects the draw: the run starts in the nonnegative orthant.
    starts = []
    run_solver(problem, "gmini", SolverConfig(max_iterations=1), x0=a,
               callback=lambda obs: starts.append(obs.x))
    assert np.all(starts[0] >= 0.0) and np.any(starts[0] > 0.0)
    np.testing.assert_array_equal(starts[0], np.maximum(a, 0.0))


# The trial CSV of a gaussian-start sparse-recovery run, wall time dropped:
# every bit of each start reaches the iteration counts and final residuals.
# The two eg residuals were captured again when the sparse-recovery bound
# began to take its eigenvalue from a dense eigensolver; no other method
# reads the bound.
GAUSSIAN_START_CSV = """\
method,trial,itr,nf,final_residual,status,seed
eg,0,2196,4392,9.9570248023796919e-07,converged,3
gmini,0,2567,5134,5.1381352536653688e-07,converged,3
rmini,0,8498,8763.5625,8.1474568148420333e-07,converged,3
wmax,0,1073,1141.0625,8.8898269205495273e-07,converged,3
eg,1,1943,3886,9.9123201725327167e-07,converged,4
gmini,1,569,1138,6.8351363667431045e-07,converged,4
rmini,1,20000,20625,0.15451997077302382,iteration_cap_reached,4
wmax,1,454,483.375,9.2985111103512686e-07,converged,4
"""


def test_gaussian_start_trials_write_the_pinned_csv():
    spec = ExperimentSpec(
        source=SyntheticCSSource(n=16, n_measurements=12, sparsity=2, seed=1),
        x0_policy="gaussian",
        x0_scale=2.0,
        trials=2,
        config=SolverConfig(tolerance=1e-6, max_iterations=20_000, seed=3),
    )
    lines = [line.split(",") for line in trial_csv_lines(run_experiment(spec))]
    assert lines[0][4] == "tcpu_s"
    assert "".join(",".join(f[:4] + f[5:]) + "\n" for f in lines) == GAUSSIAN_START_CSV


def test_spec_validation():
    source = SyntheticCSSource(n=8, n_measurements=4, sparsity=1)
    with pytest.raises(ConfigurationError):
        ExperimentSpec(source=source, methods=())
    with pytest.raises(ConfigurationError):
        ExperimentSpec(source=source, methods=("eg", "eg"))
    with pytest.raises(ConfigurationError, match="unknown method 'newton'"):
        ExperimentSpec(source=source, methods=("newton",))
    with pytest.raises(ConfigurationError):
        ExperimentSpec(source=source, trials=0)
    for count in (2.0, 1.5, True, False, np.bool_(True), "2"):
        with pytest.raises(ConfigurationError, match="trials must be an integer"):
            ExperimentSpec(source=source, trials=count)
    spec = ExperimentSpec(source=source, trials=np.int64(3))
    assert spec.trials == 3 and type(spec.trials) is int
    with pytest.raises(ConfigurationError):
        ExperimentSpec(source=source, x0_policy="warm")


@pytest.mark.parametrize("scale", [math.nan, math.inf, -1.0, -1e-300, True, "1"])
def test_spec_rejects_an_unusable_start_scale(scale):
    # The results schema types x0_scale as a number, so NaN, inf and bools
    # could not be exported; a negative scale only mirrors the start.
    source = SyntheticCSSource(n=8, n_measurements=4, sparsity=1)
    with pytest.raises(ConfigurationError, match="x0_scale must be a finite nonnegative number"):
        ExperimentSpec(source=source, x0_scale=scale)


def test_spec_accepts_finite_nonnegative_start_scales():
    source = SyntheticCSSource(n=8, n_measurements=4, sparsity=1)
    for scale in (0, 0.0, 2.5, np.float64(3.0), np.int64(2)):
        assert ExperimentSpec(source=source, x0_scale=scale).x0_scale == scale


def test_reference_falls_back_to_the_first_method():
    spec = ExperimentSpec(
        source=AffineSource(dim=6),
        methods=("gmini", "rmini"),
        trials=1,
    )
    result = run_experiment(spec)
    assert result.metadata["reference_method"] == "gmini"
    assert result.metadata["lambda_setup_seconds"] == 0.0
    assert result.aggregates["gmini"].speedup_vs_reference == pytest.approx(1.0)


def test_trial_csv_is_deterministic_modulo_timing(cs_result):
    spec = cs_result.spec
    again = run_experiment(spec)
    a_lines = trial_csv_lines(cs_result)
    b_lines = trial_csv_lines(again)
    assert a_lines[0] == "method,trial,itr,nf,tcpu_s,final_residual,status,seed"
    assert len(a_lines) == len(b_lines) == 9
    for left, right in zip(a_lines[1:], b_lines[1:]):
        l_cells, r_cells = left.split(","), right.split(",")
        del l_cells[4], r_cells[4]  # tcpu_s is the only timing-dependent cell
        assert l_cells == r_cells


def test_json_export_validates_against_the_shipped_schema(cs_result):
    payload = json.loads(json.dumps(result_to_jsonable(cs_result)))
    jsonschema.validate(payload, load_results_schema())
    assert payload["format"] == "minieg-results-v1"
    assert len(payload["trials"]) == 8
    assert payload["experiment"]["trials"] == 2
    assert payload["experiment"]["config"]["rho"] == pytest.approx(0.999)


def test_exported_config_has_no_trace_and_old_documents_still_validate(cs_result):
    payload = json.loads(json.dumps(result_to_jsonable(cs_result)))
    config = payload["experiment"]["config"]
    assert "trace" not in config
    assert set(config) == {"rho", "gamma", "tolerance", "max_iterations", "seed"}
    schema = load_results_schema()
    jsonschema.validate(payload, schema)
    config["trace"] = "none"  # as written before the trace level was retired
    jsonschema.validate(payload, schema)


class _SignFlipSession(EvaluationSession):
    def _rebuild(self):
        self._f = self._problem.eval_full(self._x)

    def _compute_full(self):
        return self._f.copy()

    def _compute_component(self, i):
        return float(self._f[i])


class _SignFlipProblem(MonotoneMapping):
    """A steep line whose advertised slope bound is far too small."""

    @property
    def dim(self):
        return 1

    @property
    def componentwise_lipschitz(self):
        return np.array([0.25])

    def ensure_global_lipschitz(self):
        return 4.0

    def eval_full(self, x):
        return 4.0 * self._check_point(x) - 4.0

    def open_session(self, x0, ledger):
        return _SignFlipSession(self, x0, ledger)


def test_failed_trials_are_excluded_from_aggregates():
    spec = ExperimentSpec(
        source=FixedProblemSource(_SignFlipProblem(), label="sign-flip"),
        methods=("gmini",),
        trials=2,
    )
    result = run_experiment(spec)
    agg = result.aggregates["gmini"]
    assert agg.failed == 2 and agg.converged == 0 and agg.capped == 0
    assert math.isnan(agg.mean_itr) and math.isnan(agg.mean_nf)
    assert agg.speedup_vs_reference is None

    payload = json.loads(json.dumps(result_to_jsonable(result)))
    jsonschema.validate(payload, load_results_schema())
    assert payload["aggregates"]["gmini"]["mean_itr"] is None
    assert all(t["status"] == "stepsize_failure" for t in payload["trials"])


class _NaNProblem(_SignFlipProblem):
    """A line whose map reads NaN everywhere."""

    def eval_full(self, x):
        return np.full(1, np.nan) + self._check_point(x)


def test_non_finite_trials_count_as_failed():
    spec = ExperimentSpec(
        source=FixedProblemSource(_NaNProblem(), label="nan"), trials=2,
    )
    result = run_experiment(spec)
    for agg in result.aggregates.values():
        assert agg.failed == 2 and agg.converged == 0 and agg.capped == 0
        assert math.isnan(agg.mean_itr) and math.isnan(agg.mean_final_residual)

    payload = json.loads(json.dumps(result_to_jsonable(result)))
    jsonschema.validate(payload, load_results_schema())
    assert all(t["status"] == "non_finite_residual" for t in payload["trials"])
    assert all(t["final_residual"] is None for t in payload["trials"])


def test_sweep_produces_a_row_per_cell_and_realizes_the_rho_trend():
    spec = ExperimentSpec(
        source=FixedProblemSource(synthetic_logreg(20, 40, seed=0)),
        methods=("eg", "gmini"),
        trials=2,
    )
    sweep = sweep_rho(spec, (0.5, 0.999))
    assert len(sweep.rows) == 2 * 2 * 4  # methods x grid x metrics
    metrics = {row[2] for row in sweep.rows}
    assert metrics == {"itr", "nf", "tcpu_s", "final_residual"}

    nf = {(m, rho): mean for (m, rho, metric, mean, _) in sweep.rows if metric == "nf"}
    # The full-vector method probes with rho/L, so pushing rho toward 1
    # shortens the run on this instance.
    assert nf[("eg", 0.999)] <= nf[("eg", 0.5)]

    lines = sweep_csv_lines(sweep)
    assert lines[0] == "method,rho,metric,mean,std"
    assert len(lines) == 17

    payload = sweep_to_jsonable(sweep)
    assert payload["format"] == "minieg-sweep-v1"
    assert payload["grid"] == [0.5, 0.999]


def test_sweep_rejects_an_empty_grid():
    spec = ExperimentSpec(source=AffineSource(dim=4), trials=1)
    with pytest.raises(ConfigurationError):
        sweep_rho(spec, ())


def test_rank_trace_rejects_the_full_vector_method():
    problem = synthetic_logreg(10, 20, seed=0)
    with pytest.raises(ConfigurationError):
        rank_trace(problem, method="eg")


def test_rank_trace_reports_normalized_ranks():
    problem = synthetic_logreg(30, 60, seed=2)
    config = SolverConfig(max_iterations=200)
    uncharged = []
    evaluate = problem.eval_full
    problem.eval_full = lambda x: uncharged.append(1) or evaluate(x)
    result, points = rank_trace(problem, method="wmax", config=config)
    assert points
    assert result.iterations == len(points)
    assert len(uncharged) == result.iterations
    for point in points:
        assert 0.0 < point.normalized_rank <= 1.0
        assert point.normalized_rank * problem.dim == pytest.approx(
            round(point.normalized_rank * problem.dim)
        )

    lines = rank_csv_lines(points)
    assert lines[0] == "k,normalized_rank,reset_flag"
    assert len(lines) == len(points) + 1


def test_source_descriptions_carry_their_kind(tmp_path):
    instance = tmp_path / "inst.npz"
    save_instance(instance, build_cs_instance(8, 4, 1, seed=0))
    libsvm = tmp_path / "tiny.txt"
    libsvm.write_text("1 1:1.0\n-1 2:1.0\n")

    kinds = {
        SyntheticCSSource(n=8, n_measurements=4, sparsity=1).describe()["kind"],
        AffineSource(dim=4).describe()["kind"],
        LibsvmSource(path=str(libsvm)).describe()["kind"],
        InstanceFileSource(path=str(instance)).describe()["kind"],
        FixedProblemSource(build_cs_instance(8, 4, 1, seed=0)).describe()["kind"],
    }
    assert kinds == {"synthetic-cs", "affine", "libsvm", "instance-file", "fixed"}
    assert LibsvmSource(path=str(libsvm)).build(0).dim == 2
    assert InstanceFileSource(path=str(instance)).build(0).dim == 16

    with pytest.raises(ConfigurationError):
        AffineSource(dim=4, flavor="hankel")


@pytest.mark.parametrize("make, seed", [
    (lambda seed: SyntheticCSSource(16, 8, 2, seed=seed), 1.5),
    (lambda seed: AffineSource(4, seed=seed), -1),
], ids=["synthetic-cs", "affine"])
def test_sources_reject_a_seed_they_could_not_build_with(make, seed):
    # The source names the seed it was given, not the seed + trial a build would use.
    with pytest.raises(ConfigurationError, match=rf"seed must be .*, got {seed!r}$"):
        make(seed)


def test_skew_affine_source_builds_one_shared_rotation():
    source = AffineSource(dim=4, flavor="skew", seed=5)
    assert not source.fresh_per_trial
    problem = source.build(3)
    np.testing.assert_array_equal(problem.matrix, skew_rotation_problem(4).matrix)
    np.testing.assert_array_equal(problem.eval_full(np.array([1.0, 2.0, 3.0, 4.0])),
                                  [2.0, -1.0, 4.0, -3.0])
    result = run_experiment(ExperimentSpec(
        source=source, methods=("eg", "gmini"), trials=2, config=SolverConfig(tolerance=1e-6),
    ))
    assert result.metadata["source"] == {"kind": "affine", "dim": 4, "flavor": "skew", "seed": 5}
    assert [r.status for r in result.rows] == ["converged"] * 4


def test_render_table_shows_methods_and_run_parameters(cs_result):
    text = render_table(cs_result)
    for token in ("EG", "G-Mini-EG", "R-Mini-EG", "Watchdog-Max"):
        assert token in text
    assert "trials=2" in text
    assert "rho=0.999" in text
    assert "speedup reference: EG" in text


def test_render_table_notes_capped_and_failed_trials():
    capped = run_experiment(ExperimentSpec(
        source=AffineSource(dim=6), methods=("gmini",), trials=2,
        config=SolverConfig(max_iterations=1),
    ))
    assert capped.aggregates["gmini"].capped == 2
    row = render_table(capped).splitlines()[2]
    assert row.startswith("G-Mini-EG") and "0/2 (2 capped)" in row
    assert "1.0 +- 0.0" in row  # capped trials still count in the means

    failed = run_experiment(ExperimentSpec(
        source=FixedProblemSource(_SignFlipProblem(), label="sign-flip"),
        methods=("gmini",), trials=2,
    ))
    cells = render_table(failed).splitlines()[2].split()
    # Every mean is NaN without a kept trial, and shows as "-".
    assert cells == ["G-Mini-EG", "0/2", "(2", "failed)", "-", "-", "-", "-", "-", "-"]


def test_json_export_writes_non_finite_values_as_null():
    failed = run_experiment(ExperimentSpec(
        source=FixedProblemSource(_SignFlipProblem(), label="sign-flip"),
        methods=("gmini",), trials=1,
    ))
    failed.rows[0].recovery_error = math.nan  # as a NaN final point would give
    payload = result_to_jsonable(failed)
    jsonschema.validate(payload, load_results_schema())
    assert payload["trials"][0]["recovery_error"] is None
    assert payload["aggregates"]["gmini"]["std_nf"] is None
    assert payload["trials"][0]["nf"] == failed.rows[0].nf  # finite values pass through


def test_jsonable_round_trips_through_json(cs_result):
    payload = result_to_jsonable(cs_result)
    assert json.loads(json.dumps(payload)) == payload


RESULT_JSON = """\
{
  "aggregates": {
    "eg": {
      "capped": 0,
      "converged": 1,
      "display_name": "EG",
      "failed": 0,
      "mean_final_residual": 9.5e-07,
      "mean_itr": 40.0,
      "mean_nf": 80.0,
      "mean_recovery_error": 0.125,
      "mean_tcpu_s": 0.5,
      "method": "eg",
      "speedup_vs_reference": 1.0,
      "std_itr": 0.0,
      "std_nf": 0.0,
      "std_tcpu_s": 0.0,
      "trials": 1
    },
    "gmini": {
      "capped": 0,
      "converged": 1,
      "display_name": "G-Mini-EG",
      "failed": 0,
      "mean_final_residual": 8.25e-07,
      "mean_itr": 30.0,
      "mean_nf": 60.0,
      "mean_recovery_error": null,
      "mean_tcpu_s": 0.25,
      "method": "gmini",
      "speedup_vs_reference": 2.0,
      "std_itr": 0.0,
      "std_nf": null,
      "std_tcpu_s": 0.0,
      "trials": 1
    }
  },
  "experiment": {
    "config": {
      "gamma": 0.0,
      "max_iterations": 500000,
      "rho": 0.999,
      "seed": 5,
      "tolerance": 1e-06
    },
    "methods": [
      "eg",
      "gmini"
    ],
    "source": {
      "kind": "synthetic-cs",
      "n": 24,
      "n_measurements": 8,
      "reg_scale": 0.1,
      "seed": 5,
      "snr_db": 30.0,
      "sparsity": 2
    },
    "trials": 1,
    "x0_policy": "zeros",
    "x0_scale": 1.0
  },
  "format": "minieg-results-v1",
  "metadata": {
    "lambda_setup_seconds": 0.0625,
    "reference_method": "eg"
  },
  "trials": [
    {
      "final_residual": 9.5e-07,
      "itr": 40,
      "method": "eg",
      "nf": 80.0,
      "recovery_error": 0.125,
      "seed": 5,
      "status": "converged",
      "tcpu_s": 0.5,
      "trial": 0
    },
    {
      "final_residual": 8.25e-07,
      "itr": 30,
      "method": "gmini",
      "nf": 60.0,
      "recovery_error": null,
      "seed": 5,
      "status": "converged",
      "tcpu_s": 0.25,
      "trial": 0
    }
  ]
}
"""


def test_result_json_matches_the_fixed_document():
    spec = ExperimentSpec(
        source=SyntheticCSSource(n=24, n_measurements=8, sparsity=2, snr_db=30.0, seed=5),
        methods=("eg", "gmini"), config=SolverConfig(tolerance=1e-6, seed=5), trials=1,
    )
    rows = [
        TrialRow("eg", 0, 5, 40, 80.0, 0.5, 9.5e-7, "converged", recovery_error=0.125),
        TrialRow("gmini", 0, 5, 30, 60.0, 0.25, 8.25e-7, "converged", recovery_error=math.nan),
    ]
    aggregates = {
        "eg": MethodAggregate("eg", "EG", 1, 1, 0, 0, 40.0, 0.0, 80.0, 0.0, 0.5, 0.0, 9.5e-7,
                              speedup_vs_reference=1.0, mean_recovery_error=0.125),
        "gmini": MethodAggregate("gmini", "G-Mini-EG", 1, 1, 0, 0, 30.0, 0.0, 60.0, math.nan,
                                 0.25, 0.0, 8.25e-7, speedup_vs_reference=2.0),
    }
    metadata = {"source": spec.source.describe(), "reference_method": "eg",
                "lambda_setup_seconds": 0.0625}
    result = ExperimentResult(spec=spec, rows=rows, aggregates=aggregates, metadata=metadata)
    text = json.dumps(result_to_jsonable(result), indent=2, sort_keys=True) + "\n"
    assert text == RESULT_JSON


def test_rank_trace_skips_an_iteration_that_selects_no_coordinate():
    # gmini started at an exact root, the origin, probes in place and converges at once.
    problem = AffineMonotoneProblem(np.eye(2))
    result, points = rank_trace(problem, method="gmini")
    assert result.converged and result.iterations == 1
    assert points == []


def test_a_path_source_describes_its_path_as_a_string():
    path = Path("data") / "set.txt"
    assert LibsvmSource(path=path).describe() == {"kind": "libsvm", "path": str(path), "reg": 0.1}
    assert InstanceFileSource(path=path).describe() == {"kind": "instance-file", "path": str(path)}
