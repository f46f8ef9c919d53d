"""Benchmark harness: trial bookkeeping, aggregation, exports, sweeps."""

import json
import math

import jsonschema
import numpy as np
import pytest

from minieg import (
    ConfigurationError,
    CostLedger,
    EvaluationSession,
    MonotoneMapping,
    SolverConfig,
)
from minieg.bench import (
    AffineSource,
    ExperimentSpec,
    FixedProblemSource,
    InstanceFileSource,
    LibsvmSource,
    SyntheticCSSource,
    load_results_schema,
    rank_trace,
    render_table,
    result_to_jsonable,
    run_experiment,
    sweep_rho,
    sweep_to_jsonable,
    trial_csv_lines,
    write_rank_csv,
    write_result_json,
    write_sweep_csv,
    write_trials_csv,
)
from minieg.bench.runner import _make_x0
from minieg.problems import build_cs_instance, save_instance, synthetic_logreg


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
    assert np.all(a >= 0.0)  # nonnegative orthant
    assert np.any(a > 0.0)


def test_spec_validation():
    source = SyntheticCSSource(n=8, n_measurements=4, sparsity=1)
    with pytest.raises(ConfigurationError):
        ExperimentSpec(source=source, methods=())
    with pytest.raises(ConfigurationError):
        ExperimentSpec(source=source, methods=("eg", "eg"))
    with pytest.raises(ConfigurationError):
        ExperimentSpec(source=source, methods=("newton",))
    with pytest.raises(ConfigurationError):
        ExperimentSpec(source=source, trials=0)
    with pytest.raises(ConfigurationError):
        ExperimentSpec(source=source, x0_policy="warm")


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


def test_json_export_validates_against_the_shipped_schema(cs_result, tmp_path):
    path = tmp_path / "out.json"
    write_result_json(path, cs_result)
    payload = json.loads(path.read_text())
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


def test_failed_trials_are_excluded_from_aggregates(tmp_path):
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

    path = tmp_path / "failed.json"
    write_result_json(path, result)
    payload = json.loads(path.read_text())
    jsonschema.validate(payload, load_results_schema())
    assert payload["aggregates"]["gmini"]["mean_itr"] is None
    assert all(t["status"] == "stepsize_failure" for t in payload["trials"])


class _NaNProblem(_SignFlipProblem):
    """A line whose map reads NaN everywhere."""

    def eval_full(self, x):
        return np.full(1, np.nan) + self._check_point(x)


def test_non_finite_trials_count_as_failed(tmp_path):
    spec = ExperimentSpec(
        source=FixedProblemSource(_NaNProblem(), label="nan"), trials=2,
    )
    result = run_experiment(spec)
    for agg in result.aggregates.values():
        assert agg.failed == 2 and agg.converged == 0 and agg.capped == 0
        assert math.isnan(agg.mean_itr) and math.isnan(agg.mean_final_residual)

    path = tmp_path / "non_finite.json"
    write_result_json(path, result)
    payload = json.loads(path.read_text())
    jsonschema.validate(payload, load_results_schema())
    assert all(t["status"] == "non_finite_residual" for t in payload["trials"])
    assert all(t["final_residual"] is None for t in payload["trials"])


def test_sweep_produces_a_row_per_cell_and_realizes_the_rho_trend(tmp_path):
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

    csv_path = tmp_path / "sweep.csv"
    write_sweep_csv(csv_path, sweep)
    lines = csv_path.read_text().splitlines()
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


def test_rank_trace_reports_normalized_ranks(tmp_path):
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

    path = tmp_path / "rank.csv"
    write_rank_csv(path, points)
    lines = path.read_text().splitlines()
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


def test_render_table_shows_methods_and_run_parameters(cs_result):
    text = render_table(cs_result)
    for token in ("EG", "G-Mini-EG", "R-Mini-EG", "Watchdog-Max"):
        assert token in text
    assert "trials=2" in text
    assert "rho=0.999" in text
    assert "speedup reference: EG" in text


def test_csv_writer_matches_line_helper(cs_result, tmp_path):
    path = tmp_path / "trials.csv"
    write_trials_csv(path, cs_result)
    assert path.read_text().splitlines() == trial_csv_lines(cs_result)


def test_jsonable_round_trips_through_json(cs_result):
    payload = result_to_jsonable(cs_result)
    assert json.loads(json.dumps(payload)) == payload
