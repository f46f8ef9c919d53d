"""Self-tests of the benchmark on tiny instances.

Run from the root of a checkout with ``python3 -m pytest benchmarks -q``.
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import harness
import run
from harness import METHODS, Workload, check_solve, config, timed_solve
from minieg import SolverConfig, run_solver
from minieg.problems import build_cs_instance, synthetic_logreg
from tracing import LAYERS, SpanLog, mismatch, traced_solve

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "cs": Workload("tiny-cs", lambda s: build_cs_instance(24, 12, 3, seed=s),
                   METHODS, 1e-6, harness._DEFAULT_CAP, harness._cs_rebuild_bytes),
    "logreg": Workload("tiny-logreg", lambda s: synthetic_logreg(30, 20, seed=s),
                       METHODS, 1e-6, harness._DEFAULT_CAP, harness._logreg_rebuild_bytes),
}


@pytest.fixture(autouse=True)
def quick(monkeypatch):
    """One solve per method and round, and a short reference kernel."""
    monkeypatch.setattr(run, "MIN_METHOD_SECONDS", 0.0)
    monkeypatch.setattr(harness.ReferenceKernel, "ITERATIONS", 10)


@pytest.mark.parametrize("kind", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted_with_its_unit(kind, trace, tmp_path):
    out = run.run(TINY[kind], seed=3, seconds=0.01, trace=trace, span_path=tmp_path / "spans.npz")
    assert out.errors == [] and out.failed == 0 and out.attempted > 0
    listed = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert set(out.metrics) == set(listed)
    for name, (value, unit) in out.metrics.items():
        assert unit == listed[name], name
        assert math.isfinite(value), name
    assert (tmp_path / "spans.npz").exists() == trace


def test_benchmark_json_names_the_workloads_it_runs():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(harness.WORKLOADS)
    for workload in BENCHMARK["workloads"]:
        assert harness.WORKLOADS[workload["name"]].methods == METHODS


@pytest.mark.parametrize("kind", sorted(TINY))
@pytest.mark.parametrize("method", METHODS)
def test_gate_accepts_a_correct_solve_and_rejects_tampered_ones(kind, method):
    workload = TINY[kind]
    problem = workload.build(0)
    _, _, result = timed_solve(problem, method, config(workload, 0))
    assert check_solve(problem, method, result, workload.tolerance) == []

    result.ledger.component_evals += 1
    assert any("ledger" in e for e in check_solve(problem, method, result, workload.tolerance))
    result.ledger.component_evals -= 1

    result.final_point = result.final_point + 1.0  # no longer a root
    assert any("residual" in e for e in check_solve(problem, method, result, workload.tolerance))


def test_gate_rejects_infeasible_points_and_capped_runs():
    workload = TINY["cs"]
    problem = workload.build(0)
    _, _, result = timed_solve(problem, "gmini", config(workload, 0))
    result.final_point = result.final_point.copy()
    result.final_point[0] = -1e-300  # outside the orthant, residual still tiny
    assert "final point is not feasible" in check_solve(problem, "gmini", result, workload.tolerance)

    capped = run_solver(problem, "rmini", SolverConfig(tolerance=1e-12, max_iterations=3))
    errors = check_solve(problem, "rmini", capped, 1e-12)
    assert "status iteration_cap_reached" in errors


@pytest.mark.parametrize("kind", sorted(TINY))
@pytest.mark.parametrize("method", METHODS)
def test_traced_solve_matches_untraced_bit_for_bit(kind, method):
    workload = TINY[kind]
    problem = workload.build(1)
    cfg = config(workload, 1)
    _, _, plain = timed_solve(problem, method, cfg)
    log = SpanLog()
    _, _, traced = traced_solve(log, problem, method, cfg)
    assert mismatch(plain, traced) == []
    assert "open_session" not in vars(problem)  # the hook is removed again

    calls = dict(zip(LAYERS, log.totals(0)[0]))
    assert calls["session.eval_full"] == traced.ledger.full_evals
    assert calls["session.eval_component"] == traced.ledger.component_evals

    traced.final_point = np.nextafter(traced.final_point, np.inf)
    assert mismatch(plain, traced) == ["traced final_point differs"]


def test_failed_check_gives_nonzero_exit_and_incorrect_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "WORKLOADS", {"tiny": TINY["cs"]})
    monkeypatch.setattr(run, "check_solve", lambda *args: ["deliberately wrong"])
    assert run.main(["--workload", "tiny", "--seconds", "0.01"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == last["attempted"] > 0


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copytree(harness.ROOT / "benchmarks", tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "cs-desk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
