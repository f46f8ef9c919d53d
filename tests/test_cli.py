"""End-to-end command-line tests driving ``minieg.cli.main``."""

import json

import jsonschema
import numpy as np
import pytest

from minieg.bench import load_results_schema
from minieg.cli import main


def test_bench_renders_a_table(capsys):
    code = main(["bench", "--cs", "24,8,2", "--trials", "2"])
    out = capsys.readouterr().out
    assert code == 0
    for name in ("EG", "G-Mini-EG", "R-Mini-EG", "Watchdog-Max"):
        assert name in out
    assert "trials=2" in out
    assert "speedup reference: EG" in out


def test_bench_csv_goes_to_stdout(capsys):
    code = main([
        "bench", "--affine", "8", "--method", "gmini", "--trials", "2",
        "--format", "csv",
    ])
    captured = capsys.readouterr()
    assert code == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "method,trial,itr,nf,tcpu_s,final_residual,status,seed"
    assert len(lines) == 3
    assert all(line.startswith("gmini,") for line in lines[1:])


def test_bench_json_file_validates_against_the_schema(tmp_path, capsys):
    out = tmp_path / "result.json"
    code = main([
        "bench", "--cs", "24,8,2", "--trials", "1", "--format", "json",
        "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert f"wrote json to {out}" in captured.out
    payload = json.loads(out.read_text())
    jsonschema.validate(payload, load_results_schema())
    assert payload["experiment"]["source"]["kind"] == "synthetic-cs"


def test_bench_verbose_ticker_lands_on_stderr(capsys):
    code = main([
        "bench", "--affine", "6", "--method", "gmini", "--trials", "1",
        "--verbose",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "trial 0 / gmini" in captured.err


def test_generated_instance_feeds_the_bench_subcommand(tmp_path, capsys):
    instance = tmp_path / "instance.npz"
    code = main([
        "gen-cs", "--n", "32", "--measurements", "12", "--sparsity", "3",
        "--seed", "4", "--out", str(instance),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "wrote instance" in captured.out
    assert "n=32" in captured.out
    assert instance.exists()

    code = main([
        "bench", "--instance", str(instance), "--method", "gmini,wmax",
        "--trials", "2",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "G-Mini-EG" in out and "Watchdog-Max" in out


def test_rank_trace_requires_the_diagnostics_acknowledgement(capsys):
    code = main(["rank-trace", "--affine", "8"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--diagnostics" in captured.err


def test_rank_trace_reports_summary_lines(capsys):
    code = main([
        "rank-trace", "--affine", "12", "--diagnostics", "--max-iters", "400",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "median normalized rank:" in captured.out
    assert "share of iterations in top 2%" in captured.out
    assert "watchdog resets:" in captured.out
    assert "diagnostic overhead:" in captured.out


def test_rank_trace_writes_a_csv(tmp_path, capsys):
    out = tmp_path / "ranks.csv"
    code = main([
        "rank-trace", "--affine", "10", "--method", "rmini", "--diagnostics",
        "--max-iters", "200", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,normalized_rank,reset_flag"
    assert len(lines) > 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert 0.0 < float(first[1]) <= 1.0


def test_sweep_rho_prints_rows_and_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep-rho", "--affine", "6", "--method", "gmini", "--trials", "1",
        "--grid", "0.5,0.9", "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "metric" in captured.out
    assert f"wrote csv to {out}" in captured.out
    lines = out.read_text().splitlines()
    assert lines[0] == "method,rho,metric,mean,std"
    assert len(lines) == 1 + 2 * 4  # grid points x metrics


def test_malformed_cs_spec_exits_with_an_error(capsys):
    code = main(["bench", "--cs", "1,2", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")


def test_unknown_method_exits_with_an_error(capsys):
    code = main(["bench", "--affine", "4", "--method", "newton", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "newton" in captured.err


def test_non_finite_tolerance_exits_with_an_error(capsys):
    code = main(["bench", "--affine", "4", "--tol", "nan", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "tolerance" in captured.err


def test_unknown_affine_flavor_exits_with_an_error(capsys):
    code = main(["bench", "--affine", "4,hankel", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "hankel" in captured.err


def test_malformed_libsvm_file_exits_with_an_error(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("1 0:1.0\n")
    code = main(["bench", "--libsvm", str(path), "--method", "gmini", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "1-based" in captured.err


def test_missing_instance_file_exits_with_an_error(tmp_path, capsys):
    code = main(["bench", "--instance", str(tmp_path / "nope.npz"), "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:")


def test_libsvm_bench_runs_end_to_end(tmp_path, capsys):
    gen = np.random.default_rng(0)
    lines = []
    for s in range(12):
        label = "+1" if gen.random() < 0.5 else "-1"
        feats = " ".join(
            f"{j + 1}:{gen.standard_normal():.4f}" for j in range(5)
        )
        lines.append(f"{label} {feats}")
    path = tmp_path / "train.txt"
    path.write_text("\n".join(lines) + "\n")

    code = main([
        "bench", "--libsvm", str(path), "--method", "gmini,rmini",
        "--trials", "2",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "G-Mini-EG" in out and "R-Mini-EG" in out
    assert "speedup reference: G-Mini-EG" in out


def test_subcommand_is_required():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
