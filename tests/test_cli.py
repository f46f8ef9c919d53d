"""End-to-end command-line tests driving ``minieg.cli.main``."""

import inspect
import itertools
import json
import math
import time
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest

import minieg.cli
from minieg import METHOD_IDS, RunStatus, SolverConfig
from minieg.bench import (
    ExperimentSpec,
    LibsvmSource,
    RankPoint,
    SweepResult,
    SyntheticCSSource,
    load_results_schema,
)
from minieg.cli import main
from minieg.problems import build_cs_instance, save_instance


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


def test_bench_json_goes_to_stdout_and_validates_against_the_schema(capsys):
    code = main([
        "bench", "--affine", "6", "--method", "eg,gmini", "--trials", "2",
        "--format", "json",
    ])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)  # nothing but the document on stdout
    jsonschema.validate(payload, load_results_schema())
    assert payload["experiment"]["source"]["kind"] == "affine"
    assert payload["experiment"]["methods"] == ["eg", "gmini"]
    assert [(t["method"], t["trial"]) for t in payload["trials"]] == [
        ("eg", 0), ("gmini", 0), ("eg", 1), ("gmini", 1),
    ]


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_bench_writes_tables_and_csv_files(fmt, tmp_path, capsys):
    out = tmp_path / f"result.{fmt}"
    code = main([
        "bench", "--affine", "8", "--method", "gmini,wmax", "--trials", "2",
        "--format", fmt, "--out", str(out),
    ])
    stdout = capsys.readouterr().out
    assert code == 0
    # The summary table goes to stdout whatever the file holds.
    assert "G-Mini-EG" in stdout and "Watchdog-Max" in stdout
    assert stdout.endswith(f"wrote {fmt} to {out}\n")
    written = out.read_text()
    if fmt == "table":
        assert written == stdout.split(f"\nwrote {fmt}")[0]
    else:
        lines = written.splitlines()
        assert lines[0] == "method,trial,itr,nf,tcpu_s,final_residual,status,seed"
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["gmini", "0"], ["wmax", "0"], ["gmini", "1"], ["wmax", "1"],
        ]


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_bench_out_file_holds_exactly_what_stdout_would(fmt, tmp_path, capsys, monkeypatch):
    argv = ["bench", "--cs", "24,8,2", "--trials", "2", "--format", fmt]
    out = tmp_path / f"result.{fmt}"
    printed = {}
    for extra in ([], ["--out", str(out)]):
        ticks = itertools.count()  # the same clock readings for both runs
        monkeypatch.setattr(time, "perf_counter", lambda: 0.25 * next(ticks))
        assert main(argv + extra) == 0
        printed[bool(extra)] = capsys.readouterr().out
    assert out.read_text(encoding="utf-8") == printed[False]
    assert printed[True].startswith("method  ")
    assert printed[True].endswith(f"\n\nwrote {fmt} to {out}\n")
    if fmt == "table":
        assert printed[True] == printed[False] + f"\nwrote table to {out}\n"


def test_bench_verbose_ticker_lands_on_stderr(capsys):
    code = main([
        "bench", "--affine", "6", "--method", "gmini", "--trials", "1",
        "--verbose",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "trial 0 / gmini" in captured.err


def test_gen_cs_prints_the_pinned_summary_line(tmp_path, capsys):
    instance = tmp_path / "instance.npz"
    assert main([
        "gen-cs", "--n", "40", "--measurements", "10", "--sparsity", "3",
        "--seed", "6", "--snr-db", "30", "--out", str(instance),
    ]) == 0
    assert capsys.readouterr().out == (
        f"wrote instance to {instance}: n=40 measurements=10 sparsity=3 snr_db=30 "
        "(realized 30.00) reg=0.188623 seed=6\n"
    )


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


def test_rank_trace_runs_without_an_acknowledgement_flag(capsys):
    code = main(["rank-trace", "--affine", "8"])
    assert code == 0
    assert "diagnostic overhead:" in capsys.readouterr().out


def test_rank_trace_reports_summary_lines(capsys):
    code = main([
        "rank-trace", "--affine", "12", "--max-iters", "400",
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
        "rank-trace", "--affine", "10", "--method", "rmini",
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


def test_sweep_rho_writes_json(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code = main([
        "sweep-rho", "--affine", "6", "--method", "gmini", "--trials", "1",
        "--grid", "0.5,0.9", "--format", "json", "--out", str(out),
    ])
    stdout = capsys.readouterr().out
    assert code == 0
    assert stdout.startswith("method")
    assert stdout.endswith(f"wrote json to {out}\n")
    payload = json.loads(out.read_text())
    assert payload["format"] == "minieg-sweep-v1"
    assert payload["grid"] == [0.5, 0.9]
    assert len(payload["rows"]) == 2 * 4  # grid points x metrics
    assert {row["method"] for row in payload["rows"]} == {"gmini"}


SWEEP_ROWS = [
    ("gmini", 0.5, "itr", 12.0, 1.5),
    ("gmini", 0.5, "nf", 0.1, math.nan),
    ("gmini", 0.999, "itr", 7.0, 0.0),
]

SWEEP_TABLE = """\
method        rho           metric             mean            std
------------------------------------------------------------------
gmini         0.5              itr               12            1.5
gmini         0.5               nf              0.1            nan
gmini       0.999              itr                7              0
"""

SWEEP_JSON = """\
{
  "format": "minieg-sweep-v1",
  "grid": [
    0.5,
    0.999
  ],
  "metadata": {
    "trials": 1
  },
  "rows": [
    {
      "mean": 12.0,
      "method": "gmini",
      "metric": "itr",
      "rho": 0.5,
      "std": 1.5
    },
    {
      "mean": 0.1,
      "method": "gmini",
      "metric": "nf",
      "rho": 0.5,
      "std": null
    },
    {
      "mean": 7.0,
      "method": "gmini",
      "metric": "itr",
      "rho": 0.999,
      "std": 0.0
    }
  ]
}
"""


@pytest.mark.parametrize("fmt, document", [
    ("csv", "method,rho,metric,mean,std\ngmini,0.5,itr,12,1.5\n"
            "gmini,0.5,nf,0.10000000000000001,nan\ngmini,0.999,itr,7,0\n"),
    ("json", SWEEP_JSON),
])
def test_sweep_rho_writes_the_fixed_documents(fmt, document, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        minieg.cli, "sweep_rho",
        lambda spec, grid: SweepResult(tuple(grid), list(SWEEP_ROWS), {"trials": 1}),
    )
    out = tmp_path / f"sweep.{fmt}"
    code = main([
        "sweep-rho", "--affine", "4", "--method", "gmini", "--trials", "1",
        "--grid", "0.5,0.999", "--format", fmt, "--out", str(out),
    ])
    assert code == 0
    assert capsys.readouterr().out == SWEEP_TABLE + f"\nwrote {fmt} to {out}\n"
    assert out.read_text(encoding="utf-8") == document


def test_rank_trace_writes_the_fixed_document(tmp_path, capsys, monkeypatch):
    points = [RankPoint(0, 0.25, None), RankPoint(1, 0.015625, True), RankPoint(2, 1 / 3, False)]
    run = SimpleNamespace(status=RunStatus.CONVERGED, iterations=3)
    monkeypatch.setattr(minieg.cli, "rank_trace", lambda problem, method, config: (run, points))
    out = tmp_path / "ranks.csv"
    assert main(["rank-trace", "--affine", "4", "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "method=wmax status=converged iterations=3\n"
        "median normalized rank: 0.25000\n"
        "share of iterations in top 2%: 33.3%\n"
        "watchdog resets: 1\n"
        "diagnostic overhead: 3 full evals (uncharged)\n"
        f"wrote rank trace to {out}\n"
    )
    assert out.read_text(encoding="utf-8") == (
        "k,normalized_rank,reset_flag\n0,0.25,\n1,0.015625,1\n2,0.33333333333333331,0\n"
    )


@pytest.mark.parametrize("argv, needle", [
    (["bench", "--cs", "24,8,x"], "could not parse --cs value"),
    (["bench", "--affine", "4,spd,3"], "--affine expects"),
    (["bench", "--affine", "four"], "could not parse --affine dimension"),
    (["bench", "--affine", "4", "--method", ","], "at least one method"),
    (["sweep-rho", "--affine", "4", "--grid", "0.5,x"], "could not parse --grid value"),
])
def test_unparsable_values_exit_with_an_error(argv, needle, capsys):
    code = main(argv + ["--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and needle in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("content, needle", [
    (b"not an archive at all", "is not an instance archive"),
    (None, "has no key 'format'"),
], ids=["not-an-archive", "foreign-archive"])
def test_a_malformed_instance_file_exits_with_an_error(content, needle, tmp_path, capsys):
    path = tmp_path / "instance.npz"
    if content is None:
        np.savez(path, payload=np.zeros(3))
    else:
        path.write_bytes(content)
    code = main(["bench", "--instance", str(path), "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and str(path) in captured.err and needle in captured.err
    assert captured.out == ""


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


@pytest.mark.parametrize("snr", ["nan", "-inf", "7000"])
def test_an_snr_without_a_noise_scale_exits_with_an_error(snr, capsys):
    code = main(["bench", "--cs", f"24,8,2,{snr}", "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and "snr_db" in captured.err


def test_gen_cs_with_an_snr_whose_noise_overflows_exits_with_an_error(tmp_path, capsys):
    out = tmp_path / "instance.npz"
    code = main([
        "gen-cs", "--n", "24", "--measurements", "8", "--sparsity", "2",
        "--seed", "1", "--snr-db", "-6000", "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and "snr_db" in captured.err
    assert not out.exists()


def test_an_instance_whose_planted_signal_has_the_wrong_length_exits_with_an_error(
    tmp_path, capsys
):
    path = tmp_path / "instance.npz"
    save_instance(path, build_cs_instance(16, 8, 2))
    with np.load(path) as data:
        fields = {k: data[k] for k in data.files}
    np.savez(path, **{**fields, "x_true": np.zeros(5)})
    code = main(["bench", "--instance", str(path), "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and f"{path}: key 'x_true'" in captured.err
    assert captured.out == ""


def test_an_instance_with_a_negative_reg_exits_with_an_error(tmp_path, capsys):
    path = tmp_path / "instance.npz"
    save_instance(path, build_cs_instance(16, 8, 2))
    with np.load(path) as data:
        fields = {k: data[k] for k in data.files}
    np.savez(path, **{**fields, "reg": np.array(-1.0)})
    code = main(["bench", "--instance", str(path), "--trials", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and f"{path}: key 'reg'" in captured.err
    assert captured.out == ""


def test_bench_defaults_are_the_librarys():
    args = minieg.cli.build_parser().parse_args(["bench", "--cs", "8,4,2"])
    spec = minieg.cli._spec_from_args(args)
    assert spec == ExperimentSpec(SyntheticCSSource(8, 4, 2), METHOD_IDS, trials=10)
    assert spec.config == SolverConfig()
    args = minieg.cli.build_parser().parse_args(["bench", "--libsvm", "data.svm"])
    assert minieg.cli._source_from_args(args) == LibsvmSource("data.svm")


def test_gen_cs_defaults_are_the_librarys(tmp_path, monkeypatch, capsys):
    calls = []

    def build(*args, **kwargs):
        calls.append(kwargs)
        return build_cs_instance(*args, **kwargs)

    monkeypatch.setattr(minieg.cli, "build_cs_instance", build)
    out = tmp_path / "instance.npz"
    assert main(["gen-cs", "--n", "8", "--measurements", "4", "--sparsity", "2",
                 "--out", str(out)]) == 0
    source = SyntheticCSSource(8, 4, 2)
    signature = inspect.signature(build_cs_instance).parameters
    assert calls == [{name: getattr(source, name) for name in ("snr_db", "seed", "reg_scale")}]
    assert all(signature[name].default == value for name, value in calls[0].items())
