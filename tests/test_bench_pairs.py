"""The verdict and the JSON record of ``scripts/bench_pairs.py`` on fixed readings."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # median 1.0, IQR 0.035


def test_quartiles_of_ten_readings():
    q1, median, q3 = bench_pairs.quartiles(PARENT)
    assert (q1, median, q3) == pytest.approx((0.9825, 1.0, 1.0175))


def test_a_clear_drop_is_a_gain():
    change = [p - 0.15 for p in PARENT]
    assert bench_pairs.verdict(PARENT, change, 0.25, "lower") == ("gain", 10)
    # The same readings of a metric where higher is better read as a loss.
    assert bench_pairs.verdict(PARENT, change, 0.25, "higher") == ("within bound", 0)


def test_eight_wins_of_ten_are_no_gain():
    change = [p - 0.15 for p in PARENT[:8]] + [p + 0.01 for p in PARENT[8:]]
    assert bench_pairs.verdict(PARENT, change, 0.25, "lower") == ("within bound", 8)


def test_a_drop_inside_the_parents_spread_is_no_gain():
    change = [p - 0.01 for p in PARENT]  # wins every pair, by less than the IQR
    assert bench_pairs.verdict(PARENT, change, 0.25, "lower") == ("within bound", 10)


def test_worse_by_more_than_the_bound_is_a_regression():
    change = [p * 1.3 for p in PARENT]
    assert bench_pairs.verdict(PARENT, change, 0.25, "lower") == ("regression", 0)
    assert bench_pairs.verdict(PARENT, change, 0.25, "higher") == ("gain", 10)


def test_spread_wider_than_the_bound_is_unresolved():
    change = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]  # IQR/median 0.5
    assert bench_pairs.verdict(PARENT, change, 0.25, "lower")[0] == "unresolved"
    # Unless every run of the change reads better than every run of the parent:
    # here by less than the parent's IQR in the median, so it is no gain either.
    change = [0.5, 0.966, 0.55, 0.966, 0.6, 0.967, 0.65, 0.968, 0.969, 0.969]
    assert bench_pairs.verdict(PARENT, change, 0.25, "lower") == ("within bound", 10)


def test_mismatched_pairs_are_refused():
    with pytest.raises(ValueError):
        bench_pairs.verdict(PARENT, PARENT[:-1], 0.25, "lower")


METRICS = [{"name": "nf_cost.eg", "better": "lower", "bound": 0.25},
           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def test_judge_gives_one_row_per_metric():
    readings = {
        "parent": {"nf_cost.eg": PARENT, "peak_rss_mb": [66.0] * 10},
        "change": {"nf_cost.eg": [p - 0.15 for p in PARENT], "peak_rss_mb": [66.5] * 10},
    }
    rows = bench_pairs.judge(readings, METRICS)
    assert [row["metric"] for row in rows] == ["nf_cost.eg", "peak_rss_mb"]
    assert rows[0]["verdict"] == "gain" and rows[0]["wins"] == 10 and rows[0]["pairs"] == 10
    assert rows[0]["parent"] == 1.0 and rows[0]["change"] == pytest.approx(0.85)
    assert rows[0]["diff"] == pytest.approx(-0.15)
    assert (rows[0]["q1"], rows[0]["q3"]) == pytest.approx((0.9825, 1.0175))
    assert rows[1]["verdict"] == "within bound" and rows[1]["wins"] == 0


def test_out_writes_env_readings_and_verdicts(tmp_path, monkeypatch, capsys):
    env = {"parent": {"nproc": 2, "side": "parent"}, "change": {"nproc": 2, "side": "change"}}
    calls = []

    def fake_run_once(checkout, workload, seed, seconds):
        side = "change" if checkout == bench_pairs.ROOT else "parent"
        calls.append((workload, side))
        value = 1.0 if side == "parent" else 0.8
        metrics = {name: {"value": value + 0.01 * len(calls)} for name in ("nf_cost.eg", "setup_s")}
        return {"correct": True, "metrics": metrics}, env[side]

    spec = {"workloads": [{"name": "logreg"}],
            "end_to_end": [{"name": "nf_cost.eg", "better": "lower", "bound": 0.25},
                           {"name": "setup_s", "better": "lower", "bound": 0.25}]}
    root = tmp_path / "change"
    root.mkdir()
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_pairs, "ROOT", root)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "record.json"
    code = bench_pairs.main(["--parent", str(tmp_path / "parent"), "--pairs", "2",
                             "--seconds", "1", "--out", str(out)])
    assert code == 0 and f"wrote {out}" in capsys.readouterr().out
    assert calls == [("logreg", "parent"), ("logreg", "change"),
                     ("logreg", "change"), ("logreg", "parent")]

    record = json.loads(out.read_text())
    assert record["format"] == "bench-pairs-v1"
    assert record["settings"] == {"pairs": 2, "seconds": 1.0, "seed": 0, "workloads": ["logreg"]}
    assert record["env"] == env
    readings = record["workloads"]["logreg"]["readings"]
    assert readings["parent"]["nf_cost.eg"] == pytest.approx([1.01, 1.04])
    assert readings["change"]["setup_s"] == pytest.approx([0.82, 0.83])
    verdicts = record["workloads"]["logreg"]["verdicts"]
    assert [(v["metric"], v["wins"], v["pairs"]) for v in verdicts] == [
        ("nf_cost.eg", 2, 2), ("setup_s", 2, 2)]
