"""The per-solve fingerprint of ``scripts/scan_seeds.py``, on a stubbed tiny workload."""

import dataclasses
import importlib.util
import json
import re
from pathlib import Path

import numpy as np

from minieg.problems import build_cs_instance

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "scan_seeds.py"
_SPEC = importlib.util.spec_from_file_location("scan_seeds", _PATH)
scan_seeds = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(scan_seeds)
harness = scan_seeds.harness

TINY = harness.Workload(
    "tiny", lambda s: build_cs_instance(24, 8, 2, seed=s), ("rmini",), 1e-6, 100_000,
    lambda problem: 0,
)


def _solve(seed=0):
    setup = harness.set_up(TINY, seed)
    return harness.timed_solve(setup.problem, "rmini", harness.config(TINY, seed))[2]


def test_a_solve_prints_its_fingerprint_and_its_repeat_the_same_one(monkeypatch, capsys):
    monkeypatch.setitem(harness.WORKLOADS, "tiny", TINY)
    for _ in range(2):
        assert scan_seeds.main(["--workload", "tiny", "--seeds", "0:1"]) == 0
    first, _, second, _ = capsys.readouterr().out.splitlines()
    expected = f", fingerprint {scan_seeds.fingerprint(_solve())}: ok"
    assert first.endswith(expected) and second.endswith(expected)


def test_a_point_one_ulp_away_changes_the_fingerprint():
    result = _solve()
    point = result.final_point.copy()
    point[0] = np.nextafter(point[0], np.inf)
    moved = dataclasses.replace(result, final_point=point)
    assert scan_seeds.fingerprint(moved) != scan_seeds.fingerprint(result)
    assert scan_seeds.fingerprint(_solve()) == scan_seeds.fingerprint(result)
    assert scan_seeds.fingerprint(_solve(seed=1)) != scan_seeds.fingerprint(result)


def test_a_written_table_holds_the_lines_without_seconds_under_the_environment(
        monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(harness.WORKLOADS, "tiny", TINY)
    table = tmp_path / "table.txt"
    assert scan_seeds.main(["--workload", "tiny", "--seeds", "0:2", "--write", str(table)]) == 0
    printed = capsys.readouterr().out.splitlines()
    first, *lines = table.read_text().splitlines()
    assert json.loads(first) == {"workload": "tiny", "seeds": "0:2", "env": harness.environment()}
    assert lines == [re.sub(r", [0-9.]+ s,", ",", line) for line in printed]
    assert lines[0].startswith("seed 0 rmini: converged, ") and " s," not in lines[0]
    assert lines[-1] == "tiny: 2 of 2 solves passed"


def test_a_check_names_the_environment_first_then_every_line_that_differs(
        monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(harness.WORKLOADS, "tiny", TINY)
    table = tmp_path / "table.txt"
    scan_seeds.main(["--workload", "tiny", "--seeds", "0:2", "--write", str(table)])
    capsys.readouterr()
    assert scan_seeds.main(["--check", str(table)]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        f"{table}: 0 difference(s)", f"{table}: differ by method: rmini 0"]

    first, *lines = table.read_text().splitlines()
    record = json.loads(first)
    record["env"]["numpy"] = "0.0"
    moved = lines[1].replace("fingerprint converged/", "fingerprint iteration_cap_reached/")
    table.write_text("\n".join([json.dumps(record), lines[0], moved, lines[2]]) + "\n")
    assert scan_seeds.main(["--check", str(table)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == (f"{table}: environment differs in numpy: recorded '0.0', "
                      f"here {harness.environment()['numpy']!r}")
    assert out[-5:] == [f"{table}:3 differs:", f"  recorded: {moved}", f"  now:      {lines[1]}",
                        f"{table}: 2 difference(s)", f"{table}: differ by method: rmini 1"]


def test_a_check_ends_with_the_lines_that_differ_by_method(monkeypatch, capsys, tmp_path):
    # Two methods over three seeds; two gmini lines and the summary are edited.
    monkeypatch.setitem(harness.WORKLOADS, "tiny", dataclasses.replace(TINY, methods=("gmini", "rmini")))
    table = tmp_path / "table.txt"
    scan_seeds.main(["--workload", "tiny", "--seeds", "0:3", "--write", str(table)])
    capsys.readouterr()
    first, *lines = table.read_text().splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["seed 0 gmini", "seed 0 rmini"]
    for number in (0, 4):
        lines[number] = lines[number].replace(": ok", ": FAILED: edited")
    lines[-1] = "tiny: 0 of 6 solves passed"
    table.write_text("\n".join([first, *lines]) + "\n")
    assert scan_seeds.main(["--check", str(table)]) == 1
    assert capsys.readouterr().out.splitlines()[-2:] == [
        f"{table}: 3 difference(s)", f"{table}: differ by method: gmini 2, rmini 0"]
