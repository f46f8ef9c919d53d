"""The per-solve fingerprint of ``scripts/scan_seeds.py``, on a stubbed tiny workload."""

import dataclasses
import importlib.util
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
