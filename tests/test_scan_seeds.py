"""``scripts/scan_seeds.py`` on stubbed tiny workloads."""

import argparse
import importlib.util
from pathlib import Path

import pytest

from minieg import ConfigurationError
from minieg.problems import build_cs_instance

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "scan_seeds.py"
_SPEC = importlib.util.spec_from_file_location("scan_seeds", _PATH)
scan_seeds = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(scan_seeds)
harness = scan_seeds.harness


def _tiny(name, build=lambda s: build_cs_instance(24, 8, 2, seed=s), cap=100_000):
    return harness.Workload(name, build, ("eg", "wmax"), 1e-6, cap, lambda problem: 0)


def test_every_method_on_every_seed_passes(monkeypatch, capsys):
    monkeypatch.setitem(harness.WORKLOADS, "tiny", _tiny("tiny"))
    assert scan_seeds.main(["--workload", "tiny", "--seeds", "3:5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == [
        "seed 3 eg", "seed 3 wmax", "seed 4 eg", "seed 4 wmax"]
    assert all(line.startswith(line.split(":")[0] + ": converged, ") and line.endswith(": ok")
               for line in lines[:-1])
    assert lines[-1] == "tiny: 4 of 4 solves passed"


def test_a_failed_check_names_the_solve_and_exits_1(monkeypatch, capsys):
    monkeypatch.setitem(harness.WORKLOADS, "capped", _tiny("capped", cap=1))
    assert scan_seeds.main(["--workload", "capped", "--seeds", "0:1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("seed 0 eg: iteration_cap_reached, 1 iterations")
    assert "FAILED: status iteration_cap_reached; recomputed residual" in lines[0]
    assert lines[-1] == "capped: 0 of 2 solves passed"


def test_a_solve_that_raises_is_reported_and_the_scan_goes_on(monkeypatch, capsys):
    def build(seed):
        if seed == 1:
            raise ConfigurationError("bad instance")
        return build_cs_instance(24, 8, 2, seed=seed)

    monkeypatch.setitem(harness.WORKLOADS, "flaky", _tiny("flaky", build=build))
    assert scan_seeds.main(["--workload", "flaky", "--seeds", "0:3"]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("Traceback") == 2
    lines = captured.out.splitlines()
    assert lines[2] == "seed 1 eg: raised: FAILED: ConfigurationError: bad instance"
    assert lines[4].startswith("seed 2 eg: converged")
    assert lines[-1] == "flaky: 4 of 6 solves passed"


@pytest.mark.parametrize("text", ["5", "3:3", "4:2", "a:b", "-1:2"])
def test_a_malformed_seed_range_is_refused(text):
    with pytest.raises(argparse.ArgumentTypeError):
        scan_seeds.parse_seeds(text)


@pytest.mark.parametrize("argv", [[], ["--workload", "cs-desk"], ["--seeds", "0:1"],
                                  ["--check", "table.txt", "--seeds", "0:1"]])
def test_a_scan_needs_a_workload_and_seeds_or_else_only_a_table_to_check(argv):
    with pytest.raises(SystemExit) as exc:
        scan_seeds.main(argv)
    assert exc.value.code == 2
