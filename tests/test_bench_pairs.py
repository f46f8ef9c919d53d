"""The verdict of ``scripts/bench_pairs.py`` on fixed readings."""

import importlib.util
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
