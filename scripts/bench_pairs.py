"""Compare two checkouts with alternating benchmark runs and judge every end-to-end metric.

Usage, from the root of the checkout that holds the change::

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent
    python3 scripts/bench_pairs.py --parent ../parent --pairs 10 --seconds 20

Each pair runs ``benchmarks/run.py --trace 0`` once in the parent checkout
and once in this one, on the same workload, seed and run length; even pairs
run the parent first, odd pairs the change. The end-to-end metrics, their
direction and their bounds are read from this checkout's ``BENCHMARK.json``,
and so are the workloads unless ``--workload`` names some. For each
workload and metric the script prints both medians, the parent's quartiles,
the pairs the change won, and a verdict:

``gain``
    the change won at least nine tenths of the pairs (ties count for
    neither side) and its median is better by more than the parent's
    interquartile range;
``within bound``
    the change's median is no worse than the parent's by more than the
    metric's bound;
``regression``
    it is worse by more than the bound;
``unresolved``
    the run-to-run spread of either side (interquartile range over median)
    is wider than the bound, and not every run of the change reads better
    than every run of the parent, so neither of the last two can be told.

Only the standard library is used. The exit code is 1 as soon as any run
prints ``"correct": false`` or no result line, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> tuple[str, int]:
    """The verdict on one metric of paired runs, and how many pairs the change won.

    ``parent[k]`` and ``change[k]`` are the readings of pair ``k``; ``bound``
    is the relative worsening the benchmark allows, and ``better`` is
    ``"lower"`` or ``"higher"``.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same positive number of parent and change runs")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    q1, parent_median, q3 = quartiles(parent)
    change_q1, change_median, change_q3 = quartiles(change)
    gain = sign * (parent_median - change_median)
    if wins >= 0.9 * len(parent) and gain > q3 - q1:
        return "gain", wins
    spread = max((q3 - q1) / abs(parent_median), (change_q3 - change_q1) / abs(change_median))
    every_run_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if spread > bound and not every_run_better:
        return "unresolved", wins
    if -gain / abs(parent_median) > bound:
        return "regression", wins
    return "within bound", wins


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The result line of one untraced benchmark run, or None when it is missing or incorrect."""
    command = [sys.executable, "benchmarks/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    return result if result.get("correct") is True else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    for workload in workloads:
        readings = {side: {m["name"]: [] for m in metrics} for side in sides}
        for k in range(args.pairs):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                result = run_once(sides[side], workload, args.seed, args.seconds)
                if result is None:
                    print(f"{workload} pair {k} {side}: no correct result", flush=True)
                    return 1
                values = {name: result["metrics"][name]["value"] for name in readings[side]}
                for name, value in values.items():
                    readings[side][name].append(value)
                shown = " ".join(f"{name}={value:.6g}" for name, value in values.items())
                print(f"{workload} pair {k} {side}: {shown}", flush=True)
        print(f"\n{workload}: {args.pairs} pairs, seed {args.seed}, {args.seconds:g} s per run")
        print(f"{'metric':<16} {'parent':>10} {'q1':>10} {'q3':>10} {'change':>10} {'diff':>8} "
              f"{'wins':>6}  verdict")
        for m in metrics:
            parent, change = readings["parent"][m["name"]], readings["change"][m["name"]]
            q1, parent_median, q3 = quartiles(parent)
            change_median = statistics.median(change)
            judged, wins = verdict(parent, change, m["bound"], m["better"])
            diff = change_median / parent_median - 1.0
            print(f"{m['name']:<16} {parent_median:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                  f"{change_median:>10.4g} {diff:>+8.1%} {wins:>3}/{args.pairs:<2}  {judged}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
