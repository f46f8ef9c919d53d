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

Each pair line also shows how many solves each run attempted in its time
(the result line's ``attempted``): a faster side covers more instances, and
so reads its metrics over a different sample.

With ``--out FILE`` the script also writes one JSON document: the run
settings, each side's ``env`` line (machine, library versions, BLAS
threads), every pair's readings, each run's ``attempted`` count apart from
them, and the verdict table.

Only the standard library is used. The exit code is 1 as soon as any run
prints ``"correct": false`` or no result line, and 0 otherwise. Such a run
is reported before the script exits: its exit code, every ``FAILED`` line
it printed and the last lines of its standard error, which ``--out`` also
writes into the record, under ``failure``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
STDERR_LINES = 20  # how much of a failed run's standard error is kept


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


class FailedRun(NamedTuple):
    """What a run without a correct result left behind."""

    returncode: int
    failed: list[str]  # the ``FAILED <method> seed <s>: <reason>`` lines, in order
    stderr: list[str]  # the last STDERR_LINES lines of standard error


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict] | FailedRun:
    """The result line and the ``env`` line of one untraced benchmark run, or
    a :class:`FailedRun` when the result line is missing or incorrect."""
    command = [sys.executable, "benchmarks/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if isinstance(result, dict) and result.get("correct") is True:
        env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
        return result, env
    return FailedRun(done.returncode, [line for line in lines if line.startswith("FAILED ")],
                     done.stderr.splitlines()[-STDERR_LINES:])


def judge(readings: dict[str, dict[str, list[float]]], metrics: list[dict]) -> list[dict]:
    """One verdict row per metric from the paired readings of both sides.

    ``readings[side][metric]`` lists the readings of ``side`` ("parent" or
    "change") in pair order; ``metrics`` are ``BENCHMARK.json`` entries.
    """
    rows = []
    for m in metrics:
        parent, change = readings["parent"][m["name"]], readings["change"][m["name"]]
        q1, parent_median, q3 = quartiles(parent)
        change_median = statistics.median(change)
        judged, wins = verdict(parent, change, m["bound"], m["better"])
        rows.append({
            "metric": m["name"], "parent": parent_median, "q1": q1, "q3": q3,
            "change": change_median, "diff": change_median / parent_median - 1.0,
            "wins": wins, "pairs": len(parent), "verdict": judged,
        })
    return rows


def write_record(path: Path, settings: dict, env: dict, workloads: dict,
                 failure: dict | None = None) -> None:
    """Write the evidence of a comparison as one JSON document.

    ``settings`` holds the run settings, ``env`` each side's ``env`` line and
    ``workloads`` maps a workload to its ``readings``, its runs' ``attempted``
    counts (each side's in pair order) and ``verdicts`` (the rows of
    :func:`judge`; a workload cut short by a failed run has no verdicts).
    ``failure``, when given, describes that run.
    """
    record = {"format": "bench-pairs-v1", "settings": settings, "env": env, "workloads": workloads}
    if failure is not None:
        record["failure"] = failure
    Path(path).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload")
    parser.add_argument("--out", type=Path, help="also write readings and verdicts to this JSON file")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    settings = {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed,
                "workloads": workloads}
    env: dict[str, dict] = {}
    record: dict[str, dict] = {}
    for workload in workloads:
        readings = {side: {m["name"]: [] for m in metrics} for side in sides}
        attempted: dict[str, list] = {side: [] for side in sides}
        for k in range(args.pairs):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                run = run_once(sides[side], workload, args.seed, args.seconds)
                if isinstance(run, FailedRun):
                    print(f"{workload} pair {k} {side}: no correct result, exit code {run.returncode}")
                    for line in run.failed:
                        print(f"  {line}")
                    print(f"  last {len(run.stderr)} lines of stderr:")
                    for line in run.stderr:
                        print(f"    {line}")
                    if args.out is not None:
                        record[workload] = {"readings": readings, "attempted": attempted}
                        failure = {"workload": workload, "pair": k, "side": side, **run._asdict()}
                        write_record(args.out, settings, env, record, failure)
                        print(f"wrote {args.out}")
                    sys.stdout.flush()
                    return 1
                result, env[side] = run
                values = {name: result["metrics"][name]["value"] for name in readings[side]}
                for name, value in values.items():
                    readings[side][name].append(value)
                attempted[side].append(result.get("attempted"))
                shown = " ".join(f"{name}={value:.6g}" for name, value in values.items())
                print(f"{workload} pair {k} {side}: attempted={attempted[side][-1]} {shown}",
                      flush=True)
        rows = judge(readings, metrics)
        record[workload] = {"readings": readings, "attempted": attempted, "verdicts": rows}
        print(f"\n{workload}: {args.pairs} pairs, seed {args.seed}, {args.seconds:g} s per run")
        print(f"{'metric':<16} {'parent':>10} {'q1':>10} {'q3':>10} {'change':>10} {'diff':>8} "
              f"{'wins':>6}  verdict")
        for row in rows:
            print(f"{row['metric']:<16} {row['parent']:>10.4g} {row['q1']:>10.4g} "
                  f"{row['q3']:>10.4g} {row['change']:>10.4g} {row['diff']:>+8.1%} "
                  f"{row['wins']:>3}/{args.pairs:<2}  {row['verdict']}")
        print(flush=True)
    if args.out is not None:
        write_record(args.out, settings, env, record)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
