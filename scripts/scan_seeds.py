"""Solve every method of a benchmark workload on a range of instance seeds and check each solve.

Usage, from the root of a checkout::

    python3 scripts/scan_seeds.py --workload cs-desk --seeds 0:80

A benchmark run works through instance seeds ``seed, seed + 1, ...`` until
its time is up, so a fault on a late seed shows only in runs that get that
far. This script names such an instance directly. For each seed in the
half-open range ``A:B`` and each method of the workload it builds the
instance afresh, solves it and checks the solve exactly as
``benchmarks/run.py`` does, through ``benchmarks/harness.py``: ``set_up``,
``config``, ``timed_solve`` and ``check_solve``. It prints one line per
solve: the seed, the method, the status, iterations, NF, seconds and a
fingerprint of the result (see :func:`fingerprint`), then ``ok`` or the
reasons the check failed. A solve that raises counts as failed, and its
traceback goes to standard error.

Every field but the seconds is deterministic, so two checkouts solve every
instance bit for bit alike exactly when their scans print the same lines
once the seconds are dropped, for example with ``sed -E 's/, [0-9.]+ s,/,/'``.

The exit code is 1 when any solve failed or raised, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import harness  # noqa: E402  (puts the checkout's own src tree first on sys.path)


def parse_seeds(text: str) -> range:
    """``A:B`` as the instance seeds ``A, A + 1, ..., B - 1``."""
    start, colon, stop = text.partition(":")
    try:
        seeds = range(int(start), int(stop))
    except ValueError:
        seeds = range(0)
    if not colon or not seeds or seeds.start < 0:
        raise argparse.ArgumentTypeError(f"expected A:B with 0 <= A < B, got {text!r}")
    return seeds


def fingerprint(result) -> str:
    """The status, the iterations, both ledger counts, the final residual in
    exact hex and a 16-digit SHA-256 prefix of the final point's bytes.

    A result with any other bit in these fields prints another fingerprint,
    but for a collision of the point's digest prefix.
    """
    point = hashlib.sha256(result.final_point.tobytes()).hexdigest()[:16]
    ledger = result.ledger
    return (f"{result.status.value}/{result.iterations}/{ledger.full_evals}/"
            f"{ledger.component_evals}/{result.final_residual.hex()}/{point}")


def check_one(workload: harness.Workload, seed: int, method: str) -> tuple[str, list[str]]:
    """One solve as the benchmark makes it: a summary and the reasons it failed (none if ok)."""
    try:
        setup = harness.set_up(workload, seed)
        cfg = harness.config(workload, seed)
        start, end, result = harness.timed_solve(setup.problem, method, cfg)
        errors = harness.check_solve(setup.problem, method, result, workload.tolerance)
    except Exception as exc:  # a fault to report, not to stop the scan at
        traceback.print_exc(file=sys.stderr)
        return "raised", [f"{type(exc).__name__}: {exc}"]
    summary = (f"{result.status.value}, {result.iterations} iterations, "
               f"nf {result.nf:.6g}, {end - start:.3f} s, fingerprint {fingerprint(result)}")
    return summary, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seeds", required=True, type=parse_seeds, metavar="A:B",
                        help="half-open range of instance seeds, e.g. 0:80")
    args = parser.parse_args(argv)
    workload = harness.WORKLOADS[args.workload]
    failed = 0
    for seed in args.seeds:
        for method in workload.methods:
            summary, errors = check_one(workload, seed, method)
            failed += bool(errors)
            verdict = "ok" if not errors else "FAILED: " + "; ".join(errors)
            print(f"seed {seed} {method}: {summary}: {verdict}", flush=True)
    solves = len(args.seeds) * len(workload.methods)
    print(f"{args.workload}: {solves - failed} of {solves} solves passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
