"""Solve every method of a benchmark workload on a range of instance seeds and check each solve.

Usage, from the root of a checkout::

    python3 scripts/scan_seeds.py --workload cs-desk --seeds 0:80
    python3 scripts/scan_seeds.py --workload cs-desk --seeds 0:80 --write FINGERPRINTS_cs-desk.txt
    python3 scripts/scan_seeds.py --check FINGERPRINTS_cs-desk.txt

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

``--write FILE`` keeps a scan as a fingerprint table: its lines with the
seconds dropped, under a first line that records the workload, the seeds and
:func:`harness.environment`. ``--check FILE`` rescans the workload and seeds
the table records and compares. The bits of a solve depend on the BLAS
kernel, so it first names every field of ``ENV_KEYS`` on which this machine
differs from the table's, then every line that differs, and ends with the
number of solve lines that differ for each method of the workload, e.g.
``differ by method: eg 80, gmini 0, rmini 0, wmax 0``.

The exit code is 1 when any solve failed or raised, or when ``--check``
found any difference, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import re
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
import harness  # noqa: E402  (puts the checkout's own src tree first on sys.path)

# The fields of the environment on which the bits of a solve depend.
ENV_KEYS = ("numpy", "scipy", "blas", "cpu_model")


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


def check_one(workload: harness.Workload, seed: int, method: str) -> tuple[str, str, bool]:
    """One solve as the benchmark makes it: its line, the same line with the
    seconds dropped, and whether it failed."""
    head = f"seed {seed} {method}: "
    try:
        setup = harness.set_up(workload, seed)
        cfg = harness.config(workload, seed)
        start, end, result = harness.timed_solve(setup.problem, method, cfg)
        errors = harness.check_solve(setup.problem, method, result, workload.tolerance)
    except Exception as exc:  # a fault to report, not to stop the scan at
        traceback.print_exc(file=sys.stderr)
        line = f"{head}raised: FAILED: {type(exc).__name__}: {exc}"
        return line, line, True
    counts = f"{head}{result.status.value}, {result.iterations} iterations, nf {result.nf:.6g}, "
    tail = f"fingerprint {fingerprint(result)}: " + ("FAILED: " + "; ".join(errors) if errors else "ok")
    return f"{counts}{end - start:.3f} s, {tail}", counts + tail, bool(errors)


def scan(workload: harness.Workload, seeds: range) -> tuple[list[str], int]:
    """Print every solve's line and a summary; return the lines with the
    seconds dropped, the summary last, and the number of failed solves."""
    kept, failed = [], 0
    for seed in seeds:
        for method in workload.methods:
            line, timeless, failure = check_one(workload, seed, method)
            failed += failure
            print(line, flush=True)
            kept.append(timeless)
    solves = len(seeds) * len(workload.methods)
    summary = f"{workload.name}: {solves - failed} of {solves} solves passed"
    print(summary)
    return kept + [summary], failed


def header(workload: str, seeds: range) -> str:
    """The first line of a fingerprint table: what was scanned, and where."""
    record = {"workload": workload, "seeds": f"{seeds.start}:{seeds.stop}",
              "env": harness.environment()}
    return json.dumps(record, sort_keys=True)


def check(path: Path) -> tuple[int, int]:
    """Rescan what the table at ``path`` records and print each difference;
    return the number of differences and of failed solves."""
    first, *recorded = path.read_text(encoding="utf-8").splitlines()
    record = json.loads(first)
    env = harness.environment()
    differences = 0
    for key in ENV_KEYS:
        if record["env"].get(key) != env[key]:
            print(f"{path}: environment differs in {key}: recorded {record['env'].get(key)!r}, "
                  f"here {env[key]!r}")
            differences += 1
    workload = harness.WORKLOADS[record["workload"]]
    now, failed = scan(workload, parse_seeds(record["seeds"]))
    by_method = dict.fromkeys(workload.methods, 0)
    for number, (old, new) in enumerate(itertools.zip_longest(recorded, now), start=2):
        if old != new:
            print(f"{path}:{number} differs:\n  recorded: {old}\n  now:      {new}")
            differences += 1
            solve = re.match(r"seed \d+ (\S+): ", new or old)
            if solve and solve[1] in by_method:
                by_method[solve[1]] += 1
    print(f"{path}: {differences} difference(s)")
    print(f"{path}: differ by method: " + ", ".join(f"{m} {k}" for m, k in by_method.items()))
    return differences, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seeds", type=parse_seeds, metavar="A:B",
                        help="half-open range of instance seeds, e.g. 0:80")
    parser.add_argument("--write", type=Path, metavar="FILE",
                        help="also write the scan as a fingerprint table to FILE")
    parser.add_argument("--check", type=Path, metavar="FILE",
                        help="rescan the workload and seeds that the table FILE records, and compare")
    args = parser.parse_args(argv)
    if args.check is not None:
        if args.workload or args.seeds or args.write:
            parser.error("--check takes its workload and seeds from FILE")
        differences, failed = check(args.check)
        return 1 if differences or failed else 0
    if args.workload is None or args.seeds is None:
        parser.error("--workload and --seeds are required without --check")
    lines, failed = scan(harness.WORKLOADS[args.workload], args.seeds)
    if args.write is not None:
        table = [header(args.workload, args.seeds)] + lines
        args.write.write_text("\n".join(table) + "\n", encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
