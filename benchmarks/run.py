"""End-to-end and per-layer benchmark of the minieg solvers.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload cs-desk --seed 0 --seconds 30 --trace 0

``--trace 0`` times untraced solves and reports the end-to-end metrics;
``--trace 1`` pairs every untraced solve with a traced one, checks that the
two agree bit for bit, reports the per-layer metrics and the tracing
overhead, and writes the spans to ``benchmarks/out/``.  Every solve passes
the correctness gate in ``harness.check_solve`` or the run fails.  The
report goes to standard output, one metric per line with its unit, and the
last line is one JSON object: ``correct``, ``attempted``, ``failed`` and the
``metrics`` that ``BENCHMARK.json`` lists for the chosen mode.  The exit
code is 1 when any check failed.  See README.md for the design.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

try:
    import harness
except ImportError as exc:
    sys.exit(f"error: {exc}")

from harness import (
    WORKLOADS,
    ReferenceKernel,
    Workload,
    check_solve,
    config,
    set_up,
    tail_percentile,
    timed_solve,
)
from minieg import RunResult
from tracing import LAYERS, SpanLog, mismatch, traced_solve

SPAN_DIR = Path(__file__).resolve().parent / "out"

# In each round a method's solve is repeated until it has taken this long, or
# has run this many times, so that quick solves give more than one sample
# without one quick instance filling the run.
MIN_METHOD_SECONDS = 1.0
MAX_REPEATS = 5

# ``setup_s`` is reported in seconds on a nominal machine whose reference
# kernel takes this long per iteration: each set-up's wall time is scaled by
# NOMINAL_REFERENCE / (the kernel timing right before it), which removes the
# machine's drift as ``nf_cost`` does.  A 2-core Xeon VM measured 37-70 us.
NOMINAL_REFERENCE = 40e-6


@dataclass
class Outcome:
    """What one run measured: final-line metrics, report lines and the gate's tally."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (value, unit)
        self.note(name, value, unit, note)

    def note(self, name: str, value: float, unit: str, note: str = "") -> None:
        """A report line for a metric that is not on the final line."""
        self.report.append(f"{name:<44} {value:>14.6g} {unit:<6} {note}".rstrip())

    def gate(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(errors)
        self.errors.extend(f"{label}: {e}" for e in errors)


@dataclass
class Sample:
    """One measured solve: its wall seconds and the reference kernel's
    seconds per iteration around it (the mean of the timings right before
    and right after)."""

    seconds: float
    reference: float
    result: RunResult
    errors: list[str]
    matrix_bytes: int

    @property
    def cost(self) -> float:
        """Wall time of one full-evaluation equivalent, in reference iterations."""
        return self.seconds / self.result.nf / self.reference


class Meter:
    """Sets up, times and checks solves, with the reference kernel between them.

    Keeps the build and Lipschitz seconds of every set-up with the kernel
    timing taken right before it, and the spectral estimate of the first.
    """

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.kernel = ReferenceKernel()
        self.reference = self.kernel.seconds_per_iteration()  # the latest timing
        self.setups: list[tuple[float, float, float]] = []  # build s, Lipschitz s, reference
        self.first_spectral = None

    def solve(self, instance_seed: int, method: str, log: SpanLog | None = None) -> Sample:
        """Set up the instance afresh, then solve it, untraced or into ``log``."""
        setup = set_up(self.workload, instance_seed)
        self.setups.append((setup.build_s, setup.lipschitz_s, self.reference))
        if self.first_spectral is None:
            self.first_spectral = setup.problem.lambda_setup
        problem, cfg = setup.problem, config(self.workload, instance_seed)
        if log is None:
            start, end, result = timed_solve(problem, method, cfg)
        else:
            start, end, result = traced_solve(log, problem, method, cfg)
        before, self.reference = self.reference, self.kernel.seconds_per_iteration()
        errors = check_solve(problem, method, result, self.workload.tolerance)
        return Sample(end - start, (before + self.reference) / 2, result, errors,
                      self.workload.matrix_bytes(problem))


def _rounds(seed: int, seconds: float):
    """Instance seeds of a closed loop, one per round, until ``seconds`` pass (at least one)."""
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        yield seed + i
        i += 1


def _timing_note(values: list[float]) -> str:
    tail = tail_percentile(values)
    return f"median of {len(values)}" + (f", {tail[0]} {tail[1]:.6g}" if tail else "")


def run_untraced(meter: Meter, seed: int, seconds: float, out: Outcome) -> None:
    methods = meter.workload.methods
    samples: dict[str, list[Sample]] = {m: [] for m in methods}
    totals = []
    for instance_seed in _rounds(seed, seconds):
        total = 0.0
        for method in methods:
            spent, repeats = 0.0, 0
            while repeats == 0 or (spent < MIN_METHOD_SECONDS and repeats < MAX_REPEATS):
                sample = meter.solve(instance_seed, method)
                out.gate(f"{method} seed {instance_seed}", sample.errors)
                samples[method].append(sample)
                spent += sample.seconds
                repeats += 1
            total += sample.seconds
        totals.append(total)

    for m in methods:
        costs = [s.cost for s in samples[m]]
        out.add(f"nf_cost.{m}", statistics.median(costs), "refit", _timing_note(costs))
    for name, unit, value in (
        ("us_per_nf", "us", lambda s: 1e6 * s.seconds / s.result.nf),
        ("solve_s", "s", lambda s: s.seconds),
    ):
        for m in methods:
            values = [value(s) for s in samples[m]]
            out.note(f"{name}.{m}", statistics.median(values), unit, _timing_note(values))
    out.note("total_solve_s", statistics.median(totals), "s", _timing_note(totals))
    for m in methods:
        out.note(f"nf.{m}", statistics.fmean(s.result.nf for s in samples[m]), "nf", f"mean of {len(samples[m])}")
    refs = [1e6 * s.reference for m in methods for s in samples[m]]
    out.note("reference_us", statistics.median(refs), "us",
             f"reference kernel per iteration, {_timing_note(refs)}, min {min(refs):.6g}, max {max(refs):.6g}")


def _layer_metrics(log: SpanLog, solve_id: int, sample: Sample, out: Outcome) -> None:
    calls, busy = log.totals(solve_id)
    method, _, start, end = log.solves[solve_id]
    solve_s, iterations = end - start, sample.result.iterations
    for code, layer in enumerate(LAYERS):
        if layer != "session.open_session":
            out.add(f"{layer}.calls.{method}", int(calls[code]), "count")
        out.add(f"{layer}.s.{method}", float(busy[code]), "s")
    full, comp = LAYERS.index("session.eval_full"), LAYERS.index("session.eval_component")
    rebuild, shift = LAYERS.index("session.set_point"), LAYERS.index("session.shift_coordinate")
    out.add(f"solvers.iterations.{method}", iterations, "count")
    out.add(f"solvers.nf.{method}", sample.result.nf, "nf")
    out.add(f"solvers.self_s.{method}", solve_s - float(busy.sum()), "s")
    out.add(f"session.charged_share.{method}", (busy[full] + busy[comp]) / solve_s, "ratio",
            "charged-read seconds / solve seconds")
    out.add(f"session.rebuild_per_full.{method}", busy[rebuild] / busy[full], "ratio",
            "set_point seconds / eval_full seconds")
    out.add(f"solvers.probe_move_frac.{method}", calls[shift] / max(iterations, 1), "ratio",
            f"{int(calls[shift])} shift_coordinate calls / {iterations} iterations")
    gbps = calls[rebuild] * sample.matrix_bytes / busy[rebuild] / 1e9 if busy[rebuild] else 0.0
    out.add(f"session.set_point.gbps_computed.{method}", gbps, "GB/s",
            f"{sample.matrix_bytes} matrix bytes per rebuild")


def run_traced(meter: Meter, seed: int, seconds: float, out: Outcome, span_path: Path) -> None:
    """An untraced and a traced solve of each instance, in alternating order.

    Per-layer metrics come from the first instance (seed ``seed``), so their
    counts repeat exactly for a given seed; every instance feeds the bit for
    bit comparison and ``trace_overhead``.
    """
    methods = meter.workload.methods
    log = SpanLog()
    plain_cost = {m: 0.0 for m in methods}
    traced_cost = {m: 0.0 for m in methods}
    for r, instance_seed in enumerate(_rounds(seed, seconds)):
        for method in methods:
            if r % 2:
                traced = meter.solve(instance_seed, method, log)
                plain = meter.solve(instance_seed, method)
            else:
                plain = meter.solve(instance_seed, method)
                traced = meter.solve(instance_seed, method, log)
            label = f"{method} seed {instance_seed}"
            out.gate(label, plain.errors)
            out.gate(label + " traced", traced.errors + mismatch(plain.result, traced.result))
            plain_cost[method] += plain.cost
            traced_cost[method] += traced.cost
            if r == 0:
                _layer_metrics(log, len(log.solves) - 1, traced, out)
    for m in methods:
        out.add(f"trace_overhead.{m}", traced_cost[m] / plain_cost[m] - 1.0, "ratio",
                "traced / untraced reference-normalized time - 1, over every instance")
    first = meter.first_spectral
    count = len(meter.setups)
    out.add("problems.build_s", statistics.median(s[0] for s in meter.setups), "s", f"median of {count}")
    out.add("spectral.lipschitz_s", statistics.median(s[1] for s in meter.setups), "s", f"median of {count}")
    out.add("spectral.matvecs", first.iterations, "count", f"power-iteration products, instance {seed}")
    out.add("spectral.converged", float(first.converged), "ratio", f"1 if converged, instance {seed}")
    span_path.parent.mkdir(parents=True, exist_ok=True)
    log.save(span_path)
    out.report.append(f"spans: {log.span_count()} layer spans of {len(log.solves)} solves written to {span_path}")


def run(workload: Workload, seed: int, seconds: float, trace: bool, span_path: Path | None = None) -> Outcome:
    out = Outcome()
    meter = Meter(workload)
    if trace:
        run_traced(meter, seed, seconds, out, span_path or SPAN_DIR / f"spans-{workload.name}.npz")
    else:
        run_untraced(meter, seed, seconds, out)
        setup_s = [(b + l) * NOMINAL_REFERENCE / r for b, l, r in meter.setups]
        out.add("setup_s", statistics.median(setup_s), "s",
                f"at nominal machine speed, {_timing_note(setup_s)}")
        raw = [b + l for b, l, _ in meter.setups]
        out.note("setup_raw_s", statistics.median(raw), "s", f"wall clock, {_timing_note(raw)}")
        out.add("peak_rss_mb", harness.peak_rss_mb(), "MB", "peak RSS of this process")
        out.note("fail_frac", out.failed / out.attempted, "ratio", f"of {out.attempted} solves")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    workload = WORKLOADS[args.workload]
    print(f"# workload {workload.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("env " + json.dumps(harness.environment()))
    out = run(workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(out.report))
    for error in out.errors:
        print(f"FAILED {error}")
    print(json.dumps({
        "correct": not out.errors,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in out.metrics.items()},
    }))
    return 1 if out.errors else 0


if __name__ == "__main__":
    sys.exit(main())
