"""Serialization of benchmark outcomes: CSV, JSON, and terminal tables.

The CSV layout is deliberately frozen -- one header, fixed column order,
``%.17g`` floats -- so that two runs of the same experiment produce
byte-identical files except for the wall-time column. Everything richer
(aggregates, metadata, recovery errors) lives in the JSON export, which
conforms to the schema shipped alongside this module.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from importlib import resources

from ..solvers import method_display_name
from .runner import ExperimentResult, RankPoint, SweepResult

__all__ = [
    "TRIAL_CSV_HEADER",
    "trial_csv_lines",
    "result_to_jsonable",
    "render_table",
    "SWEEP_CSV_HEADER",
    "sweep_csv_lines",
    "sweep_to_jsonable",
    "RANK_CSV_HEADER",
    "rank_csv_lines",
    "load_results_schema",
]

TRIAL_CSV_HEADER = "method,trial,itr,nf,tcpu_s,final_residual,status,seed"
SWEEP_CSV_HEADER = "method,rho,metric,mean,std"
RANK_CSV_HEADER = "k,normalized_rank,reset_flag"


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _clean(value):
    """NaN/inf are not valid strict JSON; encode them as null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _cleaned(record) -> dict:
    """A dataclass record's fields, with non-finite values as null."""
    return {key: _clean(value) for key, value in asdict(record).items()}


# ---------------------------------------------------------------------------
# Trial-level CSV
# ---------------------------------------------------------------------------


def trial_csv_lines(result: ExperimentResult) -> list[str]:
    lines = [TRIAL_CSV_HEADER]
    for r in result.rows:
        lines.append(
            f"{r.method},{r.trial},{r.itr},{_fmt(r.nf)},{_fmt(r.tcpu_s)},"
            f"{_fmt(r.final_residual)},{r.status},{r.seed}"
        )
    return lines


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def result_to_jsonable(result: ExperimentResult) -> dict:
    spec = result.spec
    return {
        "format": "minieg-results-v1",
        "experiment": {
            "source": result.metadata.get("source", spec.source.describe()),
            "methods": list(spec.methods),
            "config": _cleaned(spec.config),
            "trials": spec.trials,
            "x0_policy": spec.x0_policy,
            "x0_scale": spec.x0_scale,
        },
        "metadata": {
            k: _clean(v) for k, v in result.metadata.items() if k != "source"
        },
        "trials": [_cleaned(r) for r in result.rows],
        "aggregates": {method: _cleaned(agg) for method, agg in result.aggregates.items()},
    }


def load_results_schema() -> dict:
    """The JSON schema the result documents conform to."""
    text = resources.files("minieg.bench").joinpath("results_schema.json").read_text(
        encoding="utf-8"
    )
    return json.loads(text)


# ---------------------------------------------------------------------------
# Terminal table
# ---------------------------------------------------------------------------


def _mean_std(mean: float, std: float, digits: int = 2) -> str:
    if not math.isfinite(mean):
        return "-"
    return f"{mean:,.{digits}f} +- {std:,.{digits}f}"


def render_table(result: ExperimentResult) -> str:
    """Human-readable per-method summary (aligned plain text)."""
    headers = [
        "method", "conv", "itr", "nf", "tcpu_s", "final_res", "speedup", "recovery",
    ]
    body: list[list[str]] = []
    for method in result.spec.methods:
        agg = result.aggregates[method]
        conv = f"{agg.converged}/{agg.trials}"
        if agg.capped:
            conv += f" ({agg.capped} capped)"
        if agg.failed:
            conv += f" ({agg.failed} failed)"
        body.append(
            [
                agg.display_name,
                conv,
                _mean_std(agg.mean_itr, agg.std_itr, 1),
                _mean_std(agg.mean_nf, agg.std_nf, 2),
                _mean_std(agg.mean_tcpu_s, agg.std_tcpu_s, 4),
                "-" if not math.isfinite(agg.mean_final_residual) else f"{agg.mean_final_residual:.3e}",
                "-" if agg.speedup_vs_reference is None else f"{agg.speedup_vs_reference:.2f}x",
                "-" if agg.mean_recovery_error is None else f"{agg.mean_recovery_error:.3e}",
            ]
        )
    widths = [max(len(h), *(len(row[i]) for row in body)) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in body:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))

    meta = result.metadata
    ref = method_display_name(meta["reference_method"])
    lines.append("")
    lines.append(
        f"trials={result.spec.trials}  x0={result.spec.x0_policy}  "
        f"rho={result.spec.config.rho}  gamma={result.spec.config.gamma}  "
        f"tol={result.spec.config.tolerance:g}"
    )
    lines.append(
        f"speedup reference: {ref}; spectral setup: "
        f"{meta['lambda_setup_seconds']:.3f}s (excluded from tcpu_s)"
    )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Sweep and rank-trace exports
# ---------------------------------------------------------------------------


def sweep_csv_lines(sweep: SweepResult) -> list[str]:
    lines = [SWEEP_CSV_HEADER]
    for method, rho, metric, mean, std in sweep.rows:
        lines.append(f"{method},{_fmt(rho)},{metric},{_fmt(mean)},{_fmt(std)}")
    return lines


def sweep_to_jsonable(sweep: SweepResult) -> dict:
    return {
        "format": "minieg-sweep-v1",
        "grid": list(sweep.grid),
        "metadata": sweep.metadata,
        "rows": [
            {
                "method": method,
                "rho": rho,
                "metric": metric,
                "mean": _clean(mean),
                "std": _clean(std),
            }
            for method, rho, metric, mean, std in sweep.rows
        ],
    }


def rank_csv_lines(points: list[RankPoint]) -> list[str]:
    lines = [RANK_CSV_HEADER]
    for p in points:
        reset = "" if p.reset is None else str(int(p.reset))
        lines.append(f"{p.k},{_fmt(p.normalized_rank)},{reset}")
    return lines
