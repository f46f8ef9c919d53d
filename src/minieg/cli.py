"""Command-line interface.

Subcommands:

* ``bench``      -- run one or more solvers over repeated trials and report
                    iteration/evaluation/time statistics.
* ``sweep-rho``  -- repeat a benchmark over a grid of probe-step fractions.
* ``rank-trace`` -- instrument a coordinate method and record where each
                    selected coordinate ranks inside ``|F(x_k)|``.
* ``gen-cs``     -- generate a synthetic sparse-recovery instance and save it
                    to the NPZ container format.

Problem sources are shared across subcommands: ``--cs n,N,K[,snr]`` for
synthetic sparse recovery, ``--libsvm path`` for classification data,
``--affine dim[,flavor]`` for affine test maps, ``--instance path.npz`` for a
saved container.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bench import (
    AffineSource,
    ExperimentSpec,
    InstanceFileSource,
    LibsvmSource,
    SyntheticCSSource,
    rank_csv_lines,
    rank_trace,
    render_table,
    result_to_jsonable,
    run_experiment,
    sweep_csv_lines,
    sweep_rho,
    sweep_to_jsonable,
    trial_csv_lines,
)
from .core import ConfigurationError
from .problems import LibsvmParseError, build_cs_instance, save_instance
from .solvers import METHOD_IDS, SolverConfig

__all__ = ["main"]


def _parse_methods(text: str) -> tuple[str, ...]:
    # An empty list is left to ExperimentSpec, which rejects it.
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_cs(text: str) -> tuple[int, int, int, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (3, 4):
        raise ConfigurationError(
            "--cs expects N_SIGNAL,N_MEAS,SPARSITY[,SNR_DB], e.g. 256,64,8 or 256,64,8,20"
        )
    try:
        n, m, k = (int(p) for p in parts[:3])
        snr = float(parts[3]) if len(parts) == 4 else SyntheticCSSource.snr_db
    except ValueError:
        raise ConfigurationError(f"could not parse --cs value {text!r}") from None
    return n, m, k, snr


def _parse_affine(text: str) -> tuple[int, str]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (1, 2):
        raise ConfigurationError("--affine expects DIM or DIM,FLAVOR (spd or skew)")
    try:
        dim = int(parts[0])
    except ValueError:
        raise ConfigurationError(f"could not parse --affine dimension {parts[0]!r}") from None
    flavor = parts[1] if len(parts) == 2 else AffineSource.flavor
    return dim, flavor


def _add_problem_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--cs",
        metavar="N,MEAS,SPARSITY[,SNR]",
        help="synthetic sparse-recovery instances, regenerated per trial",
    )
    group.add_argument("--libsvm", metavar="PATH", help="classification data in LIBSVM format")
    group.add_argument(
        "--affine",
        metavar="DIM[,FLAVOR]",
        help="affine test map: flavor 'spd' (random, per trial) or 'skew'",
    )
    group.add_argument("--instance", metavar="PATH.npz", help="saved instance container")
    parser.add_argument(
        "--reg",
        type=float,
        default=LibsvmSource.reg,
        help="ridge weight for --libsvm problems (default %(default)s)",
    )
    parser.add_argument(
        "--reg-scale",
        type=float,
        default=SyntheticCSSource.reg_scale,
        help="l1 penalty scale for --cs problems (default %(default)s)",
    )


# The document each --format names, per subcommand; the first is the default.
_FORMATS = {
    "bench": {"table": render_table, "csv": trial_csv_lines, "json": result_to_jsonable},
    "sweep-rho": {"csv": sweep_csv_lines, "json": sweep_to_jsonable},
}


def _add_experiment_flags(parser: argparse.ArgumentParser, formats: dict) -> None:
    parser.add_argument(
        "--method",
        default=",".join(METHOD_IDS),
        help=f"comma-separated method ids from: {', '.join(METHOD_IDS)} (default: all)",
    )
    parser.add_argument(
        "--trials",
        type=int,
        default=10,
        help="number of trials (default 10; the full protocol uses 100)",
    )
    parser.add_argument(
        "--x0", choices=["zeros", "gaussian"], default=ExperimentSpec.x0_policy
    )
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--format", choices=list(formats), default=next(iter(formats)))


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    cfg = SolverConfig()  # the library's defaults
    parser.add_argument("--rho", type=float, default=cfg.rho, help="probe-step fraction in (0,1)")
    parser.add_argument(
        "--gamma",
        type=float,
        default=cfg.gamma,
        help="coordinate-draw exponent for the randomized methods (0 = uniform)",
    )
    parser.add_argument("--tol", type=float, default=cfg.tolerance, help="residual tolerance")
    parser.add_argument("--max-iters", type=int, default=cfg.max_iterations, help="iteration cap")
    parser.add_argument("--seed", type=int, default=cfg.seed, help="base seed for all randomness")


def _source_from_args(args: argparse.Namespace):
    if args.cs is not None:
        n, m, k, snr = _parse_cs(args.cs)
        return SyntheticCSSource(
            n=n, n_measurements=m, sparsity=k, snr_db=snr, seed=args.seed,
            reg_scale=args.reg_scale,
        )
    if args.libsvm is not None:
        return LibsvmSource(path=args.libsvm, reg=args.reg)
    if args.affine is not None:
        dim, flavor = _parse_affine(args.affine)
        return AffineSource(dim=dim, flavor=flavor, seed=args.seed)
    return InstanceFileSource(path=args.instance)


def _config_from_args(args: argparse.Namespace) -> SolverConfig:
    return SolverConfig(
        rho=args.rho,
        gamma=args.gamma,
        tolerance=args.tol,
        max_iterations=args.max_iters,
        seed=args.seed,
    )


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    return ExperimentSpec(
        source=_source_from_args(args),
        methods=_parse_methods(args.method),
        config=_config_from_args(args),
        trials=args.trials,
        x0_policy=args.x0,
    )


def _text(document) -> str:
    """A renderer's output as text: JSON for a dict, one line per entry for a list."""
    if isinstance(document, dict):
        return json.dumps(document, indent=2, sort_keys=True)
    if isinstance(document, list):
        return "\n".join(document)
    return document


def _write_out(path, document, note: str) -> None:
    """Write a document to ``--out``, then print ``note`` and where it went."""
    Path(path).write_text(_text(document) + "\n", encoding="utf-8")
    print(f"{note} to {path}")


def _progress(stream):
    def tick(trial: int, method: str) -> None:
        print(f"  trial {trial} / {method}", file=stream)

    return tick


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_bench(args: argparse.Namespace) -> int:
    progress = _progress(sys.stderr) if args.verbose else None
    result = run_experiment(_spec_from_args(args), progress=progress)
    document = _FORMATS["bench"][args.format](result)
    if args.out:  # the file takes the document, stdout the summary table
        _write_out(args.out, document, f"{render_table(result)}\n\nwrote {args.format}")
    else:
        print(_text(document))
    return 0


def _cmd_sweep_rho(args: argparse.Namespace) -> int:
    try:
        grid = tuple(float(p) for p in args.grid.split(",") if p.strip())
    except ValueError:
        raise ConfigurationError(f"could not parse --grid value {args.grid!r}") from None
    sweep = sweep_rho(_spec_from_args(args), grid)

    header = f"{'method':8} {'rho':>8} {'metric':>16} {'mean':>16} {'std':>14}"
    print(header)
    print("-" * len(header))
    for method, rho, metric, mean, std in sweep.rows:
        print(f"{method:8} {rho:>8g} {metric:>16} {mean:>16.6g} {std:>14.6g}")

    if args.out:
        _write_out(args.out, _FORMATS["sweep-rho"][args.format](sweep), f"\nwrote {args.format}")
    return 0


def _cmd_rank_trace(args: argparse.Namespace) -> int:
    problem = _source_from_args(args).build(0)
    result, points = rank_trace(problem, method=args.method, config=_config_from_args(args))

    ranks = sorted(p.normalized_rank for p in points)
    median = ranks[len(ranks) // 2] if ranks else float("nan")
    top = sum(r <= 0.02 for r in ranks) / len(ranks) if ranks else float("nan")
    resets = sum(bool(p.reset) for p in points)
    print(f"method={args.method} status={result.status.value} iterations={result.iterations}")
    print(f"median normalized rank: {median:.5f}")
    print(f"share of iterations in top 2%: {top:.1%}")
    print(f"watchdog resets: {resets}")
    print(f"diagnostic overhead: {len(points):g} full evals (uncharged)")

    if args.out:
        _write_out(args.out, rank_csv_lines(points), "wrote rank trace")
    return 0


def _cmd_gen_cs(args: argparse.Namespace) -> int:
    problem = build_cs_instance(
        args.n,
        args.measurements,
        args.sparsity,
        snr_db=args.snr_db,
        seed=args.seed,
        reg_scale=args.reg_scale,
    )
    save_instance(args.out, problem)
    meta, (measurements, n) = problem.meta, problem.sensing.shape
    print(
        f"wrote instance to {args.out}: n={n} measurements={measurements} "
        f"sparsity={meta.sparsity} snr_db={meta.snr_db:g} "
        f"(realized {meta.realized_snr_db:.2f}) reg={problem.reg:.6g} seed={meta.seed}"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minieg",
        description="Benchmark extragradient-family solvers on monotone nonlinear systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run solvers over repeated trials")
    _add_problem_flags(bench)
    _add_solver_flags(bench)
    _add_experiment_flags(bench, _FORMATS["bench"])
    bench.add_argument("--verbose", action="store_true", help="progress ticker on stderr")
    bench.set_defaults(func=_cmd_bench)

    sweep = sub.add_parser("sweep-rho", help="benchmark over a grid of rho values")
    _add_problem_flags(sweep)
    _add_solver_flags(sweep)
    sweep.add_argument("--grid", required=True, help="comma-separated rho values, e.g. 0.5,0.9,0.999")
    _add_experiment_flags(sweep, _FORMATS["sweep-rho"])
    sweep.set_defaults(func=_cmd_sweep_rho)

    rank = sub.add_parser("rank-trace", help="instrument coordinate selection quality")
    _add_problem_flags(rank)
    _add_solver_flags(rank)
    rank.add_argument("--method", choices=[m for m in METHOD_IDS if m != "eg"], default="wmax")
    rank.add_argument("--out", help="CSV output path")
    rank.set_defaults(func=_cmd_rank_trace)

    gen = sub.add_parser("gen-cs", help="generate and save a sparse-recovery instance")
    gen.add_argument("--n", type=int, required=True, help="signal dimension")
    gen.add_argument("--measurements", type=int, required=True)
    gen.add_argument("--sparsity", type=int, required=True)
    gen.add_argument("--snr-db", type=float, default=SyntheticCSSource.snr_db)
    gen.add_argument("--seed", type=int, default=SyntheticCSSource.seed)
    gen.add_argument("--reg-scale", type=float, default=SyntheticCSSource.reg_scale)
    gen.add_argument("--out", required=True, help="NPZ output path")
    gen.set_defaults(func=_cmd_gen_cs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, LibsvmParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
