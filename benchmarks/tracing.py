"""Traced solves: one span per call at each layer boundary the public API exposes.

The traced run wraps only public entry points, from outside the library:

* the session methods ``eval_full``, ``eval_component``, ``shift_coordinate``
  and ``set_point`` (the ``core`` session contract as implemented by
  ``CSSession`` / ``LogRegSession``), hooked by overriding ``open_session``
  on the problem instance, which also times the session's construction;
* ``Projection.__call__``, passed in through ``run_solver(projection=...)``;
* the coordinate sampler, passed in as
  ``run_solver(index_sampler=lipschitz_power_sampler(l, gamma))``, which
  draws exactly what the solver's default sampler draws.

Every span's parent is the span of the ``run_solver`` call it happened in,
and those spans never nest inside each other, so ``run_solver``'s self time is
the call's duration minus the sum of its children.  Spans stay in compact
in-memory arrays until :meth:`SpanLog.save` writes them out.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

from harness import timed_solve
from minieg import Projection, RunResult, SolverConfig, lipschitz_power_sampler
from minieg.core import MonotoneMapping

SESSION_METHODS = ("eval_full", "eval_component", "shift_coordinate", "set_point")
LAYERS = tuple(f"session.{name}" for name in SESSION_METHODS) + (
    "session.open_session",
    "projection",
    "sampler",
)
_CODE = {name: code for code, name in enumerate(LAYERS)}


class SpanLog:
    """Spans of traced solves, kept as ``(start, end)`` pairs per solve and layer.

    Solve ``k`` is ``solves[k] = (method, instance seed, start, end)``; its id
    ``k`` is the parent of every layer span recorded during it, and
    ``spans[k][code]`` holds the interleaved start and end times of that
    solve's calls into ``LAYERS[code]``.
    """

    def __init__(self) -> None:
        self.spans: list[dict[int, array]] = []
        self.solves: list[tuple[str, int, float, float]] = []

    def timed(self, name: str, fn):
        """``fn`` wrapped to record a span under the solve about to run."""
        solve_id = len(self.solves)
        if len(self.spans) == solve_id:
            self.spans.append({})
        append = self.spans[solve_id].setdefault(_CODE[name], array("d")).append
        clock = time.perf_counter

        def traced(*args):
            t0 = clock()
            out = fn(*args)
            t1 = clock()
            append(t0)
            append(t1)
            return out

        return traced

    def _pairs(self, solve_id: int, code: int) -> np.ndarray:
        return np.frombuffer(self.spans[solve_id].get(code, array("d"))).reshape(-1, 2)

    def totals(self, solve_id: int) -> tuple[np.ndarray, np.ndarray]:
        """Call counts and busy seconds per layer (indexed like ``LAYERS``) of one solve."""
        pairs = [self._pairs(solve_id, code) for code in range(len(LAYERS))]
        calls = np.array([len(p) for p in pairs])
        seconds = np.array([float((p[:, 1] - p[:, 0]).sum()) for p in pairs])
        return calls, seconds

    def span_count(self) -> int:
        return sum(len(times) // 2 for per_solve in self.spans for times in per_solve.values())

    def save(self, path) -> None:
        pairs = [(k, code, self._pairs(k, code)) for k in range(len(self.spans)) for code in range(len(LAYERS))]
        np.savez(
            path,
            layers=np.array(LAYERS),
            span_layer=np.concatenate([np.full(len(p), code, dtype=np.uint8) for _, code, p in pairs]),
            span_parent=np.concatenate([np.full(len(p), k, dtype=np.int64) for k, _, p in pairs]),
            span_start=np.concatenate([p[:, 0] for _, _, p in pairs]),
            span_end=np.concatenate([p[:, 1] for _, _, p in pairs]),
            solve_method=np.array([s[0] for s in self.solves]),
            solve_seed=np.array([s[1] for s in self.solves], dtype=np.int64),
            solve_start=np.array([s[2] for s in self.solves]),
            solve_end=np.array([s[3] for s in self.solves]),
        )


class _TracedProjection(Projection):
    def __init__(self, call) -> None:
        self._call = call

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self._call(x)


def traced_solve(
    log: SpanLog, problem: MonotoneMapping, method: str, cfg: SolverConfig
) -> tuple[float, float, RunResult]:
    """Like ``harness.timed_solve``, with every layer boundary traced into ``log``.

    The solve's id is ``len(log.solves) - 1`` afterwards.
    """
    open_session = problem.open_session
    timed_open = log.timed("session.open_session", open_session)

    def traced_open_session(x0, ledger):
        session = timed_open(x0, ledger)
        for name in SESSION_METHODS:
            setattr(session, name, log.timed(f"session.{name}", getattr(session, name)))
        return session

    problem.open_session = traced_open_session
    try:
        start, end, result = timed_solve(
            problem, method, cfg,
            projection=_TracedProjection(log.timed("projection", problem.projection)),
            index_sampler=log.timed(
                "sampler", lipschitz_power_sampler(problem.componentwise_lipschitz, cfg.gamma)
            ),
        )
    finally:
        del problem.open_session  # back to the class's method
    log.solves.append((method, cfg.seed, start, end))
    return start, end, result


def mismatch(plain: RunResult, traced: RunResult) -> list[str]:
    """How the traced solve differs from the untraced one; empty when bit for bit equal."""
    fields = {
        "status": (plain.status, traced.status),
        "iterations": (plain.iterations, traced.iterations),
        "full_evals": (plain.ledger.full_evals, traced.ledger.full_evals),
        "component_evals": (plain.ledger.component_evals, traced.ledger.component_evals),
        "final_point": (plain.final_point.tobytes(), traced.final_point.tobytes()),
    }
    return [f"traced {name} differs" for name, (a, b) in fields.items() if a != b]
