"""Reusable property probes shared by the unit and acceptance suites.

Each checker raises ``AssertionError`` on the first violated instance and
returns a small summary value (worst margin, iteration count, ...) so the
caller can report what was actually exercised.
"""

import numpy as np
import scipy.sparse as sp

from minieg import SolverConfig, run_solver, seeded_generator
from minieg.core import STREAM_SOLVER
from minieg.problems import LogRegProblem


def sparse_twin(problem):
    """The same logistic-regression problem with its features handed over as CSR.

    A dense problem stores its design feature-major and bit for bit, so the
    transpose of that copy is the original sample-major design.
    """
    return LogRegProblem(
        sp.csr_matrix(problem._A.T), problem._b,
        reg=problem.reg, spectral_seed=problem._spectral_seed,
    )


def check_projection_nonexpansive(projection, dim, pairs=1000, seed=0, scale=5.0):
    """||P(a) - P(b)|| <= ||a - b|| for random pairs; returns the worst ratio."""
    gen = seeded_generator(seed, STREAM_SOLVER)
    worst = 0.0
    for _ in range(pairs):
        a = scale * gen.standard_normal(dim)
        b = scale * gen.standard_normal(dim)
        lhs = float(np.linalg.norm(projection(a) - projection(b)))
        rhs = float(np.linalg.norm(a - b))
        assert lhs <= rhs + 1e-12, (lhs, rhs)
        worst = max(worst, lhs / rhs if rhs > 0 else 0.0)
    return worst


def check_componentwise_lipschitz(problem, probes=1000, seed=0, slack=1e-9):
    """|F_i(x + t e_i) - F_i(x)| <= l_i |t| over scale-varied probes."""
    gen = seeded_generator(seed, STREAM_SOLVER)
    l = problem.componentwise_lipschitz
    n = problem.dim
    worst = -np.inf
    for _ in range(probes):
        x = gen.standard_normal(n) * 10.0 ** gen.uniform(-1.0, 1.0)
        i = int(gen.integers(0, n))
        t = float(gen.standard_normal()) * 10.0 ** gen.uniform(-6.0, 1.0)
        f = problem.eval_full(x)
        x_shift = x.copy()
        x_shift[i] += t
        f_shift = problem.eval_full(x_shift)
        bound = l[i] * abs(t)
        gap = abs(f_shift[i] - f[i]) - bound
        assert gap <= slack * max(1.0, bound), (i, t, gap)
        worst = max(worst, gap)
    return worst


def check_monotone(problem, pairs=1000, seed=0, slack=1e-9):
    """<F(a) - F(b), a - b> >= 0 over random pairs; returns the worst margin."""
    gen = seeded_generator(seed, STREAM_SOLVER)
    n = problem.dim
    worst = np.inf
    for _ in range(pairs):
        a = gen.standard_normal(n) * 10.0 ** gen.uniform(-1.0, 1.0)
        b = gen.standard_normal(n) * 10.0 ** gen.uniform(-1.0, 1.0)
        inner = float(np.dot(problem.eval_full(a) - problem.eval_full(b), a - b))
        floor = -slack * (1.0 + float(np.dot(a - b, a - b)))
        assert inner >= floor, (inner, floor)
        worst = min(worst, inner)
    return worst


def check_global_lipschitz(problem, bound, sharp, pairs=500, seed=0, slack=1e-9):
    """||F(a) - F(b)|| <= bound * ||a - b|| over sampled pairs; returns the largest ratio.

    Half the pairs are random points at varied scales. The other half pair
    ``base`` with ``base + t * direction``, ``(base, direction) = sharp``
    and ``t`` from ``1e-3`` to 1, so a direction where the map is steepest
    shows how tight ``bound`` is.
    """
    gen = seeded_generator(seed, STREAM_SOLVER)
    n = problem.dim
    base, direction = sharp
    worst = 0.0
    for k in range(pairs):
        if k % 2:
            a = base
            b = base + 10.0 ** gen.uniform(-3.0, 0.0) * direction
        else:
            a = gen.standard_normal(n) * 10.0 ** gen.uniform(-1.0, 1.0)
            b = gen.standard_normal(n) * 10.0 ** gen.uniform(-1.0, 1.0)
        ratio = float(np.linalg.norm(problem.eval_full(a) - problem.eval_full(b))
                      / np.linalg.norm(a - b))
        assert ratio <= bound * (1.0 + slack), (k, ratio, bound)
        worst = max(worst, ratio)
    return worst


def check_logreg_gradient(features, labels, reg=0.1, points=20, seed=0,
                          h=1e-6, rel=1e-5):
    """Central finite differences of the regularized logistic loss match F."""
    X = np.asarray(features, dtype=float)
    y = np.asarray(labels, dtype=float)
    n_samples, n_features = X.shape
    problem = LogRegProblem(X, y, reg=reg)

    def loss(x):
        margins = y * (X @ x)
        return float(np.logaddexp(0.0, -margins).mean() + 0.5 * reg * np.dot(x, x))

    gen = seeded_generator(seed, STREAM_SOLVER)
    worst = 0.0
    for _ in range(points):
        x = gen.standard_normal(n_features)
        grad = problem.eval_full(x)
        fd = np.empty(n_features)
        for j in range(n_features):
            step = np.zeros(n_features)
            step[j] = h
            fd[j] = (loss(x + step) - loss(x - step)) / (2.0 * h)
        scale = float(np.abs(grad).max())
        err = float(np.abs(fd - grad).max()) / scale
        assert err <= rel, err
        worst = max(worst, err)
    return worst


def check_cs_dense_equivalence(problem, points=100, seed=0, atol=1e-11):
    """Structured evaluation equals the assembled dense doubled system."""
    A, b, reg, n = problem.sensing, problem.measurements, problem.reg, problem.n_signal
    B = A.T @ A
    H = np.block([[B, -B], [-B, B]])
    c = np.concatenate([reg - A.T @ b, reg + A.T @ b])

    gen = seeded_generator(seed, STREAM_SOLVER)
    worst = 0.0
    for _ in range(points):
        z = gen.standard_normal(2 * n) * 3.0
        dense = np.minimum(z, H @ z + c)
        gap = float(np.abs(problem.eval_full(z) - dense).max())
        assert gap <= atol, gap
        worst = max(worst, gap)
    return worst


def check_watchdog_dominance(problem, config=None):
    """The probed coordinate dominates the challenger at every iteration."""
    cfg = config if config is not None else SolverConfig()
    iterations = []

    def callback(obs):
        assert obs.challenger_value is not None
        assert obs.reference_value is not None
        assert abs(obs.selected_value) >= abs(obs.challenger_value)
        assert abs(obs.selected_value) >= abs(obs.reference_value)
        assert obs.reset == (abs(obs.challenger_value) > abs(obs.reference_value))
        if obs.reset:
            assert obs.selected_index == obs.challenger_index
            assert obs.selected_value == obs.challenger_value
        else:
            assert obs.selected_value == obs.reference_value
        iterations.append(obs.k)

    result = run_solver(problem, "wmax", cfg, callback=callback)
    assert iterations, "instrumented run recorded no iterations"
    assert iterations == list(range(result.iterations))
    return result
