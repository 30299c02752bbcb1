"""The ``qp-small`` workload: a fixed stream of random strictly convex QPs
of the criterion-1 shape, each solved and differentiated once per pass.

Set-up is instance generation, timed before every pass.  Whole passes over
the stream run until ``seconds`` have passed, at least three.  A pass is
timed as the sum over instances of each instance's median time across
passes, so a burst of contention moves one pass's sample, not the result.
Each instance's first solve is checked: OPTIMAL with a KKT residual within
tolerance, and ``grad_q`` equal to a dense active-set KKT solve done here
with numpy.
"""
from __future__ import annotations

import time

import numpy as np

from dflsched import qp

from . import CheckFailed
from .accounting import counting_failures
from .layers import OBSERVERS, QP_TARGETS, span_metrics
from .stats import median, timing_summary
from .trace import Tracer

NUM_INSTANCES = 150
MIN_PASSES = 3
TOLERANCE = 1e-8
GRAD_RTOL = 1e-6


def generate(seed: int, count: int = NUM_INSTANCES) -> list:
    """(problem, loss gradient) pairs: 4-30 variables, 0-3 equalities, 2-8
    inequalities, Q = M'M + I, feasible by construction."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(4, 31))
        m_eq = int(rng.integers(0, 4))
        m_in = int(rng.integers(2, 9))
        M = rng.normal(size=(n, n))
        u0 = rng.normal(size=n)
        A = rng.normal(size=(m_eq, n)) if m_eq else None
        G = rng.normal(size=(m_in, n))
        problem = qp.QpProblem(
            n, M.T @ M + np.eye(n), rng.normal(size=n), A,
            A @ u0 if m_eq else None, G,
            G @ u0 + rng.uniform(0.01, 0.6, size=m_in))
        out.append((problem, rng.normal(size=n)))
    return out


def dense_grad_q(problem: qp.QpProblem, solution: qp.QpSolution,
                 grad_primal: np.ndarray) -> np.ndarray:
    """grad_q from the KKT system restricted to the constraints whose dual
    exceeds their slack, solved densely (least squares, so dependent active
    rows are allowed)."""
    n = problem.num_vars
    slack = problem.h - problem.G @ solution.primal
    active = solution.dual_in > slack
    C = np.vstack([problem.A.toarray(), problem.G.toarray()[active]])
    m = C.shape[0]
    K = np.block([[problem.Q.toarray(), C.T], [C, np.zeros((m, m))]])
    rhs = np.concatenate([grad_primal, np.zeros(m)])
    v = np.linalg.lstsq(K, rhs, rcond=None)[0]
    return -v[:n]


def check(problem, solution, sens, grad_primal, index: int) -> None:
    if solution.kkt_residual > TOLERANCE:
        raise CheckFailed(f"instance {index}: kkt residual "
                          f"{solution.kkt_residual:.2e} > {TOLERANCE:.0e}")
    want = dense_grad_q(problem, solution, grad_primal)
    err = float(np.abs(sens.grad_q - want).max())
    if err > GRAD_RTOL * max(1.0, float(np.abs(want).max())):
        raise CheckFailed(f"instance {index}: grad_q differs from the dense "
                          f"KKT solve by {err:.2e}")


def run(seed: int, seconds: float, trace: bool) -> dict:
    tracer = Tracer()
    setup_times = []
    op_s = [[] for _ in range(NUM_INSTANCES)]
    pair_ms, solve_ms = [], []
    with counting_failures() as failures, \
            tracer.rebind(QP_TARGETS, observers=OBSERVERS):
        start = time.perf_counter()
        passes = 0
        while passes < MIN_PASSES or time.perf_counter() - start < seconds:
            # set-up is timed before every pass, not back to back, so its
            # median spans the run instead of one stretch of machine speed
            t0 = time.perf_counter()
            instances = generate(seed)
            setup_times.append(time.perf_counter() - t0)
            for i, (problem, g) in enumerate(instances):
                solution = qp.solve(problem)
                if solution.status != qp.QpStatus.OPTIMAL:
                    raise CheckFailed(f"instance {i}: status {solution.status.value}")
                sens = qp.backward(problem, solution, g)
                s_solve, s_back = tracer.spans[-2:]
                op = s_solve.duration + s_back.duration
                op_s[i].append(op)
                pair_ms.append(1000.0 * op)
                solve_ms.append(1000.0 * s_solve.duration)
                if passes == 0:
                    check(problem, solution, sens, g, i)
            passes += 1
        wall = time.perf_counter() - start

    ops = len(pair_ms)
    solves = tracer.named("qp.solve")
    not_optimal = sum(s.attrs["status"] != "optimal" for s in solves)
    if len(solves) != ops or len(tracer.named("qp.backward")) != ops:
        raise CheckFailed(f"{len(solves)} qp.solve spans for {ops} operations")
    setup_s = median(setup_times)
    epoch_s = sum(median(t) for t in op_s)
    metrics = {
        "setup_s": setup_s,
        "epoch_s": epoch_s,
        "eval_scenario_ms": median(solve_ms),
        "run_s": setup_s + epoch_s,
        "qp_pair_ms": median(pair_ms),
        "solve_ok_frac": 1.0 - not_optimal / ops,
    }
    layer = {}
    if trace:
        layer = span_metrics(tracer.spans)
        layer.update({
            "qp.backward.degenerate_warnings": float(failures.degenerate_warnings),
            "solve_fail_frac": not_optimal / ops,
            "trace.epoch_s": epoch_s,
            "trace.wall_s": wall,
            "trace.remainder_s": wall - sum(s.duration for s in tracer.spans),
        })
    return {
        "metrics": metrics,
        "layer": layer,
        "attempted": ops,
        "failed": not_optimal,
        "tracer": tracer,
        "detail": {
            "instances": len(instances), "passes": passes,
            "setup_times_s": setup_times,
            "pass_s": [sum(t[p] for t in op_s) for p in range(passes)],
            "qp_pair_ms": timing_summary(pair_ms),
            "solve_ms": timing_summary(solve_ms),
            "failures": {"not_optimal": not_optimal,
                         "degenerate_warnings": failures.degenerate_warnings,
                         "other_warnings": dict(failures.other_warnings)},
        },
    }
