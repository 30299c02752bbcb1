"""Which public functions the traced run wraps, and the per-layer metrics
computed from their spans."""
from __future__ import annotations

from dflsched import cli, learning, plant, qp, rc, reporting, scenarios, scheduler

from .stats import median
from .trace import Span, has_ancestor, self_times

# span name -> (module, attribute); rebound in every module that holds it
QP_TARGETS = {
    "qp.solve": (qp, "solve"),
    "qp.backward": (qp, "backward"),
}

# the untraced DFL run also marks where training and each evaluation end
OUTSIDE_TARGETS = {
    **QP_TARGETS,
    "learning.dfl_train": (learning, "dfl_train"),
    "reporting.evaluate_model": (reporting, "evaluate_model"),
}

TRACED_TARGETS = {
    **OUTSIDE_TARGETS,
    "qp.backward_through_map": (qp, "backward_through_map"),
    "rc.coefficient_jacobian": (rc, "coefficient_jacobian"),
    "rc.save_checkpoint": (rc, "save_checkpoint"),
    "rc.load_checkpoint": (rc, "load_checkpoint"),
    "scheduler.solve_schedule": (scheduler, "solve_schedule"),
    "scheduler.assemble": (scheduler, "assemble"),
    "scheduler.extract": (scheduler, "extract"),
    "scheduler.coefficient_map": (scheduler, "coefficient_map"),
    "plant.simulate_day": (plant, "simulate_day"),
    "plant.historical_rollout": (plant, "historical_rollout"),
    "plant.warmup_initial_tau": (plant, "warmup_initial_tau"),
    "scenarios.synthesize_year": (scenarios, "synthesize_year"),
    "scenarios.write_weather_csv": (scenarios, "write_weather_csv"),
    "scenarios.read_weather_csv": (scenarios, "read_weather_csv"),
    "scenarios.kmedoid_cluster": (scenarios, "kmedoid_cluster"),
    "scenarios.save_bundle": (scenarios, "save_bundle"),
    "scenarios.load_bundle": (scenarios, "load_bundle"),
    "learning.pretrain": (learning, "pretrain"),
    "learning.inject_noise": (learning, "inject_noise"),
    "learning.evaluate_scenarios": (learning, "evaluate_scenarios"),
    "learning.summarize": (learning, "summarize"),
    "learning.hierarchical_loss": (learning, "hierarchical_loss"),
    "learning.loss_gradient_wrt_expected": (learning, "loss_gradient_wrt_expected"),
    "learning.adam_step": (learning, "adam_step"),
    "reporting.compare": (reporting, "compare"),
    "reporting.write_verdict": (reporting, "write_verdict"),
    "reporting.emit_training_curves": (reporting, "emit_training_curves"),
    "cli.write_transitions_csv": (cli, "write_transitions_csv"),
    "cli.read_transitions_csv": (cli, "read_transitions_csv"),
    "cli.write_stage_manifest": (cli, "write_stage_manifest"),
}


def _observe_solve(span: Span, result, args, kwargs) -> None:
    problem = args[0] if args else kwargs["problem"]
    span.attrs = {"status": result.status.value, "iters": result.iterations,
                  "kkt": result.kkt_residual, "n": problem.num_vars,
                  "m_eq": problem.num_eq, "m_in": problem.num_in}


def _observe_assemble(span: Span, result, args, kwargs) -> None:
    problem = result[0]
    span.attrs = {"n": problem.num_vars, "m_eq": problem.num_eq,
                  "m_in": problem.num_in}


def _observe_evaluate(span: Span, result, args, kwargs) -> None:
    span.attrs = {"failed": result.num_failed}


OBSERVERS = {
    "qp.solve": _observe_solve,
    "scheduler.assemble": _observe_assemble,
    "reporting.evaluate_model": _observe_evaluate,
}

DFL_STAGES = ("synth_weather", "cluster", "baseline_rollout", "pretrain",
              "train_dfl", "compare_test", "stress_hot_year")

# (span name, statistics, only spans under this ancestor)
LAYER_STATS = (
    ("qp.solve", ("calls", "self_ms_p50", "self_s"), None),
    ("qp.backward", ("calls", "self_ms_p50", "self_s"), None),
    ("qp.backward_through_map", ("self_ms_p50", "self_s"), None),
    ("scheduler.coefficient_map", ("self_ms_p50", "self_s"), None),
    ("rc.coefficient_jacobian", ("self_ms_p50",), None),
    ("scheduler.assemble", ("self_ms_p50", "self_s"), None),
    ("scheduler.extract", ("self_ms_p50",), None),
    ("scheduler.solve_schedule", ("self_ms_p50",), None),
    ("plant.simulate_day", ("calls", "self_ms_p50", "self_s"), None),
    ("plant.historical_rollout", ("self_s",), None),
    ("plant.warmup_initial_tau", ("calls", "self_ms_p50", "self_s"), None),
    ("cli.write_transitions_csv", ("self_s",), None),
    ("cli.read_transitions_csv", ("self_s",), None),
    ("learning.pretrain", ("self_s",), None),
    ("scenarios.kmedoid_cluster", ("self_s",), None),
    ("scenarios.synthesize_year", ("self_ms_p50",), None),
    ("learning.evaluate_scenarios", ("s",), None),
    ("learning.loss_gradient_wrt_expected", ("self_ms_p50",), None),
    # pretrain also steps Adam, on minibatches; only the DFL steps count here
    ("learning.adam_step", ("self_ms_p50",), "learning.dfl_train"),
    ("learning.summarize", ("self_ms_p50",), "learning.dfl_train"),
    ("learning.dfl_train", ("self_s",), None),
    ("reporting.evaluate_model", ("calls", "s"), None),
    ("scenarios.load_bundle", ("self_s",), None),
) + tuple((f"cli.stage_{name}", ("s",), None) for name in DFL_STAGES)

# counts and ratios that are not span statistics; listed for the metric set
EXTRA_LAYER_METRICS = (
    ("qp.solve.iters_mean", "count"), ("qp.solve.iters_max", "count"),
    ("qp.solve.not_optimal", "count"), ("qp.solve.kkt_residual_max", "ratio"),
    ("qp.backward.degenerate_warnings", "count"),
    ("scheduler.qp_vars", "count"), ("scheduler.qp_eq_rows", "count"),
    ("scheduler.qp_in_rows", "count"),
    ("learning.skipped_samples", "count"), ("learning.val_dropped", "count"),
    ("reporting.evaluate_model.failed", "count"),
    ("solve_fail_frac", "ratio"),
    ("quality.test_hier_ratio", "ratio"), ("quality.test_cost_ratio", "ratio"),
    ("trace.wall_s", "s"), ("trace.remainder_s", "s"), ("trace.epoch_s", "s"),
)

_UNITS = {"calls": "count", "self_ms_p50": "ms", "self_s": "s", "s": "s"}


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = [(f"{span}.{stat}", _UNITS[stat])
             for span, stats, _ in LAYER_STATS for stat in stats]
    return names + list(EXTRA_LAYER_METRICS)


def span_metrics(spans: list[Span]) -> dict[str, float]:
    """The LAYER_STATS of a traced run, plus the QP counts its spans carry.
    Layers without spans report zero."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
    out: dict[str, float] = {}
    for name, stats, within in LAYER_STATS:
        idx = by_name.get(name, [])
        if within:
            idx = [i for i in idx if has_ancestor(spans, i, within)]
        for stat in stats:
            if stat == "calls":
                value = float(len(idx))
            elif stat == "self_ms_p50":
                value = 1000.0 * median(selfs[i] for i in idx)
            elif stat == "self_s":
                value = sum(selfs[i] for i in idx)
            else:
                value = sum(spans[i].duration for i in idx)
            out[f"{name}.{stat}"] = value

    solves = [spans[i].attrs for i in by_name.get("qp.solve", [])]
    iters = [a["iters"] for a in solves]
    out["qp.solve.iters_mean"] = sum(iters) / len(iters) if iters else 0.0
    out["qp.solve.iters_max"] = float(max(iters, default=0))
    out["qp.solve.not_optimal"] = float(sum(a["status"] != qp.QpStatus.OPTIMAL.value
                                            for a in solves))
    out["qp.solve.kkt_residual_max"] = max((a["kkt"] for a in solves), default=0.0)
    sizes = [spans[i].attrs for i in by_name.get("scheduler.assemble", [])]
    last = sizes[-1] if sizes else {"n": 0, "m_eq": 0, "m_in": 0}
    out["scheduler.qp_vars"] = float(last["n"])
    out["scheduler.qp_eq_rows"] = float(last["m_eq"])
    out["scheduler.qp_in_rows"] = float(last["m_in"])
    out["reporting.evaluate_model.failed"] = float(sum(
        spans[i].attrs["failed"] for i in by_name.get("reporting.evaluate_model", [])))
    roots = [s for s in spans if s.parent < 0]
    wall = (roots[-1].end - roots[0].start) if roots else 0.0
    out["trace.wall_s"] = wall
    out["trace.remainder_s"] = wall - sum(selfs)
    return out
