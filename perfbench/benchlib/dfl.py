"""The ``dfl-z5`` and ``dfl-z15`` workloads: the stages of ``full-run`` at a
fixed, reduced epoch count, called in the order ``full-run`` calls them.

Set-up (synth-weather, cluster, baseline-rollout, pretrain) runs
``setups`` times into separate directories.  In the first of them train-dfl
runs once, then evaluation rounds (compare-test, stress-hot-year) repeat
until ``seconds`` have passed since training started, at least
MIN_EVAL_ROUNDS times: on a machine whose speed drifts over seconds, a
second round samples the evaluation in another stretch of time.  Every
set-up and round must reproduce the contract artifacts byte for byte.
"""
from __future__ import annotations

import json
import math
import shutil
import time
from pathlib import Path

from dflsched import cli

from . import CheckFailed
from .accounting import counting_failures
from .layers import OBSERVERS, OUTSIDE_TARGETS, TRACED_TARGETS, span_metrics
from .stats import median, timing_summary
from .trace import Tracer, unit_times


MIN_EVAL_ROUNDS = 2

SETUP_STAGES = (
    ("synth_weather", cli.stage_synth_weather),
    ("cluster", cli.stage_cluster),
    ("baseline_rollout", cli.stage_baseline_rollout),
    ("pretrain", cli.stage_pretrain),
)
TRAIN_STAGES = (("train_dfl", cli.stage_train_dfl),)
EVAL_STAGES = (
    ("compare_test", lambda cfg, out: cli.stage_compare(cfg, out, "test")),
    ("stress_hot_year", lambda cfg, out: cli.stage_compare(cfg, out, "hot-year")),
)
SPLIT_DIRS = ("test", "hot_year")


def expected_counts(k: int, epochs: int, setups: int, rounds: int,
                    skipped: int, val_dropped: int, eval_failed: int) -> dict:
    """Span counts a run implies, with k scenarios per split.  Training
    solves k samples and k validation scenarios per epoch; an evaluation
    round evaluates two models on two splits.  A skipped sample has no
    backward and no plant run, a dropped or failed scenario no plant run;
    ``eval_failed`` is summed over rounds."""
    solves = 2 * k * epochs + 4 * k * rounds
    return {
        "qp.solve": solves,
        "qp.backward": k * epochs - skipped,
        "plant.simulate_day": solves - skipped - val_dropped - eval_failed,
        "plant.warmup_initial_tau": setups * 4 * k,
    }


def _finite_numbers(doc) -> bool:
    if isinstance(doc, bool) or doc is None or isinstance(doc, str):
        return True
    if isinstance(doc, (int, float)):
        return math.isfinite(doc)
    if isinstance(doc, dict):
        return all(_finite_numbers(v) for v in doc.values())
    if isinstance(doc, list):
        return all(_finite_numbers(v) for v in doc)
    return False


def _load_finite(path: Path):
    if not path.exists():
        raise CheckFailed(f"missing output {path.name} in {path.parent.name}")
    doc = json.loads(path.read_text())
    if not _finite_numbers(doc):
        raise CheckFailed(f"non-finite value in {path}")
    return doc


def contract_artifacts(cfg: dict, out: Path) -> list[Path]:
    run_dir = out / cli.run_id_of(cfg)
    paths = [out / "scenarios.json", out / "theta_ito.json",
             out / "theta_dfl.json", out / "training_log.csv"]
    for split in SPLIT_DIRS:
        paths += [run_dir / split / f"metrics_{m}.json" for m in ("ito", "dfl")]
        paths.append(run_dir / split / "comparison.json")
    return paths


def check_training(out: Path, epochs: int) -> int:
    """Output checks of train-dfl; returns the skipped-sample count."""
    with open(out / "training_log.csv") as fp:
        rows = [tuple(line.split(",")[:2]) for line in fp.read().splitlines()[1:]]
    want = sorted((str(e), s) for e in range(epochs) for s in ("train", "val"))
    if sorted(rows) != want:
        raise CheckFailed(f"training_log.csv holds {rows}, want every epoch "
                          f"of {epochs} for both splits")
    _load_finite(out / "theta_dfl.json")
    return int(json.loads((out / "training_sidecar.json").read_text())["skipped_samples"])


def check_evaluation(cfg: dict, out: Path) -> dict:
    """Output checks of one evaluation round; returns its failed-scenario
    count and the test-split quality ratios."""
    run_dir = out / cli.run_id_of(cfg)
    metrics = {}
    for split in SPLIT_DIRS:
        for model in ("ito", "dfl"):
            metrics[split, model] = _load_finite(run_dir / split / f"metrics_{model}.json")
        _load_finite(run_dir / split / "comparison.json")
    ito, dfl = metrics["test", "ito"], metrics["test", "dfl"]
    return {
        "eval_failed": sum(int(m["num_failed"]) for m in metrics.values()),
        "test_hier_ratio": dfl["hier_loss"] / ito["hier_loss"],
        "test_cost_ratio": abs(dfl["cost_error"]) / abs(ito["cost_error"]),
    }


def _run_stages(tracer: Tracer, stages, cfg: dict, out: Path) -> dict:
    times = {}
    for name, fn in stages:
        with tracer.span(f"cli.stage_{name}") as span:
            fn(cfg, out)
        times[name] = span.duration
    return times


def run(zones: int, epochs: int, setups: int, seed: int, seconds: float,
        trace: bool, work: Path) -> dict:
    cfg = cli.apply_overrides(cli.load_config("default"), seed, zones, epochs)
    k = cfg["clustering"]["k"]
    tracer = Tracer()
    targets = TRACED_TARGETS if trace else OUTSIDE_TARGETS
    digests: dict[str, set] = {}
    setup_times, rounds, round_checks = [], [], []
    with counting_failures() as failures, \
            tracer.rebind(targets, observers=OBSERVERS):
        for i in range(setups):
            out = work / f"setup{i}"
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            setup_times.append(sum(_run_stages(tracer, SETUP_STAGES, cfg, out).values()))
        out = work / "setup0"
        start = time.perf_counter()
        train_s = _run_stages(tracer, TRAIN_STAGES, cfg, out)["train_dfl"]
        skipped = check_training(out, epochs)
        while len(rounds) < MIN_EVAL_ROUNDS or time.perf_counter() - start < seconds:
            rounds.append(_run_stages(tracer, EVAL_STAGES, cfg, out))
            round_checks.append(check_evaluation(cfg, out))
            for p in contract_artifacts(cfg, out):
                digests.setdefault(str(p.relative_to(out)), set()).add(cli.sha256_file(p))
        for i in range(1, setups):
            for name in ("scenarios.json", "theta_ito.json"):
                digests[name].add(cli.sha256_file(work / f"setup{i}" / name))

    differing = sorted(name for name, d in digests.items() if len(d) != 1)
    if differing:
        raise CheckFailed(f"artifacts differ between runs of one invocation: {differing}")

    eval_failed = sum(c["eval_failed"] for c in round_checks)
    if failures.skipped_logged != skipped:
        raise CheckFailed(f"sidecar reports {skipped} skipped samples, the "
                          f"log {failures.skipped_logged}")
    outside_failures = skipped + failures.val_dropped + eval_failed

    solves = tracer.named("qp.solve")
    not_optimal = sum(s.attrs["status"] != "optimal" for s in solves)
    if not_optimal != outside_failures:
        raise CheckFailed(f"{not_optimal} non-optimal solves, but artifacts and "
                          f"logs account for {outside_failures}")
    counts = expected_counts(k, epochs, setups, len(rounds), skipped,
                             failures.val_dropped, eval_failed)
    if len(solves) != counts["qp.solve"]:
        raise CheckFailed(f"{len(solves)} qp.solve calls, expected {counts['qp.solve']}")

    # one training sample's QP work: its solve plus the backward after it
    pairs, last_solve = [], None
    for s in tracer.spans:
        if s.name == "qp.solve":
            last_solve = s
        elif s.name == "qp.backward":
            pairs.append(1000.0 * (last_solve.duration + s.duration))

    # IPM iterations per stage, to tell harder inputs from a slower program
    iters_by_stage: dict[str, int] = {}
    for s in solves:
        root = s
        while root.parent >= 0:
            root = tracer.spans[root.parent]
        iters_by_stage[root.name] = iters_by_stage.get(root.name, 0) + s.attrs["iters"]

    # medians over epochs and over scenario evaluations, so that a burst of
    # contention moves one unit, not the whole metric
    epoch_units = unit_times(tracer.spans, "learning.dfl_train", "qp.solve", 2 * k)
    eval_units = unit_times(tracer.spans, "reporting.evaluate_model", "qp.solve", 1)
    setup_s = median(setup_times)
    metrics = {
        "setup_s": setup_s,
        "epoch_s": median(epoch_units),
        "eval_scenario_ms": 1000.0 * median(eval_units),
        "run_s": setup_s + train_s + median(sum(r.values()) for r in rounds),
        "qp_pair_ms": median(pairs),
        "solve_ok_frac": 1.0 - outside_failures / len(solves),
    }
    quality = round_checks[-1]
    layer = {}
    if trace:
        for name, want in counts.items():
            got = len(tracer.named(name))
            if got != want:
                raise CheckFailed(f"traced {got} {name} spans, the workload implies {want}")
        layer = span_metrics(tracer.spans)
        layer.update({
            "qp.backward.degenerate_warnings": float(failures.degenerate_warnings),
            "learning.skipped_samples": float(skipped),
            "learning.val_dropped": float(failures.val_dropped),
            "solve_fail_frac": outside_failures / len(solves),
            "quality.test_hier_ratio": quality["test_hier_ratio"],
            "quality.test_cost_ratio": quality["test_cost_ratio"],
            "trace.epoch_s": metrics["epoch_s"],
        })
    return {
        "metrics": metrics,
        "layer": layer,
        "attempted": len(solves),
        "failed": outside_failures,
        "tracer": tracer,
        "detail": {
            "epochs": epochs, "setups": setups, "eval_rounds": len(rounds),
            "setup_times_s": setup_times, "train_s": train_s, "round_stage_s": rounds,
            "qp_pair_ms": timing_summary(pairs),
            "qp_iters_by_stage": iters_by_stage,
            "epoch_s": timing_summary(epoch_units),
            "eval_scenario_s": timing_summary(eval_units),
            "failures": {"skipped_samples": skipped,
                         "val_dropped": failures.val_dropped,
                         "eval_failed": eval_failed,
                         "degenerate_warnings": failures.degenerate_warnings,
                         "other_warnings": dict(failures.other_warnings)},
            "quality": {key: quality[key] for key in ("test_hier_ratio", "test_cost_ratio")},
            "digests": {name: sorted(d)[0] for name, d in sorted(digests.items())},
            "expected_counts": counts,
        },
    }
