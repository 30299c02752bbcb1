"""Metric suites over scenario splits, model comparison and plot-data files.

Everything lands as CSV/JSON under ``{run_id}/{split}/``; a verdict JSON
summarizes the comparison flags for CI consumption.  Wall times stay out of
the deterministic metric files; the CLI keeps them in ``timings.json``.
"""
from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from . import learning
from .learning import TrainingLog, summarize
from .rc import ThetaParams
from .scenarios import DayScenario
from .scheduler import ScheduleConfig, Tariff


@dataclass
class MetricsReport:
    split: str
    hier_loss: float
    mae: float
    mse: float
    err_mean: float
    err_std: float
    expected_cost: float
    expost_cost: float
    cost_error: float
    num_scenarios: int
    num_failed: int = 0
    unweighted: dict = field(default_factory=dict)

    def __post_init__(self):
        gap = abs(self.cost_error - (self.expost_cost - self.expected_cost))
        if gap > 1e-9 * max(1.0, abs(self.expost_cost)):
            raise ValueError("cost_error must equal expost_cost - expected_cost")

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=1, sort_keys=True))


def evaluate_model(theta: ThetaParams, scenarios: list[DayScenario], plant,
                   tariff: Tariff, config: ScheduleConfig, split: str = "test",
                   base_seed: int = 0) -> MetricsReport:
    """Solve and simulate every scenario; aggregate metrics with cluster
    weights (an unweighted aggregate is attached for reference).  Scenarios
    whose QP fails are dropped and counted; a partial report is flagged by
    ``num_failed``."""
    if not scenarios:
        raise ValueError("scenarios must be nonempty")
    pairs, failed = learning.evaluate_scenarios(theta, scenarios, plant, tariff,
                                                config, base_seed)
    stats = summarize(pairs, tariff, config.topology)
    uniform = [(DayScenario(s.ambient, s.initial_tau, s.label, 1.0 / len(pairs), s.day_index), r, t)
               for s, r, t in pairs]
    unweighted = summarize(uniform, tariff, config.topology)
    return MetricsReport(
        split=split,
        **stats,
        cost_error=stats["expost_cost"] - stats["expected_cost"],
        num_scenarios=len(pairs),
        num_failed=len(failed),
        unweighted=unweighted,
    )


@dataclass(frozen=True)
class ComparisonFlags:
    """Strictly-better comparisons of the trained model against the
    two-stage baseline."""

    dfl_hier_loss_better: bool
    dfl_cost_error_better: bool
    dfl_expost_cost_better: bool


def compare(report_ito: MetricsReport, report_dfl: MetricsReport) -> dict:
    """Side-by-side table plus verdict flags (all strict inequalities, so
    identical reports raise no flags)."""
    def ratio(a: float, b: float) -> float:
        return a / b if b not in (0, 0.0) else float("inf") if a else 1.0

    metrics = [*learning.METRIC_COLUMNS, "cost_error"]
    table = {
        m: {
            "ito": getattr(report_ito, m),
            "dfl": getattr(report_dfl, m),
            "ratio": ratio(getattr(report_dfl, m), getattr(report_ito, m)),
        }
        for m in metrics
    }
    flags = ComparisonFlags(
        dfl_hier_loss_better=bool(report_dfl.hier_loss < report_ito.hier_loss),
        dfl_cost_error_better=bool(abs(report_dfl.cost_error) < abs(report_ito.cost_error)),
        dfl_expost_cost_better=bool(report_dfl.expost_cost < report_ito.expost_cost),
    )
    return {"table": table, "flags": asdict(flags),
            "splits": {"ito": report_ito.split, "dfl": report_dfl.split}}


def write_verdict(comparison: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(comparison, indent=1, sort_keys=True))


# ---------------------------------------------------------------------------
# plot-data emission


def emit_training_curves(training_log: TrainingLog, out_dir: str | Path) -> list[Path]:
    """One CSV per split with the per-epoch series behind the convergence
    figures (loss, error statistics, expected vs ex-post cost)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    splits = sorted({r.split for r in training_log.records}) or ["train", "val"]
    for split in splits:
        path = out_dir / f"curves_{split}.csv"
        with open(path, "w", newline="") as fp:
            writer = csv.writer(fp)
            writer.writerow(["epoch", *learning.METRIC_COLUMNS])
            for r in training_log.rows(split):
                writer.writerow([r.epoch, *r.metric_cells()])
        written.append(path)
    return written
