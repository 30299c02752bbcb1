"""Metric reports, model comparison and plot-data files."""
import json

import numpy as np
import pytest

from dflsched import learning, plant, rc, reporting, scheduler
from dflsched.plant import SimulationTrace
from dflsched.scenarios import DayScenario


def make_setup(rng, z=2, horizon=4):
    topo = rc.default_topology(z)
    theta = rc.ThetaParams(np.eye(z), np.full(z, 0.9), np.full(z, 0.9),
                           np.full(z, 4.0), np.full(z, 2.0))
    cfg = scheduler.ScheduleConfig(
        topology=topo,
        comfort_target=np.full((horizon, z), 21.0),
        comfort_weight=np.full((horizon, z), 2.0),
        zone_cap_h=np.full((horizon, z), 30.0),
        zone_cap_c=np.full((horizon, z), 30.0),
        floor_cap_h=np.full((horizon, 1), 60.0),
        floor_cap_c=np.full((horizon, 1), 60.0),
        line_capacity=200.0)
    tariff = scheduler.default_tariff(horizon)
    scens = [DayScenario(rng.uniform(-5, 5, horizon), np.full(z, 20.0), i, 0.5)
             for i in range(2)]
    return theta, cfg, tariff, scens


class TestEvaluateModel:
    def test_self_consistent_stub_gives_zero_errors(self, rng):
        theta, cfg, tariff, scens = make_setup(rng)
        # the hidden theta equals the model's: the plant replays the schedule
        report = reporting.evaluate_model(theta, scens, plant.ExactRcPlant(theta), tariff,
                                          cfg, split="test")
        assert report.mae == pytest.approx(0.0, abs=1e-7)
        assert report.mse == pytest.approx(0.0, abs=1e-10)
        assert report.cost_error == pytest.approx(0.0, abs=1e-6)
        assert report.num_scenarios == 2
        assert report.num_failed == 0

    def test_cost_error_identity_enforced(self):
        with pytest.raises(ValueError):
            reporting.MetricsReport("test", 1, 1, 1, 0, 1, 10.0, 20.0, 5.0, 1)

    def test_hand_built_single_zone_spreadsheet(self, rng):
        """Metrics match a direct re-accumulation for a known plant response."""
        theta, cfg, tariff, _ = make_setup(rng, z=1)
        scen = DayScenario(np.full(4, 0.0), np.array([20.0]), 0, 1.0)

        class OffsetPlant:
            def __init__(self):
                self.inner = plant.ExactRcPlant(theta)

            def simulate(self, setpoints, ambient, seed):
                trace = self.inner.simulate(setpoints, ambient, seed)
                bumped = trace.p_hvac_obs + 0.5  # constant 0.5 kW extra, heating
                return SimulationTrace(trace.tau_obs, bumped, bumped.sum(axis=1),
                                       trace.p_heat_obs + 0.5, trace.p_cool_obs)

        report = reporting.evaluate_model(theta, [scen], OffsetPlant(), tariff,
                                          cfg, split="test")
        assert report.err_mean == pytest.approx(-0.5, abs=1e-9)
        assert report.mae == pytest.approx(0.5, abs=1e-9)
        assert report.mse == pytest.approx(0.25, abs=1e-9)
        assert report.err_std == pytest.approx(0.0, abs=1e-6)
        # spreadsheet cost recomputation
        result = scheduler.solve_schedule(theta, scen, tariff, cfg)
        observed_import = result.p_import + 0.5
        expost = tariff.cost_of(observed_import)
        assert report.expost_cost == pytest.approx(expost, abs=1e-8)
        assert report.cost_error == pytest.approx(expost - result.expected_cost,
                                                  abs=1e-8)


class TestCompare:
    def base_report(self, **overrides):
        fields = dict(split="test", hier_loss=100.0, mae=2.0, mse=8.0,
                      err_mean=-1.0, err_std=2.0, expected_cost=80.0,
                      expost_cost=400.0, cost_error=320.0,
                      num_scenarios=10)
        fields.update(overrides)
        return reporting.MetricsReport(**fields)

    def test_identical_reports_no_flags(self):
        a = self.base_report()
        b = self.base_report()
        out = reporting.compare(a, b)
        assert out["flags"] == {"dfl_hier_loss_better": False,
                                "dfl_cost_error_better": False,
                                "dfl_expost_cost_better": False}
        assert out["table"]["hier_loss"]["ratio"] == pytest.approx(1.0)

    def test_paper_shaped_improvement_raises_flags(self):
        # two-stage baseline vs decision-focused, test-column shape
        ito = self.base_report(hier_loss=652.0, expected_cost=85.0,
                               expost_cost=474.0, cost_error=389.0)
        dfl = self.base_report(hier_loss=253.0, expected_cost=452.0,
                               expost_cost=468.0, cost_error=16.0)
        out = reporting.compare(ito, dfl)
        assert out["flags"] == {"dfl_hier_loss_better": True,
                                "dfl_cost_error_better": True,
                                "dfl_expost_cost_better": True}
        assert out["table"]["hier_loss"]["ratio"] == pytest.approx(253 / 652)

    def test_verdict_file(self, tmp_path):
        out = reporting.compare(self.base_report(), self.base_report(hier_loss=50.0))
        path = tmp_path / "verdict.json"
        reporting.write_verdict(out, path)
        doc = json.loads(path.read_text())
        assert doc["flags"]["dfl_hier_loss_better"] is True


class TestPlotData:
    def test_empty_log_header_only(self, tmp_path):
        log = learning.TrainingLog()
        files = reporting.emit_training_curves(log, tmp_path)
        for path in files:
            lines = path.read_text().strip().splitlines()
            assert len(lines) == 1
            assert lines[0].startswith("epoch,")

    def test_epoch_rows_per_split(self, tmp_path):
        log = learning.TrainingLog()
        for e in range(44):
            for split in ("train", "val"):
                log.records.append(learning.EpochRecord(
                    e, split, 10.0 - e * 0.1, 1, 1, 0, 1, 10, 11))
        files = reporting.emit_training_curves(log, tmp_path)
        for path in files:
            rows = path.read_text().strip().splitlines()
            assert len(rows) == 1 + 44
