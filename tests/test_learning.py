"""Training machinery: Adam, noise injection, the hierarchical loss and its
subgradient, pre-training, and the decision-focused loop."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dflsched import learning, plant, qp, rc, reporting, scheduler
from dflsched.learning import AdamState, TrainConfig, adam_step
from dflsched.scenarios import DayScenario
from conftest import rel_err


def one_floor_topology(z=5):
    return rc.ZoneTopology(z, (tuple(range(z)),))


def flat_tariff(t=1, price=1.0, demand=0.0):
    return scheduler.Tariff(np.full(t, price), demand)


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        state = AdamState.init(np.array([1.0, -2.0]))
        out = adam_step(state, np.zeros(2), lr_t=0.1)
        np.testing.assert_array_equal(out.params, state.params)
        assert out.t == 1

    def test_first_step_closed_form(self):
        g = np.array([0.3, -1.7, 4.0])
        lr = 0.05
        state = AdamState.init(np.zeros(3))
        out = adam_step(state, g, lr_t=lr, eps=1e-8)
        expected = -lr * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(out.params, expected, atol=1e-12)

    def test_non_finite_gradient_skipped(self):
        state = AdamState.init(np.array([1.0]))
        out = adam_step(state, np.array([np.nan]), lr_t=0.1)
        np.testing.assert_array_equal(out.params, [1.0])
        assert out.skipped == 1
        assert out.t == 0

    def test_deterministic_trajectories(self):
        rng = np.random.default_rng(0)
        grads = rng.normal(size=(20, 4))
        runs = []
        for _ in range(2):
            state = AdamState.init(np.ones(4))
            for g in grads:
                state = adam_step(state, g, lr_t=0.01)
            runs.append(state.params)
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_lr_schedule_form(self):
        cfg = TrainConfig(lr=0.001, decay_gamma=0.9, decay_rate=1.0)
        assert cfg.lr_at(0) == pytest.approx(0.001)
        assert cfg.lr_at(9) == pytest.approx(0.001 * (1 / 10) ** 0.9)


class TestInjectNoise:
    def test_huge_snr_is_identity(self, rng):
        theta = rc.default_theta(3, seed=1)
        out = learning.inject_noise(theta, snr=1e30, seed=0)
        np.testing.assert_allclose(out.eta_h, theta.eta_h, rtol=1e-14)
        np.testing.assert_allclose(out.alpha, theta.alpha, rtol=1e-14)

    def test_paper_calibration_std(self):
        # theta_i = 25 at snr 625 gives noise std 1, estimated over 1e5
        # iid draws (one per alpha entry)
        z = 317  # z*z > 1e5
        theta = rc.ThetaParams(np.full((z, z), 25.0), np.ones(z), np.ones(z),
                               np.ones(z), np.ones(z))
        out = learning.inject_noise(theta, snr=625.0, seed=7)
        noise = (out.alpha - theta.alpha).ravel()[:100_000]
        assert abs(noise.std() - 1.0) <= 0.02
        assert abs(noise.mean()) <= 0.02

    def test_positive_fields_stay_positive(self):
        theta = rc.ThetaParams([[1.0]], [1e-3], [1e-3], [1e-3], [1e-3])
        for seed in range(30):
            out = learning.inject_noise(theta, snr=4.0, seed=seed)  # heavy noise
            for v in (out.eta_h, out.eta_c, out.r, out.c):
                assert np.all(v > 0)

    def test_deterministic_per_seed(self):
        theta = rc.default_theta(4, seed=2)
        a = learning.inject_noise(theta, 625.0, seed=5)
        b = learning.inject_noise(theta, 625.0, seed=5)
        np.testing.assert_array_equal(a.alpha, b.alpha)
        np.testing.assert_array_equal(a.c, b.c)
        c = learning.inject_noise(theta, 625.0, seed=6)
        assert not np.array_equal(a.c, c.c)


class TestHierarchicalLoss:
    def test_zero_when_expected_equals_observed(self, rng):
        topo = one_floor_topology()
        powers = rng.uniform(0, 5, size=(4, 5))
        lb = learning.hierarchical_loss(powers, powers, flat_tariff(4), topo)
        assert lb.total == 0.0

    def test_hand_example_single_zone_error(self):
        # one floor of five zones, T=1, lambda=1, one zone off by 1 kW:
        # 15*1 + 5*1 + 1 = 21
        topo = one_floor_topology(5)
        expected = np.zeros((1, 5))
        observed = np.zeros((1, 5))
        expected[0, 2] = 1.0
        lb = learning.hierarchical_loss(expected, observed, flat_tariff(),
                                        topo, w_building=15.0, w_floor=5.0)
        assert lb.total == pytest.approx(21.0)
        assert lb.building_term == pytest.approx(15.0)
        assert lb.floor_term == pytest.approx(5.0)
        assert lb.zone_term == pytest.approx(1.0)

    def test_default_weights_follow_zone_counts(self):
        # 15 zones in 3 floors of 5: w_b = 15, w_f = 5
        topo = rc.default_topology(15)
        expected = np.zeros((1, 15))
        observed = np.zeros((1, 15))
        expected[0, 0] = 1.0
        lb = learning.hierarchical_loss(expected, observed, flat_tariff(), topo)
        assert lb.total == pytest.approx(15.0 + 5.0 + 1.0)

    def test_default_weights_follow_each_floors_zone_count(self):
        # 7 zones in floors of 5 and 2: one unit error in zone 0 and in zone 5
        # costs 7 * 2 at the building, 5 * 1 + 2 * 1 at the floors, 2 at zones
        topo = rc.default_topology(7)
        assert [len(m) for m in topo.floors] == [5, 2]
        expected = np.zeros((1, 7))
        observed = np.zeros((1, 7))
        expected[0, [0, 5]] = 1.0
        lb = learning.hierarchical_loss(expected, observed, flat_tariff(), topo)
        assert lb.floor_term == pytest.approx(7.0)
        assert lb.total == pytest.approx(14.0 + 7.0 + 2.0)
        assert lb.per_step.sum() == pytest.approx(lb.total)

    def test_demand_charge_lands_on_expost_peak_step(self):
        topo = one_floor_topology(2)
        tariff = scheduler.Tariff(np.array([0.5, 0.5, 0.5]), 10.0)
        observed = np.array([[1.0, 1.0], [3.0, 3.0], [1.0, 1.0]])
        expected = observed + 1.0
        lb = learning.hierarchical_loss(expected, observed, tariff, topo)
        # per-step error identical, so the weighted series peaks where the
        # demand charge was added: the observed peak step 1
        assert np.argmax(lb.per_step) == 1

    @settings(max_examples=20, deadline=None)
    @given(scale=st.floats(0.1, 50.0))
    def test_positive_homogeneity(self, scale):
        rng = np.random.default_rng(1)
        topo = one_floor_topology(3)
        observed = rng.uniform(0, 5, size=(4, 3))
        err = rng.normal(size=(4, 3))
        tariff = flat_tariff(4, price=0.7, demand=2.0)
        base = learning.hierarchical_loss(observed + err, observed, tariff, topo)
        scaled = learning.hierarchical_loss(observed + scale * err, observed,
                                            tariff, topo)
        assert scaled.total == pytest.approx(scale * base.total, rel=1e-9)
        assert base.total >= 0


class TestLossGradient:
    def test_zero_at_equality(self, rng):
        topo = one_floor_topology(4)
        powers = rng.uniform(0, 5, size=(3, 4))
        grad = learning.loss_gradient_wrt_expected(powers, powers,
                                                   flat_tariff(3), topo)
        np.testing.assert_array_equal(grad, np.zeros((3, 4)))

    def test_hand_example_slope(self):
        topo = one_floor_topology(5)
        expected = np.zeros((1, 5))
        observed = np.zeros((1, 5))
        expected[0, 2] = 1.0
        grad = learning.loss_gradient_wrt_expected(expected, observed,
                                                   flat_tariff(), topo,
                                                   w_building=15.0, w_floor=5.0)
        assert grad[0, 2] == pytest.approx(21.0)  # all three signs positive
        assert grad[0, 0] == pytest.approx(20.0)  # building + floor only

    def test_unequal_floors_hand_slope(self):
        # floors of 5 and 2: an error in zone 5 moves the building (7), its
        # own floor (2) and itself (1)
        topo = rc.default_topology(7)
        expected = np.zeros((1, 7))
        observed = np.zeros((1, 7))
        expected[0, 5] = 1.0
        grad = learning.loss_gradient_wrt_expected(expected, observed,
                                                   flat_tariff(), topo)
        assert grad[0, 5] == pytest.approx(10.0)
        assert grad[0, 6] == pytest.approx(9.0)
        assert grad[0, 0] == pytest.approx(7.0)

    @staticmethod
    def check_finite_differences(rng, zones):
        topo = rc.default_topology(zones)
        t_h = 4
        observed = rng.uniform(1, 5, size=(t_h, zones))
        expected = observed + rng.choice([-1, 1], size=(t_h, zones)) \
            * rng.uniform(0.01, 0.5, size=(t_h, zones))
        tariff = scheduler.Tariff(rng.uniform(0.3, 0.7, t_h), 4.0)
        grad = learning.loss_gradient_wrt_expected(expected, observed, tariff, topo)

        def loss_at(flat):
            return learning.hierarchical_loss(flat.reshape(t_h, zones), observed,
                                              tariff, topo).total

        eps = 1e-6
        fd = np.zeros(expected.size)
        flat0 = expected.ravel()
        for k in range(flat0.size):
            up, dn = flat0.copy(), flat0.copy()
            up[k] += eps
            dn[k] -= eps
            fd[k] = (loss_at(up) - loss_at(dn)) / (2 * eps)
        assert rel_err(fd.reshape(t_h, zones), grad) <= 1e-6

    def test_matches_finite_differences_away_from_kinks(self, rng):
        self.check_finite_differences(rng, 6)  # floors of 5 and 1

    def test_matches_finite_differences_unequal_floors(self, rng):
        self.check_finite_differences(rng, 7)  # floors of 5 and 2


class TestPretrain:
    def make_dataset(self, theta, n, rng, noise=0.0):
        z = theta.num_zones
        tau = rng.uniform(14, 28, (n, z))
        amb = rng.uniform(-10, 30, n)
        p_h = rng.uniform(0, 5, (n, z))
        p_c = rng.uniform(0, 5, (n, z))
        tau_next = rc.rc_step(theta, tau, amb, p_h, p_c)
        if noise:
            tau_next = tau_next + rng.normal(0, noise, tau_next.shape)
        return plant.TransitionDataset(tau, amb, p_h, p_c, tau_next)

    def test_recovers_self_generated_dynamics(self, rng):
        theta_star = rc.ThetaParams(np.eye(2) + rng.normal(0, 0.04, (2, 2)),
                                    [0.9, 0.85], [0.9, 0.8], [4.0, 5.0], [2.0, 2.5])
        ds = self.make_dataset(theta_star, 3000, rng)
        theta0 = rc.default_theta(2, seed=1)
        cfg = TrainConfig(lr=0.02, max_epochs=200, patience=200, seed=0,
                          batch_size=512, decay_rate=0.02)
        theta_hat = learning.pretrain(ds, theta0, cfg)
        pred = rc.rc_step(theta_hat, ds.tau, ds.tau_amb, ds.p_h, ds.p_c)
        mse = float(((pred - ds.tau_next) ** 2).mean())
        assert mse <= 1e-6
        # predictions match the hidden model's even if parameters differ
        assert np.abs(pred - ds.tau_next).max() <= 1e-3

    def test_perfect_fit_is_a_fixed_point(self, rng):
        theta_star = rc.ThetaParams(np.eye(2), [0.9, 0.9], [0.9, 0.9],
                                    [4.0, 4.0], [2.0, 2.0])
        ds = self.make_dataset(theta_star, 500, rng)
        cfg = TrainConfig(lr=0.01, max_epochs=5, patience=5, seed=0)
        theta_hat = learning.pretrain(ds, theta_star, cfg)
        np.testing.assert_allclose(rc.pack(theta_hat), rc.pack(theta_star),
                                   atol=1e-12)

    def test_descends_on_plant_data(self, rng):
        topo = rc.default_topology(2)
        spec = plant.default_plant_spec(topo, noise_std=0.05, seed=0)
        weather = np.tile(np.linspace(-5, 15, 24), 30)
        ds = plant.historical_rollout(spec, weather, seed=3)
        theta0 = rc.default_theta(2, seed=1)
        pred0 = rc.rc_step(theta0, ds.tau, ds.tau_amb, ds.p_h, ds.p_c)
        mse0 = float(((pred0 - ds.tau_next) ** 2).mean())
        cfg = TrainConfig(lr=0.01, max_epochs=40, patience=40, seed=0)
        theta_hat = learning.pretrain(ds, theta0, cfg)
        pred = rc.rc_step(theta_hat, ds.tau, ds.tau_amb, ds.p_h, ds.p_c)
        mse = float(((pred - ds.tau_next) ** 2).mean())
        assert mse < mse0


class TestDflTrain:
    def small_setup(self, rng, horizon=4):
        z = 2
        topo = rc.default_topology(z)
        theta_star = rc.ThetaParams(np.eye(z), [0.9, 0.85], [0.9, 0.8],
                                    [4.0, 5.0], [2.0, 2.5])
        sim = plant.ExactRcPlant(theta_star)
        cfg = scheduler.ScheduleConfig(
            topology=topo,
            comfort_target=np.full((horizon, z), 21.0),
            comfort_weight=np.full((horizon, z), 2.0),
            zone_cap_h=np.full((horizon, z), 30.0),
            zone_cap_c=np.full((horizon, z), 30.0),
            floor_cap_h=np.full((horizon, 1), 60.0),
            floor_cap_c=np.full((horizon, 1), 60.0),
            line_capacity=200.0)
        tariff = scheduler.Tariff(np.full(horizon, 0.3), 0.2)
        scens = [DayScenario(rng.uniform(-8, 4, horizon), np.full(z, 19.5), i, 0.5)
                 for i in range(2)]
        return theta_star, sim, cfg, tariff, scens

    def test_zero_learning_rate_is_a_noop(self, rng):
        theta_star, sim, cfg, tariff, scens = self.small_setup(rng)
        flat0 = rc.pack(theta_star) + 0.05
        theta0 = rc.unpack(flat0, theta_star.num_zones)
        tc = TrainConfig(lr=1e-300, max_epochs=3, patience=3, seed=0)
        best, log = learning.dfl_train(theta0, scens, sim, tariff, tc, cfg)
        np.testing.assert_allclose(rc.pack(best), flat0, atol=1e-12)
        assert len(log.rows("val")) == 3
        assert len(log.rows("train")) == 3

    def test_two_runs_identical(self, rng):
        theta_star, sim, cfg, tariff, scens = self.small_setup(rng)
        theta0 = rc.unpack(rc.pack(theta_star) + 0.05, theta_star.num_zones)
        tc = TrainConfig(lr=0.01, max_epochs=4, patience=4, seed=0)
        best_a, log_a = learning.dfl_train(theta0, scens, sim, tariff, tc, cfg)
        best_b, log_b = learning.dfl_train(theta0, scens, sim, tariff, tc, cfg)
        np.testing.assert_array_equal(rc.pack(best_a), rc.pack(best_b))
        assert [r.hier_loss for r in log_a.records] == \
            [r.hier_loss for r in log_b.records]

    def test_best_epoch_matches_log_minimum(self, rng):
        theta_star, sim, cfg, tariff, scens = self.small_setup(rng)
        theta0 = rc.unpack(rc.pack(theta_star) + 0.08, theta_star.num_zones)
        tc = TrainConfig(lr=0.02, max_epochs=8, patience=8, seed=0)
        best, log = learning.dfl_train(theta0, scens, sim, tariff, tc, cfg)
        vals = [r.hier_loss for r in log.rows("val")]
        assert log.best_epoch == int(np.argmin(vals))

    def test_log_csv_round_trip(self, rng, tmp_path):
        theta_star, sim, cfg, tariff, scens = self.small_setup(rng)
        theta0 = rc.unpack(rc.pack(theta_star) + 0.05, theta_star.num_zones)
        tc = TrainConfig(lr=0.01, max_epochs=2, patience=2, seed=0)
        _, log = learning.dfl_train(theta0, scens, sim, tariff, tc, cfg)
        path = tmp_path / "log.csv"
        log.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("epoch,split,hier_loss")
        assert len(lines) == 1 + len(log.records)



class TestFailureInjection:
    """Schedules that fail on chosen scenarios send training and evaluation
    into their failure branches."""

    @staticmethod
    def setup(rng, monkeypatch, failing):
        theta_star, sim, cfg, tariff, scens = TestDflTrain().small_setup(rng)
        horizon, z = cfg.comfort_target.shape
        train, val = ([DayScenario(rng.uniform(-8, 4, horizon), np.full(z, 19.5),
                                   label, 1 / 3) for label in labels]
                      for labels in ((0, 1, 2), (10, 11, 12)))
        solve = scheduler.solve_schedule

        def failing_solve(theta, scen, tariff, config, **kwargs):
            if scen.label in failing:
                raise scheduler.ScheduleError(f"injected failure on {scen.label}")
            return solve(theta, scen, tariff, config, **kwargs)

        monkeypatch.setattr(scheduler, "solve_schedule", failing_solve)
        theta0 = rc.unpack(rc.pack(theta_star) + 0.05, theta_star.num_zones)
        return theta0, sim, cfg, tariff, train, val

    @staticmethod
    def dropped_records(caplog):
        return [r for r in caplog.records
                if str(r.msg).startswith("evaluation scenario")]

    def test_training_counts_skips_and_logs_each_dropped_scenario(
            self, rng, monkeypatch, caplog, tmp_path):
        theta0, sim, cfg, tariff, train, val = self.setup(rng, monkeypatch, {1, 11})
        tc = TrainConfig(lr=0.01, max_epochs=2, patience=2, seed=0)
        with caplog.at_level("WARNING", logger="dflsched.learning"):
            _, log = learning.dfl_train(theta0, train, sim, tariff, tc, cfg,
                                        val_scenarios=val)
        assert log.skipped_samples == 2
        assert log.val_dropped == [1, 1]
        log.save_sidecar(tmp_path / "sidecar.json", tc)
        sidecar = json.loads((tmp_path / "sidecar.json").read_text())
        assert (sidecar["skipped_samples"], sidecar["val_dropped"]) == (2, [1, 1])
        assert len(log.rows("train")) == len(log.rows("val")) == 2
        dropped = self.dropped_records(caplog)
        assert [r.getMessage() for r in dropped] == \
            ["evaluation scenario 1 skipped: injected failure on 11"] * 2

    def test_evaluate_model_counts_failures_without_dropped_records(
            self, rng, monkeypatch, caplog):
        theta0, sim, cfg, tariff, _, val = self.setup(rng, monkeypatch, {10, 12})
        with caplog.at_level("WARNING", logger="dflsched.learning"):
            report = reporting.evaluate_model(theta0, val, sim, tariff, cfg)
        assert (report.num_failed, report.num_scenarios) == (2, 1)
        assert self.dropped_records(caplog) == []

    def test_every_validation_scenario_failing_raises(self, rng, monkeypatch):
        theta0, sim, cfg, tariff, train, val = self.setup(rng, monkeypatch, {10, 11, 12})
        with pytest.raises(RuntimeError, match="every evaluation scenario failed"):
            reporting.evaluate_model(theta0, val, sim, tariff, cfg)
        with pytest.raises(RuntimeError, match="every evaluation scenario failed"):
            learning.dfl_train(theta0, train, sim, tariff,
                               TrainConfig(max_epochs=1, patience=1), cfg,
                               val_scenarios=val)

    def test_epoch_that_dropped_a_scenario_never_becomes_best(self, rng, monkeypatch):
        """At a vanishing learning rate every full validation scores the same.
        Epoch 1 drops its worst validation scenario and so scores lower over
        the survivors, yet epoch 0 stays best, and epoch 1 uses up the
        patience of 1."""
        theta0, sim, cfg, tariff, train, val = self.setup(rng, monkeypatch, set())
        pairs, _ = learning.evaluate_scenarios(theta0, val, sim, tariff, cfg, 0)
        worst = max(pairs, key=lambda p: learning.hierarchical_loss(
            p[1].p_hvac, p[2].p_hvac_obs, tariff, cfg.topology).total)[0]
        evaluate, solve = learning.evaluate_scenarios, scheduler.solve_schedule
        epochs = []

        def counting_evaluate(*args):
            epochs.append(len(epochs))
            return evaluate(*args)

        def failing_solve(theta, scen, tariff, config, **kwargs):
            if scen is worst and epochs[-1:] == [1]:
                raise scheduler.ScheduleError("injected failure in epoch 1")
            return solve(theta, scen, tariff, config, **kwargs)

        monkeypatch.setattr(learning, "evaluate_scenarios", counting_evaluate)
        monkeypatch.setattr(scheduler, "solve_schedule", failing_solve)
        tc = TrainConfig(lr=1e-300, max_epochs=3, patience=1, seed=0)
        _, log = learning.dfl_train(theta0, train, sim, tariff, tc, cfg,
                                    val_scenarios=val)
        assert log.val_dropped == [0, 1]
        full, partial = (r.hier_loss for r in log.rows("val"))
        assert partial < full - 1e-9  # the partial epoch has the lowest loss
        assert log.best_epoch == 0

    def test_non_finite_gradient_skips_one_step_and_is_recorded(
            self, rng, monkeypatch, caplog, tmp_path):
        # a NaN dL/dtheta for the second sample of epoch 0: Adam skips that
        # step with a warning, training goes on, and the sidecar counts it
        theta0, sim, cfg, tariff, train, val = self.setup(rng, monkeypatch, set())
        through_map, calls = qp.backward_through_map, []

        def nan_once(sens, cmap):
            calls.append(len(calls))
            grad = through_map(sens, cmap)
            return np.full_like(grad, np.nan) if len(calls) == 2 else grad

        monkeypatch.setattr(qp, "backward_through_map", nan_once)
        tc = TrainConfig(lr=0.01, max_epochs=2, patience=2, seed=0)
        with caplog.at_level("WARNING", logger="dflsched.learning"):
            best, log = learning.dfl_train(theta0, train, sim, tariff, tc, cfg,
                                           val_scenarios=val)
        assert len(calls) == 6 and log.skipped_steps == 1
        assert np.all(np.isfinite(rc.pack(best)))
        assert [r.getMessage() for r in caplog.records].count(
            "non-finite gradient: step skipped") == 1
        log.save_sidecar(tmp_path / "sidecar.json", tc)
        sidecar = json.loads((tmp_path / "sidecar.json").read_text())
        assert (sidecar["skipped_steps"], sidecar["skipped_samples"]) == (1, 0)

    def test_every_training_sample_failing_raises(self, rng, monkeypatch):
        theta0, sim, cfg, tariff, train, val = self.setup(rng, monkeypatch, {0, 1, 2})
        with pytest.raises(RuntimeError, match="every scenario failed to solve in epoch 0"):
            learning.dfl_train(theta0, train, sim, tariff,
                               TrainConfig(max_epochs=1, patience=1), cfg,
                               val_scenarios=val)
