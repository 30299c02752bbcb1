"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The nonlinear-plant reproduction (criterion 5) runs its desk-scale 5-zone
variant here; the full 15-zone run (about 55 s on 2 cores) is enabled
by setting DFLSCHED_FULL_ACCEPTANCE=1.
"""
import json
import os
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from dflsched import cli, learning, plant, qp, rc, reporting, scenarios, scheduler
from dflsched.scenarios import DayScenario
from conftest import enumerate_active_sets, complementarity_margin, \
    random_strictly_convex_qp, rel_err


def announce(number: int, name: str, passed: bool, detail: str = "") -> str:
    """Print the criterion's PASS/FAIL line; return its failure message."""
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:2d} {name}: {status} {detail}")
    return f"criterion {number} ({name}) failed: {detail}"


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    message = announce(number, name, passed, detail)
    assert passed, message


def make_margin_instance(rng):
    """Random strictly convex QP with strict complementarity margin >= 1e-3."""
    while True:
        n = int(rng.integers(4, 31))
        m_eq = int(rng.integers(0, 4))
        m_in = int(rng.integers(2, 9))
        p = random_strictly_convex_qp(rng, n, m_eq, m_in)
        s = qp.solve(p, tolerance=1e-10, max_iter=100)
        if s.status != qp.QpStatus.OPTIMAL:
            continue
        if complementarity_margin(p, s) >= 1e-3:
            return p, s


class TestCriterion1And2QpDifferentiationAndSolver:
    def test_qp_suite(self):
        """1: backward gradients vs central finite differences on 50
        strictly convex instances in under 60 s.  Per instance, all of its
        finite-difference derivatives (the q, b and h entries and the nine
        A, G and Q probes) are checked together: worst error <= 1e-4
        relative to the instance's largest derivative.  Not per block,
        since a central difference at eps=1e-6 has a round-off floor of
        ~1e-10 |L|, which a zero-gradient block (a vertex) cannot meet.
        2: same instances solved to KKT <= 1e-8 and objective within 1e-6
        of the active-set enumeration oracle.  Both criteria are printed
        before either is asserted."""
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        worst_grad = 0.0
        worst_obj = 0.0
        worst_kkt = 0.0
        eps = 1e-6
        for k in range(50):
            p, s = make_margin_instance(rng)
            worst_kkt = max(worst_kkt, s.kkt_residual)
            oracle = enumerate_active_sets(p)
            worst_obj = max(worst_obj, abs(s.objective_value - oracle[1]))

            g = rng.normal(size=p.num_vars)
            sens = qp.backward(p, s, g)
            Qd, Ad, Gd = p.Q.toarray(), p.A.toarray(), p.G.toarray()

            def loss(Q=Qd, q=p.q, A=Ad, b=p.b, G=Gd, h=p.h):
                prob = qp.QpProblem(p.num_vars, Q, q, A, b, G, h)
                sol = qp.solve(prob, tolerance=1e-10, max_iter=100)
                assert sol.status == qp.QpStatus.OPTIMAL
                return float(g @ sol.primal)

            fd_all, an_all = [], []
            # vector blocks: entrywise central differences
            for name, base, grad in (("q", p.q, sens.grad_q),
                                     ("b", p.b, sens.grad_b),
                                     ("h", p.h, sens.grad_h)):
                for i in range(base.size):
                    up, dn = base.copy(), base.copy()
                    up[i] += eps
                    dn[i] -= eps
                    fd_all.append((loss(**{name: up}) - loss(**{name: dn}))
                                  / (2 * eps))
                an_all.extend(grad)

            # matrix blocks: three random-direction probes each (full
            # entrywise sweeps run in the module test suite)
            for name, base, grad in (("A", Ad, sens.grad_A),
                                     ("G", Gd, sens.grad_G)):
                if base.size == 0:
                    continue
                for _ in range(3):
                    d = rng.normal(size=base.shape)
                    fd_all.append((loss(**{name: base + eps * d})
                                   - loss(**{name: base - eps * d})) / (2 * eps))
                    an_all.append(float((grad * d).sum()))
            for _ in range(3):
                d = rng.normal(size=Qd.shape)
                d = (d + d.T) / 2
                fd_all.append((loss(Q=Qd + eps * d) - loss(Q=Qd - eps * d))
                              / (2 * eps))
                an_all.append(float((sens.grad_Q * d).sum()))
            worst_grad = max(worst_grad, rel_err(fd_all, an_all))
        elapsed = time.perf_counter() - start
        passed1 = worst_grad <= 1e-4 and elapsed < 60.0
        passed2 = worst_kkt <= 1e-8 and worst_obj <= 1e-6
        message1 = announce(1, "qp-differentiation", passed1,
                            f"(worst rel err {worst_grad:.2e}, {elapsed:.1f}s)")
        message2 = announce(2, "qp-solver", passed2,
                            f"(worst kkt {worst_kkt:.2e}, worst obj gap {worst_obj:.2e})")
        assert passed1, message1
        assert passed2, message2


class TestCriterion3EndToEndGradient:
    def test_two_zone_chain(self, rng):
        """Full chain dL/dtheta through assemble -> solve -> loss matches
        finite differences within 1e-3 relative on a 2-zone, T=4 problem."""
        z, horizon = 2, 4
        topo = rc.default_topology(z)
        theta = rc.default_theta(z, seed=3)
        cfg = scheduler.ScheduleConfig(
            topology=topo,
            comfort_target=np.full((horizon, z), 21.0),
            comfort_weight=np.full((horizon, z), 3.0),
            zone_cap_h=np.full((horizon, z), 16.0),
            zone_cap_c=np.full((horizon, z), 4.0),
            floor_cap_h=np.full((horizon, 1), 60.0),
            floor_cap_c=np.full((horizon, 1), 16.0),
            line_capacity=91.2)
        tariff = scheduler.default_tariff(horizon)
        scen = DayScenario(np.array([0.0, 2.0, 5.0, 3.0]), np.full(z, 19.0), 0, 1.0)

        res = scheduler.solve_schedule(theta, scen, tariff, cfg)
        observed = res.p_hvac * 1.3 + 0.2  # fixed observed trace off kinks

        def loss_of(th):
            r = scheduler.solve_schedule(th, scen, tariff, cfg,
                                         tolerance=1e-10, max_iter=100)
            return learning.hierarchical_loss(r.p_hvac, observed, tariff, topo).total

        gmat = learning.loss_gradient_wrt_expected(res.p_hvac, observed, tariff, topo)
        gp = np.zeros(res.index.num_vars)
        gp[res.index.p_hvac] = gmat
        sens = qp.backward(res.problem, res.solution, gp)
        cmap = scheduler.coefficient_map(theta, scen, cfg)
        grad = qp.backward_through_map(sens, cmap)

        flat0 = rc.pack(theta)
        eps = 1e-6
        fd = np.zeros_like(flat0)
        for k in range(len(flat0)):
            up, dn = flat0.copy(), flat0.copy()
            up[k] += eps
            dn[k] -= eps
            fd[k] = (loss_of(rc.unpack(up, theta.num_zones))
                     - loss_of(rc.unpack(dn, theta.num_zones))) / (2 * eps)
        err = rel_err(fd, grad)
        report(3, "end-to-end-gradient", err <= 1e-3, f"(rel err {err:.2e})")


class TestCriterion4RealizablePlant:
    def test_identification_drives_loss_down(self):
        """With the plant an RC model with hidden parameters and zero noise,
        training drives the validation loss below 1e-3 of its initial value
        within 50 epochs."""
        rng = np.random.default_rng(3)
        z, horizon = 1, 4
        topo = rc.default_topology(z)
        theta_star = rc.ThetaParams(np.eye(z) + rng.normal(0, 0.02, (z, z)),
                                    [0.9], [0.85], [4.0], [2.0])
        sim = plant.ExactRcPlant(theta_star)
        cfg = scheduler.ScheduleConfig(
            topology=topo,
            comfort_target=np.full((horizon, z), 21.0),
            comfort_weight=np.full((horizon, z), 2.0),
            zone_cap_h=np.full((horizon, z), 30.0),
            zone_cap_c=np.full((horizon, z), 30.0),
            floor_cap_h=np.full((horizon, 1), 30.0),
            floor_cap_c=np.full((horizon, 1), 30.0),
            line_capacity=100.0)
        # a small demand charge: a dominant one pins the optimal profile
        # flat (peak row active everywhere), collapsing the gradient signal
        tariff = scheduler.Tariff(np.full(horizon, 0.3), 0.2)
        n_scen = 16
        scens = [DayScenario(rng.uniform(-10, 12, horizon),
                             np.full(z, 18.5 + i * 0.2), i, 1 / n_scen)
                 for i in range(n_scen)]

        flat0 = rc.pack(theta_star)
        flat0[-1] += 1.0  # hidden capacitance off by a factor e
        theta0 = rc.unpack(flat0, theta_star.num_zones)

        pairs0, _ = learning.evaluate_scenarios(theta0, scens, sim, tariff, cfg, 0)
        initial = learning.summarize(pairs0, tariff, topo)["hier_loss"]
        tc = learning.TrainConfig(lr=0.06, decay_rate=0.5, decay_gamma=1.3,
                                  max_epochs=50, patience=50, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            best, log = learning.dfl_train(theta0, scens, sim, tariff, tc, cfg,
                                           val_scenarios=scens)
        best_val = min(r.hier_loss for r in log.rows("val"))
        ratio = best_val / initial
        report(4, "realizable-plant", ratio <= 1e-3,
               f"(initial {initial:.3f}, best {best_val:.2e}, ratio {ratio:.2e})")


@pytest.fixture(scope="module")
def ci_pipeline(tmp_path_factory):
    """The desk-scale 5-zone pipeline (criterion 5's CI variant), run once
    and shared by criteria 5 and 6."""
    out = tmp_path_factory.mktemp("ci_run")
    start = time.perf_counter()
    result = CliRunner().invoke(cli.main, ["full-run", "--out", str(out),
                                           "--zones", "5", "--seed", "7"])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0, result.output
    run_dir = next(p for p in out.iterdir() if p.name.startswith("run-"))
    return out, run_dir, elapsed


def load_metrics(run_dir: Path, split: str) -> dict:
    return {
        model: json.loads((run_dir / split / f"metrics_{model}.json").read_text())
        for model in ("ito", "dfl")
    }


class TestCriterion5PaperFindingReproduction:
    def test_ci_variant_five_zones(self, ci_pipeline):
        """(a) the task-agnostic baseline underestimates power,
        (b) decision-focused loss <= 0.6x baseline,
        (c) |cost error| <= 0.2x baseline, all within 5 minutes."""
        out, run_dir, elapsed = ci_pipeline
        m = load_metrics(run_dir, "test")
        a = m["ito"]["err_mean"] < 0
        hier_ratio = m["dfl"]["hier_loss"] / m["ito"]["hier_loss"]
        cost_ratio = abs(m["dfl"]["cost_error"]) / abs(m["ito"]["cost_error"])
        detail = (f"(err_mean {m['ito']['err_mean']:.2f}, hier ratio "
                  f"{hier_ratio:.3f}, cost ratio {cost_ratio:.3f}, "
                  f"{elapsed:.0f}s)")
        report(5, "paper-finding-ci-5-zones",
               a and hier_ratio <= 0.6 and cost_ratio <= 0.2
               and elapsed <= 300.0, detail)

    @pytest.mark.skipif(not os.environ.get("DFLSCHED_FULL_ACCEPTANCE"),
                        reason="full 15-zone run (~55 s on 2 cores); set "
                               "DFLSCHED_FULL_ACCEPTANCE=1 to enable")
    def test_full_variant_fifteen_zones(self, tmp_path):
        start = time.perf_counter()
        result = CliRunner().invoke(cli.main, ["full-run", "--out", str(tmp_path),
                                               "--zones", "15", "--seed", "7"])
        elapsed = time.perf_counter() - start
        assert result.exit_code == 0, result.output
        run_dir = next(p for p in tmp_path.iterdir() if p.name.startswith("run-"))
        m = load_metrics(run_dir, "test")
        a = m["ito"]["err_mean"] < 0
        hier_ratio = m["dfl"]["hier_loss"] / m["ito"]["hier_loss"]
        cost_ratio = abs(m["dfl"]["cost_error"]) / abs(m["ito"]["cost_error"])
        d = m["dfl"]["expost_cost"] <= m["ito"]["expost_cost"]
        detail = (f"(err_mean {m['ito']['err_mean']:.2f}, hier ratio "
                  f"{hier_ratio:.3f}, cost ratio {cost_ratio:.3f}, expost "
                  f"{m['dfl']['expost_cost']:.0f} vs {m['ito']['expost_cost']:.0f}, "
                  f"{elapsed:.0f}s)")
        report(5, "paper-finding-full-15-zones",
               a and hier_ratio <= 0.6 and cost_ratio <= 0.2 and d
               and elapsed <= 1800.0, detail)


class TestCriterion6DistributionShift:
    def test_hot_year_cost_error(self, ci_pipeline):
        """On the hot-year stress set the decision-focused model keeps
        |cost error| <= 0.2x the baseline's (loss degradations reported
        alongside, as in the source tables)."""
        out, run_dir, elapsed = ci_pipeline
        test = load_metrics(run_dir, "test")
        hot = load_metrics(run_dir, "hot_year")
        cost_ratio = abs(hot["dfl"]["cost_error"]) / abs(hot["ito"]["cost_error"])
        degr_ito = hot["ito"]["hier_loss"] / test["ito"]["hier_loss"] - 1
        degr_dfl = hot["dfl"]["hier_loss"] / test["dfl"]["hier_loss"] - 1
        report(6, "hot-year-shift", cost_ratio <= 0.2,
               f"(cost ratio {cost_ratio:.3f}; loss degradation ito "
               f"{degr_ito:+.1%} dfl {degr_dfl:+.1%})")


class TestCriterion7Clustering:
    def test_medoid_invariants_on_synthetic_year(self):
        series = scenarios.synthesize_year(11)
        days = scenarios.days_matrix(series)
        extremes = scenarios.pick_extremes(days)
        a = scenarios.kmedoid_cluster(days, k=10, fixed=extremes)
        b = scenarios.kmedoid_cluster(days, k=10, fixed=extremes)
        membership = all(np.array_equal(days[m], days[int(m)]) for m in a.medoids)
        retention = tuple(a.medoids[:3]) == extremes
        med_days = days[a.medoids]
        optimal = all(
            np.sqrt(((med_days - days[i]) ** 2).sum(axis=1)).argmin()
            == a.assignment[i]
            for i in range(365))
        deterministic = (np.array_equal(a.medoids, b.medoids)
                         and np.array_equal(a.assignment, b.assignment))
        report(7, "clustering", membership and retention and optimal
               and deterministic,
               f"(medoids {a.medoids.tolist()})")


class TestCriterion8LossArithmetic:
    def test_hand_example_and_gradient(self, rng):
        topo = rc.ZoneTopology(5, (tuple(range(5)),))
        tariff = scheduler.Tariff(np.array([1.0]), 0.0)
        expected = np.zeros((1, 5))
        observed = np.zeros((1, 5))
        expected[0, 1] = 1.0
        lb = learning.hierarchical_loss(expected, observed, tariff, topo,
                                        w_building=15.0, w_floor=5.0)
        exact = lb.total == 21.0

        t_h, z = 4, 5
        obs = rng.uniform(1, 5, size=(t_h, z))
        exp = obs + rng.choice([-1, 1], size=(t_h, z)) * rng.uniform(0.01, 0.5, (t_h, z))
        tar = scheduler.Tariff(rng.uniform(0.3, 0.7, t_h), 3.0)
        grad = learning.loss_gradient_wrt_expected(exp, obs, tar, topo)
        eps = 1e-6
        fd = np.zeros(exp.size)
        flat0 = exp.ravel()
        for k in range(flat0.size):
            up, dn = flat0.copy(), flat0.copy()
            up[k] += eps
            dn[k] -= eps
            fd[k] = (learning.hierarchical_loss(up.reshape(t_h, z), obs, tar, topo).total
                     - learning.hierarchical_loss(dn.reshape(t_h, z), obs, tar, topo).total) / (2 * eps)
        err = rel_err(fd.reshape(t_h, z), grad)
        report(8, "loss-arithmetic", exact and err <= 1e-6,
               f"(hand example {lb.total}, gradient rel err {err:.2e})")


class TestCriterion9NoiseCalibration:
    def test_empirical_std(self):
        """Per-parameter noise std within 2% of |theta_i|/25 over 1e5 draws
        (one independent draw per coupling-matrix entry)."""
        z = 317  # z*z > 1e5 entries
        theta = rc.ThetaParams(np.full((z, z), 25.0), np.ones(z), np.ones(z),
                               np.ones(z), np.ones(z))
        noisy = learning.inject_noise(theta, snr=625.0, seed=12345)
        draws = (noisy.alpha - theta.alpha).ravel()[:100_000]
        std = float(draws.std())
        report(9, "noise-calibration", abs(std - 1.0) <= 0.02,
               f"(std {std:.4f} vs 1.0000 = 25/25)")


class TestCriterion10Determinism:
    def test_full_run_byte_identical(self, tmp_path):
        """Two full runs with the same seed produce byte-identical metric
        JSONs (manifests and timing files carry the volatile data)."""
        import hashlib

        digests = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            result = CliRunner().invoke(
                cli.main, ["full-run", "--out", str(out), "--zones", "2",
                           "--seed", "3", "--epochs", "2"])
            assert result.exit_code == 0, result.output
            files = sorted(out.rglob("metrics_*.json")) \
                + sorted(out.rglob("comparison.json")) \
                + [out / "scenarios.json", out / "theta_ito.json",
                   out / "theta_dfl.json", out / "training_log.csv"]
            digests.append({f.relative_to(out).as_posix():
                            hashlib.sha256(f.read_bytes()).hexdigest()
                            for f in files})
        report(10, "determinism", digests[0] == digests[1],
               f"({len(digests[0])} artifacts compared)")
