"""Scheduling QP assembly, solving, extraction and cost accounting."""
import numpy as np
import pytest

from dflsched import plant, qp, rc, scheduler
from dflsched.scenarios import DayScenario
from conftest import rel_err


def make_config(topo, horizon, *, target=21.0, weight=1.0, zone_cap_h=50.0,
                zone_cap_c=50.0, floor_cap_h=500.0, floor_cap_c=500.0,
                line_capacity=5000.0):
    z, f = topo.num_zones, topo.num_floors
    weight_arr = np.full((horizon, z), weight, dtype=float) if np.isscalar(weight) else weight
    target_arr = np.full((horizon, z), target, dtype=float) if np.isscalar(target) else target
    return scheduler.ScheduleConfig(
        topology=topo,
        comfort_target=target_arr, comfort_weight=weight_arr,
        zone_cap_h=np.full((horizon, z), zone_cap_h),
        zone_cap_c=np.full((horizon, z), zone_cap_c),
        floor_cap_h=np.full((horizon, f), floor_cap_h),
        floor_cap_c=np.full((horizon, f), floor_cap_c),
        line_capacity=line_capacity)


def carryover_theta(z, c=1.0, r=1e6, eta=1.0):
    """alpha = I: exact persistence, so power maps directly to degrees."""
    return rc.ThetaParams(np.eye(z), np.full(z, eta), np.full(z, eta),
                          np.full(z, r), np.full(z, c))


def scenario_of(amb, tau0):
    return DayScenario(ambient=np.asarray(amb, dtype=float),
                       initial_tau=np.asarray(tau0, dtype=float),
                       label=0, weight=1.0)


class TestAssemble:
    def test_variable_count_t1_z1(self):
        topo = rc.default_topology(1)
        cfg = make_config(topo, 1)
        theta = carryover_theta(1)
        problem, idx = scheduler.assemble(theta, scenario_of([0.0], [20.0]),
                                          scheduler.default_tariff(1), cfg)
        assert problem.num_vars == 7  # tau has T+1 rows
        assert idx.num_vars == 7

    def test_no_incentive_means_zero_power(self):
        topo = rc.default_topology(2)
        cfg = make_config(topo, 4, weight=0.0)
        theta = carryover_theta(2)
        tariff = scheduler.Tariff(np.full(4, 0.3), 0.0)
        res = scheduler.solve_schedule(theta, scenario_of([5.0] * 4, [20.0, 20.0]),
                                       tariff, cfg)
        np.testing.assert_allclose(res.p_hvac, 0.0, atol=1e-6)
        assert res.expected_cost <= 1e-6

    def test_two_zone_unit_heating_toy(self):
        # 1 kW for 1 h raises zone 0 by 1 degC; the target demands +1 degC
        # at t=1 under a huge comfort weight
        topo = rc.default_topology(2)
        horizon = 2
        weight = np.full((horizon, 2), 1e-6)
        weight[0, 0] = 1e5  # pin zone 0 at t=1
        target = np.full((horizon, 2), 20.0)
        target[0, 0] = 21.0
        cfg = make_config(topo, horizon, target=target, weight=weight)
        theta = carryover_theta(2)
        tariff = scheduler.Tariff(np.full(horizon, 0.3), 0.0)
        res = scheduler.solve_schedule(theta, scenario_of([20.0] * horizon, [20.0, 20.0]),
                                       tariff, cfg)
        assert abs(res.p_h[0, 0] - 1.0) <= 1e-3

    def test_shape_mismatch_rejected(self):
        topo = rc.default_topology(2)
        cfg = make_config(topo, 4)
        theta = carryover_theta(2)
        with pytest.raises(scheduler.ScheduleError):
            scheduler.assemble(theta, scenario_of([0.0] * 3, [20.0, 20.0]),
                               scheduler.default_tariff(4), cfg)


class TestSolveSchedule:
    def test_perfect_insulation_stays_put(self):
        topo = rc.default_topology(1)
        cfg = make_config(topo, 6, target=21.0, weight=2.0)
        theta = carryover_theta(1, r=1e9)
        tariff = scheduler.default_tariff(6)
        res = scheduler.solve_schedule(theta, scenario_of([0.0] * 6, [21.0]), tariff, cfg)
        np.testing.assert_allclose(res.p_hvac, 0.0, atol=1e-5)
        np.testing.assert_allclose(res.tau_in, 21.0, atol=1e-5)

    def test_consumption_concentrates_off_peak(self):
        """Fixed daily heating energy with free capacity lands strictly in
        the cheap hours; cost matches an exhaustive placement oracle."""
        topo = rc.default_topology(1)
        horizon = 24
        energy = 4.0  # kWh needed: final temperature +4 degC at 1 kWh/degC
        weight = np.zeros((horizon, 1))
        weight[-1, 0] = 1e5
        target = np.full((horizon, 1), 20.0)
        target[-1, 0] = 24.0
        cfg = make_config(topo, horizon, target=target, weight=weight,
                          zone_cap_h=1.0)
        theta = carryover_theta(1, c=1.0, r=1e9)
        demand_charge = 0.05
        tariff = scheduler.default_tariff(horizon, demand_charge=demand_charge)
        res = scheduler.solve_schedule(theta, scenario_of([20.0] * horizon, [20.0]),
                                       tariff, cfg)

        offpeak = tariff.energy_price == 0.3
        peak_energy = res.p_import[~offpeak].sum()  # kWh: one-hour steps
        assert peak_energy <= 1e-5

        # oracle: spread the energy over the k cheapest hours, k = 1..11
        n_off = int(offpeak.sum())
        best = min(0.3 * energy + demand_charge * energy / k
                   for k in range(1, n_off + 1))
        assert res.expected_cost <= best + 1e-4
        assert res.expected_cost >= best - 1e-4

    def test_feasibility_suite_random_draws(self, rng):
        """ScheduleResult invariants over random (theta, scenario) draws."""
        topo = rc.default_topology(3)
        cfg = make_config(topo, 6, weight=1.0, zone_cap_h=8.0, zone_cap_c=8.0,
                          floor_cap_h=20.0, floor_cap_c=20.0, line_capacity=30.0)
        tariff = scheduler.default_tariff(6)
        for _ in range(100):
            alpha = np.eye(3) + rng.normal(0, 0.03, size=(3, 3))
            theta = rc.ThetaParams(alpha,
                                   rng.uniform(0.6, 1.1, 3), rng.uniform(0.6, 1.1, 3),
                                   rng.uniform(2, 8, 3), rng.uniform(1, 5, 3))
            scen = scenario_of(rng.uniform(-10, 35, 6), rng.uniform(17, 24, 3))
            res = scheduler.solve_schedule(theta, scen, tariff, cfg)
            np.testing.assert_allclose(res.p_hvac, res.p_h + res.p_c, atol=1e-7)
            np.testing.assert_allclose(res.p_hvac.sum(axis=1), res.p_import, atol=2e-6)
            assert res.p_peak >= res.p_import.max() - 1e-7
            assert res.p_peak <= cfg.line_capacity + 1e-7
            for arr in (res.p_h, res.p_c, res.p_hvac, res.p_import):
                assert arr.min(initial=0.0) >= -1e-9

    def test_peak_tightness_with_demand_charge(self, rng):
        topo = rc.default_topology(2)
        cfg = make_config(topo, 8, weight=3.0)
        theta = carryover_theta(2, c=2.0, r=4.0)
        tariff = scheduler.default_tariff(8, demand_charge=10.0)
        res = scheduler.solve_schedule(theta, scenario_of(np.full(8, -5.0),
                                                          [21.0, 21.0]), tariff, cfg)
        assert res.p_import.max() > 0.1  # heating actually happens
        assert abs(res.p_peak - res.p_import.max()) <= 1e-6

    def test_comfort_weight_monotonicity(self):
        # raising the weight uniformly never increases the squared deviation
        topo = rc.default_topology(2)
        theta = carryover_theta(2, c=2.0, r=3.0)
        tariff = scheduler.default_tariff(6)
        scen = scenario_of(np.full(6, -5.0), [19.0, 19.0])
        devs = []
        for w in (0.2, 1.0, 5.0):
            cfg = make_config(topo, 6, weight=w)
            res = scheduler.solve_schedule(theta, scen, tariff, cfg)
            devs.append(np.sum((res.tau_in[1:] - cfg.comfort_target) ** 2))
        assert devs[1] <= devs[0] + 1e-8
        assert devs[2] <= devs[1] + 1e-8

    def test_tariff_shift_never_moves_load_into_peak(self):
        # doubling the off-peak price toward parity cannot increase off-peak
        # consumption
        topo = rc.default_topology(2)
        cfg = make_config(topo, 24, weight=1.0)
        theta = carryover_theta(2, c=2.0, r=4.0)
        scen = scenario_of(np.full(24, -5.0), [20.0, 20.0])
        offpeak_energy = []
        for offpeak_price in (0.3, 0.6):
            tariff = scheduler.default_tariff(24, offpeak=offpeak_price, peak=0.6)
            res = scheduler.solve_schedule(theta, scen, tariff, cfg)
            mask = np.arange(24) % 24
            off = (mask < 6) | (mask >= 19)
            offpeak_energy.append(res.p_import[off].sum())
        assert offpeak_energy[1] <= offpeak_energy[0] + 1e-6

    def test_infeasible_only_by_contradictory_capacities(self):
        # zonal caps force power, line capacity forbids it: certified failure
        topo = rc.default_topology(1)
        cfg = make_config(topo, 2, weight=1.0, line_capacity=0.0)
        theta = carryover_theta(1)
        tariff = scheduler.default_tariff(2)
        # line capacity 0 with nonnegativity stays feasible (all powers 0)
        res = scheduler.solve_schedule(theta, scenario_of([0.0, 0.0], [20.0]),
                                       tariff, cfg)
        np.testing.assert_allclose(res.p_import, 0.0, atol=1e-6)


class TestExpectedCost:
    def test_zero_powers_cost_zero(self):
        topo = rc.default_topology(1)
        cfg = make_config(topo, 4, weight=0.0)
        theta = carryover_theta(1)
        tariff = scheduler.Tariff(np.full(4, 0.3), 5.0)
        res = scheduler.solve_schedule(theta, scenario_of([20.0] * 4, [20.0]), tariff, cfg)
        assert scheduler.expected_cost(res, tariff) <= 1e-6

    def test_flat_import_arithmetic(self):
        # 1 kW flat for 24 h at 0.3 eur/kWh with a 10 eur/kW charge: 17.2 eur
        tariff = scheduler.Tariff(np.full(24, 0.3), 10.0)
        assert tariff.cost_of(np.ones(24)) == pytest.approx(17.2)

    def test_random_schedule_reaccumulation(self, rng):
        topo = rc.default_topology(2)
        cfg = make_config(topo, 12, weight=2.0)
        theta = carryover_theta(2, c=2.0, r=5.0)
        tariff = scheduler.default_tariff(12, demand_charge=7.0)
        res = scheduler.solve_schedule(theta, scenario_of(rng.uniform(-10, 5, 12),
                                                          [20.0, 21.0]), tariff, cfg)
        # spreadsheet-style re-accumulation
        manual = res.p_peak * 7.0
        for t in range(12):
            manual += res.p_import[t] * tariff.energy_price[t]
        assert scheduler.expected_cost(res, tariff) == pytest.approx(manual, abs=1e-9)


class TestCoefficientMapEndToEnd:
    def test_matches_finite_differences_through_solve(self, rng):
        """Full RC coefficient map on a 2-zone problem: end-to-end finite
        differences through assemble -> solve -> linear loss."""
        topo = rc.default_topology(2)
        cfg = make_config(topo, 3, weight=2.0)
        alpha = np.eye(2) + rng.normal(0, 0.03, size=(2, 2))
        theta = rc.ThetaParams(alpha, [0.9, 0.8], [0.9, 0.85],
                               [4.0, 5.0], [2.0, 2.5])
        tariff = scheduler.default_tariff(3)
        scen = scenario_of([-5.0, -3.0, 0.0], [19.0, 19.5])
        res = scheduler.solve_schedule(theta, scen, tariff, cfg)
        g = rng.normal(size=res.index.num_vars)
        sens = qp.backward(res.problem, res.solution, g)
        cmap = scheduler.coefficient_map(theta, scen, cfg)
        grad = qp.backward_through_map(sens, cmap)

        flat0 = rc.pack(theta)
        eps = 1e-6
        fd = np.zeros_like(flat0)
        for k in range(len(flat0)):
            up, dn = flat0.copy(), flat0.copy()
            up[k] += eps
            dn[k] -= eps
            r_up = scheduler.solve_schedule(rc.unpack(up, theta.num_zones), scen, tariff,
                                            cfg, tolerance=1e-10, max_iter=100)
            r_dn = scheduler.solve_schedule(rc.unpack(dn, theta.num_zones), scen, tariff,
                                            cfg, tolerance=1e-10, max_iter=100)
            fd[k] = (g @ r_up.solution.primal - g @ r_dn.solution.primal) / (2 * eps)
        assert rel_err(fd, grad) <= 1e-4


    def test_adjoint_allocates_no_dense_block(self, rng):
        """backward and the map's gather stay below the size of the smallest
        dense coefficient block, the m_eq x n equality block."""
        import tracemalloc
        topo = rc.default_topology(5)
        cfg = make_config(topo, 24, weight=2.0, zone_cap_h=8.0, zone_cap_c=8.0)
        alpha = np.eye(5) * 0.9 + rng.uniform(0, 0.02, size=(5, 5))
        theta = rc.ThetaParams(alpha, np.full(5, 0.9), np.full(5, 0.85),
                               np.full(5, 4.0), np.full(5, 2.0))
        scen = scenario_of(rng.uniform(-8, 6, 24), np.full(5, 19.0))
        res = scheduler.solve_schedule(theta, scen, scheduler.default_tariff(24), cfg)
        cmap = scheduler.coefficient_map(theta, scen, cfg)
        g = rng.normal(size=res.index.num_vars)
        p = res.problem
        tracemalloc.start()
        try:
            qp.backward_through_map(qp.backward(p, res.solution, g), cmap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p.num_eq * p.num_vars * 8


class TestDynamicsSlotLayout:
    def test_map_slots_are_where_assemble_puts_theta(self, rng):
        """coefficient_map names exactly the A and b entries that assemble
        fills from the step coefficients, and nothing else moves with theta."""
        topo = rc.default_topology(7, 5)  # floors of 5 and 2 zones
        z, horizon = topo.num_zones, 6
        mask = plant.adjacency_mask(topo)  # zero alphas off the plant's adjacency
        cfg = make_config(topo, horizon, weight=2.0)
        tariff = scheduler.default_tariff(horizon)
        amb = rng.normal(5.0, 5.0, horizon)
        scen = scenario_of(amb, rng.normal(20.0, 1.0, z))

        def masked_theta():
            alpha = np.where(mask, np.eye(z) + rng.normal(0, 0.05, size=(z, z)), 0.0)
            return rc.ThetaParams(alpha, rng.uniform(0.5, 1.2, z), rng.uniform(0.5, 1.2, z),
                                  rng.uniform(2.0, 8.0, z), rng.uniform(1.0, 5.0, z))

        theta = masked_theta()
        problem, idx = scheduler.assemble(theta, scen, tariff, cfg)
        cmap = scheduler.coefficient_map(theta, scen, cfg)
        coeff = rc.step_coefficients(theta)

        expected_a, expected_b = {}, {}
        for t in range(horizon):
            for zr in range(z):
                row = z + t * z + zr
                for j in range(z):
                    expected_a[row, idx.tau[t, j]] = -coeff.m_tau[zr, j]
                expected_a[row, idx.p_h[t, zr]] = -coeff.m_ph[zr]
                expected_a[row, idx.p_c[t, zr]] = -coeff.m_pc[zr]
                expected_b[row] = coeff.m_amb[zr] * amb[t]

        in_a = cmap.blocks == "A"
        a_slots = list(zip(cmap.rows[in_a].tolist(), cmap.cols[in_a].tolist()))
        b_slots = cmap.rows[~in_a].tolist()
        assert set(cmap.blocks.tolist()) == {"A", "b"}
        assert sorted(a_slots) == sorted(expected_a)
        assert sorted(b_slots) == sorted(expected_b)
        assert np.all(cmap.cols[~in_a] == -1)

        A = problem.A.toarray()
        assert [A[k] for k in a_slots] == [expected_a[k] for k in a_slots]
        assert [problem.b[r] for r in b_slots] == [expected_b[r] for r in b_slots]
        # masked-out alphas stay stored zeros, so the A pattern is theta-free
        coo = problem.A.tocoo()
        assert set(a_slots) <= set(zip(coo.row.tolist(), coo.col.tolist()))
        assert any(expected_a[k] == 0.0 for k in a_slots)

        other, _ = scheduler.assemble(masked_theta(), scen, tariff, cfg)
        moved_a = set(map(tuple, np.argwhere(other.A.toarray() != A).tolist()))
        moved_b = set(np.flatnonzero(other.b != problem.b).tolist())
        assert moved_a and moved_a <= set(a_slots)
        assert moved_b and moved_b <= set(b_slots)
        np.testing.assert_array_equal(other.A.indptr, problem.A.indptr)
        np.testing.assert_array_equal(other.A.indices, problem.A.indices)
        for block in ("Q", "G"):
            new, old = getattr(other, block), getattr(problem, block)
            for part in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(new, part), getattr(old, part))
        np.testing.assert_array_equal(other.q, problem.q)
        np.testing.assert_array_equal(other.h, problem.h)


class TestScheduleTemplate:
    @staticmethod
    def arrays(problem, cmap):
        p = problem
        return [a.tobytes() for a in (
            p.Q.data, p.Q.indices, p.Q.indptr, p.q, p.A.data, p.A.indices, p.A.indptr,
            p.b, p.G.data, p.G.indices, p.G.indptr, p.h, cmap.blocks, cmap.rows,
            cmap.cols, cmap.jacobian.data, cmap.jacobian.indices, cmap.jacobian.indptr)]

    def test_template_writes_the_same_bytes_as_a_lone_assembly(self, rng):
        # one template serves days and thetas in turn; each QP and map equals,
        # byte for byte, the one built without a template
        topo = rc.default_topology(7, 5)
        cfg = make_config(topo, 6, weight=2.0)
        tariff = scheduler.default_tariff(6)
        template = scheduler.schedule_template(tariff, cfg)
        for seed in range(3):
            theta = rc.default_theta(7, seed=seed)
            scen = scenario_of(rng.normal(5.0, 5.0, 6), rng.normal(20.0, 1.0, 7))
            lone = self.arrays(scheduler.assemble(theta, scen, tariff, cfg)[0],
                               scheduler.coefficient_map(theta, scen, cfg))
            assert self.arrays(scheduler.assemble(theta, scen, tariff, cfg, template)[0],
                               scheduler.coefficient_map(theta, scen, cfg, template)) == lone
        # the template's own QP keeps its zero theta entries
        assert not np.any(template.problem.A.data[template.a_slots])

    def test_solve_on_a_template_matches_a_lone_solve(self, rng):
        topo = rc.default_topology(3)
        cfg = make_config(topo, 8, weight=2.0, zone_cap_h=3.0)
        tariff = scheduler.default_tariff(8)
        template = scheduler.schedule_template(tariff, cfg)
        for _ in range(3):
            scen = scenario_of(rng.normal(0.0, 5.0, 8), np.full(3, 19.0))
            theta = rc.default_theta(3, seed=int(rng.integers(100)))
            lone = scheduler.solve_schedule(theta, scen, tariff, cfg)
            res = scheduler.solve_schedule(theta, scen, tariff, cfg, template=template)
            np.testing.assert_allclose(res.tau_in, lone.tau_in, rtol=1e-10, atol=1e-8)
            assert res.solution.kkt_residual <= 1e-8

    def test_template_of_another_tariff_or_config_refused(self):
        topo = rc.default_topology(2)
        cfg, tariff = make_config(topo, 4), scheduler.default_tariff(4)
        template = scheduler.schedule_template(tariff, cfg)
        scen = scenario_of([0.0] * 4, [20.0, 20.0])
        theta = carryover_theta(2)
        for other_tariff, other_cfg in ((scheduler.default_tariff(4), cfg),
                                        (tariff, make_config(topo, 4))):
            # a caller's mistake, not a QP that failed (ScheduleError)
            with pytest.raises(ValueError, match="another tariff or config"):
                scheduler.solve_schedule(theta, scen, other_tariff, other_cfg,
                                         template=template)
        with pytest.raises(ValueError, match="another tariff or config"):
            scheduler.coefficient_map(theta, scen, make_config(topo, 4), template)
