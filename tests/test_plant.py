"""Black-box plant: physics sanity, determinism, historical data generation."""
from dataclasses import replace

import numpy as np
import pytest

from dflsched import plant, rc
from dflsched.plant import PlantSpec, _solar_profile


def assert_same_bits(a, b):
    """Equal to the last bit, signed zeros included."""
    np.testing.assert_array_equal(a, b)
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def quiet_spec(z=1, substeps=12, noise=0.0, **overrides):
    """Single-floor plant with no gains, no solar, no noise unless asked."""
    topo = rc.default_topology(z)
    spec = plant.default_plant_spec(topo, noise_std=noise, seed=0)
    fields = dict(
        gain_occupied=np.zeros(z),
        gain_base=np.zeros(z),
        solar_gain_peak=0.0,
        vent_fan_kw=np.zeros(z),
        substeps=substeps,
    )
    fields.update(overrides)
    return replace(spec, **fields)


class TestSimulateDay:
    def test_thermal_equilibrium_zero_power(self):
        # setpoints at the current temperature, ambient equal to indoor,
        # no gains, no noise: nothing to do
        spec = quiet_spec(z=3)
        setpoints = np.full((25, 3), 20.0)
        trace = plant.simulate_day(spec, setpoints, np.full(24, 20.0), seed=1)
        assert np.abs(trace.p_hvac_obs).max() <= 1e-6
        np.testing.assert_allclose(trace.tau_obs, 20.0, atol=1e-9)

    def test_steady_state_conduction_oracle(self):
        """Ambient 20 degC below the setpoint: after burn-in, electrical
        power settles at the conductive loss over the effective efficiency,
        both computed from the plant's own equations."""
        spec = quiet_spec(z=1, r_mass=np.array([1e9]))  # decouple the mass node
        hours = 48
        setpoint = 21.0
        ambient = setpoint - 20.0
        setpoints = np.full((hours + 1, 1), setpoint)
        trace = plant.simulate_day(spec, setpoints, np.full(hours, ambient), seed=0)
        # plant's own steady-state balance
        d_t = 20.0
        loss = d_t * (d_t / 10.0) ** (spec.convection_exponent - 1.0) / spec.r_env[0]
        eta_eff = (1.0 - spec.duct_loss) / (1.0 + spec.fan_coeff)
        expected = loss / eta_eff
        steady = trace.p_hvac_obs[-8:, 0].mean()
        assert abs(steady - expected) / expected <= 0.02
        assert abs(trace.tau_obs[-1, 0] - setpoint) < 0.05

    def test_occupancy_wraps_into_next_week(self):
        # 8 days from a Monday at 0 h: Mon-Fri and the next Monday are
        # occupied 7-18 h, the weekend not at all; at thermal equilibrium
        # that shows as the ventilation fan's draw alone
        spec = quiet_spec(z=2, vent_fan_kw=np.full(2, 1.0))
        trace = plant.simulate_day(spec, np.full((8 * 24 + 1, 2), 20.0),
                                   np.full(8 * 24, 20.0), seed=1)
        expected = np.zeros((8, 24, 2))
        expected[[0, 1, 2, 3, 4, 7], 7:18] = 1.0
        np.testing.assert_allclose(trace.p_hvac_obs, expected.reshape(-1, 2), atol=1e-9)

    def test_determinism_bitwise(self):
        topo = rc.default_topology(4)
        spec = plant.default_plant_spec(topo, noise_std=0.2, seed=3)
        rng = np.random.default_rng(0)
        setpoints = 20.0 + rng.uniform(-2, 2, size=(25, 4))
        weather = rng.uniform(-10, 10, size=24)
        a = plant.simulate_day(spec, setpoints, weather, seed=99)
        b = plant.simulate_day(spec, setpoints, weather, seed=99)
        np.testing.assert_array_equal(a.tau_obs, b.tau_obs)
        np.testing.assert_array_equal(a.p_hvac_obs, b.p_hvac_obs)
        c = plant.simulate_day(spec, setpoints, weather, seed=100)
        assert not np.array_equal(a.p_hvac_obs, c.p_hvac_obs)

    def test_import_is_zone_sum(self):
        spec = quiet_spec(z=2)
        setpoints = np.full((25, 2), 22.0)
        trace = plant.simulate_day(spec, setpoints, np.full(24, 0.0), seed=5)
        np.testing.assert_allclose(trace.p_hvac_obs.sum(axis=1),
                                   trace.p_import_obs, atol=1e-12)
        assert trace.p_hvac_obs.min() >= 0.0

    def test_nonlinearity_witness(self):
        """The plant is not affine: superposition fails by far more than
        solver tolerance, so the affine RC model cannot be exact."""
        spec = quiet_spec(z=1)
        weather = np.full(24, -5.0)
        sp1 = np.full((25, 1), 19.0)
        sp2 = np.full((25, 1), 25.0)
        a, b = 0.5, 0.5
        mix = a * sp1 + b * sp2
        t1 = plant.simulate_day(spec, sp1, weather, seed=0)
        t2 = plant.simulate_day(spec, sp2, weather, seed=0)
        tm = plant.simulate_day(spec, mix, weather, seed=0)
        gap = np.abs(tm.p_hvac_obs - (a * t1.p_hvac_obs + b * t2.p_hvac_obs)).max()
        assert gap > 10 * 1e-8

    def test_energy_sanity_cold_day(self):
        # steady cold day: delivered heat covers the envelope loss minus
        # what storage gave up, within 5% (gains are zero here).  The books
        # are kept by the reference loop, which first must reproduce the
        # plant's run bit for bit.
        spec = quiet_spec(z=2)
        setpoints = np.full((25, 2), 21.0)
        weather = np.full(24, -10.0)
        trace = plant.simulate_day(spec, setpoints, weather, seed=0)
        ref_tau, ref_h, ref_c, energy = _ref_simulate_day(spec, setpoints, weather, seed=0)
        assert_same_bits(trace.tau_obs, ref_tau)
        assert_same_bits(trace.p_heat_obs, ref_h)
        assert_same_bits(trace.p_cool_obs, ref_c)
        delivered, envelope, _, storage = energy
        loss = -envelope  # positive on a cold day
        assert loss > 0
        floor = loss - (-storage)
        assert delivered >= floor - 0.05 * loss

    def test_saturation_is_not_an_error(self):
        # absurd setpoint: the plant saturates and keeps going
        spec = quiet_spec(z=1)
        setpoints = np.full((25, 1), 60.0)
        setpoints[0] = 20.0
        trace = plant.simulate_day(spec, setpoints, np.full(24, -20.0), seed=0)
        cap = (spec.ahu_heat_rating[0] + spec.reheat_rating[0]) * (1 + spec.fan_coeff)
        assert trace.p_hvac_obs.max() <= cap + 1e-9
        assert trace.p_hvac_obs.max() > 0.5 * cap


class TestExactRcPlant:
    def test_reproduces_schedule_exactly_at_true_theta(self):
        z = 2
        theta = rc.ThetaParams(np.eye(z), [0.9, 0.8], [0.9, 0.8],
                               [5.0, 4.0], [2.0, 3.0])
        sim = plant.ExactRcPlant(theta)
        rng = np.random.default_rng(1)
        setpoints = 20.0 + rng.uniform(-1, 1, size=(9, z))
        weather = rng.uniform(-5, 5, size=8)
        trace = sim.simulate(setpoints, weather, seed=0)
        np.testing.assert_allclose(trace.tau_obs, setpoints, atol=1e-9)
        # powers replayed through the RC model land on the setpoints
        roll = rc.rollout(theta, setpoints[0], weather,
                          trace.p_heat_obs, trace.p_cool_obs)
        np.testing.assert_allclose(roll, setpoints, atol=1e-9)


class TestHistoricalRollout:
    def test_dataset_length_and_ratings(self):
        spec = quiet_spec(z=2, noise=0.1, substeps=4)
        rng = np.random.default_rng(2)
        weather = rng.uniform(-15, 30, size=8760)
        ds = plant.historical_rollout(spec, weather, seed=11)
        assert len(ds) == 8760
        heat_cap = (spec.ahu_heat_rating[0] + spec.reheat_rating.max()) * (1 + spec.fan_coeff)
        cool_cap = spec.ahu_cool_rating[0] * (1 / spec.cop_min + spec.fan_coeff)
        assert ds.p_h.max() <= heat_cap + 1e-9
        assert ds.p_c.max() <= cool_cap + 1e-9
        assert ds.p_h.min() >= 0 and ds.p_c.min() >= 0

    def test_replay_self_consistency(self):
        """Replaying recorded electrical powers through the plant's own
        air-node equation reproduces the recorded next temperatures: exact
        at zero noise, within 3 sigma otherwise.

        Uses one substep per hour, a decoupled mass node and an oversized
        AHU (reheat never engages, so electrical power inverts cleanly to
        coil thermal power) so the recorded hourly tuples are the full
        plant state."""
        for noise in (0.0, 0.2):
            # gentle gains: one substep per hour needs h*kp/c_air < 1
            spec = quiet_spec(z=1, substeps=1, noise=noise, kp=0.3, ki=0.05,
                              r_mass=np.array([1e12]), r_env=np.array([3.0]),
                              ahu_heat_rating=np.array([1e3]),
                              ahu_cool_rating=np.array([1e3]))
            weather = np.tile(plant.np.linspace(-10, 10, 24), 365)
            ds = plant.historical_rollout(spec, weather, seed=4)
            eta = 1.0 + spec.fan_coeff
            thermal_h = (1.0 - spec.duct_loss) * ds.p_h / eta
            cool_coil = ds.p_c / (1.0 / np.array([spec.cop(a) for a in ds.tau_amb])[:, None]
                                  + spec.fan_coeff)
            thermal_c = (1.0 - spec.duct_loss) * cool_coil
            d_t = ds.tau_amb[:, None] - ds.tau
            q_env = d_t * np.abs(d_t / 10.0) ** (spec.convection_exponent - 1) / spec.r_env
            hours = np.arange(8760) % 24
            dows = (np.arange(8760) // 24) % 7
            occupied = (dows < 5) & (hours >= 7) & (hours < 18)
            gains = np.where(occupied[:, None], spec.gain_occupied, spec.gain_base)
            predicted = ds.tau + (thermal_h - thermal_c + q_env + gains) / spec.c_air
            resid = predicted - ds.tau_next
            if noise == 0.0:
                assert np.abs(resid).max() <= 1e-9
            else:
                # residual equals the (unknown) per-step noise; 3 sigma bound
                # with a Gaussian-tail allowance over 8760 samples
                assert np.abs(resid).max() <= 4.5 * noise / spec.c_air[0]
                assert resid.std() == pytest.approx(noise / spec.c_air[0], rel=0.1)

    def test_baseline_band_is_one_column_per_hour(self):
        # the band is shared by every zone, so a year costs no (T, Z) array
        lo, hi = plant.baseline_band(8760)
        assert lo.shape == hi.shape == (8760, 1)
        occupied = np.array([_ref_occupied(t) for t in range(8760)])
        np.testing.assert_array_equal(lo[:, 0], np.where(occupied, 21.0, 17.0))
        np.testing.assert_array_equal(hi[:, 0], np.where(occupied, 21.0, 26.0))

    def test_baseline_respects_deadband(self):
        spec = quiet_spec(z=1, substeps=6)
        weather = np.full(24 * 14, 10.0)
        ds = plant.historical_rollout(spec, weather, seed=1)
        # after the first day settles, temperatures stay within the setbacks
        settled = ds.tau[24:]
        assert settled.min() >= plant.BASELINE_HEAT_SETBACK - 0.6
        assert settled.max() <= plant.BASELINE_COOL_SETBACK + 0.6


class TestSpecValidation:
    def test_bad_duct_loss_rejected(self):
        topo = rc.default_topology(1)
        spec = plant.default_plant_spec(topo)
        with pytest.raises(plant.PlantError):
            replace(spec, duct_loss=1.0)

    def test_cop_must_stay_positive(self):
        topo = rc.default_topology(1)
        spec = plant.default_plant_spec(topo)
        with pytest.raises(plant.PlantError):
            replace(spec, cop_slope=2.0, cop_min=-1.0)


class TestWarmup:
    def test_returns_plausible_temperatures(self):
        spec = quiet_spec(z=3, noise=0.05, substeps=4)
        tau = plant.warmup_initial_tau(spec, np.full(24, 0.0), seed=9)
        assert tau.shape == (3,)
        assert np.all(tau > 5.0) and np.all(tau < 30.0)


# ---------------------------------------------------------------------------
# reference: the elementwise numpy per-substep loop, kept verbatim as the
# oracle for the plant loop's bit-identical outputs and its energy books


class _RefState:
    def __init__(self, spec: PlantSpec, tau_air: np.ndarray):
        self.t_air = np.asarray(tau_air, dtype=float).copy()
        self.t_mass = self.t_air.copy()
        self.integral = np.zeros(spec.topology.num_zones)


def _ref_allocate(spec: PlantSpec, cmd: np.ndarray):
    q_h = np.maximum(cmd, 0.0)
    q_c = np.maximum(-cmd, 0.0)
    ahu_h = np.zeros_like(q_h)
    reheat = np.zeros_like(q_h)
    cool = np.zeros_like(q_c)
    for f, members in enumerate(spec.topology.floors):
        m = np.asarray(members)
        want = q_h[m]
        total = want.sum()
        scale = min(1.0, spec.ahu_heat_rating[f] / total) if total > 0 else 0.0
        ahu_h[m] = want * scale
        reheat[m] = np.minimum(want - ahu_h[m], spec.reheat_rating[m])
        want_c = q_c[m]
        total_c = want_c.sum()
        scale_c = min(1.0, spec.ahu_cool_rating[f] / total_c) if total_c > 0 else 0.0
        cool[m] = want_c * scale_c
    return ahu_h, reheat, cool


def _ref_substep(spec: PlantSpec, state: _RefState, lo, hi, ambient: float,
                 gains: np.ndarray, h: float, adj: np.ndarray,
                 occupied: bool = False):
    err = np.clip(state.t_air, lo, hi) - state.t_air
    cmd = spec.kp * err + spec.ki * state.integral
    ahu_h, reheat, cool = _ref_allocate(spec, cmd)
    delivered = ahu_h + reheat - cool
    saturated = np.abs(delivered - cmd) > 1e-9
    state.integral = np.where(saturated, state.integral, state.integral + err * h)

    q_hvac = (1.0 - spec.duct_loss) * (ahu_h - cool) + reheat
    d_t = ambient - state.t_air
    q_env = d_t * np.abs(d_t / 10.0) ** (spec.convection_exponent - 1.0) / spec.r_env
    q_zz = (adj @ state.t_air - adj.sum(axis=1) * state.t_air) / spec.r_zone
    q_ma = (state.t_mass - state.t_air) / spec.r_mass

    state.t_air = state.t_air + h * (q_hvac + gains + q_env + q_zz + q_ma) / spec.c_air
    state.t_mass = state.t_mass + h * (-q_ma) / spec.c_mass

    cop = spec.cop(ambient)
    p_heat = ahu_h + reheat + spec.fan_coeff * ahu_h
    p_cool = cool / cop + spec.fan_coeff * cool
    if occupied:
        vent = spec.vent_fan_kw
        heat_side = cmd >= 0.0
        p_heat = p_heat + np.where(heat_side, vent, 0.0)
        p_cool = p_cool + np.where(heat_side, 0.0, vent)
    return p_heat, p_cool, q_hvac, q_env


def _ref_occupied(t: int) -> bool:
    """Hour t of a run that starts on a Monday at 0 h: Mon-Fri, 7-18 h."""
    return (t // 24) % 7 < 5 and 7 <= t % 24 < 18


def _ref_gains(spec: PlantSpec, hour_frac: float, occupied: bool,
               rng: np.random.Generator) -> np.ndarray:
    base = spec.gain_occupied if occupied else spec.gain_base
    solar = _solar_profile(np.asarray(hour_frac), spec.solar_gain_peak)
    noise = rng.normal(0.0, spec.noise_std, size=len(base)) if spec.noise_std > 0 \
        else np.zeros(len(base))
    return base + solar + noise


def _ref_simulate_day(spec, setpoints, weather, seed):
    z = spec.topology.num_zones
    t_h = len(weather)
    rng = np.random.default_rng(seed)
    adj = plant._adjacency(spec.topology)
    state = _RefState(spec, setpoints[0])
    h = 1.0 / spec.substeps

    tau_obs = np.empty((t_h + 1, z))
    tau_obs[0] = state.t_air
    p_heat_obs = np.zeros((t_h, z))
    p_cool_obs = np.zeros((t_h, z))
    e_delivered = e_envelope = e_gains = 0.0
    heat0 = float(spec.c_air @ state.t_air + spec.c_mass @ state.t_mass)

    for t in range(t_h):
        target = setpoints[t + 1]
        hour_of_day = t % 24
        occupied = _ref_occupied(t)
        acc_h = np.zeros(z)
        acc_c = np.zeros(z)
        for k in range(spec.substeps):
            gains = _ref_gains(spec, hour_of_day + (k + 0.5) / spec.substeps,
                               occupied, rng)
            p_heat, p_cool, q_hvac, q_env = _ref_substep(
                spec, state, target, target, weather[t], gains, h, adj,
                occupied=occupied)
            acc_h += p_heat
            acc_c += p_cool
            e_delivered += float(q_hvac.sum()) * h
            e_envelope += float(q_env.sum()) * h
            e_gains += float(gains.sum()) * h
        tau_obs[t + 1] = state.t_air
        p_heat_obs[t] = acc_h / spec.substeps
        p_cool_obs[t] = acc_c / spec.substeps

    heat1 = float(spec.c_air @ state.t_air + spec.c_mass @ state.t_mass)
    return (tau_obs, p_heat_obs, p_cool_obs,
            (e_delivered, e_envelope, e_gains, heat1 - heat0))


def _ref_baseline_run(spec, weather, seed):
    """historical_rollout, and warmup_initial_tau as its last tau_next:
    21 degC occupied, 17/26 degC setbacks otherwise."""
    z = spec.topology.num_zones
    n = len(weather)
    rng = np.random.default_rng(seed)
    adj = plant._adjacency(spec.topology)
    state = _RefState(spec, np.full(z, 20.0))
    h = 1.0 / spec.substeps

    tau = np.empty((n, z))
    p_h = np.zeros((n, z))
    p_c = np.zeros((n, z))
    tau_next = np.empty((n, z))

    for t in range(n):
        hour_of_day = t % 24
        occupied = _ref_occupied(t)
        lo, hi = (21.0, 21.0) if occupied else (17.0, 26.0)
        tau[t] = state.t_air
        acc_h = np.zeros(z)
        acc_c = np.zeros(z)
        for k in range(spec.substeps):
            gains = _ref_gains(spec, hour_of_day + (k + 0.5) / spec.substeps,
                               occupied, rng)
            ph, pc, _, _ = _ref_substep(spec, state, lo, hi, weather[t],
                                        gains, h, adj, occupied=occupied)
            acc_h += ph
            acc_c += pc
        p_h[t] = acc_h / spec.substeps
        p_c[t] = acc_c / spec.substeps
        tau_next[t] = state.t_air
    return tau, p_h, p_c, tau_next


def _off_floor_topology():
    # zone 3 is on no floor; floors of unequal size
    return rc.ZoneTopology(6, ((0, 1, 2), (4, 5)))


_TOPOLOGIES = {
    "z5": lambda: rc.default_topology(5),
    "z7-floors-5-2": lambda: rc.default_topology(7),
    "z15": lambda: rc.default_topology(15),
    "z6-zone-on-no-floor": _off_floor_topology,
    # a floor of 10 zones sums its AHU demand in numpy's 8-wide order
    "z20-floors-of-10": lambda: rc.default_topology(20, 10),
}


def test_floor_sum_matches_numpy_reduce():
    rng = np.random.default_rng(21)
    # above 128 values the sum splits into halves
    for n in [*range(1, 41), 129, 300]:
        for _ in range(25):
            x = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 9, size=n)
            got = np.float64(plant._floor_sum(x.tolist(), range(n)))
            assert got.tobytes() == np.add.reduce(x).tobytes(), n


class TestPlantLoopMatchesReference:
    """The plant's loop, which steps zones as Python floats, reproduces the
    per-substep numpy loop bit for bit.  The multi-day runs start on a
    Monday and reach the weekend."""

    @pytest.fixture(params=sorted(_TOPOLOGIES), ids=str)
    def topology(self, request):
        return _TOPOLOGIES[request.param]()

    @pytest.fixture(params=[0.0, 0.15], ids=["noise-off", "noise-on"])
    def spec(self, request, topology):
        return plant.default_plant_spec(topology, noise_std=request.param, seed=2)

    def test_historical_rollout_nine_days(self, spec):
        weather = np.random.default_rng(5).uniform(-15.0, 32.0, size=9 * 24)
        ds = plant.historical_rollout(spec, weather, seed=11)
        tau, p_h, p_c, tau_next = _ref_baseline_run(spec, weather, seed=11)
        assert_same_bits(ds.tau, tau)
        assert_same_bits(ds.p_h, p_h)
        assert_same_bits(ds.p_c, p_c)
        assert_same_bits(ds.tau_next, tau_next)

    # one day is the scenario warm-up, a Monday; six days end on a Saturday
    @pytest.mark.parametrize("days", [1, 6])
    def test_warmup_initial_tau(self, spec, days):
        weather = np.random.default_rng(6).uniform(-10.0, 30.0, size=days * 24)
        got = plant.warmup_initial_tau(spec, weather, seed=3)
        _, _, _, tau_next = _ref_baseline_run(spec, weather, seed=3)
        assert_same_bits(got, tau_next[-1])

    @pytest.mark.parametrize("case", ["tracking", "saturating"])
    def test_simulate_day(self, spec, case):
        z = spec.topology.num_zones
        rng = np.random.default_rng(7)
        hours = 9 * 24
        if case == "tracking":
            setpoints = 21.0 + rng.uniform(-3.0, 3.0, size=(hours + 1, z))
            weather = rng.uniform(-5.0, 30.0, size=hours)
        else:
            # far above anything the floor AHU can deliver on a cold day
            setpoints = np.full((hours + 1, z), 45.0)
            setpoints[0] = 18.0
            weather = np.full(hours, -15.0)
        if case == "saturating":
            # the first substep's command (empty integrator) already exceeds
            # every floor's AHU rating, so the floor-scale path fires
            first = spec.kp * (setpoints[1] - setpoints[0])
            assert all(first[list(members)].sum() > rating for members, rating
                       in zip(spec.topology.floors, spec.ahu_heat_rating))
        ref_tau, ref_h, ref_c, _ = _ref_simulate_day(spec, setpoints, weather, seed=9)
        trace = plant.simulate_day(spec, setpoints, weather, seed=9)
        assert_same_bits(trace.tau_obs, ref_tau)
        assert_same_bits(trace.p_heat_obs, ref_h)
        assert_same_bits(trace.p_cool_obs, ref_c)
        assert_same_bits(trace.p_hvac_obs, ref_h + ref_c)

    def test_zone_on_no_floor_gets_no_hvac(self):
        # no ventilation fan, which draws in occupied hours on or off a floor
        spec = replace(plant.default_plant_spec(_off_floor_topology(), noise_std=0.15, seed=2),
                       vent_fan_kw=np.zeros(6))
        setpoints = np.full((25, 6), 30.0)
        trace = plant.simulate_day(spec, setpoints, np.full(24, -10.0), seed=1)
        assert np.all(trace.p_hvac_obs[:, 3] == 0.0)
        assert np.all(trace.p_hvac_obs[:, [0, 1, 2, 4, 5]] > 0.0)
