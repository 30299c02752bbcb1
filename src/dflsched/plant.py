"""Synthetic ground-truth building plant.

A nonlinear, noisy multi-zone thermal model with an internal
setpoint-tracking controller.  It exposes only what a real building
management system could observe: hourly zone temperatures and ex-post
electrical powers.  No gradients, by construction: two thermal nodes per
zone, a nonlinear envelope convection law, an ambient-dependent cooling
COP, duct losses, scheduled internal gains and process noise all separate
it from the affine RC model the optimizer learns.

Every run starts on a Monday at 0 h, so a scenario day is a weekday.  The
plant returns no bill: callers price the observed import.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import rc
from .rc import ThetaParams, ZoneTopology


class PlantError(Exception):
    pass


@dataclass(frozen=True)
class PlantSpec:
    """Physical description of the plant; all ratings thermal kW."""

    topology: ZoneTopology
    c_air: np.ndarray  # (Z,) kWh/degC
    c_mass: np.ndarray  # (Z,) kWh/degC
    r_env: np.ndarray  # (Z,) degC/kW at the reference 10 degC delta
    r_mass: np.ndarray  # (Z,) degC/kW air-mass coupling
    r_zone: float  # degC/kW between adjacent zones
    convection_exponent: float  # envelope heat flow ~ dT^exponent
    reheat_rating: np.ndarray  # (Z,) kW thermal
    ahu_heat_rating: np.ndarray  # (F,) kW thermal
    ahu_cool_rating: np.ndarray  # (F,) kW thermal
    cop_ref: float  # COP at cop_ref_temp
    cop_ref_temp: float
    cop_slope: float  # COP drop per degC of ambient above reference
    cop_min: float
    cop_max: float
    duct_loss: float  # fraction of AHU thermal lost in ducts
    fan_coeff: float  # electrical kW per thermal kW moved through the AHU
    gain_occupied: np.ndarray  # (Z,) kW during occupied hours (Mon-Fri, 7-18 h)
    gain_base: np.ndarray  # (Z,) kW otherwise
    solar_gain_peak: float  # kW per zone at solar noon
    noise_std: float  # kW, Gaussian on gains per substep
    kp: float  # controller proportional gain, kW/degC
    ki: float  # controller integral gain, kW/(degC h)
    substeps: int = 12
    # minimum-airflow ventilation: AHU fan electricity drawn per occupied
    # zone regardless of thermal demand, attributed to the active thermal
    # channel per the airflow-share accounting convention
    vent_fan_kw: np.ndarray | None = None

    def __post_init__(self):
        z = self.topology.num_zones
        if self.vent_fan_kw is None:
            object.__setattr__(self, "vent_fan_kw", np.zeros(z))
        for name in ("c_air", "c_mass", "r_env", "r_mass", "reheat_rating",
                     "gain_occupied", "gain_base", "vent_fan_kw"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (z,):
                raise PlantError(f"{name} must have length {z}")
            object.__setattr__(self, name, v)
        f = self.topology.num_floors
        for name in ("ahu_heat_rating", "ahu_cool_rating"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (f,):
                raise PlantError(f"{name} must have length {f}")
            object.__setattr__(self, name, v)
        if np.any(self.reheat_rating <= 0) or np.any(self.ahu_heat_rating <= 0) \
                or np.any(self.ahu_cool_rating <= 0):
            raise PlantError("equipment ratings must be positive")
        if not 0 <= self.duct_loss < 1:
            raise PlantError("duct loss must be in [0, 1)")
        if self.noise_std < 0:
            raise PlantError("noise std must be nonnegative")
        for amb in (-20.0, 45.0):
            if self.cop(amb) <= 0:
                raise PlantError("COP must stay positive over -20..45 degC")

    def cop(self, ambient: float) -> float:
        value = self.cop_ref - self.cop_slope * (ambient - self.cop_ref_temp)
        return float(np.clip(value, self.cop_min, self.cop_max))


def default_plant_spec(topology: ZoneTopology, noise_std: float = 0.15,
                       seed: int = 0) -> PlantSpec:
    """Desk-scale office defaults with mild per-zone heterogeneity so zones
    are distinguishable."""
    rng = np.random.default_rng(seed)
    z = topology.num_zones
    spread = rng.uniform(0.85, 1.15, size=z)
    return PlantSpec(
        topology=topology,
        c_air=0.9 * spread,
        c_mass=6.0 * spread,
        r_env=5.0 / spread,
        r_mass=0.6 * np.ones(z),
        r_zone=4.0,
        convection_exponent=1.35,
        reheat_rating=4.0 * np.ones(z),
        ahu_heat_rating=np.full(topology.num_floors, 60.0),
        ahu_cool_rating=np.full(topology.num_floors, 45.0),
        cop_ref=3.5,
        cop_ref_temp=15.0,
        cop_slope=0.09,
        cop_min=1.6,
        cop_max=5.0,
        duct_loss=0.18,
        fan_coeff=0.08,
        gain_occupied=2.0 * spread,
        gain_base=0.1 * np.ones(z),
        solar_gain_peak=1.2,
        noise_std=noise_std,
        kp=6.0,
        ki=2.0,
        substeps=12,
        vent_fan_kw=0.75 * spread,
    )


@dataclass
class SimulationTrace:
    tau_obs: np.ndarray  # (T+1, Z) hourly observed zone temperatures
    p_hvac_obs: np.ndarray  # (T, Z) ex-post zonal electrical power
    p_import_obs: np.ndarray  # (T,)
    p_heat_obs: np.ndarray  # (T, Z) electrical, heating share
    p_cool_obs: np.ndarray  # (T, Z) electrical, cooling share


def adjacency_mask(topology: ZoneTopology) -> np.ndarray:
    """Which zones exchange heat: self terms, same-floor pairs and
    vertically stacked zones (same position on adjacent floors)."""
    z = topology.num_zones
    mask = np.eye(z, dtype=bool)
    for members in topology.floors:
        mask[np.ix_(members, members)] = True
    for lower, upper in zip(topology.floors, topology.floors[1:]):
        for a, b in zip(lower, upper):
            mask[a, b] = mask[b, a] = True
    return mask


def _adjacency(topology: ZoneTopology) -> np.ndarray:
    adj = adjacency_mask(topology).astype(float)
    np.fill_diagonal(adj, 0.0)
    return adj


def _solar_profile(hour_frac: np.ndarray, peak: float) -> np.ndarray:
    """Zero outside 6h-18h, sinusoidal bump peaking at noon."""
    x = np.sin(np.pi * (hour_frac - 6.0) / 12.0)
    return peak * np.where((hour_frac >= 6.0) & (hour_frac <= 18.0), np.maximum(x, 0.0), 0.0)


def _calendar(hours: int) -> np.ndarray:
    """Occupancy of each hour of a run that starts on a Monday at 0 h:
    Mon-Fri, 7-18 h."""
    t = np.arange(hours)
    hour_of_day = t % 24
    return ((t // 24) % 7 < 5) & (hour_of_day >= 7) & (hour_of_day < 18)


class _Run(NamedTuple):
    tau: np.ndarray  # (T+1, Z) air temperature at each hour boundary
    p_heat: np.ndarray  # (T, Z) mean electrical power per hour, heating share
    p_cool: np.ndarray  # (T, Z) cooling share


def _floor_sum(values: list, members) -> float:
    """``np.add.reduce`` of ``values`` at ``members``, in its pairwise order:
    from 0.0 one by one below 8 members, in 8 interleaved partial sums up to
    128, and as two halves split at a multiple of 8 above."""
    n = len(members)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _floor_sum(values, members[:half]) + _floor_sum(values, members[half:])
    total, end = 0.0, 0
    if n >= 8:
        r, end = [values[i] for i in members[:8]], n - n % 8
        for k in range(8, end, 8):
            r = [a + values[i] for a, i in zip(r, members[k:k + 8])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for i in members[end:]:
        total += values[i]
    return total


def _drive(spec: PlantSpec, tau0: np.ndarray, weather: np.ndarray,
           lo: np.ndarray, hi: np.ndarray, rng: np.random.Generator) -> _Run:
    """The plant's time-stepping loop, shared by every public entry point.

    Air and mass nodes start at ``tau0`` with an empty integrator, then
    each of the ``len(weather)`` hours runs ``spec.substeps`` controller
    and thermal substeps.  ``lo[t]`` and ``hi[t]`` bound hour t's tracked
    band (equal for exact setpoints); each row is (Z,) or (1,), broadcast
    over zones.  Occupancy follows ``_calendar``.  PI control tracks the
    band; the integrator only accumulates while the equipment can deliver
    the command (conditional-integration anti-windup).  Floor AHU coils
    curtail proportionally at their rating and reheat tops up heating up to
    its own; zones on no floor get no HVAC.

    Zones step as Python floats, with the IEEE operations and order of the
    elementwise numpy form: ``np.maximum(a, b)`` is ``a if a > b else b``
    and floor totals follow ``_floor_sum``.  Only the envelope law's power
    and the zone coupling's BLAS matvec stay in numpy; on some hosts they
    differ from Python's ``**`` and from a sequential sum.
    """
    z = spec.topology.num_zones
    n = len(weather)
    m = spec.substeps
    h = 1.0 / m
    adj = _adjacency(spec.topology)
    hour_frac = np.arange(24)[:, None] + (np.arange(m) + 0.5) / m
    solar = _solar_profile(hour_frac, spec.solar_gain_peak).tolist()
    exponent = spec.convection_exponent - 1.0
    kp, ki, fan, r_zone, duct = (float(v) for v in (spec.kp, spec.ki, spec.fan_coeff,
                                                    spec.r_zone, 1.0 - spec.duct_loss))
    adj_rows, r_env, r_mass, c_air, c_mass, vent, gain_occupied, gain_base = (
        v.tolist() for v in (adj.sum(axis=1), spec.r_env, spec.r_mass, spec.c_air,
                             spec.c_mass, spec.vent_fan_kw, spec.gain_occupied, spec.gain_base))
    # zones on no floor take the extra last coil scale, zero, and no reheat
    floors = list(zip(spec.topology.floors, spec.ahu_heat_rating.tolist(),
                      spec.ahu_cool_rating.tolist()))
    on_floor = {zone: f for f, (members, _, _) in enumerate(floors) for zone in members}
    floor_of = [on_floor.get(zone, len(floors)) for zone in range(z)]
    reheat_cap = [r if zone in on_floor else 0.0
                  for zone, r in enumerate(spec.reheat_rating.tolist())]

    t_air = np.asarray(tau0, dtype=float).tolist()
    t_mass = list(t_air)
    integral = [0.0] * z
    tau = np.empty((n + 1, z))
    tau[0] = t_air
    p_heat, p_cool = np.empty((n, z)), np.empty((n, z))
    lo, hi = np.broadcast_to(lo, (n, z)), np.broadcast_to(hi, (n, z))
    no_noise = [[0.0] * z] * m
    # numpy's work: air temperatures and |dT / 10| in, coupling and power out
    numpy_in, numpy_out = np.empty(2 * z), np.empty(2 * z)
    air_in, ratio_in, coupled_out, power_out = (
        numpy_in[:z], numpy_in[z:], numpy_out[:z], numpy_out[z:])

    for t, (occupied, ambient) in enumerate(zip(_calendar(n).tolist(), weather.tolist())):
        band_lo, band_hi = lo[t].tolist(), hi[t].tolist()
        cop = spec.cop(ambient)
        base = gain_occupied if occupied else gain_base
        noise = rng.normal(0.0, spec.noise_std, size=(m, z)).tolist() \
            if spec.noise_std > 0 else no_noise
        acc_h, acc_c = [0.0] * z, [0.0] * z
        for sun, noise_k in zip(solar[t % 24], noise):
            d_t, ratio, err, cmd, want_h, want_c = [], [], [], [], [], []
            for ta, b_lo, b_hi, acc in zip(t_air, band_lo, band_hi, integral):
                d = ambient - ta
                d_t.append(d)
                ratio.append(abs(d / 10.0))
                clipped = ta if ta > b_lo else b_lo
                e = (clipped if clipped < b_hi else b_hi) - ta
                c = kp * e + ki * acc
                err.append(e)
                cmd.append(c)
                want_h.append(c if c > 0.0 else 0.0)
                want_c.append(-c if -c > 0.0 else 0.0)
            numpy_in[:] = t_air + ratio
            np.matmul(adj, air_in, out=coupled_out)
            np.power(ratio_in, exponent, out=power_out)
            numpy_results = numpy_out.tolist()
            coupled, power = numpy_results[:z], numpy_results[z:]
            # == min(1, rating / total) for total > 0; 1 when the floor wants 0
            scale_h, scale_c = [], []
            for members, r_h, r_c in floors:
                total = _floor_sum(want_h, members)
                scale_h.append(r_h / (total if total > r_h else r_h))
                total = _floor_sum(want_c, members)
                scale_c.append(r_c / (total if total > r_c else r_c))
            scale_h.append(0.0)
            scale_c.append(0.0)

            for i, f in enumerate(floor_of):
                ahu_h = want_h[i] * scale_h[f]
                cool = want_c[i] * scale_c[f]
                short = want_h[i] - ahu_h
                reheat = short if short < reheat_cap[i] else reheat_cap[i]
                heat = ahu_h + reheat
                c = cmd[i]
                if not abs(heat - cool - c) > 1e-9:
                    integral[i] = integral[i] + err[i] * h
                ta, tm = t_air[i], t_mass[i]
                q_hvac = duct * (ahu_h - cool) + reheat
                q_env = d_t[i] * power[i] / r_env[i]
                q_zz = (coupled[i] - adj_rows[i] * ta) / r_zone
                q_ma = (tm - ta) / r_mass[i]
                gain = (base[i] + sun) + noise_k[i]
                t_air[i] = ta + h * ((((q_hvac + gain) + q_env) + q_zz) + q_ma) / c_air[i]
                t_mass[i] = tm - h * q_ma / c_mass[i]
                ph = heat + fan * ahu_h
                pc = cool / cop + fan * cool
                if occupied:  # the ventilation fan draws on the active side
                    v = vent[i]
                    ph, pc = (ph + v, pc + 0.0) if c >= 0.0 else (ph + 0.0, pc + v)
                acc_h[i] += ph
                acc_c[i] += pc
        tau[t + 1] = t_air
        p_heat[t] = [a / m for a in acc_h]
        p_cool[t] = [a / m for a in acc_c]
    return _Run(tau, p_heat, p_cool)


def simulate_day(spec: PlantSpec, setpoints: np.ndarray, weather: np.ndarray,
                 seed: int) -> SimulationTrace:
    """Track hourly setpoints at sub-hourly resolution and return hourly
    observations.  Deterministic given (spec, setpoints, weather, seed).
    The plant never fails: saturation is physical behavior.

    During hour t the controller tracks ``setpoints[t+1]``, the temperature
    the schedule wants reached by the end of the step.  The run starts on a
    Monday at 0 h.
    """
    setpoints = np.asarray(setpoints, dtype=float)
    weather = np.asarray(weather, dtype=float).ravel()
    z = spec.topology.num_zones
    t_h = len(weather)
    if setpoints.shape != (t_h + 1, z):
        raise PlantError(f"setpoints must have shape {(t_h + 1, z)}, got {setpoints.shape}")

    target = setpoints[1:]
    run = _drive(spec, setpoints[0], weather, target, target, np.random.default_rng(seed))
    p_hvac = run.p_heat + run.p_cool
    return SimulationTrace(run.tau, p_hvac, p_hvac.sum(axis=1), run.p_heat, run.p_cool)


class Plant:
    """Callable wrapper binding a spec, for use by the training loop."""

    def __init__(self, spec: PlantSpec):
        self.spec = spec

    def simulate(self, setpoints, ambient, seed) -> SimulationTrace:
        return simulate_day(self.spec, setpoints, ambient, seed)


class ExactRcPlant:
    """Realizable diagnostic plant: an RC model with hidden parameters and a
    perfect inverse controller.  When the learned parameters equal the hidden
    ones, observed powers reproduce the schedule exactly (zero noise).
    ``seed`` is unused: nothing is random."""

    def __init__(self, theta: ThetaParams):
        self.theta = theta

    def simulate(self, setpoints, ambient, seed) -> SimulationTrace:
        setpoints = np.asarray(setpoints, dtype=float)
        ambient = np.asarray(ambient, dtype=float).ravel()
        th = self.theta
        z = th.num_zones
        t_h = len(ambient)
        tau = np.empty((t_h + 1, z))
        tau[0] = setpoints[0]
        p_h = np.zeros((t_h, z))
        p_c = np.zeros((t_h, z))
        for t in range(t_h):
            # thermal need that lands exactly on the setpoint
            drift = rc.rc_step(th, tau[t], ambient[t], np.zeros(z), np.zeros(z))
            q_net = (setpoints[t + 1] - drift) * th.c
            heat = np.maximum(q_net, 0.0) / th.eta_h
            cool = np.maximum(-q_net, 0.0) / th.eta_c
            p_h[t] = heat
            p_c[t] = cool
            tau[t + 1] = rc.rc_step(th, tau[t], ambient[t], heat, cool)
        p_hvac = p_h + p_c
        return SimulationTrace(tau, p_hvac, p_hvac.sum(axis=1), p_h, p_c)


# ---------------------------------------------------------------------------
# historical data generation


BASELINE_OCCUPIED = 21.0
BASELINE_HEAT_SETBACK = 17.0
BASELINE_COOL_SETBACK = 26.0


@dataclass(frozen=True)
class TransitionDataset:
    """Hourly transitions (tau_t, tau_amb, p_h, p_c, tau_next), electrical
    powers, for pre-training the RC model."""

    tau: np.ndarray  # (N, Z)
    tau_amb: np.ndarray  # (N,)
    p_h: np.ndarray  # (N, Z)
    p_c: np.ndarray  # (N, Z)
    tau_next: np.ndarray  # (N, Z)

    def __len__(self) -> int:
        return len(self.tau_amb)


def baseline_band(hours: int) -> tuple[np.ndarray, np.ndarray]:
    """The conventional fixed schedule's band over ``hours`` from a Monday
    at 0 h, as (hours, 1) columns shared by every zone: the occupied
    setpoint, or the heating/cooling setbacks otherwise."""
    occupied = _calendar(hours)[:, None]
    lo = np.where(occupied, BASELINE_OCCUPIED, BASELINE_HEAT_SETBACK)
    hi = np.where(occupied, BASELINE_OCCUPIED, BASELINE_COOL_SETBACK)
    return lo, hi


def historical_rollout(spec: PlantSpec, weather_year: np.ndarray,
                       seed: int) -> TransitionDataset:
    """One year from a Monday under the conventional occupancy schedule
    (21 degC occupied, 17/26 degC setbacks), recorded as hourly
    transitions."""
    weather_year = np.asarray(weather_year, dtype=float).ravel()
    if len(weather_year) % 24:
        raise PlantError("weather series must cover whole days")
    z = spec.topology.num_zones
    run = _drive(spec, np.full(z, 20.0), weather_year,
                 *baseline_band(len(weather_year)), np.random.default_rng(seed))
    return TransitionDataset(run.tau[:-1], weather_year.copy(), run.p_heat,
                             run.p_cool, run.tau[1:])


def warmup_initial_tau(spec: PlantSpec, preceding_day_weather: np.ndarray,
                       seed: int) -> np.ndarray:
    """Zone temperatures after running the baseline policy over the
    preceding day, a Monday; used as each scenario's initial condition."""
    weather = np.asarray(preceding_day_weather, dtype=float).ravel()
    z = spec.topology.num_zones
    run = _drive(spec, np.full(z, 20.0), weather, *baseline_band(len(weather)),
                 np.random.default_rng(seed))
    return run.tau[-1].copy()
