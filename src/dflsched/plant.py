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
    # thermal bookkeeping over the run (kWh), for energy-sanity checks
    energy_delivered_kwh: float = 0.0
    energy_envelope_kwh: float = 0.0  # negative when the building loses heat
    energy_gains_kwh: float = 0.0
    energy_storage_kwh: float = 0.0  # air+mass heat content change


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
    energy: tuple | None  # delivered, envelope, gains, storage (kWh)


def _drive(spec: PlantSpec, tau0: np.ndarray, weather: np.ndarray,
           lo: np.ndarray, hi: np.ndarray, rng: np.random.Generator,
           energy: bool = False) -> _Run:
    """The plant's time-stepping loop, shared by every public entry point.

    Air and mass nodes start at ``tau0`` with an empty integrator, then
    each of the ``len(weather)`` hours runs ``spec.substeps`` controller
    and thermal substeps.  ``lo[t]`` and ``hi[t]`` bound hour t's tracked
    band (equal for exact setpoints); each row is (Z,) or (1,), broadcast
    over zones.  Occupancy follows ``_calendar``.  PI control tracks the
    band; the integrator only accumulates while the equipment can deliver
    the command (conditional-integration anti-windup).  Floor AHU coils
    curtail proportionally at their rating and reheat tops up heating up to
    its own; zones on no floor get no HVAC.  ``energy`` adds the run's
    thermal bookkeeping.
    """
    z = spec.topology.num_zones
    n = len(weather)
    m = spec.substeps
    h = 1.0 / m
    adj = _adjacency(spec.topology)
    adj_rows = adj.sum(axis=1)
    exponent = spec.convection_exponent - 1.0
    hour_frac = np.arange(24)[:, None] + (np.arange(m) + 0.5) / m
    solar = _solar_profile(hour_frac, spec.solar_gain_peak)[:, :, None]
    # scalar factors as (Z,) arrays: the same IEEE operations, without
    # numpy's per-call scalar conversion (``**`` keeps its scalar exponent)
    kp, ki, h_z, duct, fan, r_zone, tol, ten, zero = (
        np.full(z, v) for v in (spec.kp, spec.ki, h, 1.0 - spec.duct_loss,
                                spec.fan_coeff, spec.r_zone, 1e-9, 10.0, 0.0))

    # Floor AHU totals per zone, row 0 heating and row 1 cooling.  Zones on
    # floors of one size gather their floor's members into a (2, zones,
    # size) block, so each total is the same contiguous sum as a per-floor
    # slice (np.add.reduceat, or zero padding once a row reaches numpy's
    # 8-wide unrolled sum, differ in the last bit).  Zones on no floor keep
    # total 1 against rating 0: zero scale.
    floors = spec.topology.floors
    floor_of = {zone: f for f, members in enumerate(floors) for zone in members}
    rating = np.zeros((2, z))
    for zone, f in floor_of.items():
        rating[:, zone] = spec.ahu_heat_rating[f], spec.ahu_cool_rating[f]
    groups = []
    for size in sorted({len(members) for members in floors} - {0}):
        zones = sorted(zone for zone, f in floor_of.items() if len(floors[f]) == size)
        idx = np.array([floors[floor_of[zone]] for zone in zones])
        contiguous = zones[-1] - zones[0] + 1 == len(zones)
        sel = slice(zones[0], zones[-1] + 1) if contiguous else np.array(zones)
        groups.append((sel, np.stack((idx, idx + z))))
    total = np.ones((2, z))
    reheat_cap = np.where(rating[0] > 0.0, spec.reheat_rating, 0.0)
    signed = np.empty((2, z))

    t_air = np.asarray(tau0, dtype=float).copy()
    t_mass = t_air.copy()
    integral = np.zeros(z)
    heat0 = float(spec.c_air @ t_air + spec.c_mass @ t_mass)
    tau = np.empty((n + 1, z))
    tau[0] = t_air
    p_heat = np.zeros((n, z))
    p_cool = np.zeros((n, z))
    e_delivered = e_envelope = e_gains = 0.0
    flows = np.empty((2, m, z))  # q_hvac and q_env per substep, for energy

    for t, occupied in enumerate(_calendar(n).tolist()):
        band_lo, band_hi = lo[t], hi[t]
        ambient = np.full(z, weather[t])
        cop = np.full(z, spec.cop(weather[t]))
        base = spec.gain_occupied if occupied else spec.gain_base
        noise = rng.normal(0.0, spec.noise_std, size=(m, z)) if spec.noise_std > 0 \
            else np.zeros((m, z))
        gains = base + solar[t % 24] + noise
        acc_h = np.zeros(z)
        acc_c = np.zeros(z)
        for k in range(m):
            err = np.minimum(np.maximum(t_air, band_lo), band_hi) - t_air
            cmd = kp * err + ki * integral
            signed[0] = cmd
            np.negative(cmd, out=signed[1])
            want = np.maximum(signed, zero)
            flat = want.ravel()
            for sel, gather in groups:
                total[:, sel] = flat[gather].sum(axis=-1)
            # == min(1, rating / total) for total > 0; 1 when the floor wants 0
            coil = want * (rating / np.maximum(total, rating))
            ahu_h, cool = coil[0], coil[1]
            reheat = np.minimum(want[0] - ahu_h, reheat_cap)
            heat = ahu_h + reheat
            saturated = np.abs(heat - cool - cmd) > tol
            integral = np.where(saturated, integral, integral + err * h_z)

            q_hvac = duct * (ahu_h - cool) + reheat
            d_t = ambient - t_air
            q_env = d_t * np.abs(d_t / ten) ** exponent / spec.r_env
            q_zz = (adj @ t_air - adj_rows * t_air) / r_zone
            q_ma = (t_mass - t_air) / spec.r_mass
            t_air = t_air + h_z * (q_hvac + gains[k] + q_env + q_zz + q_ma) / spec.c_air
            t_mass = t_mass - h_z * q_ma / spec.c_mass

            fan_kw = fan * coil
            ph = heat + fan_kw[0]
            pc = cool / cop + fan_kw[1]
            if occupied:
                heat_side = cmd >= zero
                ph = ph + np.where(heat_side, spec.vent_fan_kw, zero)
                pc = pc + np.where(heat_side, zero, spec.vent_fan_kw)
            acc_h += ph
            acc_c += pc
            if energy:
                flows[0, k] = q_hvac
                flows[1, k] = q_env
        tau[t + 1] = t_air
        p_heat[t] = acc_h / m
        p_cool[t] = acc_c / m
        if energy:
            for q_h, q_e, g in zip(*flows.sum(axis=-1).tolist(), gains.sum(axis=-1).tolist()):
                e_delivered += q_h * h
                e_envelope += q_e * h
                e_gains += g * h

    sums = None
    if energy:
        heat1 = float(spec.c_air @ t_air + spec.c_mass @ t_mass)
        sums = (e_delivered, e_envelope, e_gains, heat1 - heat0)
    return _Run(tau, p_heat, p_cool, sums)


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
    run = _drive(spec, setpoints[0], weather, target, target,
                 np.random.default_rng(seed), energy=True)
    p_hvac = run.p_heat + run.p_cool
    delivered, envelope, gains, storage = run.energy
    return SimulationTrace(run.tau, p_hvac, p_hvac.sum(axis=1), run.p_heat,
                           run.p_cool, energy_delivered_kwh=delivered,
                           energy_envelope_kwh=envelope,
                           energy_gains_kwh=gains,
                           energy_storage_kwh=storage)


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
