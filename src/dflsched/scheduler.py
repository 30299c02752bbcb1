"""Day-ahead HVAC scheduling: assemble the QP from the RC model, a weather
scenario and a tariff; solve it; extract typed schedules and costs.

Decision variables, in order: zone temperatures tau (T+1 x Z), heating and
cooling electrical powers p_h/p_c (T x Z), their sum p_hvac (T x Z), grid
import p_i (T) and the daily peak p_d (scalar).  Comfort enters the
objective as a quadratic penalty, never as a hard bound, so the problem
stays feasible for any parameter values the training loop visits.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import qp, rc
from .rc import ThetaParams, ZoneTopology
from .scenarios import DayScenario


class ScheduleError(Exception):
    def __init__(self, message: str, status: qp.QpStatus | None = None):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class Tariff:
    """Time-of-use energy price (eur/kWh) plus a demand charge applied to
    the daily import peak (eur/kW)."""

    energy_price: np.ndarray
    demand_charge: float

    def __post_init__(self):
        object.__setattr__(self, "energy_price", np.asarray(self.energy_price, dtype=float))
        if np.any(self.energy_price <= 0):
            raise ScheduleError("energy prices must be positive")
        if self.demand_charge < 0:
            raise ScheduleError("demand charge must be nonnegative")

    @property
    def horizon(self) -> int:
        return len(self.energy_price)

    def all_inclusive_price(self, peak_step: int) -> np.ndarray:
        """Energy price with the demand charge added at the (ex-post) peak
        step only."""
        lam = self.energy_price.copy()
        lam[peak_step] += self.demand_charge
        return lam

    def cost_of(self, p_import: np.ndarray, dt: float, peak: float | None = None) -> float:
        """Electricity bill for an import series: energy plus demand charge."""
        p_import = np.asarray(p_import, dtype=float)
        if peak is None:
            peak = float(p_import.max()) if p_import.size else 0.0
        return float(peak * self.demand_charge + (p_import * self.energy_price).sum() * dt)


def default_tariff(horizon: int = 24, offpeak: float = 0.3, peak: float = 0.6,
                   peak_start: int = 6, peak_end: int = 19,
                   demand_charge: float = 10.0) -> Tariff:
    """Rectangular time-of-use profile: cheap overnight, expensive during
    the day (peak window end-exclusive)."""
    hours = np.arange(horizon) % 24
    price = np.where((hours >= peak_start) & (hours < peak_end), peak, offpeak)
    return Tariff(price, demand_charge)


@dataclass(frozen=True)
class ScheduleConfig:
    """Horizon geometry, comfort shaping and capacity limits (electrical kW)."""

    topology: ZoneTopology
    dt: float
    comfort_target: np.ndarray  # (T, Z) degC
    comfort_weight: np.ndarray  # (T, Z) eur/(degC^2 h)
    zone_cap_h: np.ndarray  # (T, Z)
    zone_cap_c: np.ndarray  # (T, Z)
    floor_cap_h: np.ndarray  # (T, F)
    floor_cap_c: np.ndarray  # (T, F)
    line_capacity: float

    def __post_init__(self):
        for name in ("comfort_target", "comfort_weight", "zone_cap_h",
                     "zone_cap_c", "floor_cap_h", "floor_cap_c"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        t, z, f = self.horizon, self.topology.num_zones, self.topology.num_floors
        if self.dt <= 0:
            raise ScheduleError("dt must be positive")
        for name, shape in (("comfort_target", (t, z)), ("comfort_weight", (t, z)),
                            ("zone_cap_h", (t, z)), ("zone_cap_c", (t, z)),
                            ("floor_cap_h", (t, f)), ("floor_cap_c", (t, f))):
            if getattr(self, name).shape != shape:
                raise ScheduleError(f"{name} must have shape {shape}")
        if np.any(self.comfort_weight < 0):
            raise ScheduleError("comfort weights must be nonnegative")
        for name in ("zone_cap_h", "zone_cap_c", "floor_cap_h", "floor_cap_c"):
            if np.any(getattr(self, name) < 0):
                raise ScheduleError(f"{name} must be nonnegative")
        if self.line_capacity < 0:
            raise ScheduleError("line capacity must be nonnegative")

    @property
    def horizon(self) -> int:
        return self.comfort_target.shape[0]


def default_comfort_weights(horizon: int, num_zones: int, weekday: bool = True,
                            work: float = 5.0, evening: float = 0.5,
                            night: float = 0.1) -> np.ndarray:
    """Working hours weigh heavily, evenings lightly, nights barely; the
    target step k shapes the temperature reached at hour k+1."""
    w = np.full(horizon, night)
    hours = (np.arange(horizon) + 1) % 24
    if weekday:
        w[(hours >= 7) & (hours < 18)] = work
        w[(hours >= 18) & (hours < 22)] = evening
    else:
        w[(hours >= 7) & (hours < 22)] = evening
    return np.tile(w[:, None], (1, num_zones))


def default_schedule_config(topology: ZoneTopology, horizon: int = 24,
                            dt: float = 1.0, target: float = 21.0,
                            weekday: bool = True,
                            zone_cap_h: float = 16.0, zone_cap_c: float = 4.0,
                            floor_cap_h: float = 60.0, floor_cap_c: float = 16.0,
                            line_margin: float = 1.2) -> ScheduleConfig:
    z, f = topology.num_zones, topology.num_floors
    return ScheduleConfig(
        topology=topology,
        dt=dt,
        comfort_target=np.full((horizon, z), target),
        comfort_weight=default_comfort_weights(horizon, z, weekday),
        zone_cap_h=np.full((horizon, z), zone_cap_h),
        zone_cap_c=np.full((horizon, z), zone_cap_c),
        floor_cap_h=np.full((horizon, f), floor_cap_h),
        floor_cap_c=np.full((horizon, f), floor_cap_c),
        line_capacity=line_margin * f * (floor_cap_h + floor_cap_c),
    )


@dataclass(frozen=True)
class VariableIndex:
    """Positions of every schedule variable inside the flat QP vector."""

    tau: np.ndarray  # (T+1, Z)
    p_h: np.ndarray  # (T, Z)
    p_c: np.ndarray  # (T, Z)
    p_hvac: np.ndarray  # (T, Z)
    p_i: np.ndarray  # (T,)
    p_d: int
    num_vars: int


def variable_index(horizon: int, num_zones: int) -> VariableIndex:
    t, z = horizon, num_zones
    sizes = [(t + 1) * z, t * z, t * z, t * z, t, 1]
    offsets = np.cumsum([0] + sizes)
    return VariableIndex(
        tau=np.arange(offsets[0], offsets[1]).reshape(t + 1, z),
        p_h=np.arange(offsets[1], offsets[2]).reshape(t, z),
        p_c=np.arange(offsets[2], offsets[3]).reshape(t, z),
        p_hvac=np.arange(offsets[3], offsets[4]).reshape(t, z),
        p_i=np.arange(offsets[4], offsets[5]),
        p_d=int(offsets[5]),
        num_vars=int(offsets[6]),
    )


@dataclass(frozen=True)
class ScheduleResult:
    tau_in: np.ndarray  # (T+1, Z) expected setpoints
    p_h: np.ndarray  # (T, Z)
    p_c: np.ndarray  # (T, Z)
    p_hvac: np.ndarray  # (T, Z)
    p_import: np.ndarray  # (T,)
    p_peak: float
    expected_cost: float  # electricity only; comfort reported separately
    comfort_penalty: float
    dt: float
    problem: qp.QpProblem
    solution: qp.QpSolution
    index: VariableIndex


# ---------------------------------------------------------------------------
# assembly


def assemble(theta: ThetaParams, scenario: DayScenario, tariff: Tariff,
             config: ScheduleConfig) -> tuple[qp.QpProblem, VariableIndex]:
    """Build the scheduling QP.

    Equalities: initial conditions, RC dynamics, hvac power definition and
    the per-step energy balance.  Inequalities: zonal and floor capacities,
    the peak epigraph, the line capacity and power nonnegativity.
    """
    topo = config.topology
    t_h, z_n = config.horizon, topo.num_zones
    amb = np.asarray(scenario.ambient, dtype=float)
    if amb.shape != (t_h,):
        raise ScheduleError(f"scenario ambient must have length {t_h}")
    tau0 = np.asarray(scenario.initial_tau, dtype=float)
    if tau0.shape != (z_n,):
        raise ScheduleError(f"scenario initial temperatures must have length {z_n}")
    if tariff.horizon != t_h:
        raise ScheduleError("tariff horizon disagrees with config")
    if not np.all(np.isfinite(theta.alpha)):
        raise ScheduleError("theta contains non-finite values")

    idx = variable_index(t_h, z_n)
    n = idx.num_vars
    coeff = rc.step_coefficients(theta, config.dt)

    # objective
    q_diag = np.zeros(n)
    q_lin = np.zeros(n)
    w = config.comfort_weight * config.dt
    q_diag[idx.tau[1:]] = 2.0 * w
    q_lin[idx.tau[1:]] = -2.0 * w * config.comfort_target
    q_lin[idx.p_i] = tariff.energy_price * config.dt
    q_lin[idx.p_d] = tariff.demand_charge
    Q = sp.diags(q_diag, format="csr")

    rows, cols, vals, b = [], [], [], []

    def eq(entries, rhs):
        r = len(b)
        for col, val in entries:
            rows.append(r)
            cols.append(col)
            vals.append(val)
        b.append(rhs)

    # initial conditions
    for z in range(z_n):
        eq([(idx.tau[0, z], 1.0)], tau0[z])
    # dynamics: tau[t+1] - m_tau @ tau[t] - m_ph*p_h - m_pc*p_c = m_amb*amb[t]
    for t in range(t_h):
        for z in range(z_n):
            entries = [(idx.tau[t + 1, z], 1.0)]
            entries += [(idx.tau[t, j], -coeff.m_tau[z, j]) for j in range(z_n)]
            entries.append((idx.p_h[t, z], -coeff.m_ph[z]))
            entries.append((idx.p_c[t, z], -coeff.m_pc[z]))
            eq(entries, coeff.m_amb[z] * amb[t])
    # hvac power definition
    for t in range(t_h):
        for z in range(z_n):
            eq([(idx.p_hvac[t, z], 1.0), (idx.p_h[t, z], -1.0), (idx.p_c[t, z], -1.0)], 0.0)
    # energy balance
    for t in range(t_h):
        eq([(idx.p_hvac[t, z], 1.0) for z in range(z_n)] + [(idx.p_i[t], -1.0)], 0.0)

    A = sp.csr_matrix((vals, (rows, cols)), shape=(len(b), n))
    b = np.asarray(b)

    g_rows, g_cols, g_vals, h = [], [], [], []

    def ineq(entries, rhs):
        r = len(h)
        for col, val in entries:
            g_rows.append(r)
            g_cols.append(col)
            g_vals.append(val)
        h.append(rhs)

    for t in range(t_h):  # zonal capacities
        for z in range(z_n):
            ineq([(idx.p_h[t, z], 1.0)], config.zone_cap_h[t, z])
    for t in range(t_h):
        for z in range(z_n):
            ineq([(idx.p_c[t, z], 1.0)], config.zone_cap_c[t, z])
    for t in range(t_h):  # floor capacities
        for f, members in enumerate(topo.floors):
            ineq([(idx.p_h[t, z], 1.0) for z in members], config.floor_cap_h[t, f])
    for t in range(t_h):
        for f, members in enumerate(topo.floors):
            ineq([(idx.p_c[t, z], 1.0) for z in members], config.floor_cap_c[t, f])
    for t in range(t_h):  # peak epigraph
        ineq([(idx.p_i[t], 1.0), (idx.p_d, -1.0)], 0.0)
    ineq([(idx.p_d, 1.0)], config.line_capacity)  # line capacity
    for t in range(t_h):  # nonnegativity
        for z in range(z_n):
            ineq([(idx.p_h[t, z], -1.0)], 0.0)
    for t in range(t_h):
        for z in range(z_n):
            ineq([(idx.p_c[t, z], -1.0)], 0.0)
    for t in range(t_h):
        ineq([(idx.p_i[t], -1.0)], 0.0)

    G = sp.csr_matrix((g_vals, (g_rows, g_cols)), shape=(len(h), n))
    problem = qp.QpProblem(n, Q, q_lin, A, b, G, np.asarray(h))
    return problem, idx


def coefficient_map(theta: ThetaParams, scenario: DayScenario,
                    config: ScheduleConfig) -> qp.CoefficientMap:
    """Where every theta-dependent QP coefficient lives, with its Jacobian
    against the flat parameter vector; feeds qp.backward_through_map."""
    topo = config.topology
    t_h, z_n = config.horizon, topo.num_zones
    idx = variable_index(t_h, z_n)
    jac = rc.coefficient_jacobian(theta, config.dt)
    amb = np.asarray(scenario.ambient, dtype=float)

    n_tau, n_p = z_n * z_n, z_n
    a_rows_per_step = n_tau + 2 * n_p  # m_tau, m_ph, m_pc slots enter A
    dyn_row0 = z_n  # dynamics rows start after the initial conditions

    blocks, rows, cols, jac_parts = [], [], [], []
    for t in range(t_h):
        row_base = dyn_row0 + t * z_n
        # A slots: coefficient is -m_tau[z, j] at (row z, column tau[t, j])
        for z in range(z_n):
            blocks.extend(["A"] * z_n)
            rows.extend([row_base + z] * z_n)
            cols.extend(idx.tau[t].tolist())
        # -m_ph and -m_pc at the power columns
        blocks.extend(["A"] * z_n)
        rows.extend((row_base + np.arange(z_n)).tolist())
        cols.extend(idx.p_h[t].tolist())
        blocks.extend(["A"] * z_n)
        rows.extend((row_base + np.arange(z_n)).tolist())
        cols.extend(idx.p_c[t].tolist())
        # b slots: rhs is m_amb[z] * amb[t]
        blocks.extend(["b"] * z_n)
        rows.extend((row_base + np.arange(z_n)).tolist())
        cols.extend([-1] * z_n)
        jac_parts.append(-jac[:a_rows_per_step])
        jac_parts.append(amb[t] * jac[a_rows_per_step:])

    return qp.CoefficientMap(
        blocks=np.asarray(blocks),
        rows=np.asarray(rows, dtype=int),
        cols=np.asarray(cols, dtype=int),
        jacobian=sp.vstack(jac_parts, format="csr"),
    )


# ---------------------------------------------------------------------------
# solving and extraction


def solve_schedule(theta: ThetaParams, scenario: DayScenario, tariff: Tariff,
                   config: ScheduleConfig, tolerance: float = 1e-8,
                   max_iter: int = 200) -> ScheduleResult:
    # degenerate capacity actives (a floor cap plus all its zone caps) slow
    # the interior-point endgame; iterations are cheap, so the cap is generous
    problem, idx = assemble(theta, scenario, tariff, config)
    solution = qp.solve(problem, tolerance=tolerance, max_iter=max_iter)
    if solution.status != qp.QpStatus.OPTIMAL:
        raise ScheduleError(
            f"scheduling QP did not solve: {solution.status.value} "
            f"(kkt residual {solution.kkt_residual:.2e})",
            status=solution.status)
    return extract(problem, solution, idx, tariff, config)


def extract(problem: qp.QpProblem, solution: qp.QpSolution, idx: VariableIndex,
            tariff: Tariff, config: ScheduleConfig) -> ScheduleResult:
    u = solution.primal
    tau = u[idx.tau]
    p_h = u[idx.p_h]
    p_c = u[idx.p_c]
    p_hvac = u[idx.p_hvac]
    p_i = u[idx.p_i]
    p_d = float(u[idx.p_d])
    comfort = float(np.sum(config.comfort_weight * (tau[1:] - config.comfort_target) ** 2) * config.dt)
    result = ScheduleResult(
        tau_in=tau, p_h=p_h, p_c=p_c, p_hvac=p_hvac, p_import=p_i,
        p_peak=p_d, expected_cost=0.0, comfort_penalty=comfort,
        dt=config.dt, problem=problem, solution=solution, index=idx)
    return replace(result, expected_cost=expected_cost(result, tariff))


def expected_cost(result: ScheduleResult, tariff: Tariff) -> float:
    """Headline electricity cost: peak demand charge plus time-of-use
    energy; the comfort penalty is reported separately."""
    return float(result.p_peak * tariff.demand_charge
                 + (result.p_import * tariff.energy_price).sum() * result.dt)
