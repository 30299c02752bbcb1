"""Day-ahead HVAC scheduling: assemble the QP from the RC model, a weather
scenario and a tariff; solve it; extract typed schedules and costs.

One step of the T-step horizon is one hour, so powers in kW price as kWh.
Decision variables, in order: zone temperatures tau (T+1 x Z), heating and
cooling electrical powers p_h/p_c (T x Z), their sum p_hvac (T x Z), grid
import p_i (T) and the daily peak p_d (scalar).  Comfort enters the
objective as a quadratic penalty, never as a hard bound, so the problem
stays feasible for any parameter values the training loop visits.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain

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

    def cost_of(self, p_import: np.ndarray) -> float:
        """Electricity bill for an hourly import series: energy plus demand
        charge on its peak."""
        p_import = np.asarray(p_import, dtype=float)
        peak = float(p_import.max()) if p_import.size else 0.0
        return float(peak * self.demand_charge + (p_import * self.energy_price).sum())


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


def default_comfort_weights(horizon: int, num_zones: int, work: float = 5.0,
                            evening: float = 0.5, night: float = 0.1) -> np.ndarray:
    """Working hours weigh heavily, evenings lightly, nights barely; the
    target step k shapes the temperature reached at hour k+1."""
    w = np.full(horizon, night)
    hours = (np.arange(horizon) + 1) % 24
    w[(hours >= 7) & (hours < 18)] = work
    w[(hours >= 18) & (hours < 22)] = evening
    return np.tile(w[:, None], (1, num_zones))


def default_schedule_config(topology: ZoneTopology, horizon: int = 24,
                            target: float = 21.0,
                            zone_cap_h: float = 16.0, zone_cap_c: float = 4.0,
                            floor_cap_h: float = 60.0, floor_cap_c: float = 16.0,
                            line_margin: float = 1.2) -> ScheduleConfig:
    z, f = topology.num_zones, topology.num_floors
    return ScheduleConfig(
        topology=topology,
        comfort_target=np.full((horizon, z), target),
        comfort_weight=default_comfort_weights(horizon, z),
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
    expected_cost: float  # electricity only; the comfort term is not priced
    problem: qp.QpProblem
    solution: qp.QpSolution
    index: VariableIndex


# ---------------------------------------------------------------------------
# assembly


def _coo_csr(entries, shape) -> sp.csr_matrix:
    """One CSR matrix from (rows, cols, values) triplets, each triplet
    broadcast to a common shape.  Entry order is free: CSR sorts every row."""
    flat = [[a.ravel() for a in np.broadcast_arrays(*entry)] for entry in entries]
    rows, cols, vals = (np.concatenate(part) for part in zip(*flat))
    return sp.csr_matrix((vals, (rows, cols)), shape=shape)


def _dynamics_slots(idx: VariableIndex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and blocks, each (T, Z*Z + 3*Z), of the theta-dependent
    dynamics coefficients.  Hour t, zone z owns equality row Z + t*Z + z;
    per hour the slots follow rc.coefficient_jacobian's rows: -m_tau[z, j]
    at tau[t, j] (row-major), -m_ph[z] at p_h[t, z], -m_pc[z] at p_c[t, z],
    then the right-hand side m_amb[z]*amb[t] (b, column -1)."""
    t_h, z_n = idx.p_h.shape
    dyn = z_n + np.arange(t_h * z_n).reshape(t_h, z_n)
    rows = np.hstack([np.repeat(dyn, z_n, axis=1), dyn, dyn, dyn])
    cols = np.hstack([np.tile(idx.tau[:-1], z_n), idx.p_h, idx.p_c,
                      np.full((t_h, z_n), -1)])
    return rows, cols, np.where(cols < 0, "b", "A")


@dataclass(frozen=True)
class ScheduleTemplate:
    """What the scheduling QPs of one tariff and config share: ``problem``,
    the QP with its theta-dependent A entries and b zero; ``a_slots``, the
    data indices in A of those entries; ``slots``, _dynamics_slots; and
    ``kkt``, the KKT structure of the QPs' pattern (None for a lone QP, which
    qp.solve then builds its matrices for)."""

    tariff: Tariff
    config: ScheduleConfig
    index: VariableIndex
    problem: qp.QpProblem
    a_slots: np.ndarray
    slots: tuple[np.ndarray, np.ndarray, np.ndarray]
    kkt: qp.KktStructure | None


def schedule_template(tariff: Tariff, config: ScheduleConfig) -> ScheduleTemplate:
    """The structure of the scheduling QPs of ``tariff`` and ``config``, for
    ``assemble``, ``coefficient_map`` and ``solve_schedule``."""
    t = _layout(tariff, config)
    return replace(t, kkt=qp.KktStructure(t.problem.Q, t.problem.A, t.problem.G))


def _layout(tariff: Tariff, config: ScheduleConfig) -> ScheduleTemplate:
    """The scheduling QPs' template without a KKT structure.

    Equality rows, in order: Z initial conditions; T*Z RC dynamics rows
    tau[t+1] - m_tau @ tau[t] - m_ph*p_h[t] - m_pc*p_c[t] = m_amb*amb[t]
    (row Z + t*Z + z, laid out by _dynamics_slots); T*Z hvac definitions
    p_hvac = p_h + p_c; T energy balances sum_z p_hvac[t] = p_i[t].
    Inequality rows, in order: zonal heating then cooling caps (T*Z each),
    floor heating then cooling caps (T*F each), T peak epigraph rows
    p_i[t] <= p_d, the line cap on p_d, and nonnegativity of p_h, p_c
    (T*Z each) and p_i (T).  Per-hour families are hour-major.
    """
    topo = config.topology
    t_h, z_n, f_n = config.horizon, topo.num_zones, topo.num_floors
    if tariff.horizon != t_h:
        raise ScheduleError("tariff horizon disagrees with config")
    idx = variable_index(t_h, z_n)
    n = idx.num_vars

    # objective
    q_diag = np.zeros(n)
    q_lin = np.zeros(n)
    q_diag[idx.tau[1:]] = 2.0 * config.comfort_weight
    q_lin[idx.tau[1:]] = -2.0 * config.comfort_weight * config.comfort_target
    q_lin[idx.p_i] = tariff.energy_price
    q_lin[idx.p_d] = tariff.demand_charge
    Q = sp.diags(q_diag, format="csr")

    # equalities
    tz = t_h * z_n
    slots = slot_rows, slot_cols, _ = _dynamics_slots(idx)
    k = z_n * z_n + 2 * z_n  # A slots per hour; the Z b slots follow
    hvac = z_n + tz + np.arange(tz).reshape(t_h, z_n)
    balance = z_n + 2 * tz + np.arange(t_h)
    A = _coo_csr([
        (np.arange(z_n), idx.tau[0], 1.0),  # initial conditions
        (slot_rows[:, k:], idx.tau[1:], 1.0),  # dynamics
        (slot_rows[:, :k], slot_cols[:, :k], 0.0),
        (hvac, idx.p_hvac, 1.0),  # hvac power definition
        (hvac, idx.p_h, -1.0),
        (hvac, idx.p_c, -1.0),
        (balance[:, None], idx.p_hvac, 1.0),  # energy balance
        (balance, idx.p_i, -1.0),
    ], (z_n + 2 * tz + t_h, n))
    # CSR stores its entries in (row, column) order
    keys = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr)) * n + A.indices
    a_slots = np.searchsorted(keys, slot_rows[:, :k] * n + slot_cols[:, :k])

    # inequalities
    members = np.fromiter(chain.from_iterable(topo.floors), dtype=int)
    floor_of = np.repeat(np.arange(f_n), [len(m) for m in topo.floors])
    power = np.vstack([idx.p_h, idx.p_c])  # heating hours, then cooling hours
    line = 2 * (tz + t_h * f_n) + t_h
    peak = line - t_h + np.arange(t_h)
    nonneg = line + 1 + np.arange(2 * tz + t_h)
    floor_rows = 2 * tz + f_n * np.arange(2 * t_h)[:, None] + floor_of
    G = _coo_csr([
        (np.arange(2 * tz), power.ravel(), 1.0),  # zonal capacities
        (floor_rows, power[:, members], 1.0),  # floor capacities
        (peak, idx.p_i, 1.0),  # peak epigraph
        (peak, idx.p_d, -1.0),
        (line, idx.p_d, 1.0),  # line capacity
        (nonneg, np.concatenate([power.ravel(), idx.p_i]), -1.0),  # nonnegativity
    ], (nonneg[-1] + 1, n))
    h = np.concatenate([config.zone_cap_h.ravel(), config.zone_cap_c.ravel(),
                        config.floor_cap_h.ravel(), config.floor_cap_c.ravel(),
                        np.zeros(t_h), [config.line_capacity], np.zeros(2 * tz + t_h)])

    return ScheduleTemplate(tariff, config, idx, qp.QpProblem(
        n, Q, q_lin, A, np.zeros(A.shape[0]), G, h), a_slots, slots, None)


def _checked(template: ScheduleTemplate, tariff: Tariff | None,
             config: ScheduleConfig) -> ScheduleTemplate:
    """``template``; ValueError when it was built for another config, or
    for another tariff than a given one (a caller's mistake, not a QP's)."""
    if template.config is not config or tariff is not None and tariff is not template.tariff:
        raise ValueError("the template was built for another tariff or config")
    return template


def assemble(theta: ThetaParams, scenario: DayScenario, tariff: Tariff,
             config: ScheduleConfig, template: ScheduleTemplate | None = None
             ) -> tuple[qp.QpProblem, VariableIndex]:
    """Build the scheduling QP (layout in ``_layout``) by writing
    the values that depend on theta, the ambient and the initial
    temperatures into ``template``'s QP, or into a layout built for it."""
    template = (_layout(tariff, config) if template is None
                else _checked(template, tariff, config))
    t_h, z_n = config.horizon, config.topology.num_zones
    amb = np.asarray(scenario.ambient, dtype=float)
    if amb.shape != (t_h,):
        raise ScheduleError(f"scenario ambient must have length {t_h}")
    tau0 = np.asarray(scenario.initial_tau, dtype=float)
    if tau0.shape != (z_n,):
        raise ScheduleError(f"scenario initial temperatures must have length {z_n}")

    coeff = rc.step_coefficients(theta)
    base = template.problem
    A = base.A.copy()
    A.data[template.a_slots] = -np.concatenate([coeff.m_tau.ravel(), coeff.m_ph, coeff.m_pc])
    b = np.zeros(base.num_eq)
    b[:z_n] = tau0
    b[template.slots[0][:, -z_n:]] = coeff.m_amb * amb[:, None]
    return qp.QpProblem(base.num_vars, base.Q, base.q, A, b, base.G, base.h), template.index


def coefficient_map(theta: ThetaParams, scenario: DayScenario, config: ScheduleConfig,
                    template: ScheduleTemplate | None = None) -> qp.CoefficientMap:
    """Where every theta-dependent QP coefficient lives (laid out by
    _dynamics_slots), with its Jacobian against the flat parameter vector;
    feeds qp.backward_through_map.  ``template`` supplies the slots."""
    rows, cols, blocks = _checked(template, None, config).slots if template else (
        _dynamics_slots(variable_index(config.horizon, config.topology.num_zones)))
    t_h, per_hour = rows.shape
    jac = rc.coefficient_jacobian(theta)  # one row per hourly slot
    counts = np.diff(jac.indptr)
    amb = np.asarray(scenario.ambient, dtype=float)
    # per hour: A slots hold minus the coefficient, b slots m_amb * amb[t]
    at_b = cols[:, np.repeat(np.arange(per_hour), counts)] < 0
    vals = np.where(at_b, amb[:, None] * jac.data, -jac.data)
    jacobian = sp.csr_matrix((vals.ravel(), np.tile(jac.indices, t_h),
                              np.concatenate([[0], np.cumsum(np.tile(counts, t_h))])),
                             shape=(rows.size, jac.shape[1]))
    return qp.CoefficientMap(blocks=blocks.ravel(), rows=rows.ravel(), cols=cols.ravel(),
                             jacobian=jacobian)


# ---------------------------------------------------------------------------
# solving and extraction


def solve_schedule(theta: ThetaParams, scenario: DayScenario, tariff: Tariff,
                   config: ScheduleConfig, tolerance: float = 1e-8,
                   max_iter: int = 200, template: ScheduleTemplate | None = None
                   ) -> ScheduleResult:
    """Assemble and solve one schedule, on ``template``'s KKT structure
    (from schedule_template(tariff, config)) if one is given."""
    # degenerate capacity actives (a floor cap plus all its zone caps) slow
    # the interior-point endgame; iterations are cheap, so the cap is generous
    problem, idx = assemble(theta, scenario, tariff, config, template)
    solution = qp.solve(problem, tolerance=tolerance, max_iter=max_iter,
                        structure=template.kkt if template else None)
    if solution.status != qp.QpStatus.OPTIMAL:
        raise ScheduleError(
            f"scheduling QP did not solve: {solution.status.value} "
            f"(kkt residual {solution.kkt_residual:.2e})",
            status=solution.status)
    return extract(problem, solution, idx, tariff, config)


def extract(problem: qp.QpProblem, solution: qp.QpSolution, idx: VariableIndex,
            tariff: Tariff, config: ScheduleConfig) -> ScheduleResult:
    u = solution.primal
    result = ScheduleResult(
        tau_in=u[idx.tau], p_h=u[idx.p_h], p_c=u[idx.p_c], p_hvac=u[idx.p_hvac],
        p_import=u[idx.p_i], p_peak=float(u[idx.p_d]), expected_cost=0.0,
        problem=problem, solution=solution, index=idx)
    return replace(result, expected_cost=expected_cost(result, tariff))


def expected_cost(result: ScheduleResult, tariff: Tariff) -> float:
    """Headline electricity cost: peak demand charge plus time-of-use
    energy.  The QP's comfort term is left out."""
    return float(result.p_peak * tariff.demand_charge
                 + (result.p_import * tariff.energy_price).sum())
