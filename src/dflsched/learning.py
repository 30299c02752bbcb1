"""Training: task-agnostic pre-training (the two-stage baseline), noise
injection, the hierarchical decision loss with its subgradient, the Adam
optimizer and the decision-focused training loop.

The decision-focused loss only requires observing the plant's response; the
observed trace is a constant target carrying no gradient.  Per sample the
chain is: solve the schedule, simulate the setpoints, evaluate the loss,
push its gradient back through the QP's KKT system and the
coefficient-assembly map, then take one Adam step (pure SGD over an ordered
scenario cycle).
"""
from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import qp, rc, scheduler
from .plant import TransitionDataset
from .rc import ThetaParams, ZoneTopology
from .scenarios import DayScenario
from .scheduler import ScheduleConfig, ScheduleError, Tariff

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.001
    decay_gamma: float = 0.9  # exponent of the polynomial decay
    decay_rate: float = 1.0  # lr_t = lr * (1 / (1 + rate*epoch))**gamma
    max_epochs: int = 50
    patience: int = 10
    snr: float = 625.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    batch_size: int = 256  # pre-training only
    holdout_fraction: float = 0.2  # pre-training early-stopping split
    # relative step size for the coupling-matrix entries: a whole alpha row
    # drifts coherently under the building-level loss, and its row sum is
    # what bounds the dynamics' spectral radius, so larger buildings need
    # proportionally smaller per-entry steps (~ 5/zones)
    alpha_lr_scale: float = 1.0

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.patience > self.max_epochs:
            raise ValueError("patience cannot exceed max_epochs")
        if self.snr <= 0:
            raise ValueError("snr must be positive")

    def lr_at(self, epoch: int) -> float:
        return self.lr * (1.0 / (1.0 + self.decay_rate * epoch)) ** self.decay_gamma


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    params: np.ndarray
    m: np.ndarray
    v: np.ndarray
    t: int = 0
    skipped: int = 0

    @classmethod
    def init(cls, params: np.ndarray) -> "AdamState":
        params = np.asarray(params, dtype=float)
        return cls(params.copy(), np.zeros_like(params), np.zeros_like(params))


def adam_step(state: AdamState, gradient: np.ndarray, lr_t,
              beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> AdamState:
    """Standard bias-corrected Adam update; ``lr_t`` may be a scalar or a
    per-parameter vector.  A non-finite gradient skips the step (counted)
    while still decaying the moments."""
    gradient = np.asarray(gradient, dtype=float)
    if not np.all(np.isfinite(gradient)):
        log.warning("non-finite gradient: step skipped")
        return replace(state, skipped=state.skipped + 1)
    t = state.t + 1
    m = beta1 * state.m + (1 - beta1) * gradient
    v = beta2 * state.v + (1 - beta2) * gradient ** 2
    m_hat = m / (1 - beta1 ** t)
    v_hat = v / (1 - beta2 ** t)
    params = state.params - lr_t * m_hat / (np.sqrt(v_hat) + eps)
    return AdamState(params, m, v, t, state.skipped)


# ---------------------------------------------------------------------------
# noise injection


def inject_noise(theta: ThetaParams, snr: float, seed: int) -> ThetaParams:
    """Element-wise Gaussian noise with std |theta_i|/sqrt(snr), applied in
    the natural domain and re-encoded; positive parameters reject sign flips
    by resampling (the draw sequence stays deterministic per seed)."""
    if snr <= 0:
        raise ValueError("snr must be positive")
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(snr)

    alpha = theta.alpha + rng.normal(0.0, 1.0, size=theta.alpha.shape) \
        * np.abs(theta.alpha) * scale

    def positive(values: np.ndarray) -> np.ndarray:
        out = np.empty_like(values)
        for i, v in enumerate(values):
            std = abs(v) * scale
            for _ in range(100):
                cand = v + rng.normal(0.0, std) if std > 0 else v
                if cand > 0:
                    out[i] = cand
                    break
            else:
                raise RuntimeError("noise injection failed to keep parameter positive")
        return out

    return ThetaParams(
        alpha=alpha,
        eta_h=positive(theta.eta_h),
        eta_c=positive(theta.eta_c),
        r=positive(theta.r),
        c=positive(theta.c),
    )


# ---------------------------------------------------------------------------
# hierarchical decision loss


@dataclass(frozen=True)
class LossBreakdown:
    total: float
    building_term: float
    floor_term: float
    zone_term: float
    per_step: np.ndarray  # (T,) weighted error per step

    def __post_init__(self):
        if abs(self.total - (self.building_term + self.floor_term + self.zone_term)) > 1e-10 * max(1.0, abs(self.total)):
            raise ValueError("loss terms do not add up")


def _expost_peak_step(observed: np.ndarray) -> int:
    totals = observed.sum(axis=1)
    return int(np.argmax(totals))  # argmax takes the earliest tie


def hierarchical_loss(expected: np.ndarray, observed: np.ndarray,
                      tariff: Tariff, topology: ZoneTopology,
                      w_building: float | None = None,
                      w_floor: float | None = None) -> LossBreakdown:
    """Price-weighted mean absolute power error at building, floor and zone
    level.  The demand charge is added to the price at the step with the
    highest ex-post (observed) total power.  Weights default to the zone
    counts: the whole building's, then each floor's own."""
    expected = np.asarray(expected, dtype=float)
    observed = np.asarray(observed, dtype=float)
    if expected.shape != observed.shape:
        raise ValueError("expected/observed shapes differ")
    t_h, z_n = expected.shape
    if z_n != topology.num_zones:
        raise ValueError("power matrices disagree with topology")
    if w_building is None:
        w_building = float(z_n)
    weights = np.array([float(len(m)) if w_floor is None else float(w_floor)
                        for m in topology.floors])

    lam = tariff.all_inclusive_price(_expost_peak_step(observed))
    err = expected - observed
    e_building = np.abs(err.sum(axis=1))
    e_floors = np.stack([np.abs(err[:, list(m)].sum(axis=1)) for m in topology.floors], axis=1) \
        if topology.floors else np.zeros((t_h, 0))
    e_zones = np.abs(err).sum(axis=1)
    # floors of one weight are summed before weighting, so equal floors give
    # exactly w * (sum of floor errors)
    by_weight = [(w, e_floors[:, weights == w].sum(axis=1)) for w in np.unique(weights)]

    b_term = float((lam * w_building * e_building).sum() / t_h)
    f_term = float(sum((lam * w * e).sum() for w, e in by_weight) / t_h)
    z_term = float((lam * e_zones).sum() / t_h)
    per_step = lam * (w_building * e_building + sum(w * e for w, e in by_weight) + e_zones) / t_h
    return LossBreakdown(b_term + f_term + z_term, b_term, f_term, z_term, per_step)


def loss_gradient_wrt_expected(expected: np.ndarray, observed: np.ndarray,
                               tariff: Tariff, topology: ZoneTopology,
                               w_building: float | None = None,
                               w_floor: float | None = None) -> np.ndarray:
    """Subgradient of ``hierarchical_loss`` in the expected powers, with
    sign(0) = 0 so zero-error points are stationary."""
    expected = np.asarray(expected, dtype=float)
    observed = np.asarray(observed, dtype=float)
    t_h, z_n = expected.shape
    if w_building is None:
        w_building = float(z_n)

    lam = tariff.all_inclusive_price(_expost_peak_step(observed))
    err = expected - observed
    s_building = np.sign(err.sum(axis=1))  # (T,)
    grad = np.tile((w_building * s_building)[:, None], (1, z_n))
    for members in topology.floors:
        cols = list(members)
        s_floor = np.sign(err[:, cols].sum(axis=1))
        w = float(len(cols)) if w_floor is None else w_floor
        grad[:, cols] += w * s_floor[:, None]
    grad += np.sign(err)
    return grad * lam[:, None] / t_h


# ---------------------------------------------------------------------------
# pre-training (the two-stage baseline's identification step)


def _mse_and_gradient(flat: np.ndarray, ds: TransitionDataset,
                      rows: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared one-step prediction error over the given rows and its
    gradient with respect to the flat (log-space) parameter vector."""
    tau = ds.tau[rows]
    amb = ds.tau_amb[rows]
    p_h = ds.p_h[rows]
    p_c = ds.p_c[rows]
    target = ds.tau_next[rows]
    n, z = tau.shape
    theta = rc.unpack(flat, z)

    pred = rc.rc_step(theta, tau, amb, p_h, p_c)
    err = pred - target
    mse = float((err ** 2).mean())

    w = 2.0 * err / (n * z)  # d mse / d pred
    grad_alpha = w.T @ tau  # (Z, Z): rows predict, columns source
    inv_c = 1.0 / theta.c
    grad_log_eta_h = (w * p_h).sum(axis=0) * theta.eta_h * inv_c
    grad_log_eta_c = -(w * p_c).sum(axis=0) * theta.eta_c * inv_c
    leak = 1.0 / (theta.r * theta.c)
    amb_minus = amb[:, None] - tau
    grad_log_r = -(w * amb_minus).sum(axis=0) * leak
    injection = (theta.eta_h * p_h - theta.eta_c * p_c) * inv_c
    grad_log_c = -(w * (injection + amb_minus * leak)).sum(axis=0)

    grad = np.concatenate([grad_alpha.ravel(), grad_log_eta_h, grad_log_eta_c,
                           grad_log_r, grad_log_c])
    return mse, grad


def pretrain(dataset: TransitionDataset, theta_init: ThetaParams,
             config: TrainConfig) -> ThetaParams:
    """Minimize the mean squared one-step prediction error with minibatch
    Adam in the flat log-space vector; early stopping on a holdout split.
    This output is the identify-then-optimize model."""
    n = len(dataset)
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(n)
    n_hold = max(1, int(n * config.holdout_fraction)) if n > 1 else 0
    hold, train = perm[:n_hold], perm[n_hold:]
    if len(train) == 0:
        train, hold = perm, perm

    state = AdamState.init(rc.pack(theta_init))
    best_params = state.params.copy()
    best_loss = np.inf
    best_epoch = -1

    for epoch in range(config.max_epochs):
        lr_t = config.lr_at(epoch)
        order = rng.permutation(train)
        for start in range(0, len(order), config.batch_size):
            rows = order[start:start + config.batch_size]
            loss, grad = _mse_and_gradient(state.params, dataset, rows)
            if not np.isfinite(loss):
                raise RuntimeError(f"pre-training diverged at epoch {epoch}: loss={loss}")
            state = adam_step(state, grad, lr_t, config.beta1, config.beta2, config.eps)
        val_loss, _ = _mse_and_gradient(state.params, dataset, hold)
        if val_loss < best_loss - 1e-15:
            best_loss, best_params, best_epoch = val_loss, state.params.copy(), epoch
        elif epoch - best_epoch >= config.patience:
            break
    return rc.unpack(best_params, theta_init.num_zones)


# ---------------------------------------------------------------------------
# decision-focused training


# the per-epoch metrics, in the column order of every CSV that holds them
METRIC_COLUMNS = ("hier_loss", "mae", "mse", "err_mean", "err_std",
                  "expected_cost", "expost_cost")


@dataclass
class EpochRecord:
    epoch: int
    split: str
    hier_loss: float
    mae: float
    mse: float
    err_mean: float
    err_std: float
    expected_cost: float
    expost_cost: float

    def metric_cells(self) -> list[str]:
        """The METRIC_COLUMNS values as CSV cells, exact (``repr``)."""
        return [repr(float(getattr(self, name))) for name in METRIC_COLUMNS]


@dataclass
class TrainingLog:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = -1
    skipped_samples: int = 0
    val_dropped: list[int] = field(default_factory=list)  # per epoch
    skipped_steps: int = 0  # Adam steps skipped on a non-finite gradient

    def rows(self, split: str | None = None) -> list[EpochRecord]:
        return [r for r in self.records if split is None or r.split == split]

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fp:
            writer = csv.writer(fp)
            writer.writerow(["epoch", "split", *METRIC_COLUMNS])
            for r in self.records:
                writer.writerow([r.epoch, r.split, *r.metric_cells()])

    def save_sidecar(self, path: str | Path, config: TrainConfig,
                     extra: dict | None = None) -> None:
        doc = {"config": {k: getattr(config, k) for k in (
            "lr", "decay_gamma", "decay_rate", "max_epochs", "patience",
            "snr", "beta1", "beta2", "eps", "seed")},
            "best_epoch": self.best_epoch,
            "skipped_samples": self.skipped_samples,
            "skipped_steps": self.skipped_steps,
            "val_dropped": self.val_dropped}
        if extra:
            doc.update(extra)
        Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True))


def _sample_seed(base: int, tag: int, index: int) -> int:
    return (base * 1_000_003 + tag * 8191 + index * 131 + 17) % (2 ** 63)


def evaluate_scenarios(theta: ThetaParams, scenarios: list[DayScenario],
                       plant, tariff: Tariff, config: ScheduleConfig,
                       base_seed: int, template: scheduler.ScheduleTemplate | None = None):
    """Solve and simulate each scenario, on ``template`` or on one template
    built for this call.  Returns the (scenario, result, trace) triples
    that solved and a dict from the index of each scenario whose QP failed
    to its ScheduleError; raises RuntimeError when none solved.  Callers
    decide how to report a drop."""
    pairs, failed = [], {}
    template = template or scheduler.schedule_template(tariff, config)
    for i, scen in enumerate(scenarios):
        seed = _sample_seed(base_seed, 0, scen.day_index if scen.day_index >= 0 else i)
        try:
            result = scheduler.solve_schedule(theta, scen, tariff, config, template=template)
        except ScheduleError as exc:
            failed[i] = exc
            continue
        trace = plant.simulate(result.tau_in, scen.ambient, seed)
        pairs.append((scen, result, trace))
    if not pairs:
        raise RuntimeError("every evaluation scenario failed to solve")
    return pairs, failed


def summarize(pairs, tariff: Tariff, topology: ZoneTopology) -> dict:
    """Cluster-weighted aggregate metrics over (scenario, result, trace)."""
    weights = np.asarray([s.weight for s, _, _ in pairs], dtype=float)
    weights = weights / weights.sum()
    hier = mae = mse = e_mean = expected = expost = 0.0
    for w, (scen, result, trace) in zip(weights, pairs):
        lb = hierarchical_loss(result.p_hvac, trace.p_hvac_obs, tariff, topology)
        err = result.p_hvac - trace.p_hvac_obs
        hier += w * lb.total
        mae += w * float(np.abs(err).mean())
        mse += w * float((err ** 2).mean())
        e_mean += w * float(err.mean())
        expected += w * result.expected_cost
        expost += w * tariff.cost_of(trace.p_import_obs)
    err_var = max(mse - e_mean ** 2, 0.0)  # pooled-mixture variance
    return {
        "hier_loss": float(hier), "mae": float(mae), "mse": float(mse),
        "err_mean": float(e_mean), "err_std": math.sqrt(err_var),
        "expected_cost": float(expected), "expost_cost": float(expost),
    }


def dfl_train(theta_init: ThetaParams, train_scenarios: list[DayScenario],
              plant, tariff: Tariff, config: TrainConfig,
              schedule_config: ScheduleConfig,
              val_scenarios: list[DayScenario] | None = None
              ) -> tuple[ThetaParams, TrainingLog]:
    """Decision-focused training: pure SGD over the ordered scenario cycle,
    one Adam step per sample, early stopping on the validation loss.

    A scenario whose QP fails to solve is skipped with a warning; an epoch
    in which every scenario fails aborts the run.  A validation scenario
    that fails is dropped with a warning, and the validation weights
    renormalize over the survivors; ``TrainingLog.val_dropped`` counts the
    drops of each epoch.  An epoch with drops is scored over a different
    subset, so it never becomes the best epoch (with none left, the initial
    parameters are returned); it still counts toward the patience.  A
    non-finite gradient skips its Adam step (``TrainingLog.skipped_steps``).
    """
    topo = schedule_config.topology
    z = theta_init.num_zones
    if val_scenarios is None:
        val_scenarios = train_scenarios

    state = AdamState.init(rc.pack(theta_init))
    theta = theta_init
    training_log = TrainingLog()
    best_params = state.params.copy()
    best_loss = np.inf
    best_epoch = -1

    lr_scale = np.ones_like(state.params)
    lr_scale[:z * z] = config.alpha_lr_scale
    template = scheduler.schedule_template(tariff, schedule_config)

    for epoch in range(config.max_epochs):
        lr_t = config.lr_at(epoch) * lr_scale
        train_pairs = []
        failures = 0
        for i, scen in enumerate(train_scenarios):
            seed = _sample_seed(config.seed, 1 + epoch, i)
            try:
                result = scheduler.solve_schedule(theta, scen, tariff, schedule_config,
                                                  template=template)
            except ScheduleError as exc:
                failures += 1
                training_log.skipped_samples += 1
                log.warning("epoch %d sample %d skipped: %s", epoch, i, exc)
                continue
            trace = plant.simulate(result.tau_in, scen.ambient, seed)
            train_pairs.append((scen, result, trace))

            gmat = loss_gradient_wrt_expected(result.p_hvac, trace.p_hvac_obs,
                                              tariff, topo)
            grad_primal = np.zeros(result.index.num_vars)
            grad_primal[result.index.p_hvac] = gmat
            sens = qp.backward(result.problem, result.solution, grad_primal, template.kkt)
            cmap = scheduler.coefficient_map(theta, scen, schedule_config, template)
            grad_theta = qp.backward_through_map(sens, cmap)

            state = adam_step(state, grad_theta, lr_t, config.beta1,
                              config.beta2, config.eps)
            theta = rc.unpack(state.params, z)
            training_log.skipped_steps = state.skipped

        if failures == len(train_scenarios):
            raise RuntimeError(f"every scenario failed to solve in epoch {epoch}")

        if train_pairs:
            stats = summarize(train_pairs, tariff, topo)
            training_log.records.append(EpochRecord(epoch, "train", **stats))

        val_pairs, dropped = evaluate_scenarios(theta, val_scenarios, plant, tariff,
                                                schedule_config, config.seed, template)
        for i, exc in dropped.items():
            log.warning("evaluation scenario %d skipped: %s", i, exc)
        training_log.val_dropped.append(len(dropped))
        val_stats = summarize(val_pairs, tariff, topo)
        training_log.records.append(EpochRecord(epoch, "val", **val_stats))

        if not dropped and val_stats["hier_loss"] < best_loss - 1e-15:
            best_loss = val_stats["hier_loss"]
            best_params = state.params.copy()
            best_epoch = epoch
        elif epoch - best_epoch >= config.patience:
            break

    training_log.best_epoch = best_epoch
    return rc.unpack(best_params, z), training_log
