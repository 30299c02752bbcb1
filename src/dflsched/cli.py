"""Pipeline driver.

Subcommands cover every stage from weather synthesis to the hot-year stress
report; ``full-run`` chains them all.  Every stage is deterministic given
the config and seed, and records sha256 digests of the files it consumed
and produced in a per-stage manifest.  Timestamps and wall times live only
in manifest/timing files, never in metric artifacts, so metric JSONs are
byte-identical across repeated runs.

Config values come from a single JSON file with per-stage sections.  The
environment variables DFLSCHED_SEED, DFLSCHED_ZONES and DFLSCHED_EPOCHS
override the config, and the matching CLI flags override both.
DFLSCHED_OUT, when set, is used instead of ``--out``.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import click
import numpy as np

from . import learning, plant, rc, reporting, scenarios, scheduler
from .learning import TrainConfig
from .plant import PlantSpec, TransitionDataset
from .scenarios import WeatherParams


DEFAULT_CONFIG = {
    "zones": 15,
    "zones_per_floor": 5,
    "seed": 7,
    "weather": {
        "mean": 10.0, "annual_amplitude": 13.0, "diurnal_amplitude": 6.0,
        "coldest_day": 15, "warmest_hour": 15, "ar_phi": 0.9, "ar_sigma": 1.2,
    },
    "clustering": {"k": 10},
    "tariff": {"offpeak": 0.3, "peak": 0.6, "peak_start": 6, "peak_end": 19,
               "demand_charge": 10.0},
    "comfort": {"target": 21.0, "work": 5.0, "evening": 0.5, "night": 0.1},
    "capacity": {"zone_h": 16.0, "zone_c": 4.0, "floor_h": 60.0,
                 "floor_c": 16.0, "line_margin": 1.2},
    "plant": {"noise_std": 0.15, "spec_seed": 0},
    "pretrain": {"lr": 0.01, "max_epochs": 60, "patience": 10,
                 "batch_size": 512},
    # lr above the paper's 0.001: the synthetic plant's loss scale differs
    # from the original EnergyPlus setup and 0.001 undertrains in 50 epochs
    "dfl": {"lr": 0.005, "decay_gamma": 0.9, "decay_rate": 1.0,
            "max_epochs": 50, "patience": 10, "snr": 625.0},
}

# seed offsets per stage, so one master seed drives distinct streams
SEED_HISTORICAL = 1
SEED_SCHEDULING = 2
SEED_PRETRAIN = 3
SEED_NOISE = 4
SEED_SPLITS = 5
SEED_WARMUP = 1000


_OPEN_SECTIONS = ("plant", "pretrain", "dfl")


class CliError(Exception):
    pass


def load_config(path: str | None) -> dict:
    """DEFAULT_CONFIG with a user JSON file merged over it, one level deep.
    Keys the defaults lack are refused, except in the _OPEN_SECTIONS, whose
    other keys build_plant_spec and TrainConfig check; so is a section
    given as anything but an object."""
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path and path != "default":
        user = json.loads(Path(path).read_text())
        if not isinstance(user, dict):
            raise CliError("a config file must hold one JSON object")
        unknown = sorted(set(user) - set(cfg))
        not_objects = []
        for key, value in user.items():
            if not isinstance(cfg.get(key), dict):
                cfg[key] = value
            elif not isinstance(value, dict):
                not_objects.append(key)
            else:
                if key not in _OPEN_SECTIONS:
                    unknown += sorted(f"{key}.{sub}" for sub in set(value) - set(cfg[key]))
                cfg[key].update(value)
        if unknown:
            raise CliError(f"unknown config keys: {unknown}")
        if not_objects:
            raise CliError(f"config sections that must be objects: {not_objects}")
    return cfg


def apply_overrides(cfg: dict, seed, zones, epochs) -> dict:
    """A flag left at None falls back to its DFLSCHED_* variable, so both
    set the config the same way: epochs also cap the DFL patience."""
    env = os.environ
    if seed is None and env.get("DFLSCHED_SEED"):
        seed = env["DFLSCHED_SEED"]
    if zones is None and env.get("DFLSCHED_ZONES"):
        zones = env["DFLSCHED_ZONES"]
    if epochs is None and env.get("DFLSCHED_EPOCHS"):
        epochs = env["DFLSCHED_EPOCHS"]
    if seed is not None:
        cfg["seed"] = int(seed)
    if zones is not None:
        cfg["zones"] = int(zones)
    if epochs is not None:
        cfg["dfl"]["max_epochs"] = int(epochs)
        cfg["dfl"]["patience"] = min(cfg["dfl"]["patience"], int(epochs))
    return cfg


def run_id_of(cfg: dict) -> str:
    digest = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:8]
    return f"run-{cfg['seed']}-{digest}"


# ---------------------------------------------------------------------------
# typed objects from the config


def build_topology(cfg: dict) -> rc.ZoneTopology:
    return rc.default_topology(cfg["zones"], cfg["zones_per_floor"])


def build_weather_params(cfg: dict) -> WeatherParams:
    return WeatherParams(**cfg["weather"])


def build_tariff(cfg: dict) -> scheduler.Tariff:
    t = cfg["tariff"]
    return scheduler.default_tariff(scenarios.HOURS_PER_DAY, t["offpeak"],
                                    t["peak"], t["peak_start"], t["peak_end"],
                                    t["demand_charge"])


def build_schedule_config(cfg: dict) -> scheduler.ScheduleConfig:
    topo = build_topology(cfg)
    cap = cfg["capacity"]
    comfort = cfg["comfort"]
    base = scheduler.default_schedule_config(
        topo, horizon=scenarios.HOURS_PER_DAY, target=comfort["target"],
        zone_cap_h=cap["zone_h"], zone_cap_c=cap["zone_c"],
        floor_cap_h=cap["floor_h"], floor_cap_c=cap["floor_c"],
        line_margin=cap["line_margin"])
    weights = scheduler.default_comfort_weights(
        scenarios.HOURS_PER_DAY, topo.num_zones,
        work=comfort["work"], evening=comfort["evening"], night=comfort["night"])
    return replace(base, comfort_weight=weights)


def build_plant_spec(cfg: dict) -> PlantSpec:
    """Plant from the same config file as everything else; any PlantSpec
    field may be overridden in the 'plant' section (scalars broadcast over
    zones/floors)."""
    topo = build_topology(cfg)
    section = dict(cfg["plant"])
    spec = plant.default_plant_spec(topo, noise_std=section.pop("noise_std", 0.15),
                                    seed=section.pop("spec_seed", 0))
    overrides = {}
    for f in fields(PlantSpec):
        if f.name not in section:
            continue
        value = section.pop(f.name)
        current = getattr(spec, f.name)
        if isinstance(current, np.ndarray):
            value = np.broadcast_to(np.asarray(value, dtype=float),
                                    current.shape).copy()
        overrides[f.name] = value
    if section:
        raise CliError(f"unknown plant config keys: {sorted(section)}")
    return replace(spec, **overrides) if overrides else spec


def build_train_config(cfg: dict, stage: str) -> TrainConfig:
    s = cfg[stage]
    offset = SEED_PRETRAIN if stage == "pretrain" else SEED_NOISE
    kwargs = {k: v for k, v in s.items()}
    if stage == "dfl" and "alpha_lr_scale" not in kwargs:
        # per-entry coupling steps shrink with building size; see TrainConfig
        kwargs["alpha_lr_scale"] = min(1.0, 5.0 / cfg["zones"])
    return TrainConfig(seed=cfg["seed"] + offset, **kwargs)


# ---------------------------------------------------------------------------
# manifests


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_stage_manifest(out: Path, stage: str, cfg: dict,
                         inputs: list[Path], outputs: list[Path]) -> None:
    man_dir = out / "manifest"
    man_dir.mkdir(parents=True, exist_ok=True)
    doc = {
        "stage": stage,
        "run_id": run_id_of(cfg),
        "seed": cfg["seed"],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "inputs": {str(p): sha256_file(Path(p)) for p in inputs},
        "outputs": {str(p): sha256_file(Path(p)) for p in outputs},
    }
    (man_dir / f"{stage}.json").write_text(json.dumps(doc, indent=1, sort_keys=True))


# ---------------------------------------------------------------------------
# transitions file format


def write_transitions_csv(ds: TransitionDataset, path: Path) -> None:
    """One row per (step, zone): floats in shortest round-trip ``repr`` form,
    CRLF line endings (the ``csv`` module's default dialect).  Rows stream
    step by step through the file buffer; the whole file as one string would
    add ~20 MB to peak memory at 5 zones."""
    with open(path, "w", newline="") as fp:
        fp.write("t,zone,tau,tau_amb,p_h,p_c,tau_next\r\n")
        for t, amb in enumerate(ds.tau_amb.tolist()):
            rows = zip(ds.tau[t].tolist(), ds.p_h[t].tolist(), ds.p_c[t].tolist(),
                       ds.tau_next[t].tolist())
            fp.writelines(f"{t},{zi},{tau!r},{amb!r},{p_h!r},{p_c!r},{tau_next!r}\r\n"
                          for zi, (tau, p_h, p_c, tau_next) in enumerate(rows))


def read_transitions_csv(path: Path) -> TransitionDataset:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    t = data[:, 0].astype(int)
    zi = data[:, 1].astype(int)
    n = t.max() + 1
    z = zi.max() + 1
    tau = np.empty((n, z))
    amb = np.empty(n)
    p_h = np.empty((n, z))
    p_c = np.empty((n, z))
    tau_next = np.empty((n, z))
    tau[t, zi] = data[:, 2]
    amb[t] = data[:, 3]
    p_h[t, zi] = data[:, 4]
    p_c[t, zi] = data[:, 5]
    tau_next[t, zi] = data[:, 6]
    return TransitionDataset(tau, amb, p_h, p_c, tau_next)


# ---------------------------------------------------------------------------
# stage implementations (shared by subcommands and full-run)


def stage_synth_weather(cfg: dict, out: Path) -> dict:
    params = build_weather_params(cfg)
    hist = scenarios.synthesize_year(cfg["seed"] + SEED_HISTORICAL, params)
    sched = scenarios.synthesize_year(cfg["seed"] + SEED_SCHEDULING, params)
    p_hist = out / "weather_historical.csv"
    p_sched = out / "weather_scheduling.csv"
    scenarios.write_weather_csv(hist, p_hist)
    scenarios.write_weather_csv(sched, p_sched)
    write_stage_manifest(out, "synth-weather", cfg, [], [p_hist, p_sched])
    return {"historical": str(p_hist), "scheduling": str(p_sched)}


def stage_cluster(cfg: dict, out: Path) -> dict:
    p_sched = out / "weather_scheduling.csv"
    if not p_sched.exists():
        raise CliError(f"missing input {p_sched}; run synth-weather first")
    series = scenarios.read_weather_csv(p_sched)
    days = scenarios.days_matrix(series)
    extremes = scenarios.pick_extremes(days)
    clustering = scenarios.kmedoid_cluster(days, cfg["clustering"]["k"], fixed=extremes)
    val_days, test_days = scenarios.sample_split_days(days, clustering,
                                                      cfg["seed"] + SEED_SPLITS)
    spec = build_plant_spec(cfg)

    def initial_tau_for(day_idx: int) -> np.ndarray:
        prev = max(day_idx - 1, 0)
        return plant.warmup_initial_tau(spec, days[prev],
                                        cfg["seed"] + SEED_WARMUP + day_idx)

    train = scenarios.scenarios_for_days(days, clustering.medoids, clustering,
                                         initial_tau_for)
    val = scenarios.scenarios_for_days(days, val_days, clustering, initial_tau_for)
    test = scenarios.scenarios_for_days(days, test_days, clustering, initial_tau_for)
    hot = scenarios.build_hot_year(days, clustering, initial_tau_for)
    order = scenarios.order_cycle(np.stack([s.ambient for s in train]))

    p_bundle = out / "scenarios.json"
    scenarios.save_bundle(p_bundle, clustering=clustering, order=order,
                          train=train, val=val, test=test, hot_year=hot)
    write_stage_manifest(out, "cluster", cfg, [p_sched], [p_bundle])
    return {"bundle": str(p_bundle), "medoids": clustering.medoids.tolist()}


def stage_baseline_rollout(cfg: dict, out: Path) -> dict:
    p_hist = out / "weather_historical.csv"
    if not p_hist.exists():
        raise CliError(f"missing input {p_hist}; run synth-weather first")
    series = scenarios.read_weather_csv(p_hist)
    spec = build_plant_spec(cfg)
    ds = plant.historical_rollout(spec, series, cfg["seed"] + SEED_HISTORICAL)
    p_trans = out / "transitions.csv"
    write_transitions_csv(ds, p_trans)
    write_stage_manifest(out, "baseline-rollout", cfg, [p_hist], [p_trans])
    return {"transitions": str(p_trans), "rows": len(ds)}


def stage_pretrain(cfg: dict, out: Path) -> dict:
    p_trans = out / "transitions.csv"
    if not p_trans.exists():
        raise CliError(f"missing input {p_trans}; run baseline-rollout first")
    ds = read_transitions_csv(p_trans)
    topo = build_topology(cfg)
    theta0 = rc.default_theta(topo.num_zones, seed=cfg["seed"])
    config = build_train_config(cfg, "pretrain")
    theta = learning.pretrain(ds, theta0, config)
    p_theta = out / "theta_ito.json"
    rc.save_checkpoint(theta, p_theta)
    write_stage_manifest(out, "pretrain", cfg, [p_trans], [p_theta])
    return {"theta": str(p_theta)}


def stage_train_dfl(cfg: dict, out: Path) -> dict:
    p_theta = out / "theta_ito.json"
    p_bundle = out / "scenarios.json"
    for p in (p_theta, p_bundle):
        if not p.exists():
            raise CliError(f"missing input {p}")
    theta_ito = rc.load_checkpoint(p_theta)
    bundle = scenarios.load_bundle(p_bundle)
    config = build_train_config(cfg, "dfl")
    theta_start = learning.inject_noise(theta_ito, config.snr,
                                        cfg["seed"] + SEED_NOISE)
    train_ordered = [bundle["train"][i] for i in bundle["order"]]
    spec = build_plant_spec(cfg)
    tariff = build_tariff(cfg)
    sched_cfg = build_schedule_config(cfg)
    theta_dfl, training_log = learning.dfl_train(
        theta_start, train_ordered, plant.Plant(spec), tariff, config,
        sched_cfg, val_scenarios=bundle["val"])

    p_out = out / "theta_dfl.json"
    rc.save_checkpoint(theta_dfl, p_out)
    p_log = out / "training_log.csv"
    training_log.to_csv(p_log)
    p_side = out / "training_sidecar.json"
    training_log.save_sidecar(p_side, config, extra={"seed": cfg["seed"]})
    curves = reporting.emit_training_curves(training_log, out / "curves")
    write_stage_manifest(out, "train-dfl", cfg, [p_theta, p_bundle],
                         [p_out, p_log, p_side] + list(curves))
    return {"theta": str(p_out), "best_epoch": training_log.best_epoch}


_SPLIT_KEYS = {"train": "train", "val": "val", "test": "test",
               "hot-year": "hot_year"}


def _evaluate_one(cfg: dict, out: Path, model: str, split: str) -> reporting.MetricsReport:
    p_theta = out / f"theta_{model}.json"
    p_bundle = out / "scenarios.json"
    for p in (p_theta, p_bundle):
        if not p.exists():
            raise CliError(f"missing input {p}")
    theta = rc.load_checkpoint(p_theta)
    bundle = scenarios.load_bundle(p_bundle)
    scen = bundle[_SPLIT_KEYS[split]]
    spec = build_plant_spec(cfg)
    report = reporting.evaluate_model(
        theta, scen, plant.Plant(spec), build_tariff(cfg),
        build_schedule_config(cfg), split=split, base_seed=cfg["seed"])
    return report


def stage_evaluate(cfg: dict, out: Path, model: str, split: str) -> dict:
    report = _evaluate_one(cfg, out, model, split)
    run_dir = out / run_id_of(cfg) / split.replace("-", "_")
    run_dir.mkdir(parents=True, exist_ok=True)
    p_metrics = run_dir / f"metrics_{model}.json"
    report.to_json(p_metrics)
    write_stage_manifest(out, f"evaluate-{model}-{split}", cfg,
                         [out / f"theta_{model}.json", out / "scenarios.json"],
                         [p_metrics])
    return {"metrics": str(p_metrics), "hier_loss": report.hier_loss}


def stage_compare(cfg: dict, out: Path, split: str) -> dict:
    rep_ito = _evaluate_one(cfg, out, "ito", split)
    rep_dfl = _evaluate_one(cfg, out, "dfl", split)
    run_dir = out / run_id_of(cfg) / split.replace("-", "_")
    run_dir.mkdir(parents=True, exist_ok=True)
    rep_ito.to_json(run_dir / "metrics_ito.json")
    rep_dfl.to_json(run_dir / "metrics_dfl.json")
    comparison = reporting.compare(rep_ito, rep_dfl)
    p_verdict = run_dir / "comparison.json"
    reporting.write_verdict(comparison, p_verdict)
    write_stage_manifest(out, f"compare-{split}", cfg,
                         [out / "theta_ito.json", out / "theta_dfl.json"],
                         [run_dir / "metrics_ito.json",
                          run_dir / "metrics_dfl.json", p_verdict])
    return {"verdict": str(p_verdict), "flags": comparison["flags"]}


# ---------------------------------------------------------------------------
# click wiring


def _timed(out: Path, stage: str, runner, *args) -> dict:
    """Run one stage and merge its wall time into ``timings.json``, which
    collects every stage run into ``out``."""
    start = time.perf_counter()
    result = runner(*args)
    path = out / "timings.json"
    timings = json.loads(path.read_text()) if path.exists() else {}
    timings[stage] = time.perf_counter() - start
    path.write_text(json.dumps(timings, indent=1, sort_keys=True))
    return result


def _finish_stage(result: dict) -> None:
    click.echo(json.dumps(result, sort_keys=True))


def _fail(exc: Exception) -> None:
    click.echo(json.dumps({"error": str(exc), "type": type(exc).__name__}),
               err=True)
    sys.exit(1)


def common_options(fn):
    fn = click.option("--config", "config_path", default="default",
                      help="JSON config file, or 'default'")(fn)
    fn = click.option("--seed", type=int, default=None)(fn)
    fn = click.option("--out", "out_dir", default="out",
                      help="working directory for stage artifacts")(fn)
    fn = click.option("--zones", type=int, default=None,
                      help="desk-scale zone count override")(fn)
    fn = click.option("--epochs", type=int, default=None,
                      help="training epoch override")(fn)
    return fn


def _setup(config_path, seed, out_dir, zones, epochs):
    cfg = apply_overrides(load_config(config_path), seed, zones, epochs)
    out = Path(os.environ.get("DFLSCHED_OUT", out_dir))
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out


@click.group()
def main():
    """Decision-focused HVAC scheduling pipeline."""


def _stage_command(name: str, runner):
    @main.command(name=name)
    @common_options
    def _cmd(config_path, seed, out_dir, zones, epochs):
        try:
            cfg, out = _setup(config_path, seed, out_dir, zones, epochs)
            _finish_stage(_timed(out, name, runner, cfg, out))
        except Exception as exc:  # noqa: BLE001 - machine-readable error contract
            _fail(exc)
    return _cmd


_stage_command("synth-weather", stage_synth_weather)
_stage_command("cluster", stage_cluster)
_stage_command("baseline-rollout", stage_baseline_rollout)
_stage_command("pretrain", stage_pretrain)
_stage_command("train-dfl", stage_train_dfl)


@main.command(name="evaluate")
@common_options
@click.option("--model", type=click.Choice(["ito", "dfl"]), required=True)
@click.option("--split", type=click.Choice(list(_SPLIT_KEYS)), default="test")
def evaluate_cmd(config_path, seed, out_dir, zones, epochs, model, split):
    try:
        cfg, out = _setup(config_path, seed, out_dir, zones, epochs)
        _finish_stage(_timed(out, f"evaluate-{model}-{split}", stage_evaluate,
                             cfg, out, model, split))
    except Exception as exc:  # noqa: BLE001
        _fail(exc)


@main.command(name="stress-hot-year")
@common_options
def stress_cmd(config_path, seed, out_dir, zones, epochs):
    try:
        cfg, out = _setup(config_path, seed, out_dir, zones, epochs)
        _finish_stage(_timed(out, "stress-hot-year", stage_compare, cfg, out, "hot-year"))
    except Exception as exc:  # noqa: BLE001
        _fail(exc)


@main.command(name="full-run")
@common_options
def full_run_cmd(config_path, seed, out_dir, zones, epochs):
    try:
        cfg, out = _setup(config_path, seed, out_dir, zones, epochs)
        stages = [("synth-weather", stage_synth_weather), ("cluster", stage_cluster),
                  ("baseline-rollout", stage_baseline_rollout),
                  ("pretrain", stage_pretrain), ("train-dfl", stage_train_dfl),
                  ("compare-test", partial(stage_compare, split="test")),
                  ("stress-hot-year", partial(stage_compare, split="hot-year"))]
        for name, fn in stages:
            _timed(out, name, fn, cfg, out)
        (out / "manifest.json").write_text(json.dumps(
            {"run_id": run_id_of(cfg), "config": cfg,
             "stages": sorted(p.name for p in (out / "manifest").glob("*.json"))},
            indent=1, sort_keys=True))
        _finish_stage({"run_id": run_id_of(cfg), "stages": [name for name, _ in stages]})
    except Exception as exc:  # noqa: BLE001
        _fail(exc)


if __name__ == "__main__":
    main()
