"""Pipeline driver: stage composability, determinism, overrides, manifests."""
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from click.testing import CliRunner

from dflsched import cli


ARGS = ["--zones", "2", "--seed", "3", "--epochs", "2"]


def invoke(args):
    runner = CliRunner()
    result = runner.invoke(cli.main, args)
    return result


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Every stage run in its own process: outputs of each stage must be
    sufficient inputs for the next."""
    out = tmp_path_factory.mktemp("pipeline")
    stages = [["synth-weather"], ["cluster"], ["baseline-rollout"], ["pretrain"],
              ["train-dfl"], ["evaluate", "--model", "ito", "--split", "test"],
              ["evaluate", "--model", "dfl", "--split", "test"],
              ["stress-hot-year"]]
    for stage in stages:
        proc = subprocess.run(
            [sys.executable, "-m", "dflsched.cli"] + stage
            + ["--out", str(out)] + ARGS,
            capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, f"{stage}: {proc.stdout}\n{proc.stderr}"
        json.loads(proc.stdout)  # stage output is machine readable
    return out


class TestStageComposability:
    def test_all_artifacts_present(self, pipeline_dir):
        for name in ("weather_historical.csv", "weather_scheduling.csv",
                     "scenarios.json", "transitions.csv", "theta_ito.json",
                     "theta_dfl.json", "training_log.csv"):
            assert (pipeline_dir / name).exists(), name

    def test_manifests_record_digests(self, pipeline_dir):
        man = json.loads((pipeline_dir / "manifest" / "pretrain.json").read_text())
        assert set(man) >= {"stage", "inputs", "outputs", "timestamp", "seed"}
        for path, digest in {**man["inputs"], **man["outputs"]}.items():
            assert len(digest) == 64  # sha256 hex

    def test_metrics_shapes(self, pipeline_dir):
        run_dirs = [p for p in pipeline_dir.iterdir()
                    if p.is_dir() and p.name.startswith("run-")]
        assert len(run_dirs) == 1
        doc = json.loads((run_dirs[0] / "test" / "metrics_ito.json").read_text())
        assert set(doc) >= {"hier_loss", "mae", "mse", "err_mean", "err_std",
                            "expected_cost", "expost_cost", "cost_error"}
        assert "wall_time" not in doc  # timing never lands in metric files
        hot = json.loads((run_dirs[0] / "hot_year" / "comparison.json").read_text())
        assert set(hot["flags"]) == {"dfl_hier_loss_better",
                                     "dfl_cost_error_better",
                                     "dfl_expost_cost_better"}


class TestTimings:
    def test_stage_commands_merge_their_times(self, pipeline_dir):
        timings = json.loads((pipeline_dir / "timings.json").read_text())
        assert set(timings) == {"synth-weather", "cluster", "baseline-rollout",
                                "pretrain", "train-dfl", "evaluate-ito-test",
                                "evaluate-dfl-test", "stress-hot-year"}
        assert all(t >= 0.0 for t in timings.values())

    def test_full_run_times_every_stage(self, tmp_path):
        result = invoke(["full-run", "--out", str(tmp_path)] + ARGS)
        assert result.exit_code == 0, result.output
        timings = json.loads((tmp_path / "timings.json").read_text())
        assert set(timings) == {"synth-weather", "cluster", "baseline-rollout",
                                "pretrain", "train-dfl", "compare-test",
                                "stress-hot-year"}
        assert all(t >= 0.0 for t in timings.values())


class TestErrors:
    def test_missing_input_yields_machine_readable_error(self, tmp_path):
        result = invoke(["pretrain", "--out", str(tmp_path)] + ARGS)
        assert result.exit_code == 1

    def test_unknown_model_rejected(self, tmp_path):
        result = invoke(["evaluate", "--model", "nope", "--out", str(tmp_path)])
        assert result.exit_code != 0


class TestConfig:
    def test_cluster_medoid_count_and_fixed_extremes(self, pipeline_dir):
        bundle = json.loads((pipeline_dir / "scenarios.json").read_text())
        assert len(bundle["medoids"]) == 10
        # the three fixed extremes head the medoid list
        from dflsched import scenarios as sc
        series = sc.read_weather_csv(pipeline_dir / "weather_scheduling.csv")
        days = sc.days_matrix(series)
        extremes = sc.pick_extremes(days)
        assert tuple(bundle["medoids"][:3]) == extremes

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DFLSCHED_SEED", "99")
        cfg = cli.apply_overrides(cli.load_config("default"), None, None, None)
        assert cfg["seed"] == 99

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv("DFLSCHED_SEED", "99")
        cfg = cli.apply_overrides(cli.load_config("default"), 5, None, None)
        assert cfg["seed"] == 5

    def test_env_epochs_take_the_flag_path(self, monkeypatch):
        """DFLSCHED_EPOCHS below the default patience clamps patience as
        --epochs does, and the flag still beats the variable."""
        monkeypatch.setenv("DFLSCHED_EPOCHS", "3")
        cfg = cli.apply_overrides(cli.load_config("default"), None, None, None)
        assert (cfg["dfl"]["max_epochs"], cfg["dfl"]["patience"]) == (3, 3)
        assert cli.build_train_config(cfg, "dfl").max_epochs == 3
        cfg = cli.apply_overrides(cli.load_config("default"), None, None, 2)
        assert (cfg["dfl"]["max_epochs"], cfg["dfl"]["patience"]) == (2, 2)

    def test_user_config_merges_over_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dfl": {"lr": 0.123}, "zones": 4}))
        cfg = cli.load_config(str(path))
        assert cfg["dfl"]["lr"] == 0.123
        assert cfg["zones"] == 4
        assert cfg["dfl"]["max_epochs"] == cli.DEFAULT_CONFIG["dfl"]["max_epochs"]

    def test_stale_step_key_refused(self, tmp_path):
        """One model step is one hour: a "dt" key is refused, not ignored."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dt": 0.5}))
        with pytest.raises(cli.CliError, match="'dt'"):
            cli.load_config(str(path))
        result = invoke(["full-run", "--config", str(path), "--out", str(tmp_path)] + ARGS)
        assert result.exit_code == 1
        assert "unknown config keys" in result.output

    def test_unknown_section_key_refused(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"tariff": {"peak": 0.7, "peak_price": 0.7},
                                    "capacity": {"zone_h": 12.0}}))
        with pytest.raises(cli.CliError, match=r"\['tariff.peak_price'\]"):
            cli.load_config(str(path))
        result = invoke(["synth-weather", "--config", str(path), "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert not (tmp_path / "weather_historical.csv").exists()

    @pytest.mark.parametrize("doc,match", [
        ({"tariff": 5}, r"\['tariff'\]"),
        ({"comfort": [21.0], "dfl": None}, r"\['comfort', 'dfl'\]"),
        ([{"tariff": {}}], "one JSON object"),
    ])
    def test_section_that_is_not_an_object_refused(self, tmp_path, doc, match):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(cli.CliError, match=match):
            cli.load_config(str(path))
        result = invoke(["synth-weather", "--config", str(path), "--out", str(tmp_path)])
        assert result.exit_code == 1
        assert not (tmp_path / "weather_historical.csv").exists()
