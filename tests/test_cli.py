import csv
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import pytest
import yaml

import hctrial.cli as cli
from hctrial.cli import (
    RESULT_COLUMNS,
    ConfigError,
    RunManifest,
    main,
    parse_config,
    run,
)
from hctrial.calibration import select_design_params
from hctrial.trial_engine import OperatingCharacteristics

MAIN_GRID_CONFIG = """
mode: simulate
model: {kind: continuous, known_sd: 1.0}
design:
  variant: design1
  n_total: 200
  allocation_ratio: 1.0
  t: [0.3, 0.4, 0.5, 0.6]
  gamma: 0.3
  lambda: 1.0
  eta: 0.975
priors:
  historical_control:
    family: normal
    components: [{weight: 1.0, mean: 0.0, sd: 0.11952286093343936}]
  treatment:
    family: normal
    components: [{weight: 1.0, mean: 0.0, sd: 1.0}]
truth:
  drift_grid: [-0.4, -0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4]
  effect: 0.4
  hypotheses: [alternative]
replications: 5000
seed: 20260809
"""

SMALL_CONFIG = """
mode: simulate
model: {kind: continuous}
design:
  variant: design1
  n_total: 40
  t: [0.5]
  gamma: 0.3
priors:
  historical_control:
    family: normal
    components: [{weight: 1.0, mean: 0.0, sd: 0.25}]
  treatment:
    family: normal
    components: [{weight: 1.0, mean: 0.0, sd: 1.0}]
truth:
  drift_grid: [-0.2, 0.2]
  effect: 0.4
replications: 40
seed: 7
"""

CALIBRATE_CONFIG = """
mode: calibrate
model: {kind: continuous, known_sd: 88.0}
design:
  variant: design1
  n_total: 80
  t: 0.4
  gamma: 0.2
priors:
  historical_control:
    family: normal
    components: [{weight: 1.0, mean: -50.0, sd: 18.0}]
  treatment:
    family: normal
    components: [{weight: 1.0, mean: 0.0, sd: 88.0}]
calibration:
  t_values: [0.4, 0.6]
  gamma_values: [0.2]
  delta_star: 40.0
  epsilon: 0.15
  table_delta_stars: [0.0, 40.0]
replications: 400
seed: 3
"""

BINARY_CALIBRATE_CONFIG = """
mode: calibrate
model: {kind: binary}
design: {variant: design1, n_total: 180, t: 0.3, gamma: 0.3}
priors:
  historical_control:
    family: beta
    components: [{weight: 1.0, mean: 0.3, precision: 65.0}]
calibration:
  t_values: [0.3]
  gamma_values: [0.3]
  delta_star: 0.1
  epsilon: 0.15
  table_delta_stars: [0.0, 0.1]
replications: 50
seed: 5
"""

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))


SEPARATED_MIXTURE = ("[{weight: 0.8, mean: -0.6, sd: 0.08}, "
                     "{weight: 0.2, mean: 0.6, sd: 0.08}]")


def _approx_hmin_config(components: str, mode: str) -> str:
    """MAIN_GRID_CONFIG with hmin_mode prior_mean_approx at t = 0.3 (30 interim
    controls) and t = 0.5 in ``mode``."""
    text = (MAIN_GRID_CONFIG
            .replace("t: [0.3, 0.4, 0.5, 0.6]", "t: [0.3, 0.5]\n  hmin_mode: prior_mean_approx")
            .replace("[{weight: 1.0, mean: 0.0, sd: 0.11952286093343936}]", components)
            .replace("mode: simulate", f"mode: {mode}"))
    return text + ("calibration: {t_values: [0.3, 0.5], gamma_values: [0.3], "
                   "delta_star: 0.2, epsilon: 0.15}\n")


def _in_doubled_units(text: str) -> dict:
    """The config of the same trial in outcome units twice as large: known_sd
    and every raw-unit value doubled, which leaves the working scale as it is."""
    data = yaml.safe_load(text)
    data["model"]["known_sd"] = 2.0 * data["model"].get("known_sd", 1.0)
    for prior in data["priors"].values():
        for c in prior["components"]:
            c["mean"], c["sd"] = 2.0 * c["mean"], 2.0 * c["sd"]
    data["truth"]["drift_grid"] = [2.0 * d for d in data["truth"]["drift_grid"]]
    data["truth"]["effect"] *= 2.0
    cal = data["calibration"]
    cal["delta_star"] *= 2.0
    cal["table_delta_stars"] = [2.0 * d for d in cal["table_delta_stars"]]
    return data


def _run_in_both_units(tmp_path: Path, mode: str) -> list[Path]:
    """Run SMALL_CONFIG with a calibration grid at known_sd 1 and in doubled
    units at known_sd 2; returns the two output directories."""
    text = SMALL_CONFIG + """calibration:
  t_values: [0.5]
  gamma_values: [0.3, 0.5]
  delta_star: 0.2
  epsilon: 0.15
  table_delta_stars: [-0.2, 0.0, 0.2]
"""
    outs = []
    for name, config in (("sd1", yaml.safe_load(text)), ("sd2", _in_doubled_units(text))):
        cfg_path = tmp_path / f"{name}.yaml"
        cfg_path.write_text(yaml.safe_dump(config))
        outs.append(tmp_path / name)
        run(RunManifest(config_path=cfg_path, output_dir=outs[-1], mode=mode))
    return outs


class TestParseConfig:
    def test_main_grid_shape(self):
        cfg = parse_config(MAIN_GRID_CONFIG)
        assert cfg.mode == "simulate"
        assert len(cfg.scenarios) == 4 * 9
        first = cfg.scenarios[0]
        assert first.design.t == 0.3
        assert first.design.lam == 1.0
        assert first.design.similarity.gamma == 0.3
        assert first.replications == 5000
        assert first.historical_prior.components[0].scale == pytest.approx(
            1 / math.sqrt(70), rel=1e-9
        )
        # drift grid expands t-major, alternative effect applied
        assert first.theta_control == pytest.approx(-0.4)
        assert first.theta_treatment == pytest.approx(0.0)

    def test_both_hypotheses_double_the_list(self):
        text = MAIN_GRID_CONFIG.replace("hypotheses: [alternative]",
                                        "hypotheses: [null, alternative]")
        cfg = parse_config(text)
        assert len(cfg.scenarios) == 2 * 4 * 9

    def test_unnormalized_mixture_names_the_prior(self):
        bad = SMALL_CONFIG.replace(
            "components: [{weight: 1.0, mean: 0.0, sd: 0.25}]",
            "components: [{weight: 0.6, mean: 0.0, sd: 0.25}, {weight: 0.3, mean: 0.1, sd: 0.5}]",
        )
        with pytest.raises(ConfigError, match="historical_control"):
            parse_config(bad)

    def test_missing_key_path_reported(self):
        with pytest.raises(ConfigError, match="design.n_total"):
            parse_config(SMALL_CONFIG.replace("  n_total: 40\n", ""))

    def test_empty_drift_grid_defaults_to_zero(self):
        text = SMALL_CONFIG.replace("drift_grid: [-0.2, 0.2]", "drift_grid: []")
        cfg = parse_config(text)
        assert len(cfg.scenarios) == 2  # null + alternative at d = 0
        assert all(s.theta_control == 0.0 for s in cfg.scenarios)

    def test_known_sd_scales_priors_and_effect(self):
        text = SMALL_CONFIG.replace("model: {kind: continuous}",
                                    "model: {kind: continuous, known_sd: 2.0}")
        cfg = parse_config(text)
        hist = cfg.scenarios[0].historical_prior.components[0]
        assert hist.scale == pytest.approx(0.125)
        alts = [s for s in cfg.scenarios if s.theta_treatment != s.theta_control]
        assert alts[0].true_delta == pytest.approx(0.2)
        assert alts[0].theta_control == pytest.approx(-0.1)

    @pytest.mark.parametrize("mode", ["simulate", "calibrate"])
    def test_approx_hmin_off_on_a_separated_mixture_warns(self, mode):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            parse_config(_approx_hmin_config(SEPARATED_MIXTURE, mode))
        notes = [w for w in caught if "hmin_mode" in str(w.message)]
        assert len(notes) == 2  # one per interim fraction
        assert all(w.category is UserWarning for w in notes)
        assert str(notes[0].message).startswith("design.hmin_mode: at t = 0.3 ")
        assert "h_min 0.682 against the exact 0.483" in str(notes[0].message)

    @pytest.mark.parametrize("mode", ["simulate", "calibrate"])
    def test_approx_hmin_on_a_single_normal_is_silent(self, mode):
        single = "[{weight: 1.0, mean: 0.0, sd: 0.11952286093343936}]"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            parse_config(_approx_hmin_config(single, mode))
        assert not [w for w in caught if "hmin_mode" in str(w.message)]

    def test_binary_effect_fixed_on_log_odds(self):
        text = """
mode: simulate
model: {kind: binary}
design: {variant: design1, n_total: 180, t: 0.3, gamma: 0.3}
priors:
  historical_control:
    family: beta
    components: [{weight: 1.0, mean: 0.3, precision: 65.0}]
  treatment:
    family: beta
    components: [{weight: 1.0, mean: 0.5, precision: 1.0}]
truth:
  drift_grid: [0.0, 0.1]
  effect: {control: 0.3, treatment: 0.5}
  hypotheses: [alternative]
replications: 10
seed: 1
"""
        cfg = parse_config(text)
        s0, s1 = cfg.scenarios
        assert s0.theta_treatment == pytest.approx(0.5)
        shift = math.log(0.5 / 0.5) - math.log(0.3 / 0.7)
        want = 1 / (1 + math.exp(-(shift + math.log(0.4 / 0.6))))
        assert s1.theta_treatment == pytest.approx(want)

    def test_only_identity_transform_accepted(self):
        cfg = SMALL_CONFIG.replace("  gamma: 0.3\n", "  gamma: 0.3\n  transform: identity\n")
        assert parse_config(cfg).scenarios[0].design.similarity.gamma == 0.3
        with pytest.raises(ConfigError, match="design.transform"):
            parse_config(cfg.replace("transform: identity", "transform: logistic"))

    def test_mapping_parses_like_its_text(self):
        from_text = parse_config(SMALL_CONFIG)
        from_mapping = parse_config(yaml.safe_load(SMALL_CONFIG))
        assert from_mapping.scenarios == from_text.scenarios
        assert from_mapping.hypotheses == from_text.hypotheses == ("null", "alternative")
        with pytest.raises(ConfigError, match="<root>"):
            parse_config(["not", "a", "mapping"])

    def test_mode_must_be_known(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config(SMALL_CONFIG.replace("mode: simulate", "mode: explore"))

    def test_calibration_parse(self):
        cfg = parse_config(CALIBRATE_CONFIG)
        assert cfg.mode == "calibrate"
        grid = cfg.calibration.grid
        assert grid.delta_star == pytest.approx(40.0 / 88.0)
        assert grid.table_delta_stars == (0.0, 40.0)
        assert cfg.calibration.historical_prior.mean() == pytest.approx(-50.0 / 88.0)

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
    def test_every_bundled_config_parses(self, path):
        assert parse_config(path.read_text(encoding="utf-8")).mode in cli.MODES

    @pytest.mark.parametrize("config, old, new, key", [
        (SMALL_CONFIG, "  gamma: 0.3\n", "  gamma: 0.3\n  lamda: 2.0\n", "design.lamda"),
        (SMALL_CONFIG, "seed: 7\n", "seed: 7\ncomparater: none\n", "comparater"),
        (SMALL_CONFIG, "mean: 0.0, sd: 0.25}", "mean: 0.0, sdd: 0.25}",
         "priors.historical_control.components[0].sdd"),
        (CALIBRATE_CONFIG, "t_values:", "t_valus:", "calibration.t_valus"),
    ], ids=["design", "root", "component", "calibration"])
    def test_unknown_key_named_by_its_path(self, config, old, new, key):
        assert old in config
        with pytest.raises(ConfigError, match="unknown key") as info:
            parse_config(config.replace(old, new))
        assert info.value.path == key

    @pytest.mark.parametrize("old, new, key", [
        ("delta_star: 0.1", "delta_star: 0.8", "calibration.delta_star"),
        ("table_delta_stars: [0.0, 0.1]", "table_delta_stars: [-0.5]",
         "calibration.table_delta_stars[0]"),
    ], ids=["delta_star", "table_delta_star"])
    def test_binary_calibration_drift_outside_unit_interval(self, monkeypatch, old, new, key):
        # the drift is rejected while parsing, before any cell is simulated
        monkeypatch.setattr(cli, "select_design_params", None)
        monkeypatch.setattr(cli, "borrowing_probability", None)
        with pytest.raises(ConfigError, match=r"outside \(0, 1\)") as info:
            parse_config(BINARY_CALIBRATE_CONFIG.replace(old, new))
        assert info.value.path == key

    def test_lam_one_notice_never_names_dataclasses(self):
        text = (CALIBRATE_CONFIG.replace("  gamma: 0.2\n", "  gamma: 0.2\n  lambda: 1.0\n")
                .replace("replications: 400", "replications: 5"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            plan = parse_config(text).calibration
            select_design_params(plan.grid, plan.design_template, plan.historical_prior,
                                 plan.model)
        assert any("lam = 1" in str(w.message) for w in caught)
        assert [w.filename for w in caught if w.filename.endswith("dataclasses.py")] == []


class TestRoundTrip:
    def test_parse_of_emitted_echo_reproduces_objects(self, tmp_path):
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(SMALL_CONFIG)
        out = tmp_path / "out"
        run(RunManifest(config_path=cfg_path, output_dir=out))
        echo = json.loads((out / "summary.json").read_text())["config"]
        reparsed = parse_config(yaml.safe_dump(echo))
        original = parse_config(SMALL_CONFIG)
        assert reparsed.scenarios == original.scenarios
        assert reparsed.mode == original.mode


class TestEmitReports:
    def test_results_columns_exact(self, tmp_path):
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(SMALL_CONFIG)
        out = tmp_path / "out"
        run(RunManifest(config_path=cfg_path, output_dir=out))
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == ",".join(RESULT_COLUMNS)
        # one row per (t, d) grid point
        assert len(lines) == 1 + 2
        assert not (out / "rates.csv").exists()

    def test_compare_mode_adds_rates_table(self, tmp_path):
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(SMALL_CONFIG)
        out = tmp_path / "out"
        run(RunManifest(config_path=cfg_path, output_dir=out, mode="compare"))
        rates = (out / "rates.csv").read_text().splitlines()
        assert rates[0].startswith("d,t,gamma,lambda,hypothesis,design_rate")
        assert len(rates) == 1 + 4  # 2 drifts x 2 hypotheses

    def test_zero_effect_keeps_both_hypotheses_apart(self, tmp_path):
        # under a zero effect the null and alternative scenarios have equal
        # response rates; the label still comes from the hypothesis walked
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(SMALL_CONFIG.replace("effect: 0.4", "effect: 0.0"))
        out = tmp_path / "out"
        run(RunManifest(config_path=cfg_path, output_dir=out, mode="compare"))
        with open(out / "rates.csv", newline="") as fh:
            rates = list(csv.DictReader(fh))
        for d in ("-0.2", "0.2"):
            labels = sorted(r["hypothesis"] for r in rates if r["d"] == d)
            assert labels == ["alternative", "null"]
        with open(out / "results.csv", newline="") as fh:
            results = list(csv.DictReader(fh))
        assert len(results) == 2
        for row in results:
            assert row["power_diff"] != "" and row["typeI_diff"] != ""
            assert row["power_diff_se"] != "" and row["typeI_diff_se"] != ""

    def test_simulate_reports_unscale_exactly(self, tmp_path):
        # doubling every raw-unit value leaves the working-scale scenarios and
        # their streams as they are, so the reports differ only by the scale
        records = [json.loads((out / "summary.json").read_text())["scenarios"]
                   for out in _run_in_both_units(tmp_path, "simulate")]
        grid_keys = {"d", "t", "gamma", "lambda", "hypothesis"}
        oc_keys = {f.name for f in fields(OperatingCharacteristics)}
        scaled = {"d", "mean_bias_delta", "mean_bias_delta_se", "mean_bias_control",
                  "mean_bias_control_se", "mean_ci_length", "mean_ci_length_se"}
        assert len(records[0]) == len(records[1]) == 4
        for one, two in zip(*records):
            assert set(one) == set(two) == grid_keys | oc_keys
            assert one["rejection_rate_diff"] is not None and one["mean_ci_length"] > 0
            for key in one:
                assert two[key] == (2.0 * one[key] if key in scaled else one[key]), key

    def test_calibrate_reports_unscale_exactly(self, tmp_path):
        tables, summaries = [], []
        for out in _run_in_both_units(tmp_path, "calibrate"):
            with open(out / "calibration.csv", newline="") as fh:
                tables.append(list(csv.DictReader(fh)))
            summaries.append(json.loads((out / "summary.json").read_text()))
        # 3 table drifts x 2 gammas + 2 MAD cells + 2 saved cells
        assert len(tables[0]) == len(tables[1]) == 6 + 2 + 2
        for one, two in zip(*tables):
            assert float(two.pop("delta_star")) == 2.0 * float(one.pop("delta_star"))
            assert one == two
        for key in ("cells", "admissible", "selected", "diagnostic"):
            assert summaries[0][key] == summaries[1][key]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(SMALL_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(RunManifest(config_path=cfg_path, output_dir=out_a))
        run(RunManifest(config_path=cfg_path, output_dir=out_b))
        for name in ("results.csv", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(SMALL_CONFIG)
        out_a, out_b = tmp_path / "w1", tmp_path / "w2"
        run(RunManifest(config_path=cfg_path, output_dir=out_a, worker_count=1))
        run(RunManifest(config_path=cfg_path, output_dir=out_b, worker_count=2))
        assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()

    def test_seed_override_changes_results(self, tmp_path):
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(SMALL_CONFIG)
        out_a, out_b = tmp_path / "s7", tmp_path / "s8"
        run(RunManifest(config_path=cfg_path, output_dir=out_a))
        run(RunManifest(config_path=cfg_path, output_dir=out_b, master_seed=8))
        assert (out_a / "results.csv").read_bytes() != (out_b / "results.csv").read_bytes()
        echo = json.loads((out_b / "summary.json").read_text())["config"]
        assert echo["seed"] == 8

    def test_calibration_outputs(self, tmp_path):
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(CALIBRATE_CONFIG)
        out = tmp_path / "cal"
        run(RunManifest(config_path=cfg_path, output_dir=out))
        rows = (out / "calibration.csv").read_text().splitlines()
        assert rows[0] == "quantity,delta_star,t,gamma,value"
        kinds = {line.split(",")[0] for line in rows[1:]}
        assert kinds == {"borrowing_prob", "borrowing_prob_at_mad", "mean_saved"}
        # 2 table drifts x 2 t x 1 gamma + 2 MAD cells + 2 saved cells
        assert len(rows) == 1 + 4 + 2 + 2
        summary = json.loads((out / "summary.json").read_text())
        assert summary["selected"] is not None


class TestMain:
    def test_happy_path_exit_zero(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(SMALL_CONFIG)
        rc = main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert "results.csv" in capsys.readouterr().out

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text(SMALL_CONFIG.replace("  n_total: 40\n", ""))
        rc = main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "design.n_total" in capsys.readouterr().err

    def test_fractional_calibration_t_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.yaml"
        # 0.33 * 80 interim patients is not a whole number
        cfg_path.write_text(CALIBRATE_CONFIG.replace("t_values: [0.4, 0.6]",
                                                     "t_values: [0.4, 0.33]"))
        rc = main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: calibration.t_values: t = 0.33:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("config, old, new, lead", [
        # t * n_total is 26.4 and 66.6 interim patients
        (CALIBRATE_CONFIG, "t_values: [0.4, 0.6]", "t_values: [0.33, 0.4]",
         "calibration.t_values: t = 0.33:"),
        (MAIN_GRID_CONFIG, "t: [0.3, 0.4, 0.5, 0.6]", "t: [0.3, 0.333]",
         "design.t: t = 0.333:"),
        (BINARY_CALIBRATE_CONFIG, "delta_star: 0.1", "delta_star: 0.8",
         "calibration.delta_star:"),
        (BINARY_CALIBRATE_CONFIG, "table_delta_stars: [0.0, 0.1]", "table_delta_stars: [-0.5]",
         "calibration.table_delta_stars[0]:"),
        (MAIN_GRID_CONFIG, "  lambda: 1.0\n", "  lamda: 2.0\n", "design.lamda:"),
    ], ids=["calibration_t", "design_t", "delta_star", "table_delta_star", "unknown_key"])
    def test_bad_config_names_its_key_exit_two(self, tmp_path, capsys, config, old, new, lead):
        assert old in config
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text(config.replace(old, new))
        rc = main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {lead}")
        assert "Traceback" not in err

    def test_invalid_yaml_exit_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.yaml"
        cfg_path.write_text("mode: [simulate\n")
        rc = main(["--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "not valid YAML" in capsys.readouterr().err

    def test_reps_override(self, tmp_path):
        cfg_path = tmp_path / "config.yaml"
        cfg_path.write_text(SMALL_CONFIG)
        out = tmp_path / "out"
        rc = main(["--config", str(cfg_path), "--out", str(out), "--reps-override", "10"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert all(s["replications"] == 10 for s in summary["scenarios"])

    def test_workers_clamped_to_cpu_count(self, tmp_path, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "run", lambda manifest: seen.append(manifest) or [])
        argv = ["--config", str(tmp_path / "unused.yaml"), "--out", str(tmp_path),
                "--workers", "64"]
        assert main(argv) == 0
        assert seen[-1].worker_count == min(64, os.cpu_count() or 1)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
        assert main(argv) == 0
        assert seen[-1].worker_count == 4
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
        assert main(argv) == 0
        assert seen[-1].worker_count == 1


@pytest.mark.parametrize("module", ["hctrial", "hctrial.cli"])
def test_python_dash_m_runs_a_campaign(tmp_path, module):
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(SMALL_CONFIG.replace("replications: 40", "replications: 5"))
    out = tmp_path / "out"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", module, "--config", str(cfg_path), "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "results.csv").is_file()
