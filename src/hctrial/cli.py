"""Batch front door: parse scenario or calibration configs, run campaigns,
and emit machine-readable tables.

Configs are YAML trees.  Raw outcome units (prior parameters, drifts, effect
sizes) are divided by the model's known standard deviation at parse time;
effect summaries in the emitted tables are multiplied back, so tables are in
outcome units.  Outputs carry no timestamps: a rerun of the same manifest is
byte-identical, whatever the worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import yaml

from .adaptive_design import DESIGN1, DESIGN2, DesignConfig
from .calibration import (
    CalibrationGrid,
    CalibrationReport,
    borrowing_probability,
    grid_cells,
    select_design_params,
)
from .distributions import (
    BETA,
    BINARY,
    CONTINUOUS,
    NORMAL,
    DataSummary,
    NumericsError,
    OutcomeModel,
    PriorSpec,
)
from .similarity import (
    EXACT,
    PRIOR_MEAN_APPROX,
    SimilarityConfig,
    interim_posterior,
    minimal_hellinger,
)
from .trial_engine import OperatingCharacteristics, Scenario, run_campaign

__all__ = [
    "ConfigError",
    "RunManifest",
    "ParsedConfig",
    "CalibrationPlan",
    "CampaignResults",
    "CalibrationResults",
    "parse_config",
    "emit_reports",
    "run",
    "main",
]

MODES = ("simulate", "compare", "calibrate")

NULL_HYPOTHESIS = "null"
ALTERNATIVE = "alternative"

RESULT_COLUMNS = (
    "d", "t", "gamma", "lambda",
    "power_diff", "typeI_diff", "mean_saved", "bias", "ci_length",
    "power_diff_se", "typeI_diff_se", "mean_saved_se", "bias_se", "ci_length_se",
)


class ConfigError(ValueError):
    """A config violates the schema; the message carries the key path."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class RunManifest:
    config_path: Path
    output_dir: Path
    mode: str | None = None
    master_seed: int | None = None
    worker_count: int = 1
    reps_override: int | None = None


@dataclass(frozen=True)
class CalibrationPlan:
    grid: CalibrationGrid
    design_template: DesignConfig
    historical_prior: PriorSpec
    model: OutcomeModel


@dataclass(frozen=True)
class ParsedConfig:
    mode: str
    model: OutcomeModel
    scenarios: tuple[Scenario, ...] | None
    calibration: CalibrationPlan | None
    echo: dict
    paired_comparator: bool = True
    # scenario i runs under hypotheses[i % len(hypotheses)]
    hypotheses: tuple[str, ...] = ()


@dataclass(frozen=True)
class CampaignResults:
    config: ParsedConfig
    characteristics: tuple[OperatingCharacteristics, ...]


@dataclass(frozen=True)
class CalibrationResults:
    config: ParsedConfig
    report: CalibrationReport
    # (raw delta, t, gamma, probability) rows for the reporting table
    table: tuple[tuple[float, float, float, float], ...]


# ---------------------------------------------------------------------------
# Schema helpers
# ---------------------------------------------------------------------------

# The keys each mapping may carry.  Every section is known in every mode:
# --mode can switch a config that carries both truth and calibration.
_ROOT_KEYS = frozenset({"mode", "model", "design", "priors", "truth", "calibration",
                        "comparator", "replications", "seed"})
_MODEL_KEYS = frozenset({"kind", "known_sd"})
_DESIGN_KEYS = frozenset({"variant", "n_total", "allocation_ratio", "stage1_ratio", "t",
                          "gamma", "hmin_mode", "lambda", "eta", "binary_simple_fallback"})
_PRIORS_KEYS = frozenset({"historical_control", "treatment"})
_PRIOR_KEYS = frozenset({"family", "components"})
# a component's scale key: sd for a normal, precision for a beta
_SCALE_KEY = {NORMAL: "sd", BETA: "precision"}
_TRUTH_KEYS = frozenset({"drift_grid", "effect", "hypotheses"})
_EFFECT_KEYS = frozenset({"control", "treatment"})
_CALIBRATION_KEYS = frozenset({"t_values", "gamma_values", "delta_star", "epsilon",
                               "table_delta_stars"})

_REQUIRED = object()


def _expect_mapping(value: Any, path: str, keys: frozenset[str]) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(path, "expected a mapping")
    for key in value:
        if key not in keys:
            raise ConfigError(str(key) if path == "<root>" else f"{path}.{key}", "unknown key")
    return value


def _get(d: dict, key: str, path: str, default: Any = _REQUIRED) -> Any:
    if key not in d:
        if default is _REQUIRED:
            raise ConfigError(f"{path}.{key}", "missing required key")
        return default
    return d[key]


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    if not math.isfinite(float(value)):
        raise ConfigError(path, "must be finite")
    return float(value)


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def _boolean(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(path, f"expected true or false, got {value!r}")
    return value


def _number_list(value: Any, path: str) -> list[float]:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(path, "expected a list of numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _numbers_or_number(value: Any, path: str) -> list[float]:
    if isinstance(value, (list, tuple)):
        return _number_list(value, path)
    return [_number(value, path)]


@contextmanager
def _reported_at(path: str, note: str = "") -> Iterator[None]:
    """Report a domain constructor's ValueError raised in the block as a
    ConfigError at ``path``, its message led by ``note``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(path, f"{note}{exc}") from exc


# ---------------------------------------------------------------------------
# Domain-object builders
# ---------------------------------------------------------------------------


def _build_model(raw: Any) -> OutcomeModel:
    d = _expect_mapping(raw, "model", _MODEL_KEYS)
    kind = _get(d, "kind", "model")
    if kind not in (CONTINUOUS, BINARY):
        raise ConfigError("model.kind", f"must be '{CONTINUOUS}' or '{BINARY}'")
    known_sd = _number(_get(d, "known_sd", "model", 1.0), "model.known_sd")
    with _reported_at("model"):
        return OutcomeModel(kind, known_sd)


def _build_prior(raw: Any, path: str, model: OutcomeModel) -> PriorSpec:
    d = _expect_mapping(raw, path, _PRIOR_KEYS)
    family = _get(d, "family", path)
    if family != model.family:
        raise ConfigError(f"{path}.family",
                          f"must be '{model.family}' for a {model.kind} endpoint")
    comps_raw = _get(d, "components", path)
    if not isinstance(comps_raw, list) or not comps_raw:
        raise ConfigError(f"{path}.components", "expected a nonempty list")
    scale_key = _SCALE_KEY[family]
    triples = []
    for i, c in enumerate(comps_raw):
        cpath = f"{path}.components[{i}]"
        cm = _expect_mapping(c, cpath, frozenset({"weight", "mean", scale_key}))
        w = _number(_get(cm, "weight", cpath, 1.0), f"{cpath}.weight")
        mean = _number(_get(cm, "mean", cpath), f"{cpath}.mean")
        scale = _number(_get(cm, scale_key, cpath), f"{cpath}.{scale_key}")
        if family == NORMAL:
            triples.append((w, mean / model.known_sd, scale / model.known_sd))
        else:
            triples.append((w, mean, scale))
    with _reported_at(path):
        return PriorSpec.mixture(family, triples)


def _build_designs(d: dict, t_path: str, t_values: list[float], model: OutcomeModel,
                   historical: PriorSpec) -> tuple[DesignConfig, ...]:
    """The design at each interim fraction of ``t_values``, the list read from
    ``t_path``; every other design parameter is read once, from ``d``."""
    variant = _get(d, "variant", "design")
    if variant not in (DESIGN1, DESIGN2):
        raise ConfigError("design.variant", f"must be '{DESIGN1}' or '{DESIGN2}'")
    gamma = _number(_get(d, "gamma", "design", 0.3), "design.gamma")
    hmin_mode = _get(d, "hmin_mode", "design", EXACT)
    if hmin_mode not in (EXACT, PRIOR_MEAN_APPROX):
        raise ConfigError("design.hmin_mode", f"must be '{EXACT}' or '{PRIOR_MEAN_APPROX}'")
    with _reported_at("design"):
        similarity = SimilarityConfig(gamma=gamma, hmin_mode=hmin_mode)
    fields = dict(
        variant=variant,
        n_total=_integer(_get(d, "n_total", "design"), "design.n_total"),
        allocation_ratio=_number(_get(d, "allocation_ratio", "design", 1.0),
                                 "design.allocation_ratio"),
        lam=_number(_get(d, "lambda", "design", 1.0), "design.lambda"),
        eta=_number(_get(d, "eta", "design", 0.975), "design.eta"),
        similarity=similarity,
        stage1_ratio=_number(_get(d, "stage1_ratio", "design", 1.0), "design.stage1_ratio"),
        binary_simple_fallback=_boolean(_get(d, "binary_simple_fallback", "design", False),
                                        "design.binary_simple_fallback"),
    )
    designs = []
    for t in t_values:
        with _reported_at(t_path, f"t = {t:g}: "):
            designs.append(DesignConfig(t=t, **fields))
        _warn_on_approx_hmin(historical, model, designs[-1])
    return tuple(designs)


def _warn_on_approx_hmin(historical: PriorSpec, model: OutcomeModel,
                         design: DesignConfig) -> None:
    """Warn if prior_mean_approx misses a mixture prior's exact h_min by over 0.01."""
    if design.similarity.hmin_mode != PRIOR_MEAN_APPROX or historical.is_single:
        return
    interim = interim_posterior(DataSummary(design.n_stage1_control, 0.0), model)
    approx, exact = (minimal_hellinger(historical, interim, model, mode)
                     for mode in (PRIOR_MEAN_APPROX, EXACT))
    if abs(approx - exact) > 0.01:
        warnings.warn(f"design.hmin_mode: at t = {design.t:g} prior_mean_approx gives h_min "
                      f"{approx:.3f} against the exact {exact:.3f} for this mixture prior",
                      UserWarning, stacklevel=2)


def _control_mean(drift: float, path: str, historical: PriorSpec,
                  model: OutcomeModel) -> float:
    """The working-scale true control mean ``drift`` outcome units away from
    the historical prior mean; for a binary endpoint it must be a probability."""
    theta = historical.mean() + drift / model.known_sd
    if model.kind == BINARY and not (0.0 < theta < 1.0):
        raise ConfigError(
            path, f"drift {drift} puts the control probability at {theta}, outside (0, 1)")
    return theta


def _normalize_hypotheses(value: Any) -> list[str]:
    if value is None:
        return [NULL_HYPOTHESIS, ALTERNATIVE]
    if not isinstance(value, list) or not value:
        raise ConfigError("truth.hypotheses", "expected a nonempty list")
    out: list[str] = []
    for i, item in enumerate(value):
        # a bare YAML null reads as the null hypothesis
        name = NULL_HYPOTHESIS if item is None else item
        if name not in (NULL_HYPOTHESIS, ALTERNATIVE):
            raise ConfigError(f"truth.hypotheses[{i}]", f"unknown hypothesis {item!r}")
        if name not in out:
            out.append(name)
    return out


def _logit(p: float) -> float:
    return math.log(p / (1.0 - p))


def _expit(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def _effect_fn(raw: Any, model: OutcomeModel):
    """Returns theta_treatment(theta_control) for the alternative hypothesis."""
    if model.kind == CONTINUOUS:
        effect = _number(raw, "truth.effect") / model.known_sd
        return lambda theta_c: theta_c + effect
    d = _expect_mapping(raw, "truth.effect", _EFFECT_KEYS)
    p_c = _number(_get(d, "control", "truth.effect"), "truth.effect.control")
    p_t = _number(_get(d, "treatment", "truth.effect"), "truth.effect.treatment")
    for key, p in (("control", p_c), ("treatment", p_t)):
        if not (0.0 < p < 1.0):
            raise ConfigError(f"truth.effect.{key}", "must lie in (0, 1)")
    # effect fixed on the log-odds scale as the control response varies
    shift = _logit(p_t) - _logit(p_c)
    return lambda theta_c: _expit(shift + _logit(theta_c))


def _build_scenarios(truth: dict, treatment_prior: PriorSpec | None, effect_fn,
                     designs: tuple[DesignConfig, ...], historical: PriorSpec,
                     model: OutcomeModel, replications: int,
                     seed: int) -> tuple[tuple[Scenario, ...], tuple[str, ...]]:
    if treatment_prior is None:
        raise ConfigError("priors.treatment", "missing required key")
    drift_raw = _get(truth, "drift_grid", "truth", None)
    drifts = _number_list(drift_raw, "truth.drift_grid") if drift_raw else [0.0]
    theta_cs = [_control_mean(d_raw, f"truth.drift_grid[{i}]", historical, model)
                for i, d_raw in enumerate(drifts)]
    hypotheses = _normalize_hypotheses(_get(truth, "hypotheses", "truth", None))
    if ALTERNATIVE in hypotheses and effect_fn is None:
        raise ConfigError("truth.effect", "missing required key")

    scenarios: list[Scenario] = []
    for design in designs:
        for i, theta_c in enumerate(theta_cs):
            for hyp in hypotheses:
                theta_t = theta_c if hyp == NULL_HYPOTHESIS else effect_fn(theta_c)
                with _reported_at(f"truth.drift_grid[{i}]"):
                    scenarios.append(Scenario(
                        model=model,
                        theta_control=theta_c,
                        theta_treatment=theta_t,
                        historical_prior=historical,
                        treatment_prior=treatment_prior,
                        design=design,
                        replications=replications,
                        seed=seed,
                    ))
    return tuple(scenarios), tuple(hypotheses)


def _build_calibration(cal: dict, t_values: list[float], designs: tuple[DesignConfig, ...],
                       historical: PriorSpec, model: OutcomeModel, replications: int,
                       seed: int) -> CalibrationPlan:
    gamma_values = _number_list(_get(cal, "gamma_values", "calibration"),
                                "calibration.gamma_values")
    delta_star = _number(_get(cal, "delta_star", "calibration"), "calibration.delta_star")
    _control_mean(delta_star, "calibration.delta_star", historical, model)
    epsilon = _number(_get(cal, "epsilon", "calibration"), "calibration.epsilon")
    table_raw = _get(cal, "table_delta_stars", "calibration", None)
    table = tuple(_number_list(table_raw, "calibration.table_delta_stars")) if table_raw else ()
    for i, d_raw in enumerate(table):
        _control_mean(d_raw, f"calibration.table_delta_stars[{i}]", historical, model)
    with _reported_at("calibration"):
        grid = CalibrationGrid(
            t_values=tuple(t_values),
            gamma_values=tuple(gamma_values),
            delta_star=delta_star / model.known_sd,
            epsilon=epsilon,
            replications=replications,
            seed=seed,
            table_delta_stars=table,
        )
    return CalibrationPlan(grid=grid, design_template=designs[0],
                           historical_prior=historical, model=model)


def _load_mapping(source: str | dict) -> dict:
    if isinstance(source, str):
        try:
            source = yaml.safe_load(source)
        except yaml.YAMLError as exc:
            raise ConfigError("<document>", f"not valid YAML: {exc}") from exc
    return _expect_mapping(source, "<root>", _ROOT_KEYS)


def parse_config(source: str | dict) -> ParsedConfig:
    """Parse and fully validate a config, given as YAML text or as the mapping
    it loads to, into domain objects.

    Both modes read the model, the historical prior, the run size and the
    design at each interim fraction once: the fractions are ``design.t`` in
    simulate and compare mode and ``calibration.t_values`` in calibrate mode.
    Schema violations, unknown keys among them, raise :class:`ConfigError`
    with the offending key path; the keys of ``truth`` and ``calibration``
    are checked in every mode, whichever of the two the mode builds, and so
    are ``priors.treatment`` and ``truth.effect`` when present.
    """
    data = _load_mapping(source)

    mode = _get(data, "mode", "<root>", "simulate")
    if mode not in MODES:
        raise ConfigError("mode", f"must be one of {MODES}")
    model = _build_model(_get(data, "model", "<root>"))
    priors = _expect_mapping(_get(data, "priors", "<root>"), "priors", _PRIORS_KEYS)
    historical = _build_prior(_get(priors, "historical_control", "priors"),
                              "priors.historical_control", model)
    # simulate and compare mode require the treatment prior (and the effect,
    # under the alternative) in _build_scenarios
    treatment_prior = (_build_prior(priors["treatment"], "priors.treatment", model)
                       if "treatment" in priors else None)
    replications = _integer(_get(data, "replications", "<root>"), "replications")
    if replications < 1:
        raise ConfigError("replications", "must be >= 1")
    seed = _integer(_get(data, "seed", "<root>"), "seed")
    if seed < 0:
        raise ConfigError("seed", "must be >= 0")

    design = _expect_mapping(_get(data, "design", "<root>"), "design", _DESIGN_KEYS)
    # both sections are checked in every mode, though each mode builds only one
    truth = _expect_mapping(_get(data, "truth", "<root>", {}), "truth", _TRUTH_KEYS)
    cal = _expect_mapping(_get(data, "calibration", "<root>",
                               _REQUIRED if mode == "calibrate" else {}),
                          "calibration", _CALIBRATION_KEYS)
    effect_fn = _effect_fn(truth["effect"], model) if "effect" in truth else None
    comparator = _get(data, "comparator", "<root>", "paired")
    if comparator not in ("paired", "none"):
        raise ConfigError("comparator", "must be 'paired' or 'none'")
    if mode == "calibrate":
        t_path = "calibration.t_values"
        t_values = _number_list(_get(cal, "t_values", "calibration"), t_path)
    else:
        t_path = "design.t"
        t_values = _numbers_or_number(_get(design, "t", "design"), t_path)
    designs = _build_designs(design, t_path, t_values, model, historical)

    if mode == "calibrate":
        plan = _build_calibration(cal, t_values, designs, historical, model,
                                  replications, seed)
        return ParsedConfig(mode=mode, model=model, scenarios=None,
                            calibration=plan, echo=data)

    scenarios, hypotheses = _build_scenarios(truth, treatment_prior, effect_fn, designs,
                                             historical, model, replications, seed)
    return ParsedConfig(mode=mode, model=model, scenarios=scenarios,
                        calibration=None, echo=data,
                        paired_comparator=comparator == "paired", hypotheses=hypotheses)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def _fmt(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# OperatingCharacteristics fields in outcome units; the others are rates and
# patient counts
_EFFECT_SCALED = ("mean_bias_delta", "mean_bias_delta_se", "mean_bias_control",
                  "mean_bias_control_se", "mean_ci_length", "mean_ci_length_se")


def _scenario_record(scenario: Scenario, oc: OperatingCharacteristics,
                     model: OutcomeModel, hypothesis: str) -> dict:
    record = {
        "d": scenario.drift * model.known_sd,
        "t": scenario.design.t,
        "gamma": scenario.design.similarity.gamma,
        "lambda": scenario.design.lam,
        "hypothesis": hypothesis,
        **asdict(oc),
    }
    for key in _EFFECT_SCALED:
        record[key] *= model.known_sd
    return record


def _campaign_rows(records: list[dict], hypotheses: tuple[str, ...]) -> list[list[Any]]:
    """One row per (t, d) grid point, from its block of one record per hypothesis."""
    rows = []
    for start in range(0, len(records), len(hypotheses)):
        block = dict(zip(hypotheses, records[start:start + len(hypotheses)]))
        alt, null = block.get(ALTERNATIVE, {}), block.get(NULL_HYPOTHESIS, {})
        base = null or alt
        rows.append([
            base["d"], base["t"], base["gamma"], base["lambda"],
            alt.get("rejection_rate_diff"), null.get("rejection_rate_diff"),
            base["mean_saved"], base["mean_bias_delta"], base["mean_ci_length"],
            alt.get("rejection_rate_diff_se"), null.get("rejection_rate_diff_se"),
            base["mean_saved_se"], base["mean_bias_delta_se"], base["mean_ci_length_se"],
        ])
    return rows


def emit_reports(results: CampaignResults | CalibrationResults, output_dir: Path) -> list[Path]:
    """Write the mode's tables plus a config-echoing summary into the existing
    ``output_dir``; returns paths."""
    output_dir = Path(output_dir)

    config = results.config
    if isinstance(results, CalibrationResults):
        cells = results.report.cells
        mad = config.calibration.grid.delta_star * config.model.known_sd
        rows: list[Sequence[Any]] = [("borrowing_prob", *row) for row in results.table]
        rows += [("borrowing_prob_at_mad", mad, c.t, c.gamma, c.borrowing_prob) for c in cells]
        rows += [("mean_saved", 0.0, c.t, c.gamma, c.mean_saved) for c in cells]
        tables = {"calibration.csv": (("quantity", "delta_star", "t", "gamma", "value"), rows)}
        details = {
            "cells": [asdict(c) for c in cells],
            "admissible": [[c.t, c.gamma] for c in cells if c.admissible],
            "selected": list(results.report.selected) if results.report.selected else None,
            "diagnostic": results.report.diagnostic,
        }
    else:
        hypotheses = config.hypotheses
        records = [
            _scenario_record(s, oc, config.model, hypotheses[i % len(hypotheses)])
            for i, (s, oc) in enumerate(zip(config.scenarios, results.characteristics))
        ]
        tables = {"results.csv": (RESULT_COLUMNS, _campaign_rows(records, hypotheses))}
        if config.mode == "compare":
            tables["rates.csv"] = (
                ("d", "t", "gamma", "lambda", "hypothesis",
                 "design_rate", "design_rate_se", "comparator_rate", "comparator_rate_se",
                 "rate_diff", "rate_diff_se"),
                [(r["d"], r["t"], r["gamma"], r["lambda"], r["hypothesis"],
                  r["rejection_rate"], r["rejection_rate_se"],
                  r["comparator_rejection_rate"], r["comparator_rejection_rate_se"],
                  r["rejection_rate_diff"], r["rejection_rate_diff_se"]) for r in records],
            )
        details = {"scenarios": records}

    written: list[Path] = []
    for name, (header, rows) in tables.items():
        written.append(output_dir / name)
        _write_csv(written[-1], header, rows)
    # execution details like the worker count stay out of the summary so a
    # rerun of the same config is byte-identical whatever the parallelism
    written.append(output_dir / "summary.json")
    _write_json(written[-1], {"mode": config.mode, "config": config.echo, **details})
    return written


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def _calibration_table(plan: CalibrationPlan, report: CalibrationReport) -> Iterator[tuple]:
    """The table's borrowing probabilities; at the MAD, each cell's in ``report``."""
    grid = plan.grid
    cells = list(grid_cells(grid, plan.design_template))
    for di, d_raw in enumerate(grid.table_delta_stars):
        delta = d_raw / plan.model.known_sd
        for (t, gamma, design, _, _, streams), cell in zip(cells, report.cells):
            prob = (cell.borrowing_prob if delta == grid.delta_star else
                    borrowing_probability(design, plan.historical_prior, plan.model, delta,
                                          grid.replications, streams[di]))
            yield d_raw, t, gamma, prob


def run(manifest: RunManifest) -> list[Path]:
    """Execute a manifest end-to-end and return the written report paths."""
    data = _load_mapping(Path(manifest.config_path).read_text(encoding="utf-8"))
    if manifest.mode is not None:
        data["mode"] = manifest.mode
    for key, value in (("seed", manifest.master_seed), ("replications", manifest.reps_override)):
        if value is not None:
            data[key] = value
    config = parse_config(data)
    # an output directory that cannot be made fails before anything is simulated
    Path(manifest.output_dir).mkdir(parents=True, exist_ok=True)

    if config.mode == "calibrate":
        plan = config.calibration
        report = select_design_params(
            plan.grid, plan.design_template, plan.historical_prior, plan.model
        )
        results: CampaignResults | CalibrationResults = CalibrationResults(
            config=config, report=report, table=tuple(_calibration_table(plan, report))
        )
    else:
        ocs = run_campaign(
            list(config.scenarios),
            paired_comparator=config.paired_comparator,
            workers=manifest.worker_count,
        )
        results = CampaignResults(config=config, characteristics=tuple(ocs))
    return emit_reports(results, manifest.output_dir)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hctrial",
        description="Simulate and calibrate two-stage hybrid-control trial designs.",
    )
    parser.add_argument("--config", required=True, help="YAML config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--mode", choices=MODES, default=None,
                        help="override the config's mode")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel workers (at most the CPU count)")
    parser.add_argument("--reps-override", type=int, default=None,
                        help="override the replication count")
    args = parser.parse_args(argv)

    manifest = RunManifest(
        config_path=Path(args.config),
        output_dir=Path(args.out),
        mode=args.mode,
        master_seed=args.seed,
        # more processes than cores only adds pool overhead
        worker_count=max(1, min(args.workers, os.cpu_count() or 1)),
        reps_override=args.reps_override,
    )
    try:
        written = run(manifest)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    for path in written:
        print(path)
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
