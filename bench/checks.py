"""Output checks on the report files one CLI invocation wrote.

An operation is one scenario (simulate mode) or one row of calibration.csv
(calibrate mode).  Each check returns, per operation, the list of its
misses; an empty list is a pass.  Configs are read back from the ``config``
echo in summary.json, so the checks see exactly what the CLI ran.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import Callable

import oracles

_ROUNDING = 1e-9
# Prefix of the misses that the dense-grid minimal_hellinger check reports.
HMIN_MISS = "minimal_hellinger"


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir()) if p.is_file()}


def _known_sd(cfg: dict) -> float:
    model = cfg["model"]
    return float(model.get("known_sd", 1.0)) if model["kind"] == "continuous" else 1.0


def _stage1_control(design: dict, t: float) -> int:
    n1 = round(t * design["n_total"])
    return math.floor(n1 / (design.get("stage1_ratio", 1.0) + 1.0) + _ROUNDING)


def _planned_stage2_control(design: dict, t: float) -> int:
    return round((1.0 - t) * design["n_total"] / (design.get("allocation_ratio", 1.0) + 1.0))


def _in_range(problems: list[str], rec: dict, key: str, lo: float, hi: float) -> None:
    v = rec.get(key)
    if not (isinstance(v, (int, float)) and lo <= v <= hi):
        problems.append(f"{key}={v!r} outside [{lo}, {hi}]")


def _ses_finite(problems: list[str], rec: dict) -> None:
    for key, v in rec.items():
        if key.endswith("_se") and not (isinstance(v, (int, float))
                                        and math.isfinite(v) and v >= 0.0):
            problems.append(f"{key}={v!r} is not a finite nonnegative SE")


def check_simulate(summary: dict,
                   hmin_program: Callable[[float], float] | None = None) -> list[list[str]]:
    """Range invariants for every scenario; the closed-form comparator rate
    for continuous endpoints; with ``hmin_program`` (the program's minimal
    distance at an interim sd), a dense-grid check of it at each scenario's
    interim scale against the normal-mixture historical prior."""
    cfg = summary["config"]
    design, scale = cfg["design"], _known_sd(cfg)
    continuous = cfg["model"]["kind"] == "continuous"
    reps = cfg["replications"]
    hist = [(c.get("weight", 1.0), c["mean"] / scale, c.get("sd", 0.0) / scale)
            for c in cfg["priors"]["historical_control"]["components"]]
    m_hist = sum(w * m for w, m, _ in hist)
    ratio = design.get("allocation_ratio", 1.0)
    n_c = math.floor(design["n_total"] / (ratio + 1.0) + _ROUNDING)
    n_t = design["n_total"] - n_c
    hmin_misses: dict[int, list[str]] = {}

    out = []
    for rec in summary["scenarios"]:
        problems: list[str] = []
        t = rec["t"]
        _in_range(problems, rec, "rejection_rate", 0.0, 1.0)
        _in_range(problems, rec, "comparator_rejection_rate", 0.0, 1.0)
        _in_range(problems, rec, "rejection_rate_diff", -1.0, 1.0)
        _in_range(problems, rec, "mean_saved", 0.0, _planned_stage2_control(design, t))
        _ses_finite(problems, rec)
        if rec.get("replications") != reps:
            problems.append(f"replications={rec.get('replications')!r}, expected {reps}")
        if continuous:
            theta_c = m_hist + rec["d"] / scale
            theta_t = theta_c
            if rec["hypothesis"] == "alternative":
                theta_t += cfg["truth"]["effect"] / scale
            p = oracles.comparator_rejection_rate(theta_c, theta_t, n_c, n_t, design["eta"])
            got = rec["comparator_rejection_rate"]
            if isinstance(got, (int, float)) and abs(got - p) > oracles.mc_tolerance(p, reps):
                problems.append(f"comparator rate {got} vs closed form {p:.6f}")
        if hmin_program is not None:
            n = _stage1_control(design, t)
            if n not in hmin_misses:
                sd = 1.0 / math.sqrt(n)
                got = hmin_program(sd)
                want = oracles.minimal_hellinger_grid(hist, sd)
                hmin_misses[n] = ([] if abs(got - want) <= 1e-3 else
                                  [f"{HMIN_MISS} at n={n} is {got:.4f}, dense grid "
                                   f"gives {want:.4f}"])
            problems += hmin_misses[n]
        out.append(problems)
    return out


def check_calibrate(summary: dict, calibration_csv: str) -> list[list[str]]:
    """Every calibration.csv row: range invariants, and for a single-normal
    historical prior the closed-form borrowing probability and the exact
    mean saved count."""
    cfg = summary["config"]
    design, scale = cfg["design"], _known_sd(cfg)
    reps = cfg["calibration"].get("replications", cfg["replications"])
    comps = cfg["priors"]["historical_control"]["components"]
    exact = cfg["model"]["kind"] == "continuous" and len(comps) == 1
    s0 = comps[0]["sd"] / scale if exact else None

    out = []
    for row in csv.DictReader(io.StringIO(calibration_csv)):
        problems: list[str] = []
        t, gamma, value = float(row["t"]), float(row["gamma"]), float(row["value"])
        delta = float(row["delta_star"]) / scale
        n = _stage1_control(design, t)
        if row["quantity"] in ("borrowing_prob", "borrowing_prob_at_mad"):
            if not 0.0 <= value <= 1.0:
                problems.append(f"probability {value} outside [0, 1]")
            if exact:
                p = oracles.borrowing_probability(s0, n, gamma, delta)
                if abs(value - p) > oracles.mc_tolerance(p, reps):
                    problems.append(f"P(borrow) {value} vs closed form {p:.6f}")
        elif row["quantity"] == "mean_saved":
            planned = _planned_stage2_control(design, t)
            if not 0.0 <= value <= planned:
                problems.append(f"mean saved {value} outside [0, {planned}]")
            if exact:
                mean, var = oracles.saved_moments(
                    s0, n, gamma, delta, design["n_total"], t,
                    design.get("allocation_ratio", 1.0), design.get("lambda", 1.0))
                tol = oracles.Z_TOL * math.sqrt(var / reps) + 1.0 / reps
                if abs(value - mean) > tol:
                    problems.append(f"mean saved {value} vs exact {mean:.4f}")
        else:
            problems.append(f"unknown quantity {row['quantity']!r}")
        out.append(problems)
    return out
