"""End-to-end trial simulation and replication campaigns.

Every replicate draws its response pools from one random stream, the first
child of the seed sequence (scenario seed, scenario index, replicate index),
so campaign results do not depend on execution order or worker count; the
analysis of the pools is deterministic.  The paired comparator reuses the
replicate's response pools (common random numbers), which tightens the Monte
Carlo error of the reported power and type I error differences.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

import numpy as np

from .adaptive_design import DesignConfig, adjust_control_prior, final_decision, stage2_sizes
from .distributions import (
    BINARY,
    CONTINUOUS,
    DataSummary,
    NumericsError,
    OutcomeModel,
    PriorSpec,
    delta_point_and_interval,
    posterior_update,
)
from .similarity import assess_similarity

__all__ = [
    "Scenario",
    "TrialResult",
    "OperatingCharacteristics",
    "simulate_trial",
    "simulate_comparator",
    "run_campaign",
]


@dataclass(frozen=True)
class Scenario:
    """One simulation point: true response parameters plus the full design."""

    model: OutcomeModel
    theta_control: float
    theta_treatment: float
    historical_prior: PriorSpec
    treatment_prior: PriorSpec
    design: DesignConfig
    replications: int
    seed: int

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        if self.model.kind == BINARY:
            for name, th in (("theta_control", self.theta_control),
                             ("theta_treatment", self.theta_treatment)):
                if not (0.0 < th < 1.0):
                    raise ValueError(f"{name} must lie in (0, 1) for a binary endpoint")

    @property
    def true_delta(self) -> float:
        return self.theta_treatment - self.theta_control

    @property
    def drift(self) -> float:
        """Gap between the true control mean and the historical prior mean."""
        return self.theta_control - self.historical_prior.mean()


@dataclass(frozen=True)
class TrialResult:
    success: bool
    posterior_prob: float
    delta_point: float
    delta_interval: tuple[float, float]
    n_saved: int
    xi: float
    h_star: float
    arm_sizes: tuple[tuple[int, int], tuple[int, int]]  # (stage1, stage2) x (control, treatment)
    control_point: float


@dataclass(frozen=True)
class OperatingCharacteristics:
    """Per-scenario aggregates with Monte Carlo standard errors."""

    replications: int
    rejection_rate: float
    rejection_rate_se: float
    mean_bias_delta: float
    mean_bias_delta_se: float
    mean_bias_control: float
    mean_bias_control_se: float
    mean_saved: float
    mean_saved_se: float
    mean_ci_length: float
    mean_ci_length_se: float
    comparator_rejection_rate: float | None = None
    comparator_rejection_rate_se: float | None = None
    rejection_rate_diff: float | None = None
    rejection_rate_diff_se: float | None = None


# ---------------------------------------------------------------------------
# Response pools and single-trial paths
# ---------------------------------------------------------------------------


def _comparator_arm_sizes(design: DesignConfig) -> tuple[int, int]:
    n_c = int(math.floor(design.n_total / (design.allocation_ratio + 1.0) + 1e-9))
    return n_c, design.n_total - n_c


def _response_pools(scenario: Scenario, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Pre-draw enough responses per arm for both the adaptive trial and the
    comparator, so the two consume identical values."""
    design = scenario.design
    comp_c, comp_t = _comparator_arm_sizes(design)
    n_control = max(design.n_stage1_control + design.planned_stage2_control, comp_c)
    # design 1's stage-2 treatment size does not depend on xi; design 2's is
    # largest at xi = 1
    n_treatment = max(design.n_stage1_treatment + stage2_sizes(design, 1.0).n2_treatment, comp_t)
    if scenario.model.kind == CONTINUOUS:
        control = rng.normal(scenario.theta_control, 1.0, n_control)
        treatment = rng.normal(scenario.theta_treatment, 1.0, n_treatment)
    else:
        control = (rng.random(n_control) < scenario.theta_control).astype(float)
        treatment = (rng.random(n_treatment) < scenario.theta_treatment).astype(float)
    return control, treatment


def _noninformative_prior(model: OutcomeModel) -> PriorSpec:
    """Worth one patient: unit normal at zero, or Beta(0.5, 0.5)."""
    if model.kind == CONTINUOUS:
        return PriorSpec.normal(0.0, 1.0)
    return PriorSpec.beta(0.5, 1.0)


def _analyze(
    scenario: Scenario, post_t: PriorSpec, post_c: PriorSpec
) -> tuple[bool, float, float, float, float]:
    success, prob = final_decision(post_t, post_c, scenario.model, scenario.design.eta)
    point, lo, hi = delta_point_and_interval(post_t, post_c, scenario.model, level=0.95)
    return success, prob, point, lo, hi


def _run_adaptive(scenario: Scenario, pools: tuple[np.ndarray, np.ndarray]) -> TrialResult:
    design, model = scenario.design, scenario.model
    control, treatment = pools
    n1c, n1t = design.n_stage1_control, design.n_stage1_treatment

    stage1_control_sum = float(control[:n1c].sum())
    state = assess_similarity(
        scenario.historical_prior,
        DataSummary(n1c, stage1_control_sum),
        model,
        design.similarity,
    )
    plan = stage2_sizes(design, state.xi)

    nc = n1c + plan.n2_control
    nt = n1t + plan.n2_treatment
    control_sum = stage1_control_sum + float(control[n1c:nc].sum())
    treatment_sum = float(treatment[:n1t].sum()) + float(treatment[n1t:nt].sum())

    control_prior = adjust_control_prior(
        scenario.historical_prior, plan.n_saved, model,
        binary_simple_fallback=design.binary_simple_fallback,
    )
    post_c = posterior_update(control_prior, DataSummary(nc, control_sum), model)
    post_t = posterior_update(scenario.treatment_prior, DataSummary(nt, treatment_sum), model)
    success, prob, point, lo, hi = _analyze(scenario, post_t, post_c)

    return TrialResult(
        success=success,
        posterior_prob=prob,
        delta_point=point,
        delta_interval=(lo, hi),
        n_saved=plan.n_saved,
        xi=state.xi,
        h_star=state.h_star,
        arm_sizes=((n1c, n1t), (plan.n2_control, plan.n2_treatment)),
        control_point=post_c.mean(),
    )


def _comparator_posteriors(
    scenario: Scenario,
    pools: tuple[np.ndarray, np.ndarray],
) -> tuple[PriorSpec, PriorSpec]:
    """(treatment, control) posteriors of the comparator trial on ``pools``."""
    model = scenario.model
    control, treatment = pools
    n_c, n_t = _comparator_arm_sizes(scenario.design)
    prior = _noninformative_prior(model)
    post_c = posterior_update(prior, DataSummary(n_c, float(control[:n_c].sum())), model)
    post_t = posterior_update(prior, DataSummary(n_t, float(treatment[:n_t].sum())), model)
    return post_t, post_c


def _run_comparator(scenario: Scenario, pools: tuple[np.ndarray, np.ndarray]) -> TrialResult:
    post_t, post_c = _comparator_posteriors(scenario, pools)
    success, prob, point, lo, hi = _analyze(scenario, post_t, post_c)
    n_c, n_t = _comparator_arm_sizes(scenario.design)
    return TrialResult(
        success=success,
        posterior_prob=prob,
        delta_point=point,
        delta_interval=(lo, hi),
        n_saved=0,
        xi=0.0,
        h_star=0.0,
        arm_sizes=((n_c, n_t), (0, 0)),
        control_point=post_c.mean(),
    )


def simulate_trial(scenario: Scenario, stream: np.random.Generator) -> TrialResult:
    """Simulate one adaptive trial; deterministic given (scenario, stream)."""
    return _run_adaptive(scenario, _response_pools(scenario, stream.spawn(1)[0]))


def simulate_comparator(scenario: Scenario, stream: np.random.Generator) -> TrialResult:
    """Simulate the non-adaptive, non-borrowing two-arm reference trial of the
    same total size, with one-patient priors centered at zero (continuous) or
    one half (binary)."""
    return _run_comparator(scenario, _response_pools(scenario, stream.spawn(1)[0]))


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


def _replicate_stream(seed: int, scenario_index: int, replicate: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, scenario_index, replicate]))


class _Row(NamedTuple):
    """The fields of a replicate's row, in order.  Rows cross the pool as plain
    tuples, which pickle about 8x faster; ``_aggregate`` names the columns."""

    success: bool
    delta_point: float
    ci_length: float
    n_saved: int
    control_point: float
    comp_success: bool | None  # None without the paired comparator


def _run_replicate(args: tuple[Scenario, int, int, bool]) -> tuple:
    scenario, scenario_index, replicate, paired = args
    # the first child of _replicate_stream, which simulate_trial draws from
    seq = np.random.SeedSequence([scenario.seed, scenario_index, replicate], spawn_key=(0,))
    pools = _response_pools(scenario, np.random.default_rng(seq))
    comp_success = None
    try:
        res = _run_adaptive(scenario, pools)
        if paired:
            # the comparator enters the report through its decision alone
            post_t, post_c = _comparator_posteriors(scenario, pools)
            comp_success, _ = final_decision(post_t, post_c, scenario.model, scenario.design.eta)
    except NumericsError as exc:
        raise NumericsError(
            f"scenario {scenario_index}, replicate {replicate}: {exc}"
        ) from exc
    lo, hi = res.delta_interval
    return tuple(_Row(res.success, res.delta_point, hi - lo, res.n_saved, res.control_point,
                      comp_success))


def _aggregate(scenario: Scenario, rows: list[tuple], paired: bool) -> OperatingCharacteristics:
    n = len(rows)
    cols = _Row(*(np.array(col, dtype=float) for col in zip(*rows)))

    def mean_se(x: np.ndarray) -> tuple[float, float]:
        se = float(x.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        return float(x.mean()), se

    rate = float(cols.success.mean())
    rate_se = math.sqrt(rate * (1.0 - rate) / n)
    bias_delta, bias_delta_se = mean_se(cols.delta_point - scenario.true_delta)
    bias_control, bias_control_se = mean_se(cols.control_point - scenario.theta_control)
    mean_saved, saved_se = mean_se(cols.n_saved)
    mean_ci, ci_se = mean_se(cols.ci_length)

    comp_rate = comp_rate_se = diff = diff_se = None
    if paired:
        comp_rate = float(cols.comp_success.mean())
        comp_rate_se = math.sqrt(comp_rate * (1.0 - comp_rate) / n)
        diff, diff_se = mean_se(cols.success - cols.comp_success)

    return OperatingCharacteristics(
        replications=n,
        rejection_rate=rate,
        rejection_rate_se=rate_se,
        mean_bias_delta=bias_delta,
        mean_bias_delta_se=bias_delta_se,
        mean_bias_control=bias_control,
        mean_bias_control_se=bias_control_se,
        mean_saved=mean_saved,
        mean_saved_se=saved_se,
        mean_ci_length=mean_ci,
        mean_ci_length_se=ci_se,
        comparator_rejection_rate=comp_rate,
        comparator_rejection_rate_se=comp_rate_se,
        rejection_rate_diff=diff,
        rejection_rate_diff_se=diff_se,
    )


# replicates per task handed to a pool worker
_POOL_CHUNK = 32


def run_campaign(
    scenarios: list[Scenario],
    paired_comparator: bool = True,
    workers: int = 1,
) -> list[OperatingCharacteristics]:
    """Run every scenario's replications and aggregate operating characteristics.

    With ``paired_comparator`` the reference trial is run on each replicate's
    response pools and the rejection-rate difference is reported alongside the
    absolute rates; only the comparator's decision is computed, since nothing
    else of it is reported.  Output is identical for any ``workers`` value;
    each worker process keeps its own cache of binary analyses, which only
    saves recomputation.  A ``NumericsError`` names the scenario index and
    replicate that raised it; ``simulate_trial`` on
    ``_replicate_stream(seed, scenario, replicate)`` replays that replicate.
    ``workers`` is capped at the CPU count, since the pool starts every
    process at once and processes beyond the cores only add overhead.
    """
    if not scenarios:
        raise ValueError("scenario list must not be empty")
    workers = min(workers, os.cpu_count() or 1)
    args = ((scenario, s_idx, r, paired_comparator)
            for s_idx, scenario in enumerate(scenarios) for r in range(scenario.replications))
    # One pool serves the whole campaign in small chunks, so neither a scenario
    # boundary nor one slow worker leaves the other workers idle.
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        rows = (map(_run_replicate, args) if pool is None
                else pool.map(_run_replicate, args, chunksize=_POOL_CHUNK))
        return [_aggregate(s, list(islice(rows, s.replications)), paired_comparator)
                for s in scenarios]
