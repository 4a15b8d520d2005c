"""Second-stage adaptation rules driven by the borrowing weight, prior
rescaling to the saved-patient count, and the final success decision.

Two variants are supported.  Design 1 trims the stage-2 control arm and keeps
the planned stage-2 treatment arm, shrinking the trial by the saved patients.
Design 2 keeps the total sample size fixed and moves the saved control
patients to the treatment arm, tilting the stage-2 allocation ratio.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache

from .distributions import (
    BINARY,
    CONTINUOUS,
    OutcomeModel,
    PriorSpec,
    prob_delta_positive,
)
from .ess import EssValue, rescale_to_ess
from .similarity import SimilarityConfig

__all__ = [
    "DESIGN1",
    "DESIGN2",
    "DesignConfig",
    "StageTwoPlan",
    "stage2_sizes",
    "adjust_control_prior",
    "final_decision",
]

DESIGN1 = "design1"
DESIGN2 = "design2"

_log = logging.getLogger(__name__)
_warned_full_loss = False

# Guards the floor against representation error in products like 0.7 * 200 / 2.
_FLOOR_EPS = 1e-9


def _int_floor(x: float) -> int:
    return int(math.floor(x + _FLOOR_EPS))


def _is_integral(x: float) -> bool:
    return abs(x - round(x)) < _FLOOR_EPS


@dataclass(frozen=True)
class DesignConfig:
    """All pre-trial design parameters.

    ``allocation_ratio`` is the planned treatment:control ratio R of the
    final analysis set, ``stage1_ratio`` the (usually balanced) stage-1
    randomization ratio.  ``lam`` caps how much of the stage-2 control arm
    the borrowing weight may remove; ``lam`` = 1 allows a complete loss of
    stage-2 control randomization and is permitted with a warning.
    ``binary_simple_fallback`` swaps the rescaled historical prior for a
    noninformative Beta(0.5, 0.5) when nothing was saved (binary only).
    """

    variant: str
    n_total: int
    allocation_ratio: float
    t: float
    lam: float
    eta: float
    similarity: SimilarityConfig
    stage1_ratio: float = 1.0
    binary_simple_fallback: bool = False

    def __post_init__(self) -> None:
        if self.variant not in (DESIGN1, DESIGN2):
            raise ValueError(f"unknown design variant: {self.variant!r}")
        if self.n_total <= 0:
            raise ValueError("n_total must be positive")
        if not (0.0 < self.t < 1.0):
            raise ValueError("information fraction t must lie in (0, 1)")
        if self.allocation_ratio <= 0 or self.stage1_ratio <= 0:
            raise ValueError("allocation ratios must be positive")
        if not (0.0 < self.eta < 1.0):
            raise ValueError("success threshold eta must lie in (0, 1)")
        if self.lam < 1.0:
            raise ValueError("lam must be >= 1")
        if self.lam == 1.0:
            global _warned_full_loss
            if not _warned_full_loss:
                _log.warning(
                    "lam = 1 permits a full loss of stage-2 control randomization "
                    "when the borrowing weight reaches 1"
                )
                _warned_full_loss = True
        if not _is_integral(self.t * self.n_total):
            raise ValueError("t * n_total must be an integer number of patients")
        if not _is_integral((1.0 - self.t) * self.n_total / (self.allocation_ratio + 1.0)):
            raise ValueError(
                "(1 - t) * n_total / (R + 1) must be an integer (planned stage-2 control size)"
            )
        if self.n_stage1_control < 2:
            raise ValueError("stage 1 must put at least 2 patients on control")

    # -- derived sizes -------------------------------------------------------

    @property
    def n_stage1_total(self) -> int:
        return int(round(self.t * self.n_total))

    @property
    def n_stage1_control(self) -> int:
        # fractional splits give the spare patient to the treatment arm
        return _int_floor(self.n_stage1_total / (self.stage1_ratio + 1.0))

    @property
    def n_stage1_treatment(self) -> int:
        return self.n_stage1_total - self.n_stage1_control

    @property
    def n_stage2_total(self) -> int:
        return self.n_total - self.n_stage1_total

    @property
    def planned_stage2_control(self) -> int:
        return _int_floor(self.n_stage2_total / (self.allocation_ratio + 1.0))

    @property
    def planned_stage2_treatment(self) -> int:
        return self.n_stage2_total - self.planned_stage2_control


@dataclass(frozen=True)
class StageTwoPlan:
    """Stage-2 arm sizes after the interim adaptation."""

    n2_control: int
    n2_treatment: int
    n_saved: int
    allocation_ratio_stage2: float


def stage2_sizes(config: DesignConfig, xi: float) -> StageTwoPlan:
    """Stage-2 arm sizes for a given borrowing weight.

    The control size is floor((1 - t) (1 - xi / lam) N / (R + 1)); design 1
    keeps the planned treatment size, design 2 gives the removed control
    patients to the treatment arm so the total stays at N.  The saved count is
    taken from the floored control size, not from its continuous
    approximation, so the bookkeeping is exact.
    """
    if not (0.0 <= xi <= 1.0):
        raise ValueError("borrowing weight must lie in [0, 1]")
    frac = (1.0 - config.t) * (1.0 - xi / config.lam) * config.n_total
    n2_control = _int_floor(frac / (config.allocation_ratio + 1.0))
    if config.variant == DESIGN1:
        n2_treatment = int(round(
            (1.0 - config.t) * config.allocation_ratio * config.n_total
            / (config.allocation_ratio + 1.0)
        ))
    else:
        n2_treatment = config.n_stage2_total - n2_control
    n_saved = config.planned_stage2_control - n2_control
    ratio = n2_treatment / n2_control if n2_control > 0 else math.inf
    return StageTwoPlan(n2_control, n2_treatment, n_saved, ratio)


@lru_cache(maxsize=1024)
def adjust_control_prior(
    historical: PriorSpec,
    n_saved: int,
    model: OutcomeModel,
    binary_simple_fallback: bool = False,
) -> PriorSpec:
    """Rescale the historical prior so it is worth the saved patients.

    When nothing was saved the prior is forced down to one patient; for a
    binary endpoint the optional fallback replaces it with Beta(0.5, 0.5)
    instead.  Results are cached: a campaign sees at most
    ``planned_stage2_control + 1`` saved counts per historical prior, while a
    mixture rescale is a root-find over quadratures.
    """
    if n_saved < 0:
        raise ValueError("n_saved must be >= 0")
    if binary_simple_fallback and model.kind == BINARY and n_saved == 0:
        return PriorSpec.beta(0.5, 1.0)
    return rescale_to_ess(historical, EssValue(float(max(n_saved, 1))), model)


def final_decision(
    post_t: PriorSpec,
    post_c: PriorSpec,
    model: OutcomeModel,
    eta: float,
) -> tuple[bool, float]:
    """Declare success when the posterior probability of a positive effect
    strictly exceeds ``eta``."""
    prob = prob_delta_positive(post_t, post_c, model)
    return prob > eta, prob
