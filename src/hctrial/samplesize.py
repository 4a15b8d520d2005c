"""Frequentist per-arm sample sizes for equal-allocation two-arm trials.

Planning utilities only; the engine never calls them.  They are the two
standard calculators used to pick the total sample size of the bundled
scenarios (a two-sample z test for means with known variance, and a
two-sample test of proportions with unpooled variance).
"""

from __future__ import annotations

import math

from scipy.special import ndtri

__all__ = ["normal_two_arm_size", "binary_two_arm_size"]


def normal_two_arm_size(effect: float, sd: float = 1.0,
                        alpha: float = 0.025, power: float = 0.80) -> int:
    """Per-arm size for detecting a mean difference with one-sided level alpha."""
    if effect <= 0:
        raise ValueError("effect must be positive")
    z = ndtri(1.0 - alpha) + ndtri(power)
    return math.ceil(2.0 * (z * sd / effect) ** 2)


def binary_two_arm_size(p_control: float, p_treatment: float,
                        alpha: float = 0.025, power: float = 0.80) -> int:
    """Per-arm size for detecting a difference in proportions (unpooled)."""
    if not (0.0 < p_control < 1.0 and 0.0 < p_treatment < 1.0):
        raise ValueError("proportions must lie in (0, 1)")
    if p_control == p_treatment:
        raise ValueError("proportions must differ")
    z = ndtri(1.0 - alpha) + ndtri(power)
    var = p_control * (1.0 - p_control) + p_treatment * (1.0 - p_treatment)
    return math.ceil(z * z * var / (p_treatment - p_control) ** 2)
