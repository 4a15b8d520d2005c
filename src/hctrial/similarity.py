"""Interim similarity pipeline: interim posterior, minimal Hellinger distance,
normalized distance, and the borrowing weight.

The normalized distance rescales the observed Hellinger distance by the
smallest value it could attain given the information content of the two
distributions (scale parameters held fixed, interim mean free), which makes
the criterion insensitive to a mismatch in effective sample sizes.
``assess_similarity`` is the pipeline on one stage-1 summary and
``xi_of_totals`` its borrowing weight on a whole array of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize_scalar

from .distributions import (
    BETA,
    CONTINUOUS,
    NORMAL,
    DataSummary,
    NumericsError,
    OutcomeModel,
    PriorComponent,
    PriorSpec,
    _named,
    hellinger_beta,
    hellinger_normal,
    hellinger_numeric,
)

__all__ = [
    "EXACT",
    "PRIOR_MEAN_APPROX",
    "SimilarityConfig",
    "InterimState",
    "interim_posterior",
    "minimal_hellinger",
    "normalized_hellinger",
    "similarity_xi",
    "assess_similarity",
    "xi_of_totals",
]

EXACT = "exact"
PRIOR_MEAN_APPROX = "prior_mean_approx"

_BINARY_MEAN_BRACKET = (1e-3, 1.0 - 1e-3)
# The basin scan of a mixture prior reaches this many dip widths past the
# extreme component means, with at most this many grid points.
_SCAN_WIDTHS = 3.0
_SCAN_MAX_POINTS = 256


@dataclass(frozen=True)
class SimilarityConfig:
    """Tuning of the borrowing criterion.

    ``gamma`` is the largest normalized distance at which borrowing is still
    allowed; zero is accepted as a sentinel that disables borrowing outright.
    ``hmin_mode`` selects how the minimal distance is obtained: exact
    minimization, or the cheaper evaluation at the prior mean with negative
    normalized distances clamped to zero.
    """

    gamma: float = 0.3
    hmin_mode: str = EXACT

    def __post_init__(self) -> None:
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError("gamma must lie in [0, 1] (0 disables borrowing)")
        if self.hmin_mode not in (EXACT, PRIOR_MEAN_APPROX):
            raise ValueError(f"unknown hmin mode: {self.hmin_mode!r}")


@dataclass(frozen=True)
class InterimState:
    """Everything the interim look produces for the downstream design rules."""

    n_interim_control: int
    control_summary: DataSummary
    interim_posterior: PriorSpec
    h: float
    h_min: float
    h_star: float
    xi: float


def interim_posterior(data: DataSummary, model: OutcomeModel) -> PriorSpec:
    """Interim control posterior carrying exactly the interim information.

    Continuous: normal with the observed mean and sd 1/sqrt(n).  Binary: the
    Jeffreys-prior posterior Beta(0.5 + successes, 0.5 + failures), total
    precision n + 1.
    """
    if data.n < 2:
        raise ValueError("interim posterior needs at least 2 control observations")
    if model.kind == CONTINUOUS:
        return PriorSpec.normal(data.mean, 1.0 / math.sqrt(data.n))
    if data.total < 0 or data.total > data.n:
        raise ValueError("binary successes must lie in [0, n]")
    phi = data.n + 1.0
    return PriorSpec.beta((0.5 + data.total) / phi, phi)


def _hellinger(historical: PriorSpec, interim: PriorSpec) -> float:
    if historical.is_single and interim.is_single:
        if historical.family == NORMAL:
            return hellinger_normal(historical, interim)
        return hellinger_beta(historical, interim)
    return hellinger_numeric(historical, interim)


def _dip_width(component: PriorComponent, family: str, interim_scale: float) -> float:
    """Width of the dip a mixture component carves into the distance profile:
    the sd of the component and of an interim posterior at its mean combined."""
    if family == NORMAL:
        return math.hypot(component.scale, interim_scale)
    var = component.mean * (1.0 - component.mean)
    return math.sqrt(var / (component.scale + 1.0) + var / (interim_scale + 1.0))


def _scan_points(
    historical: PriorSpec, family: str, interim_scale: float
) -> tuple[list[float], float]:
    """Candidate interim means that put a point in every basin of the distance
    profile, and the grid step: a grid spaced at half the narrowest dip,
    reaching ``_SCAN_WIDTHS`` dips past the extreme means, plus the component
    means themselves, which keep a narrow basin visible when the grid is
    capped at ``_SCAN_MAX_POINTS``."""
    comps = historical.components
    widths = [_dip_width(c, family, interim_scale) for c in comps]
    lo = min(c.mean - _SCAN_WIDTHS * w for c, w in zip(comps, widths))
    hi = max(c.mean + _SCAN_WIDTHS * w for c, w in zip(comps, widths))
    if family == BETA:
        lo, hi = max(lo, _BINARY_MEAN_BRACKET[0]), min(hi, _BINARY_MEAN_BRACKET[1])
    count = max(2, min(_SCAN_MAX_POINTS, math.ceil((hi - lo) / (0.5 * min(widths))) + 1))
    step = (hi - lo) / (count - 1)
    grid = {lo + i * step for i in range(count)}
    return sorted(grid | {c.mean for c in comps if lo <= c.mean <= hi}), step


@lru_cache(maxsize=512)
def _minimal_hellinger_cached(historical: PriorSpec, interim_scale: float, mode: str) -> float:
    family = historical.family

    def profile(x: float) -> float:
        return _hellinger(historical, PriorSpec.mixture(family, [(1.0, x, interim_scale)]))

    if mode == PRIOR_MEAN_APPROX or (family == NORMAL and historical.is_single):
        # a single normal's minimum over the interim mean sits exactly on the
        # prior mean; for any other prior this is the approximation
        return profile(historical.mean())

    # one basin per separated component: scan, then refine one grid step to
    # either side of the best scan point
    points, step = _scan_points(historical, family, interim_scale)
    values = [profile(x) for x in points]
    best = min(range(len(points)), key=values.__getitem__)
    lo, hi = max(points[best] - step, points[0]), min(points[best] + step, points[-1])
    xtol = 1e-8 * max(1.0, points[-1] - points[0])
    refined = minimize_scalar(profile, bounds=(lo, hi), method="bounded", options={"xatol": xtol})
    if not refined.success:
        raise NumericsError(f"minimal-distance search did not converge for prior "
                            f"{_named((historical,))} at interim scale {interim_scale}")
    return float(min(refined.fun, values[best]))


def minimal_hellinger(
    historical: PriorSpec,
    interim: PriorSpec,
    model: OutcomeModel,
    mode: str = EXACT,
) -> float:
    """Smallest attainable distance between the historical prior and an interim
    posterior carrying the interim information content.

    Scale parameters stay fixed (interim sd 1/sqrt(n), or precision n + 1);
    only the interim mean moves.  A single normal prior attains its minimum
    at its own mean.  Every other prior, single beta included, gets one
    search: a scan of the interim mean over every component's basin, then a
    bounded Brent refine one grid step to either side of the best point.
    ``prior_mean_approx`` mode evaluates the distance at the historical prior
    mean, which can exceed the true minimum; downstream normalization clamps
    the resulting negative differences to zero.
    """
    if mode not in (EXACT, PRIOR_MEAN_APPROX):
        raise ValueError(f"unknown hmin mode: {mode!r}")
    if not interim.is_single:
        raise ValueError("interim posterior must be single-component")
    if historical.family != interim.family:
        raise ValueError("historical and interim families do not match")
    scale = interim.components[0].scale
    return _minimal_hellinger_cached(historical, scale, mode)


def normalized_hellinger(h: float, h_min: float) -> float:
    """Rescale a distance by its attainable minimum: (h - h_min) / (1 - h_min),
    clamped to [0, 1]."""
    if not (0.0 <= h_min < 1.0):
        raise ValueError("minimal distance must lie in [0, 1)")
    return min(1.0, max(0.0, (h - h_min) / (1.0 - h_min)))


def similarity_xi(h_star: float, config: SimilarityConfig) -> float:
    """Borrowing weight: (1 - h_star) when h_star <= gamma, else zero.

    The indicator keeps borrowing off whenever the interim control data look
    too different from the historical prior; gamma = 0 is the sentinel that
    disables borrowing entirely.
    """
    if not (0.0 <= h_star <= 1.0):
        raise ValueError("normalized distance must lie in [0, 1]")
    if config.gamma == 0.0 or h_star > config.gamma:
        return 0.0
    return 1.0 - h_star


def assess_similarity(
    historical: PriorSpec,
    data: DataSummary,
    model: OutcomeModel,
    config: SimilarityConfig,
) -> InterimState:
    """Run the whole interim pipeline on the stage-1 control summary."""
    g = interim_posterior(data, model)
    h = _hellinger(historical, g)
    h_min = minimal_hellinger(historical, g, model, config.hmin_mode)
    h_star = normalized_hellinger(h, h_min)
    xi = similarity_xi(h_star, config)
    return InterimState(
        n_interim_control=data.n,
        control_summary=data,
        interim_posterior=g,
        h=h,
        h_min=h_min,
        h_star=h_star,
        xi=xi,
    )


def xi_of_totals(
    historical: PriorSpec,
    n: int,
    totals: np.ndarray,
    model: OutcomeModel,
    config: SimilarityConfig,
) -> np.ndarray:
    """The borrowing weight ``assess_similarity`` gives each stage-1 control
    total in ``totals``, every one of ``n`` patients, as one array.

    A single normal prior takes the closed form of ``hellinger_normal`` over
    the whole array against one cached h_min, then the clamp of
    ``normalized_hellinger`` and the cut of ``similarity_xi`` in the same
    order of operations.  It differs from the scalar pipeline only where
    numpy's exp and square round unlike libm's exp and pow, by at most about
    5e-14 on 400k draws, with no borrowing decision moved.  Every other
    prior runs ``assess_similarity`` once per distinct total, which for a
    binary endpoint is at most n + 1 calls, so its weights are the scalar
    ones exactly.
    """
    if config.gamma == 0.0:
        return np.zeros(len(totals))
    if not (historical.family == NORMAL and historical.is_single):
        values, where = np.unique(totals, return_inverse=True)
        xis = [assess_similarity(historical, DataSummary(n, float(s)), model, config).xi
               for s in values.tolist()]
        return np.array(xis, dtype=float)[where]
    if n < 2:
        raise ValueError("interim posterior needs at least 2 control observations")
    c, sd = historical.components[0], 1.0 / math.sqrt(n)
    h_min = _minimal_hellinger_cached(historical, sd, config.hmin_mode)
    if not (0.0 <= h_min < 1.0):
        raise ValueError("minimal distance must lie in [0, 1)")
    ssum = c.scale * c.scale + sd * sd
    bc = math.sqrt(2.0 * c.scale * sd / ssum) * np.exp(-0.25 * (c.mean - totals / n) ** 2 / ssum)
    h = np.sqrt(np.maximum(0.0, 1.0 - bc))
    h_star = np.minimum(1.0, np.maximum(0.0, (h - h_min) / (1.0 - h_min)))
    return np.where(h_star > config.gamma, 0.0, 1.0 - h_star)
