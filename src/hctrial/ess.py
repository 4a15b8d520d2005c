"""Expected local-information-ratio (ELIR) effective sample size and rescaling.

The ELIR effective sample size of a prior is the prior expectation of the
ratio between the prior information, i(theta) = -d^2/dtheta^2 log pi(theta),
and the Fisher information of a single observation (1 for a unit-variance
normal likelihood, 1 / (p (1 - p)) for a Bernoulli likelihood).  Single
conjugate components reduce to closed forms: 1 / sd^2 for a normal prior and
a + b (the precision parameter) for a beta prior.  Mixtures are integrated by
adaptive quadrature of the analytic log-density second derivative.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from scipy.optimize import brentq

from .distributions import (
    BINARY,
    CONTINUOUS,
    NumericsError,
    OutcomeModel,
    PriorComponent,
    PriorSpec,
    _beta_terms,
    _check_family,
    _quad,
)

__all__ = ["EssValue", "elir_ess", "rescale_to_ess"]

_ROUNDTRIP_TOL = 0.01  # patients
_V_BRACKET = (1e-4, 1e4)


@dataclass(frozen=True)
class EssValue:
    """A prior's information content in patient-equivalents."""

    value: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.value) and self.value >= 0.0):
            raise ValueError("effective sample size must be finite and >= 0")


def _normal_mixture_info_terms(prior: PriorSpec, x: float) -> tuple[float, float, float]:
    """(density, first derivative, second derivative) of a normal mixture."""
    g = dg = d2g = 0.0
    for c in prior.components:
        z = (x - c.mean) / c.scale
        f = c.weight * math.exp(-0.5 * z * z) / (c.scale * math.sqrt(2.0 * math.pi))
        g += f
        dg += f * (-z / c.scale)
        d2g += f * ((z * z - 1.0) / (c.scale * c.scale))
    return g, dg, d2g


def _beta_mixture_info_terms(terms: list, x: float) -> tuple[float, float, float]:
    """(density, first derivative, second derivative) from ``_beta_terms``."""
    g = dg = d2g = 0.0
    log_x, log_1mx = math.log(x), math.log1p(-x)
    for lw, am1, bm1, lnb in terms:
        f = math.exp(lw + am1 * log_x + bm1 * log_1mx - lnb)
        lp = am1 / x - bm1 / (1.0 - x)
        lpp = -am1 / (x * x) - bm1 / ((1.0 - x) * (1.0 - x))
        g += f
        dg += f * lp
        d2g += f * (lp * lp + lpp)
    return g, dg, d2g


def elir_ess(prior: PriorSpec, model: OutcomeModel) -> EssValue:
    """ELIR effective sample size of ``prior`` under ``model``'s likelihood.

    Mixtures integrate the signed information ratio against the prior; the
    mixture log-density curvature can be locally negative, so a result below
    0.5 patients is flagged with a warning (and clamped at zero).
    """
    _check_family(prior, model)
    if prior.is_single:
        c = prior.components[0]
        if model.kind == CONTINUOUS:
            return EssValue(1.0 / (c.scale * c.scale))
        return EssValue(c.scale)

    lo, hi = prior.support()
    if model.kind == CONTINUOUS:

        def integrand(x: float) -> float:
            g, dg, d2g = _normal_mixture_info_terms(prior, x)
            if g <= 0.0:
                return 0.0
            # i_pi(x) * g(x) = (g'^2 / g) - g''
            return dg * dg / g - d2g

    else:
        terms = _beta_terms(prior)

        def integrand(x: float) -> float:
            g, dg, d2g = _beta_mixture_info_terms(terms, x)
            if g <= 0.0:
                return 0.0
            return (dg * dg / g - d2g) * x * (1.0 - x)

    pts = sorted(float(m) for m in prior.means() if lo < m < hi)
    value = _quad(integrand, lo, hi, points=pts or None, epsabs=1e-9, epsrel=1e-9,
                  max_abserr=1e-4, what="effective-sample-size quadrature")
    if value < 0.5:
        warnings.warn(
            f"mixture prior has effective sample size {value:.3f} (< 0.5 patients); "
            "the information ratio is negative over part of the support",
            RuntimeWarning,
            stacklevel=2,
        )
    return EssValue(max(0.0, value))


def _scaled(prior: PriorSpec, v: float, model: OutcomeModel) -> PriorSpec:
    """Divide every normal sd by v, or multiply every beta precision by v."""
    if model.kind == CONTINUOUS:
        comps = tuple(PriorComponent(c.weight, c.mean, c.scale / v) for c in prior.components)
    else:
        comps = tuple(PriorComponent(c.weight, c.mean, c.scale * v) for c in prior.components)
    return PriorSpec(prior.family, comps)


def rescale_to_ess(prior: PriorSpec, target: EssValue, model: OutcomeModel) -> PriorSpec:
    """Rescale a prior to a target effective sample size, preserving every
    component mean.

    Targets below one patient are clamped to one.  Single components use the
    closed forms (sd * sqrt(n_p / target) for normal, precision * target / n_p
    for beta); mixtures solve for a common scale factor by root-finding on
    ``elir_ess`` to within 0.01 patient.
    """
    _check_family(prior, model)
    goal = max(1.0, target.value)
    n_p = elir_ess(prior, model).value

    if prior.is_single:
        c = prior.components[0]
        if model.kind == CONTINUOUS:
            return PriorSpec.normal(c.mean, c.scale * math.sqrt(n_p / goal))
        return PriorSpec.beta(c.mean, c.scale * (goal / n_p))

    def gap(v: float) -> float:
        return elir_ess(_scaled(prior, v, model), model).value - goal

    v_min, v_max = _V_BRACKET
    if model.kind == BINARY:
        # once any rescaled shape parameter drops below 1 the information
        # integral stops being summable; keep the search above that point
        a, b = prior.beta_shapes()
        v_min = max(v_min, (1.0 + 1e-9) / float(min(a.min(), b.min())))

    # ESS grows with v for both families; start from the single-component
    # guess and widen geometrically instead of evaluating at the extreme ends
    # of the admissible range, where the quadrature turns degenerate.
    guess = math.sqrt(goal / n_p) if model.kind == CONTINUOUS else goal / n_p
    lo = hi = min(max(guess, v_min), v_max)
    g = gap(lo)
    for _ in range(80):
        if g > 0:
            if lo == v_min:
                raise NumericsError(
                    f"cannot bracket a scale factor in [{v_min}, {v_max}] "
                    f"for target {goal} patients"
                )
            lo = max(lo / 2.0, v_min)
            g_new = gap(lo)
            if g_new <= 0:
                break
            g = g_new
        else:
            if hi == v_max:
                raise NumericsError(
                    f"cannot bracket a scale factor in [{v_min}, {v_max}] "
                    f"for target {goal} patients"
                )
            hi = min(hi * 2.0, v_max)
            g_new = gap(hi)
            if g_new >= 0:
                break
            g = g_new
    v = brentq(gap, lo, hi, xtol=1e-12, rtol=1e-12)
    result = _scaled(prior, float(v), model)
    achieved = elir_ess(result, model).value
    if abs(achieved - goal) > _ROUNDTRIP_TOL:
        raise NumericsError(
            f"rescaling landed at {achieved:.4f} patients, target {goal:.4f}"
        )
    return result
