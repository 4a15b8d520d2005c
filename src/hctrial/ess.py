"""Expected local-information-ratio (ELIR) effective sample size and rescaling.

The ELIR effective sample size of a prior is the prior expectation of the
ratio between the prior information, i(theta) = -d^2/dtheta^2 log pi(theta),
and the Fisher information of a single observation (1 for a unit-variance
normal likelihood, 1 / (p (1 - p)) for a Bernoulli likelihood).  Single
conjugate components reduce to closed forms: 1 / sd^2 for a normal prior and
a + b (the precision parameter) for a beta prior.  Mixtures integrate by the
fixed Gauss-Legendre rule of ``distributions._fixed_rule``: normal mixtures
the analytic log-density second derivative, beta mixtures g = sum w_k f_k
their Bernoulli form taken by parts, ELIR = 2 + integral of g'^2 / g x (1 - x),
exact when every shape is above 1 (g' x (1 - x) and g (1 - 2x) then vanish
at both ends).  Each component alone gives its closed form a_k + b_k, so only
the spread of the components' slopes u_k = (a_k - 1)(1 - x) - (b_k - 1) x is
integrated, with Var over the components' shares of g at x:

    ELIR = sum w_k (a_k + b_k) - integral of g Var(u) / (x (1 - x)).

No second derivative enters, and duplicated components keep the
single-component closed form whatever their shapes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .distributions import (
    CONTINUOUS,
    NumericsError,
    OutcomeModel,
    PriorComponent,
    PriorSpec,
    _beta_log_mixture,
    _beta_mixture_panels,
    _beta_terms,
    _check_family,
    _fixed_rule,
    _named,
    _normal_integral,
    _normal_terms,
    _unit_coordinates,
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


def elir_ess(prior: PriorSpec, model: OutcomeModel) -> EssValue:
    """ELIR effective sample size of ``prior`` under ``model``'s likelihood.

    Mixtures integrate the signed information ratio against the prior; the
    mixture log-density curvature can be locally negative, so a result below
    0.5 patients is flagged with a warning (and clamped at zero).  Beta
    mixtures integrate the form of the module docstring, which diverges
    where two different components both have a shape at or below 1 at one
    end; the rule's check then raises NumericsError.
    """
    _check_family(prior, model)
    if prior.is_single:
        c = prior.components[0]
        if model.kind == CONTINUOUS:
            return EssValue(1.0 / (c.scale * c.scale))
        return EssValue(c.scale)

    what = "effective-sample-size quadrature"
    if model.kind == CONTINUOUS:

        def info(x):
            g = dg = d2g = 0.0
            for f, z, s in _normal_terms(prior, x):
                g += f
                dg -= f * z / s
                d2g += f * (z * z - 1.0) / (s * s)
            # i_pi(x) * g(x) = (g'^2 / g) - g''; where g underflows to 0 every
            # component density is 0, so dg and d2g are too and the term is 0
            return dg * dg / (g + (g == 0.0)) - d2g

        value = _normal_integral(info, (prior,), 1e-4, what)
    else:
        terms = _beta_terms(prior)
        lo, hi, upper, k = _beta_mixture_panels((prior,), 1.0)

        def spread(t):
            # g Var(u) / (x (1 - x)) of the module docstring, times dx/dt
            log_t, _, log_x, log_1mx = _unit_coordinates(t, upper, k)
            log_g, shares = _beta_log_mixture(terms, log_x, log_1mx)
            x, r = np.exp(log_x), np.exp(log_1mx)
            u = [am1 * r - bm1 * x for _, am1, bm1, _ in terms]
            mean = sum(w * v for w, v in zip(shares, u))
            var = sum(w * (v - mean) ** 2 for w, v in zip(shares, u))
            return np.exp(log_g + np.log(k) + (k - 1.0) * log_t - log_x - log_1mx) * var

        own = sum(c.weight * c.scale for c in prior.components)
        value = own - _fixed_rule(lo, hi, spread, (prior,), 1e-4, what)
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
    for beta); mixtures solve for a common scale factor v by root-finding on
    ``elir_ess`` to within 0.01 patient.  A beta mixture's v stays at or above
    v_min = (1 + 1e-9) / (smallest shape), keeping every shape above 1, where
    its ELIR is at least 2; a target below the floor ELIR(v_min) is clamped to
    it, and the prior scaled by v_min is returned.
    """
    _check_family(prior, model)
    goal = max(1.0, target.value)

    if prior.is_single:
        n_p = elir_ess(prior, model).value
        c = prior.components[0]
        if model.kind == CONTINUOUS:
            return PriorSpec.normal(c.mean, c.scale * math.sqrt(n_p / goal))
        return PriorSpec.beta(c.mean, c.scale * (goal / n_p))

    def gap(v: float) -> float:
        # a probe of the search may be worth under half a patient; the
        # round-trip check below still warns about the prior returned
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "mixture prior has effective sample size",
                                    RuntimeWarning)
            return elir_ess(_scaled(prior, v, model), model).value - goal

    v_min, v_max = _V_BRACKET
    if model.kind == CONTINUOUS:
        guess = math.sqrt(goal / elir_ess(prior, model).value)
    else:
        a, b = prior.beta_shapes()
        v_min = max(v_min, (1.0 + 1e-9) / float(min(a.min(), b.min())))
        floor = elir_ess(_scaled(prior, v_min, model), model).value
        if goal <= floor:
            return _scaled(prior, v_min, model)
        guess = v_min * goal / floor

    # ESS grows with v for both families; start from the guess and widen
    # geometrically instead of evaluating at the extreme ends of the
    # admissible range, where the quadrature turns degenerate.
    lo = hi = min(max(guess, v_min), v_max)
    g = gap(lo)
    stuck = f"cannot bracket a scale factor in [{v_min}, {v_max}] for target {goal} patients"
    while g > 0:
        if lo == v_min:
            raise NumericsError(f"{stuck} for prior {_named((prior,))}")
        lo = max(lo / 2.0, v_min)
        g = gap(lo)
    if lo == hi:  # the guess itself is not above the target
        while g < 0:
            if hi == v_max:
                raise NumericsError(f"{stuck} for prior {_named((prior,))}")
            hi = min(hi * 2.0, v_max)
            g = gap(hi)
    v = brentq(gap, lo, hi, xtol=1e-12, rtol=1e-12)
    result = _scaled(prior, float(v), model)
    achieved = elir_ess(result, model).value
    if abs(achieved - goal) > _ROUNDTRIP_TOL:
        raise NumericsError(f"rescaling landed at {achieved:.4f} patients, target "
                            f"{goal:.4f}, for prior {_named((prior,))}")
    return result
