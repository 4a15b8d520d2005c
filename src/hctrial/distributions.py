"""Conjugate mixture priors and the distance / effect-summary machinery built on them.

Everything in this package works on an internal "working scale": continuous
responses are assumed to have unit variance (raw data and prior parameters are
divided by the known outcome standard deviation at ingestion, and treatment
effect summaries are multiplied back for reporting), binary responses are
Bernoulli.  Priors and posteriors share a single representation, a weighted
mixture of conjugate components (normal or beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from scipy import integrate
from scipy.optimize import brentq
from scipy.special import betainc, betaln, ndtri

__all__ = [
    "NORMAL",
    "BETA",
    "CONTINUOUS",
    "BINARY",
    "NumericsError",
    "OutcomeModel",
    "DataSummary",
    "PriorComponent",
    "PriorSpec",
    "posterior_update",
    "hellinger_normal",
    "hellinger_beta",
    "hellinger_numeric",
    "prob_delta_positive",
    "delta_point_and_interval",
]

NORMAL = "normal"
BETA = "beta"
CONTINUOUS = "continuous"
BINARY = "binary"

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_WEIGHT_TOL = 1e-12
# Normal-family integrals over the real line use one fixed composite
# Gauss-Legendre rule: every component of every density involved puts
# breakpoints at its mean +-12 sd in steps of 2 sd, and each panel between
# the merged breakpoints gets the nodes of _gauss_legendre, so every panel
# inside a component's +-12 sd is at most 2 of its sds wide.
_PANEL_SDS = np.arange(-12.0, 12.5, 2.0)
# The beta family integrates over the epsilon-clipped unit interval in
# elir_ess only.  The clip drops endpoint mass when a beta shape is below 1,
# so hellinger_numeric integrates beta densities over the whole unit interval
# by a change of variables that removes the endpoint singularities, and the
# fixed rule of prob_delta_positive (_beta_panels) uses it at each endpoint
# that the treatment density reaches.  With the beta support set to (0, 1),
# QUADPACK evaluated a node that rounds to x = 1.0 and elir_ess raised
# "math domain error".
_BETA_EPS = 1e-12
# _beta_panels: a treatment component's breakpoints sit at its mean +- these
# sds, then 24, 48, ... sds, out to the first beyond which its mass is under
# _BETA_TAIL_MASS.  A control component less than _BETA_NARROW times as wide
# adds breakpoints at its mean + _BETA_CONTROL_SDS of its sds: without them,
# the 24- and 12-node rules differed by up to 3e-8 at half the width, and by
# at most 1e-9 from 0.75 up, on 600 random pairs.  Panels are graded toward
# a reached endpoint by _BETA_GRADING, at most _BETA_GRADES times, until the
# treatment mass left between the last one and the endpoint is under
# _BETA_END_MASS.
_BETA_PANEL_SDS = (4.0, 8.0, 12.0)
_BETA_CONTROL_SDS = (-12.0, -8.0, -4.0, 0.0, 4.0, 8.0, 12.0)
_BETA_NARROW = 0.75
_BETA_TAIL_MASS = 1e-15
_BETA_GRADING = 0.15
_BETA_GRADES = 20
_BETA_END_MASS = 1e-9
# Tighter than the guaranteed 1e-8 so that H = sqrt(H^2) keeps ~1e-6 accuracy
# even for nearly identical densities.
_QUAD_EPSABS = 1e-12
_QUAD_EPSREL = 1e-10
_QUAD_MAX_ABSERR = 1e-8
# Bins per unit interval of the binary credible interval's lattice.
_DELTA_BINS = 4096
_DELTA_EDGES = np.linspace(0.0, 1.0, _DELTA_BINS + 1)


class NumericsError(RuntimeError):
    """A quadrature or root/minimum search failed to converge."""


def _phi(z: float) -> float:
    """Standard normal CDF via erfc (accurate in both tails)."""
    return 0.5 * math.erfc(-z / _SQRT2)


@dataclass(frozen=True)
class OutcomeModel:
    """Endpoint family: continuous with known sd, or binary.

    ``known_sd`` records the raw-scale standard deviation used to normalize a
    continuous endpoint; all computations downstream assume unit variance and
    the value is only consulted when converting summaries back to raw units.
    """

    kind: str
    known_sd: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in (CONTINUOUS, BINARY):
            raise ValueError(f"unknown outcome kind: {self.kind!r}")
        if not (math.isfinite(self.known_sd) and self.known_sd > 0):
            raise ValueError("known_sd must be finite and > 0")
        if self.kind == BINARY and self.known_sd != 1.0:
            raise ValueError("binary outcomes carry no scale; leave known_sd at 1.0")

    @property
    def family(self) -> str:
        return NORMAL if self.kind == CONTINUOUS else BETA


@dataclass(frozen=True)
class DataSummary:
    """Sufficient statistics for one arm: count and sum of responses.

    For a binary endpoint ``total`` is the number of successes.
    """

    n: int
    total: float

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if not math.isfinite(self.total):
            raise ValueError("data summary total must be finite")

    @property
    def mean(self) -> float:
        if self.n == 0:
            raise ValueError("mean of an empty summary")
        return self.total / self.n


@dataclass(frozen=True)
class PriorComponent:
    """One mixture component: (weight, mean, scale).

    ``scale`` is the standard deviation for a normal component and the
    precision parameter phi for a beta component (shapes a = mean * phi,
    b = (1 - mean) * phi).
    """

    weight: float
    mean: float
    scale: float


@dataclass(frozen=True)
class PriorSpec:
    """A weighted mixture of conjugate components; length-1 mixtures are the
    single-prior case."""

    family: str
    components: tuple[PriorComponent, ...]

    def __post_init__(self) -> None:
        if self.family not in (NORMAL, BETA):
            raise ValueError(f"unknown prior family: {self.family!r}")
        if not self.components:
            raise ValueError("prior needs at least one component")
        total = 0.0
        for i, c in enumerate(self.components):
            if not (math.isfinite(c.weight) and c.weight >= 0.0):
                raise ValueError(f"component {i}: weight must be >= 0")
            if not (math.isfinite(c.scale) and c.scale > 0.0):
                raise ValueError(f"component {i}: scale must be > 0")
            if not math.isfinite(c.mean):
                raise ValueError(f"component {i}: mean must be finite")
            if self.family == BETA and not (0.0 < c.mean < 1.0):
                raise ValueError(f"component {i}: beta mean must be in (0, 1)")
            total += c.weight
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"mixture weights sum to {total!r}, expected 1")

    # -- constructors ------------------------------------------------------

    @classmethod
    def normal(cls, mean: float, sd: float) -> "PriorSpec":
        return cls(NORMAL, (PriorComponent(1.0, mean, sd),))

    @classmethod
    def beta(cls, mean: float, precision: float) -> "PriorSpec":
        return cls(BETA, (PriorComponent(1.0, mean, precision),))

    @classmethod
    def mixture(cls, family: str, triples: Iterable[Sequence[float]]) -> "PriorSpec":
        comps = tuple(PriorComponent(w, m, s) for w, m, s in triples)
        return cls(family, comps)

    # -- basic structure ----------------------------------------------------

    @property
    def is_single(self) -> bool:
        return len(self.components) == 1

    def weights(self) -> np.ndarray:
        return np.array([c.weight for c in self.components])

    def means(self) -> np.ndarray:
        return np.array([c.mean for c in self.components])

    def scales(self) -> np.ndarray:
        return np.array([c.scale for c in self.components])

    def beta_shapes(self) -> tuple[np.ndarray, np.ndarray]:
        if self.family != BETA:
            raise ValueError("beta_shapes only applies to beta mixtures")
        m, p = self.means(), self.scales()
        return m * p, (1.0 - m) * p

    def mean(self) -> float:
        return float(np.dot(self.weights(), self.means()))

    def variance(self) -> float:
        w, m = self.weights(), self.means()
        if self.family == NORMAL:
            comp_var = self.scales() ** 2
        else:
            comp_var = m * (1.0 - m) / (self.scales() + 1.0)
        overall = self.mean()
        return float(np.dot(w, comp_var + (m - overall) ** 2))

    # -- density -------------------------------------------------------------

    def support(self) -> tuple[float, float]:
        """The beta family's clipped unit interval; normal-family integrals
        take their panels from ``_normal_integral``."""
        if self.family != BETA:
            raise ValueError("support only applies to beta mixtures")
        return (_BETA_EPS, 1.0 - _BETA_EPS)


def _check_family(prior: PriorSpec, model: OutcomeModel, what: str = "prior") -> None:
    if prior.family != model.family:
        raise ValueError(
            f"{what} family {prior.family!r} does not match outcome kind {model.kind!r}"
        )


def _check_single(prior: PriorSpec, what: str) -> None:
    if not prior.is_single:
        raise ValueError(f"{what} must be a single-component prior")


# ---------------------------------------------------------------------------
# Conjugate updating
# ---------------------------------------------------------------------------


def posterior_update(prior: PriorSpec, data: DataSummary, model: OutcomeModel) -> PriorSpec:
    """Exact mixture posterior under conjugate updating.

    Each component is updated conjugately and its weight is multiplied by the
    component's marginal likelihood of the data (then renormalized); factors
    common to all components cancel.  An empty summary returns the prior.
    """
    _check_family(prior, model)
    if data.n == 0:
        return prior

    comps: list[tuple[float, float]] = []
    logw: list[float] = []
    if model.kind == CONTINUOUS:
        ybar = data.mean
        for c in prior.components:
            prec0 = 1.0 / (c.scale * c.scale)
            prec = prec0 + data.n
            mean = (prec0 * c.mean + data.total) / prec
            comps.append((mean, 1.0 / math.sqrt(prec)))
            # marginal of the sample mean: N(component mean, sd^2 + 1/n)
            mvar = c.scale * c.scale + 1.0 / data.n
            logw.append(math.log(c.weight) - 0.5 * math.log(mvar)
                        - 0.5 * (ybar - c.mean) ** 2 / mvar if c.weight > 0 else -math.inf)
    else:
        s = data.total
        if s < 0 or s > data.n:
            raise ValueError("binary successes must lie in [0, n]")
        f = data.n - s
        for c in prior.components:
            a, b = c.mean * c.scale, (1.0 - c.mean) * c.scale
            a2, b2 = a + s, b + f
            comps.append((a2 / (a2 + b2), a2 + b2))
            logw.append(math.log(c.weight) + betaln(a2, b2) - betaln(a, b)
                        if c.weight > 0 else -math.inf)

    top = max(logw)
    raw = [math.exp(lw - top) if math.isfinite(lw) else 0.0 for lw in logw]
    norm = sum(raw)
    new = tuple(
        PriorComponent(r / norm, mean, scale)
        for r, (mean, scale) in zip(raw, comps)
    )
    return PriorSpec(prior.family, new)


# ---------------------------------------------------------------------------
# Hellinger distances
# ---------------------------------------------------------------------------


def hellinger_normal(p: PriorSpec, q: PriorSpec) -> float:
    """Closed-form Hellinger distance between two normal densities.

    H^2 = 1 - sqrt(2 s1 s2 / (s1^2 + s2^2)) * exp(-(m1 - m2)^2 / (4 (s1^2 + s2^2)))
    """
    _check_single(p, "p")
    _check_single(q, "q")
    if p.family != NORMAL or q.family != NORMAL:
        raise ValueError("hellinger_normal expects normal priors")
    c1, c2 = p.components[0], q.components[0]
    ssum = c1.scale * c1.scale + c2.scale * c2.scale
    bc = math.sqrt(2.0 * c1.scale * c2.scale / ssum) * math.exp(
        -0.25 * (c1.mean - c2.mean) ** 2 / ssum
    )
    return math.sqrt(max(0.0, 1.0 - bc))


def hellinger_beta(p: PriorSpec, q: PriorSpec) -> float:
    """Closed-form Hellinger distance between two beta densities.

    Uses log-beta-function arithmetic throughout; the direct ratio of beta
    functions overflows once the precision parameters reach a few hundred.
    """
    _check_single(p, "p")
    _check_single(q, "q")
    if p.family != BETA or q.family != BETA:
        raise ValueError("hellinger_beta expects beta priors")
    a1, b1 = p.beta_shapes()
    a2, b2 = q.beta_shapes()
    a1, b1, a2, b2 = float(a1[0]), float(b1[0]), float(a2[0]), float(b2[0])
    log_bc = betaln(0.5 * (a1 + a2), 0.5 * (b1 + b2)) - 0.5 * (
        betaln(a1, b1) + betaln(a2, b2)
    )
    # 1 - exp(log_bc), stable when the densities nearly coincide
    return math.sqrt(max(0.0, -math.expm1(min(log_bc, 0.0))))


def _quad(f: Callable[[float], float], lo: float, hi: float,
          densities: Sequence[PriorSpec], points: Sequence[float] | None = None,
          epsabs: float = _QUAD_EPSABS, epsrel: float = _QUAD_EPSREL,
          max_abserr: float = _QUAD_MAX_ABSERR, what: str = "quadrature") -> float:
    res = integrate.quad(f, lo, hi, epsabs=epsabs, epsrel=epsrel,
                         limit=300, points=points, full_output=1)
    value, abserr = res[0], res[1]
    # ignore the roundoff/subdivision flag as long as the achieved error is
    # within what the caller can tolerate
    if not math.isfinite(value) or abserr > max_abserr:
        raise NumericsError(f"{what} did not converge (abserr={abserr!r}) "
                            f"for densities {_named(densities)}")
    return value


def _normal_terms(prior: PriorSpec,
                  x: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, float]]:
    """(weighted density, z = (x - mean) / sd, sd) of each component of a
    normal mixture at ``x``, one component at a time: a loop over the few
    components is several times faster than broadcasting over a trailing
    component axis."""
    for c in prior.components:
        z = (x - c.mean) / c.scale
        yield c.weight / (c.scale * _SQRT_2PI) * np.exp(-0.5 * z * z), z, c.scale


@lru_cache(maxsize=1)
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The nodes on [-1, 1] of the 24-node Gauss-Legendre rule followed by
    those of the 12-node rule, and a weight matrix whose first column holds
    the 24-node weights (then zeros) and whose second the 12-node weights
    (after zeros), so that one pass over the nodes evaluates both rules.

    Built on first use: leggauss's eigenvalue solve starts LAPACK, which adds
    about 1 MB of resident memory to runs that never integrate a mixture.
    """
    rules = [np.polynomial.legendre.leggauss(n) for n in (24, 12)]
    nodes = np.concatenate([x for x, _ in rules])
    weights = np.zeros((nodes.size, 2))
    weights[:24, 0], weights[24:, 1] = rules[0][1], rules[1][1]
    return nodes, weights


def _fixed_rule(lo: np.ndarray, hi: np.ndarray,
                integrand: Callable[[np.ndarray], np.ndarray],
                densities: Sequence[PriorSpec], max_abserr: float, what: str) -> float:
    """Sum over the panels [lo, hi] of the 24-node rule of ``_gauss_legendre``
    applied to a vectorised ``integrand`` of the (panel, node) array; the
    12-node rule on the same panels is the convergence check.

    Raises NumericsError, naming the densities, when the 24- and 12-node
    results differ by more than ``max_abserr`` or the 24-node result is not
    finite.
    """
    half = 0.5 * (hi - lo)
    nodes, weights = _gauss_legendre()
    x = (lo + half)[:, None] + half[:, None] * nodes
    value, check = half @ (integrand(x) @ weights)
    if not (math.isfinite(value) and abs(value - check) <= max_abserr):
        raise NumericsError(f"{what} did not converge (24-node {value!r}, 12-node "
                            f"{check!r}) for densities {_named(densities)}")
    return float(value)


def _named(densities: Sequence[PriorSpec]) -> str:
    """Each density's components as (weight, mean, sd) triples for the normal
    family and (weight, a, b) triples for the beta family."""
    def triple(c: PriorComponent) -> tuple[float, float, float]:
        if densities[0].family == NORMAL:
            return c.weight, c.mean, c.scale
        return c.weight, c.mean * c.scale, (1.0 - c.mean) * c.scale

    return "; ".join(str([triple(c) for c in d.components]) for d in densities)


def _normal_integral(integrand: Callable[[np.ndarray], np.ndarray],
                     densities: Sequence[PriorSpec], max_abserr: float,
                     what: str) -> float:
    """Integral over the real line of a vectorised integrand built on
    normal-family ``densities``, by the fixed rule on the panels of
    ``_PANEL_SDS``."""
    means = np.concatenate([d.means() for d in densities])
    sds = np.concatenate([d.scales() for d in densities])
    edges = np.unique(means[:, None] + sds[:, None] * _PANEL_SDS)
    return _fixed_rule(edges[:-1], edges[1:], integrand, densities, max_abserr, what)


def _beta_terms(prior: PriorSpec) -> list[tuple[float, float, float, float]]:
    """(log w, a - 1, b - 1, log B(a, b)) of each weighted beta component, so
    that component k's log density at x is
    log w + (a - 1) log x + (b - 1) log(1 - x) - log B(a, b)."""
    return [
        (math.log(c.weight), float(a) - 1.0, float(b) - 1.0, float(betaln(a, b)))
        for c, a, b in zip(prior.components, *prior.beta_shapes())
        if c.weight > 0.0
    ]


def _beta_log_pdf(prior: PriorSpec) -> Callable[[float, float], float]:
    """Log mixture density of a beta prior as a function of (log x, log(1 - x)).

    Taking both logarithms as arguments lets callers pass coordinates that
    would underflow to 0 or round to 1 in x itself.
    """
    terms = _beta_terms(prior)

    def log_pdf(log_x: float, log_1mx: float) -> float:
        parts = [lw + am1 * log_x + bm1 * log_1mx - lnb for lw, am1, bm1, lnb in terms]
        top = max(parts)
        return top + math.log(sum(math.exp(v - top) for v in parts))

    return log_pdf


def _hellinger_sq_beta(p: PriorSpec, q: PriorSpec) -> float:
    """Squared Hellinger distance between two beta mixtures by quadrature.

    A shape below 1 makes a density unbounded at an endpoint, like x^(a-1)
    or (1-x)^(b-1), with much of the integrand's mass next to it.  The unit
    interval is split at 1/2; the left half is integrated over u with
    x = u^k0 and the right half over v with 1 - x = v^k1, where
    k0 = max(1, 1 / min a) and k1 = max(1, 1 / min b) over the components of
    both inputs.  The transformed integrand is bounded at the endpoints.
    Densities and Jacobian are combined in log space, so u^k0 may underflow.
    Shapes of 1 or more leave x as it is (k = 1).
    """
    log_p, log_q = _beta_log_pdf(p), _beta_log_pdf(q)
    shapes = [p.beta_shapes(), q.beta_shapes()]
    k0 = max(1.0, 1.0 / min(float(a.min()) for a, _ in shapes))
    k1 = max(1.0, 1.0 / min(float(b.min()) for _, b in shapes))
    means = [float(m) for m in (*p.means(), *q.means())]

    def half(k: float, left: bool) -> float:
        # t in (0, 2^(-1/k)) covers s = t^k in (0, 1/2), where s is x on the
        # left half and 1 - x on the right one
        log_k = math.log(k)

        def integrand(t: float) -> float:
            log_t = math.log(t)
            log_s = k * log_t
            log_r = math.log1p(-math.exp(log_s))
            lx, l1x = (log_s, log_r) if left else (log_r, log_s)
            half_log_jac = 0.5 * (log_k + (k - 1.0) * log_t)
            d = (math.exp(0.5 * log_p(lx, l1x) + half_log_jac)
                 - math.exp(0.5 * log_q(lx, l1x) + half_log_jac))
            return d * d

        near = [m if left else 1.0 - m for m in means]
        pts = sorted({s ** (1.0 / k) for s in near if s < 0.5})
        return _quad(integrand, 0.0, 0.5 ** (1.0 / k), (p, q), points=pts or None,
                     what="hellinger quadrature")

    return 0.5 * (half(k0, True) + half(k1, False))


def hellinger_numeric(p: PriorSpec, q: PriorSpec) -> float:
    """Hellinger distance by quadrature; either input may be a mixture.

    Integrates the squared-difference form of the Hellinger integrand, which
    is algebraically identical to 1 minus the Bhattacharyya coefficient and
    vanishes pointwise when the densities coincide, so H(p, p) is numerically
    zero instead of sqrt(quadrature noise).  Normal densities are integrated
    by the fixed rule of ``_normal_integral``.  Beta densities are integrated
    over the whole unit interval, endpoint singularities of shapes below 1
    included, by the change of variables of ``_hellinger_sq_beta``.
    """
    if p.family != q.family:
        raise ValueError("densities must share a support to be compared")
    if p.family == BETA:
        return math.sqrt(min(1.0, max(0.0, _hellinger_sq_beta(p, q))))

    def integrand(x: np.ndarray) -> np.ndarray:
        d = (np.sqrt(sum(f for f, _, _ in _normal_terms(p, x)))
             - np.sqrt(sum(f for f, _, _ in _normal_terms(q, x))))
        return d * d

    h2 = 0.5 * _normal_integral(integrand, (p, q), _QUAD_MAX_ABSERR, "hellinger quadrature")
    return math.sqrt(min(1.0, max(0.0, h2)))


# ---------------------------------------------------------------------------
# Posterior functionals of the treatment effect
# ---------------------------------------------------------------------------


def prob_delta_positive(post_t: PriorSpec, post_c: PriorSpec, model: OutcomeModel) -> float:
    """P(effect > 0) for independent arm posteriors.

    Continuous: exact sum of Gaussian tail probabilities over component pairs.
    Binary: integral of (treatment density) * (control CDF) over [0, 1] by
    the fixed Gauss-Legendre rule on the panels of ``_beta_panels``, whose
    endpoint substitution covers shapes below 1; NumericsError, naming both
    posteriors as (weight, a, b) triples, if its check fails.  A beta
    posterior is fixed by (prior, n, successes), so a binary campaign meets
    few distinct pairs: the last 2048 pairs' values are cached, and a hit
    returns what the rule gave for an equal pair.
    """
    if post_t.family != post_c.family:
        raise ValueError("posterior families do not match")
    _check_family(post_t, model, "treatment posterior")
    if model.kind == CONTINUOUS:
        # P(theta_t - theta_c > 0) = P(theta_c - theta_t < 0)
        return min(1.0, max(0.0, _delta_cdf_normal(_normal_pairs(post_c, post_t), 0.0)))
    return _prob_positive_beta(post_t, post_c)


@lru_cache(maxsize=2048)
def _prob_positive_beta(post_t: PriorSpec, post_c: PriorSpec) -> float:
    lo, hi, (upper, k, log_c, am1, bm1) = _beta_panels(post_t, post_c)
    control = [(c.weight, c.mean * c.scale, (1.0 - c.mean) * c.scale)
               for c in post_c.components]

    def integrand(t: np.ndarray) -> np.ndarray:
        # s = t^k is x on a lower panel and 1 - x on an upper one
        log_t = np.log(t)
        log_s = k * log_t
        log_r = np.log1p(-np.exp(log_s))
        dens = np.exp(log_c + am1 * np.where(upper, log_r, log_s)
                      + bm1 * np.where(upper, log_s, log_r) + (k - 1.0) * log_t)
        # the control mass below x, or on an upper panel the mass above it,
        # where x itself would round near 1
        s = np.exp(log_s)
        part = sum(w * betainc(np.where(upper, b, a), np.where(upper, a, b), s)
                   for w, a, b in control)
        return dens * np.where(upper, 1.0 - part, part)

    value = _fixed_rule(lo, hi, integrand, (post_t, post_c), _QUAD_MAX_ABSERR,
                        "success-probability quadrature")
    return min(1.0, max(0.0, value))


def _beta_panels(post_t: PriorSpec, post_c: PriorSpec):
    """Panels of the fixed rule for P(theta_t > theta_c) of two beta
    mixtures, and for each panel, as (panel, 1) columns: whether it is an
    upper panel, its exponent k, and its treatment component's
    log(w k / B(a, b)), a - 1 and b - 1.

    Each treatment component gets its own panels, on which only its density
    is evaluated.  Their breakpoints are its mean, those of _BETA_PANEL_SDS
    that lie inside its window, and those of narrow control components.  A
    panel's coordinate t is x itself, unless a tail of the treatment keeps
    its mass up to an endpoint.  Then the unit interval is split at 1/2, as
    in _hellinger_sq_beta: x = t^k0 on the lower half and 1 - x = t^k1 on
    the upper, with k0 = max(1, 1 / a) and k1 = max(1, 1 / b), which leaves
    the density bounded at both ends, and ``_graded`` grades the panels
    toward each endpoint that the tails reach.
    """
    control = [(c.mean, _beta_sd(c)) for c in post_c.components]
    steep = (max(c.mean * c.scale for c in post_c.components),
             max((1.0 - c.mean) * c.scale for c in post_c.components))
    los: list[float] = []
    his: list[float] = []
    rows, counts = [], []
    for c in post_t.components:
        if c.weight == 0.0:
            continue
        m, a, b, s = c.mean, c.mean * c.scale, (1.0 - c.mean) * c.scale, _beta_sd(c)
        doublings = max(0, math.ceil(math.log2(max(m, 1.0 - m) / (12.0 * s))))
        offsets = [*_BETA_PANEL_SDS, *(12.0 * 2.0**i for i in range(1, doublings + 1))]
        below = [x for x in (m - s * o for o in offsets) if x > 0.0]
        above = [x for x in (m + s * o for o in offsets) if x < 1.0]
        # the treatment mass below each breakpoint under the mean and above
        # each one over it; the window ends at the first under _BETA_TAIL_MASS
        n = len(below)
        tails = betainc([a] * n + [b] * len(above), [b] * n + [a] * len(above),
                        below + [1.0 - x for x in above])
        lo_end = next((x for x, t in zip(below, tails[:n]) if t < _BETA_TAIL_MASS), 0.0)
        hi_end = next((x for x, t in zip(above, tails[n:]) if t < _BETA_TAIL_MASS), 1.0)
        pts = {m, *below, *above}
        for mc, sc in control:
            if sc < _BETA_NARROW * s:
                pts.update(mc + sc * o for o in _BETA_CONTROL_SDS)
        if lo_end == 0.0 or hi_end == 1.0:
            pts.add(0.5)
        pts = sorted(x for x in pts if lo_end <= x <= hi_end)
        if lo_end > 0.0 and hi_end < 1.0:
            halves = [(pts, 1.0, False)]
        else:
            k0, k1 = max(1.0, 1.0 / a), max(1.0, 1.0 / b)
            lower = [x ** (1.0 / k0) for x in pts if x <= 0.5]
            upper = [(1.0 - x) ** (1.0 / k1) for x in reversed(pts) if x >= 0.5]
            if lo_end == 0.0:
                lower = sorted({*lower, *_graded(lower[-1], k0, a, b, k0 * steep[0])})
            if hi_end == 1.0:
                upper = sorted({*upper, *_graded(upper[-1], k1, b, a, k1 * steep[1])})
            halves = [(lower, k0, False), (upper, k1, True)]
        log_w = math.log(c.weight) - float(betaln(a, b))
        for t, k, up in halves:
            if len(t) > 1:
                los += t[:-1]
                his += t[1:]
                rows.append((up, k, log_w + math.log(k), a - 1.0, b - 1.0))
                counts.append(len(t) - 1)
    upper, *columns = np.repeat(np.array(rows), counts, axis=0).T[:, :, None]
    return np.array(los), np.array(his), (upper > 0.0, *columns)


def _beta_sd(c: PriorComponent) -> float:
    return math.sqrt(c.mean * (1.0 - c.mean) / (c.scale + 1.0))


def _graded(top: float, k: float, near: float, far: float, steep: float) -> list[float]:
    """Breakpoints t in [0, top] toward an endpoint, in the coordinate t with
    s = t^k, where s is the distance from the endpoint and ``near`` the
    density's shape there.

    Successive breakpoints shrink by _BETA_GRADING, down to the first below
    which the density's mass I_s(near, far) is under _BETA_END_MASS, then 0.
    The first ones shrink by at most 1 - 2 / k down to t = 1/2, because
    1 - s, a factor of both densities, vanishes at t = 1, and by at most
    1 - 12 / steep until a power t^steep of the integrand (the control's
    mass near the endpoint) has fallen by 1e-16.
    """
    ratio, falls = _BETA_GRADING, [0.0]
    for step, fall in ((1.0 - 2.0 / k, math.log(0.5 / top)),
                       (1.0 - 12.0 / steep, math.log(1e-16) / steep)):
        if step > _BETA_GRADING:
            ratio = max(ratio, step)
            falls.append(fall)
    fine = max(0, math.ceil(min(falls) / math.log(ratio))) if ratio > _BETA_GRADING else 0
    t = top * np.cumprod(np.r_[np.full(fine, ratio), np.full(_BETA_GRADES, _BETA_GRADING)])
    small = np.flatnonzero(betainc(near, far, t**k) < _BETA_END_MASS)
    return [0.0, *(t[: small[0] + 1] if small.size else t).tolist()]


def _normal_pairs(post_t: PriorSpec, post_c: PriorSpec) -> list[tuple[float, float, float]]:
    """(weight, mean, sd) of theta_t - theta_c for each pair of components of
    independent normal mixtures."""
    return [(ct.weight * cc.weight, ct.mean - cc.mean, math.sqrt(ct.scale**2 + cc.scale**2))
            for ct in post_t.components for cc in post_c.components]


def _delta_cdf_normal(pairs: list[tuple[float, float, float]], x: float) -> float:
    """P(theta_t - theta_c <= x) from ``_normal_pairs``."""
    total = 0.0
    for w, m, s in pairs:
        total += w * _phi((x - m) / s)
    return total


def delta_point_and_interval(
    post_t: PriorSpec,
    post_c: PriorSpec,
    model: OutcomeModel,
    level: float = 0.95,
) -> tuple[float, float, float]:
    """Posterior mean and equal-tailed credible interval of the effect.

    Continuous: the effect of two single-normal posteriors is normal, so its
    quantiles are closed form; otherwise root-finding on the exact mixture CDF.
    Binary: quantiles of the effect on a lattice of spacing 1/_DELTA_BINS.
    Each posterior's exact masses in _DELTA_BINS equal bins of [0, 1] are
    convolved by FFT into the masses of the bin-index difference, whose
    cumulative sum is interpolated linearly at the two tail probabilities.
    The last 128 posteriors' masses and 2048 intervals are cached; a hit
    returns what the same computation gave for equal arguments.
    """
    if not (0.0 < level < 1.0):
        raise ValueError("credible level must be in (0, 1)")
    if post_t.family != post_c.family:
        raise ValueError("posterior families do not match")
    _check_family(post_t, model, "treatment posterior")
    point = post_t.mean() - post_c.mean()

    if model.kind == CONTINUOUS:
        q_lo, q_hi = 0.5 * (1.0 - level), 0.5 * (1.0 + level)
        if post_t.is_single and post_c.is_single:
            (ct,), (cc,) = post_t.components, post_c.components
            m, s = ct.mean - cc.mean, math.sqrt(ct.scale**2 + cc.scale**2)
            return point, float(m + s * ndtri(q_lo)), float(m + s * ndtri(q_hi))
        pairs = _normal_pairs(post_t, post_c)
        _, pair_means, pair_sds = zip(*pairs)
        lo_b = min(pair_means) - 12.0 * max(pair_sds)
        hi_b = max(pair_means) + 12.0 * max(pair_sds)
        lo = brentq(lambda x: _delta_cdf_normal(pairs, x) - q_lo, lo_b, hi_b, xtol=1e-8)
        hi = brentq(lambda x: _delta_cdf_normal(pairs, x) - q_hi, lo_b, hi_b, xtol=1e-8)
        return point, float(lo), float(hi)
    return (point, *_lattice_interval(post_t, post_c, level))


@lru_cache(maxsize=128)
def _lattice_masses(post: PriorSpec) -> np.ndarray:
    """A beta mixture's masses in the lattice's bins, 32 KB, read-only because
    every cache hit returns the same array."""
    masses = np.diff(sum(c.weight * betainc(a, b, _DELTA_EDGES)
                         for c, a, b in zip(post.components, *post.beta_shapes())))
    masses.flags.writeable = False
    return masses


@lru_cache(maxsize=2048)
def _lattice_interval(post_t: PriorSpec, post_c: PriorSpec, level: float) -> tuple[float, float]:
    # entry k of the convolution with the reversed control masses is the mass
    # of bin-index difference k - (_DELTA_BINS - 1); zero padding to twice the
    # bin count keeps the circular FFT convolution from wrapping around
    mass_t, mass_c = _lattice_masses(post_t), _lattice_masses(post_c)[::-1]
    size = 2 * _DELTA_BINS
    pmf = np.fft.irfft(np.fft.rfft(mass_t, size) * np.fft.rfft(mass_c, size), size)[: size - 1]
    # FFT round-off can dip below 0; clipping keeps the cumulative sum monotone.
    # A lattice mass spreads over +-1/2 bin around its point, so the sum up to
    # entry k is the CDF half a bin above it.
    cdf = np.cumsum(np.clip(pmf, 0.0, None))
    x = (np.arange(size - 1) - (_DELTA_BINS - 1) + 0.5) / _DELTA_BINS
    lo, hi = np.interp([0.5 * (1.0 - level), 0.5 * (1.0 + level)], cdf, x)
    return float(lo), float(hi)
