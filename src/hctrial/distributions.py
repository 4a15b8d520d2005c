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
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np
from scipy import integrate  # noqa: F401 (unused; bench/tracing.py rebinds it)
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
# Beta-family integrals use the same rule.  A component's breakpoints sit at
# its mean +- _BETA_PANEL_SDS for P(effect > 0), or _BETA_MIXTURE_SDS, then
# 24, 48, ... sds, out to the first beyond which its mass is under
# _BETA_TAIL_MASS.  In _beta_panels a control component under _BETA_NARROW
# times the treatment's width adds breakpoints at its mean + _BETA_CONTROL_SDS
# of its sds: without them, the 24- and 12-node rules differed by up to 3e-8
# at half the width, and by at most 1e-9 from 0.75 up, on 600 random pairs.
# Panels are graded toward a reached endpoint by (ratio, most steps) until
# the mass left beyond the last one is under _BETA_END_MASS.  The Hellinger
# distance and the ELIR need the 2-sd steps and _BETA_MIXTURE_GRADING to hold
# the 24/12-node check on 1200 random pairs (shapes from 0.05) and 1200 random
# mixtures (shapes from 1 + 1e-9).
_BETA_PANEL_SDS = (4.0, 8.0, 12.0)
_BETA_MIXTURE_SDS = (2.0, 4.0, 6.0, 8.0, 10.0, 12.0)
_BETA_CONTROL_SDS = (-12.0, -8.0, -4.0, 0.0, 4.0, 8.0, 12.0)
_BETA_NARROW = 0.75
_BETA_TAIL_MASS = 1e-15
_BETA_GRADING = (0.15, 20)
_BETA_MIXTURE_GRADING = (0.15**0.5, 40)
_BETA_END_MASS = 1e-9
_BETA_MAX_EXPONENT = 1e6
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


def _beta_log_mixture(terms: list[tuple[float, float, float, float]], log_x: np.ndarray,
                      log_1mx: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Log density of the beta mixture of ``_beta_terms`` and each component's
    share of it, at x given by log x and log(1 - x)."""
    parts = [lw + am1 * log_x + bm1 * log_1mx - lnb for lw, am1, bm1, lnb in terms]
    top = np.maximum.reduce(parts)
    shares = [np.exp(v - top) for v in parts]
    total = sum(shares)
    return top + np.log(total), [v / total for v in shares]


def _unit_coordinates(t: np.ndarray, upper: np.ndarray, k: np.ndarray):
    """log t, log s, log x and log(1 - x) at the nodes t of beta panels, where
    s = t^k is x on a lower panel and 1 - x on an upper one."""
    log_t = np.log(t)
    log_s = k * log_t
    log_r = np.log1p(-np.exp(log_s))
    return log_t, log_s, np.where(upper, log_r, log_s), np.where(upper, log_s, log_r)


def hellinger_numeric(p: PriorSpec, q: PriorSpec) -> float:
    """Hellinger distance by quadrature; either input may be a mixture.

    Integrates the squared-difference form of the Hellinger integrand, which
    is algebraically identical to 1 minus the Bhattacharyya coefficient and
    vanishes pointwise when the densities coincide, so H(p, p) is numerically
    zero instead of sqrt(quadrature noise).  Both families use the fixed rule
    of ``_fixed_rule``: normal densities on the panels of ``_normal_integral``,
    beta densities on those of ``_beta_mixture_panels``, whose endpoint
    substitution covers shapes below 1 over the whole unit interval.
    """
    if p.family != q.family:
        raise ValueError("densities must share a support to be compared")
    what = "hellinger quadrature"
    if p.family == BETA:
        lo, hi, upper, k = _beta_mixture_panels((p, q), 0.0)
        terms = _beta_terms(p), _beta_terms(q)

        def integrand(t: np.ndarray) -> np.ndarray:
            log_t, _, log_x, log_1mx = _unit_coordinates(t, upper, k)
            half_log_jac = 0.5 * (np.log(k) + (k - 1.0) * log_t)
            root_p, root_q = (np.exp(0.5 * _beta_log_mixture(s, log_x, log_1mx)[0]
                                     + half_log_jac) for s in terms)
            return (root_p - root_q) ** 2

        h2 = 0.5 * _fixed_rule(lo, hi, integrand, (p, q), _QUAD_MAX_ABSERR, what)
    else:
        def integrand(x: np.ndarray) -> np.ndarray:
            d = (np.sqrt(sum(f for f, _, _ in _normal_terms(p, x)))
                 - np.sqrt(sum(f for f, _, _ in _normal_terms(q, x))))
            return d * d

        h2 = 0.5 * _normal_integral(integrand, (p, q), _QUAD_MAX_ABSERR, what)
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
        log_t, log_s, log_x, log_1mx = _unit_coordinates(t, upper, k)
        dens = np.exp(log_c + am1 * log_x + bm1 * log_1mx + (k - 1.0) * log_t)
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
    is evaluated: the breakpoints of ``_beta_breaks`` and of narrow control
    components, placed by ``_halves`` with k0 = max(1, 1 / a) and
    k1 = max(1, 1 / b), which leave the density bounded at both ends.
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
        a, b, s = c.mean * c.scale, (1.0 - c.mean) * c.scale, _beta_sd(c)
        breaks, lo_end, hi_end = _beta_breaks(c, _BETA_PANEL_SDS)
        pts = set(breaks)
        for mc, sc in control:
            if sc < _BETA_NARROW * s:
                pts.update(mc + sc * o for o in _BETA_CONTROL_SDS)
        k0, k1 = max(1.0, 1.0 / a), max(1.0, 1.0 / b)
        ends = ((k0, partial(betainc, a, b), k0 * steep[0]),
                (k1, partial(betainc, b, a), k1 * steep[1]))
        log_w = math.log(c.weight) - float(betaln(a, b))
        for t, k, up in _halves(pts, lo_end, hi_end, ends, _BETA_GRADING):
            los += t[:-1]
            his += t[1:]
            rows.append((up, k, log_w + math.log(k), a - 1.0, b - 1.0))
            counts.append(len(t) - 1)
    upper, *columns = np.repeat(np.array(rows), counts, axis=0).T[:, :, None]
    return np.array(los), np.array(his), (upper > 0.0, *columns)


def _beta_mixture_panels(densities: Sequence[PriorSpec], offset: float):
    """Panels (lo, hi) of the fixed rule over the unit interval for beta
    ``densities``, and whether each is an upper one and its exponent k, as
    (panel, 1) columns: the breakpoints of ``_beta_breaks`` for every
    component, merged and placed by ``_halves``.  At each end
    k = max(1, 1 / (shape - offset)) for the smallest shape there, at most
    _BETA_MAX_EXPONENT, bounds an integrand like x^(shape - offset - 1), and
    the grading takes each near shape less the offset."""
    comps = [c for d in densities for c in d.components if c.weight > 0.0]
    pts: set[float] = set()
    lo_end, hi_end = 1.0, 0.0
    for c in comps:
        breaks, lo, hi = _beta_breaks(c, _BETA_MIXTURE_SDS)
        pts |= breaks
        lo_end, hi_end = min(lo_end, lo), max(hi_end, hi)
    shapes = [(c.weight / len(densities), c.mean * c.scale, (1.0 - c.mean) * c.scale)
              for c in comps]
    ends = []
    for tails in (shapes, [(w, b, a) for w, a, b in shapes]):
        near = [max(x - offset, 1.0 / _BETA_MAX_EXPONENT) for _, x, _ in tails]
        # a shape at or below the offset leaves x as it is (no k bounds that)
        k = max(1.0, 1.0 / min(near)) if min(x for _, x, _ in tails) > offset else 1.0
        mass = partial(_mixture_mass, [(w, x, far) for x, (w, _, far) in zip(near, tails)])
        ends.append((k, mass, k * max(near)))
    ts, ks, ups = zip(*_halves(pts, lo_end, hi_end, ends, _BETA_MIXTURE_GRADING))
    upper, k = (np.repeat(col, [len(t) - 1 for t in ts])[:, None] for col in (ups, ks))
    return np.concatenate([t[:-1] for t in ts]), np.concatenate([t[1:] for t in ts]), upper, k


def _mixture_mass(tails: list[tuple[float, float, float]], s: np.ndarray) -> np.ndarray:
    """sum w I_s(near, far) over the (weight, near, far) ``tails``."""
    return sum(w * betainc(near, far, s) for w, near, far in tails)


def _beta_sd(c: PriorComponent) -> float:
    return math.sqrt(c.mean * (1.0 - c.mean) / (c.scale + 1.0))


@lru_cache(maxsize=1024)
def _beta_breaks(c: PriorComponent,
                 sds: tuple[float, ...]) -> tuple[frozenset[float], float, float]:
    """A beta component's breakpoints, its mean and its mean +- ``sds`` and
    then 24, 48, ... sds, and the ends of its window: the first breakpoint
    below and above the mean beyond which its tail mass is under
    _BETA_TAIL_MASS, or 0 and 1 where a tail keeps its mass to the end.
    Cached: a historical prior's components recur on every call."""
    m, a, b, s = c.mean, c.mean * c.scale, (1.0 - c.mean) * c.scale, _beta_sd(c)
    doublings = max(0, math.ceil(math.log2(max(m, 1.0 - m) / (12.0 * s))))
    offsets = [*sds, *(12.0 * 2.0**i for i in range(1, doublings + 1))]
    below = [x for x in (m - s * o for o in offsets) if x > 0.0]
    above = [x for x in (m + s * o for o in offsets) if x < 1.0]
    n = len(below)
    tails = betainc([a] * n + [b] * len(above), [b] * n + [a] * len(above),
                    below + [1.0 - x for x in above])
    lo_end = next((x for x, t in zip(below, tails[:n]) if t < _BETA_TAIL_MASS), 0.0)
    hi_end = next((x for x, t in zip(above, tails[n:]) if t < _BETA_TAIL_MASS), 1.0)
    return frozenset({m, *below, *above}), lo_end, hi_end


def _halves(pts: set[float], lo_end: float, hi_end: float, ends,
            grading: tuple[float, int]) -> list[tuple[list[float], float, bool]]:
    """Breakpoints t of panels over [lo_end, hi_end], as (t, k, upper) for
    each run that shares a coordinate: x itself if neither end is 0 or 1,
    else x = t^k0 below 1/2 and 1 - x = t^k1 above, graded toward each
    endpoint reached by ``_graded`` with (k, mass, steep) of ``ends``."""
    if lo_end == 0.0 or hi_end == 1.0:
        pts = pts | {0.5}
    pts = sorted(x for x in pts if lo_end <= x <= hi_end)
    if lo_end > 0.0 and hi_end < 1.0:
        halves = [(pts, 1.0, False)]
    else:
        (k0, mass0, steep0), (k1, mass1, steep1) = ends
        lower = [x ** (1.0 / k0) for x in pts if x <= 0.5]
        upper = [(1.0 - x) ** (1.0 / k1) for x in reversed(pts) if x >= 0.5]
        if lo_end == 0.0:
            lower = sorted({*lower, *_graded(lower[-1], k0, mass0, steep0, grading)})
        if hi_end == 1.0:
            upper = sorted({*upper, *_graded(upper[-1], k1, mass1, steep1, grading)})
        halves = [(lower, k0, False), (upper, k1, True)]
    return [(t, k, up) for t, k, up in halves if len(t) > 1]


def _graded(top: float, k: float, mass: Callable[[np.ndarray], np.ndarray], steep: float,
            grading: tuple[float, int]) -> list[float]:
    """Breakpoints t in [0, top] toward an endpoint, in the coordinate t with
    s = t^k, where s is the distance from the endpoint.

    Successive breakpoints shrink by the ratio of ``grading``, at most its
    count of times, down to the first below which the mass within s of the
    endpoint, ``mass(s)``, is under _BETA_END_MASS, then 0.  The first ones
    shrink by at most 1 - 2 / k down to t = 1/2 or s = 1e-16, because 1 - s,
    a factor of every density, vanishes at t = 1, and by at most
    1 - 12 / steep until a power t^steep of the integrand (such as the
    control's mass near the endpoint) has fallen by 1e-16.
    """
    shrink, count = grading
    ratio, falls = shrink, [0.0]
    for step, fall in ((1.0 - 2.0 / k, math.log(max(0.5, 1e-16 ** (1.0 / k)) / top)),
                       (1.0 - 12.0 / steep, math.log(1e-16) / steep)):
        if step > shrink:
            ratio = max(ratio, step)
            falls.append(fall)
    fine = max(0, math.ceil(min(falls) / math.log(ratio))) if ratio > shrink else 0
    t = top * np.cumprod(np.r_[np.full(fine, ratio), np.full(count, shrink)])
    small = np.flatnonzero(mass(t**k) < _BETA_END_MASS)
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
