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
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import integrate
from scipy.special import betainc, betaln

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
_WEIGHT_TOL = 1e-12
# Integration supports: +-10 sd beyond the extreme component means for the
# normal family, an epsilon-clipped unit interval for the beta family.  The
# clip drops endpoint mass when a beta shape is below 1, so hellinger_numeric
# does not use it: it integrates beta densities over the whole unit interval
# by a change of variables that removes the endpoint singularities.
# elir_ess and prob_delta_positive keep the clip.  With the beta support set
# to (0, 1), QUADPACK evaluated a node that rounds to x = 1.0 and elir_ess
# raised "math domain error".  Routing prob_delta_positive through
# _hellinger_sq_beta's substitution moved its values by at most 4e-15 but
# took about twice as long (694 against 334 us per call, and 845 against 573
# on a repeat, 2 cores), at two calls per binary replicate.
_SUPPORT_SDS = 10.0
_BETA_EPS = 1e-12
# Tighter than the guaranteed 1e-8 so that H = sqrt(H^2) keeps ~1e-6 accuracy
# even for nearly identical densities.
_QUAD_EPSABS = 1e-12
_QUAD_EPSREL = 1e-10
_QUAD_MAX_ABSERR = 1e-8
# Bins per unit interval of the binary credible interval's lattice.
_DELTA_BINS = 4096


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
        if self.family == NORMAL:
            m, s = self.means(), self.scales()
            return (float(m.min() - _SUPPORT_SDS * s.max()),
                    float(m.max() + _SUPPORT_SDS * s.max()))
        return (_BETA_EPS, 1.0 - _BETA_EPS)

    def cdf(self, x):
        """Mixture CDF of a beta prior (the binary interval's lattice masses)."""
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        out = np.zeros_like(x)
        for c, a, b in zip(self.components, *self.beta_shapes()):
            out += c.weight * betainc(a, b, x)
        return out


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
          points: Sequence[float] | None = None,
          epsabs: float = _QUAD_EPSABS, epsrel: float = _QUAD_EPSREL,
          max_abserr: float = _QUAD_MAX_ABSERR, what: str = "quadrature") -> float:
    res = integrate.quad(f, lo, hi, epsabs=epsabs, epsrel=epsrel,
                         limit=300, points=points, full_output=1)
    value, abserr = res[0], res[1]
    # ignore the roundoff/subdivision flag as long as the achieved error is
    # within what the caller can tolerate
    if not math.isfinite(value) or abserr > max_abserr:
        raise NumericsError(f"{what} did not converge (abserr={abserr!r})")
    return value


def _scalar_pdf(prior: PriorSpec) -> Callable[[float], float]:
    """Plain-math normal mixture density for quadrature callbacks (scalar x)."""
    terms = [
        (c.weight / (c.scale * math.sqrt(2.0 * math.pi)), c.mean,
         0.5 / (c.scale * c.scale))
        for c in prior.components
    ]

    def pdf(x: float) -> float:
        total = 0.0
        for amp, m, k in terms:
            total += amp * math.exp(-k * (x - m) * (x - m))
        return total

    return pdf


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
        return _quad(integrand, 0.0, 0.5 ** (1.0 / k), points=pts or None,
                     what="hellinger quadrature")

    return 0.5 * (half(k0, True) + half(k1, False))


def hellinger_numeric(p: PriorSpec, q: PriorSpec) -> float:
    """Hellinger distance by adaptive quadrature; either input may be a mixture.

    Integrates the squared-difference form of the Hellinger integrand, which
    is algebraically identical to 1 minus the Bhattacharyya coefficient and
    vanishes pointwise when the densities coincide, so H(p, p) is numerically
    zero instead of sqrt(quadrature noise).  Normal densities are integrated
    over +-10 sd beyond the extreme component means.  Beta densities are
    integrated over the whole unit interval, endpoint singularities of shapes
    below 1 included, by the change of variables of ``_hellinger_sq_beta``.
    """
    if p.family != q.family:
        raise ValueError("densities must share a support to be compared")
    if p.family == BETA:
        return math.sqrt(min(1.0, max(0.0, _hellinger_sq_beta(p, q))))
    lo = min(p.support()[0], q.support()[0])
    hi = max(p.support()[1], q.support()[1])
    pts = sorted(
        x for x in list(p.means()) + list(q.means()) if lo < x < hi
    )
    pdf_p, pdf_q = _scalar_pdf(p), _scalar_pdf(q)

    def integrand(x: float) -> float:
        d = math.sqrt(pdf_p(x)) - math.sqrt(pdf_q(x))
        return d * d

    h2 = 0.5 * _quad(integrand, lo, hi, points=pts or None, what="hellinger quadrature")
    return math.sqrt(min(1.0, max(0.0, h2)))


# ---------------------------------------------------------------------------
# Posterior functionals of the treatment effect
# ---------------------------------------------------------------------------


def prob_delta_positive(post_t: PriorSpec, post_c: PriorSpec, model: OutcomeModel) -> float:
    """P(effect > 0) for independent arm posteriors.

    Continuous: exact sum of Gaussian tail probabilities over component pairs.
    Binary: integral of (treatment density) * (control CDF) over (0, 1) by
    adaptive quadrature.
    """
    if post_t.family != post_c.family:
        raise ValueError("posterior families do not match")
    _check_family(post_t, model, "treatment posterior")
    if model.kind == CONTINUOUS:
        # P(theta_t - theta_c > 0) = P(theta_c - theta_t < 0)
        return min(1.0, max(0.0, _delta_cdf_normal(post_c, post_t, 0.0)))

    # scalar closures keep the quadrature callback cheap
    dens_t = _beta_terms(post_t)
    cdf_c = [(c.weight, a, b)
             for c, a, b in zip(post_c.components, *post_c.beta_shapes())]

    def integrand(x: float) -> float:
        x = min(max(x, _BETA_EPS), 1.0 - _BETA_EPS)
        log_x, log_1mx = math.log(x), math.log1p(-x)
        f = 0.0
        for lw, am1, bm1, lnb in dens_t:
            f += math.exp(lw + am1 * log_x + bm1 * log_1mx - lnb)
        big_f = 0.0
        for w, a, b in cdf_c:
            big_f += w * float(betainc(a, b, x))
        return f * big_f

    pts = sorted(set(float(m) for m in post_t.means()) | set(float(m) for m in post_c.means()))
    val = _quad(integrand, 0.0, 1.0, points=pts, epsabs=1e-9, epsrel=1e-9,
                max_abserr=1e-6, what="success-probability quadrature")
    return min(1.0, max(0.0, val))


def _delta_cdf_normal(post_t: PriorSpec, post_c: PriorSpec, x: float) -> float:
    """P(theta_t - theta_c <= x) for independent normal mixtures."""
    total = 0.0
    for ct in post_t.components:
        for cc in post_c.components:
            s = math.sqrt(ct.scale**2 + cc.scale**2)
            total += ct.weight * cc.weight * _phi((x - (ct.mean - cc.mean)) / s)
    return total


def delta_point_and_interval(
    post_t: PriorSpec,
    post_c: PriorSpec,
    model: OutcomeModel,
    level: float = 0.95,
) -> tuple[float, float, float]:
    """Posterior mean and equal-tailed credible interval of the effect.

    Continuous: quantiles by root-finding on the exact mixture-difference CDF.
    Binary: quantiles of the effect on a lattice of spacing 1/_DELTA_BINS.
    Each posterior's exact masses in _DELTA_BINS equal bins of [0, 1] are
    convolved by FFT into the masses of the bin-index difference, whose
    cumulative sum is interpolated linearly at the two tail probabilities.
    """
    if not (0.0 < level < 1.0):
        raise ValueError("credible level must be in (0, 1)")
    if post_t.family != post_c.family:
        raise ValueError("posterior families do not match")
    _check_family(post_t, model, "treatment posterior")
    point = post_t.mean() - post_c.mean()
    q_lo, q_hi = 0.5 * (1.0 - level), 0.5 * (1.0 + level)

    if model.kind == CONTINUOUS:
        from scipy.optimize import brentq

        pair_means = [ct.mean - cc.mean for ct in post_t.components for cc in post_c.components]
        pair_sds = [math.sqrt(ct.scale**2 + cc.scale**2)
                    for ct in post_t.components for cc in post_c.components]
        lo_b = min(pair_means) - 12.0 * max(pair_sds)
        hi_b = max(pair_means) + 12.0 * max(pair_sds)
        lo = brentq(lambda x: _delta_cdf_normal(post_t, post_c, x) - q_lo, lo_b, hi_b, xtol=1e-8)
        hi = brentq(lambda x: _delta_cdf_normal(post_t, post_c, x) - q_hi, lo_b, hi_b, xtol=1e-8)
        return point, float(lo), float(hi)

    # entry k of the convolution with the reversed control masses is the mass
    # of bin-index difference k - (_DELTA_BINS - 1); zero padding to twice the
    # bin count keeps the circular FFT convolution from wrapping around
    edges = np.linspace(0.0, 1.0, _DELTA_BINS + 1)
    mass_t = np.diff(post_t.cdf(edges))
    mass_c = np.diff(post_c.cdf(edges))[::-1]
    size = 2 * _DELTA_BINS
    pmf = np.fft.irfft(np.fft.rfft(mass_t, size) * np.fft.rfft(mass_c, size), size)[: size - 1]
    # FFT round-off can dip below 0; clipping keeps the cumulative sum monotone.
    # A lattice mass spreads over +-1/2 bin around its point, so the sum up to
    # entry k is the CDF half a bin above it.
    cdf = np.cumsum(np.clip(pmf, 0.0, None))
    x = (np.arange(size - 1) - (_DELTA_BINS - 1) + 0.5) / _DELTA_BINS
    lo, hi = np.interp([q_lo, q_hi], cdf, x)
    return point, float(lo), float(hi)
