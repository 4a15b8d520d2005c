"""Independent numeric oracles for the test suite, built on scipy.stats
densities and plain adaptive quadrature."""

import math

from scipy import integrate
from scipy import stats
from scipy.optimize import brentq


def hellinger_oracle(pdf_p, pdf_q, lo: float, hi: float) -> float:
    """Independent Hellinger distance: quadrature of sqrt(p q) via scipy.stats
    densities, then H = sqrt(1 - BC)."""
    bc, err = integrate.quad(
        lambda x: math.sqrt(max(pdf_p(x), 0.0) * max(pdf_q(x), 0.0)),
        lo, hi, epsabs=1e-12, epsrel=1e-11, limit=300,
    )
    assert err < 1e-8
    return math.sqrt(max(0.0, 1.0 - bc))


def normal_hellinger_oracle(m1, s1, m2, s2) -> float:
    lo = min(m1 - 10 * s1, m2 - 10 * s2)
    hi = max(m1 + 10 * s1, m2 + 10 * s2)
    return hellinger_oracle(
        stats.norm(m1, s1).pdf, stats.norm(m2, s2).pdf, lo, hi
    )


def beta_hellinger_oracle(a1, b1, a2, b2) -> float:
    """Hellinger distance between Beta(a1, b1) and Beta(a2, b2) on the unit
    interval clipped at 1e-12; a shape below 1 would put mass in the clipped
    ends, so such shapes are refused."""
    if min(a1, b1, a2, b2) < 1.0:
        raise ValueError("beta_hellinger_oracle needs shapes >= 1")
    return hellinger_oracle(
        stats.beta(a1, b1).pdf, stats.beta(a2, b2).pdf, 1e-12, 1 - 1e-12
    )


def beta_difference_quantile_oracle(treatment, control, q: float) -> float:
    """q-quantile of theta_t - theta_c for independent beta mixtures, each
    given as (weight, a, b) triples.

    P(theta_t - theta_c <= x) is the quadrature over c of the control density
    times the treatment CDF at c + x, plus the control mass above 1 - x where
    that CDF is 1; brentq inverts it.
    """
    def mix(parts, attr):
        fns = [(w, getattr(stats.beta(a, b), attr)) for w, a, b in parts]
        return lambda x: sum(w * f(x) for w, f in fns)

    pdf_c, cdf_c, cdf_t = mix(control, "pdf"), mix(control, "cdf"), mix(treatment, "cdf")
    control_means = [a / (a + b) for _, a, b in control]

    def cdf(x: float) -> float:
        lo, hi = max(0.0, -x), min(1.0, 1.0 - x)
        pts = [m for m in control_means if lo < m < hi] or None
        body, err = integrate.quad(lambda c: pdf_c(c) * cdf_t(c + x), lo, hi,
                                   points=pts, epsabs=1e-13, epsrel=1e-12, limit=500)
        assert err < 1e-9
        return body + 1.0 - cdf_c(hi)

    return brentq(lambda x: cdf(x) - q, -1.0 + 1e-12, 1.0 - 1e-12, xtol=1e-12)
