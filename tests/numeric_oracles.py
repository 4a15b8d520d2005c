"""Independent numeric oracles for the test suite, built on scipy.stats
densities and plain adaptive quadrature."""

import math

from scipy import integrate
from scipy import stats
from scipy.optimize import brentq
from scipy.special import betainc, betaln, ndtr


def hellinger_oracle(pdf_p, pdf_q, lo: float, hi: float, points=None) -> float:
    """Independent Hellinger distance: quadrature of sqrt(p q) via scipy.stats
    densities, then H = sqrt(1 - BC).  ``points`` are breakpoints for the
    quadrature, such as the peaks of narrow mixture components."""
    bc, err = integrate.quad(
        lambda x: math.sqrt(max(pdf_p(x), 0.0) * max(pdf_q(x), 0.0)),
        lo, hi, epsabs=1e-12, epsrel=1e-11, limit=1000, points=points,
    )
    assert err < 1e-8
    return math.sqrt(max(0.0, 1.0 - bc))


def normal_hellinger_oracle(m1, s1, m2, s2) -> float:
    lo = min(m1 - 10 * s1, m2 - 10 * s2)
    hi = max(m1 + 10 * s1, m2 + 10 * s2)
    return hellinger_oracle(
        stats.norm(m1, s1).pdf, stats.norm(m2, s2).pdf, lo, hi
    )


def normal_mixture_pdf(components):
    """Density of a normal mixture given as (weight, mean, sd) triples."""
    parts = [(w, stats.norm(m, s).pdf) for w, m, s in components]
    return lambda x: sum(w * pdf(x) for w, pdf in parts)


def normal_mixture_breakpoints(*mixtures):
    """Quadrature bounds at 40 sd past the extreme components of the mixtures,
    given as (weight, mean, sd) triples, and breakpoints at each component's
    mean and 1, 2, 4 and 8 sd either side of it."""
    comps = [c for mix in mixtures for c in mix]
    lo = min(m - 40.0 * s for _, m, s in comps)
    hi = max(m + 40.0 * s for _, m, s in comps)
    points = sorted({m + k * s for _, m, s in comps for k in (-8, -4, -2, -1, 0, 1, 2, 4, 8)})
    return lo, hi, points


def elir_oracle(components) -> float:
    """ELIR effective sample size of a normal mixture, given as (weight, mean,
    sd) triples, under a unit-variance normal likelihood: adaptive quadrature
    of g'^2 / g - g'' (0 where g = 0), where g is the mixture density from
    scipy.stats.norm, g' = -sum w f (x - m) / s^2 and
    g'' = sum w f ((x - m)^2 / s^4 - 1 / s^2)."""
    parts = [(w, m, s, stats.norm(m, s).pdf) for w, m, s in components]

    def integrand(x):
        g = dg = d2g = 0.0
        for w, m, s, pdf in parts:
            f = w * pdf(x)
            g += f
            dg -= f * (x - m) / s**2
            d2g += f * ((x - m) ** 2 / s**4 - 1.0 / s**2)
        return dg * dg / g - d2g if g > 0.0 else 0.0

    lo, hi, points = normal_mixture_breakpoints(components)
    value, err = integrate.quad(integrand, lo, hi, points=points,
                                epsabs=0.0, epsrel=1e-12, limit=2000)
    assert err < 1e-10 * abs(value)
    return value


def beta_hellinger_oracle(a1, b1, a2, b2) -> float:
    """Hellinger distance between Beta(a1, b1) and Beta(a2, b2) on the unit
    interval clipped at 1e-12; a shape below 1 would put mass in the clipped
    ends, so such shapes are refused."""
    if min(a1, b1, a2, b2) < 1.0:
        raise ValueError("beta_hellinger_oracle needs shapes >= 1")
    return hellinger_oracle(
        stats.beta(a1, b1).pdf, stats.beta(a2, b2).pdf, 1e-12, 1 - 1e-12
    )


def beta_success_probability_oracle(treatment, control) -> float:
    """P(theta_t > theta_c) for independent beta mixtures, each given as
    (weight, a, b) triples.

    For each treatment component, the quadrature is of its density times the
    control mixture CDF, on [0, 1/2] in u with x = u**k0 and on [1/2, 1] in v
    with 1 - x = v**k1, where k = max(1, 1/shape).  The substitution cancels
    the integrable singularity of a shape below 1, leaving a bounded
    integrand; on the upper half the control CDF is 1 - I_{1-x}(b, a), taken
    at 1 - x = v**k1 so that x is never rounded near 1.
    """
    means = [a / (a + b) for _, a, b in (*treatment, *control)]

    def half(k, near_shape, far_shape, lnb, cdf, peaks):
        # the distance y = s**k from the end whose shape is near_shape, for s
        # in [0, 2**(-1/k)]; cdf takes y.  The density and the Jacobian are
        # one exp of a log, whose parts overflow on their own once the shapes
        # reach several hundred.
        def f(s):
            y = s ** k
            return k * math.exp((near_shape * k - 1.0) * math.log(s)
                                + (far_shape - 1.0) * math.log1p(-y) - lnb) * cdf(y)

        end = 0.5 ** (1.0 / k)
        pts = [m ** (1.0 / k) for m in peaks if 0.0 < m < 0.5] or None
        val, err = integrate.quad(f, 0.0, end, points=pts,
                                  epsabs=1e-14, epsrel=1e-12, limit=500)
        assert err < 1e-11
        return val

    def cdf_below(x):
        return sum(w * betainc(a, b, x) for w, a, b in control)

    def cdf_above(y):  # the control CDF at 1 - y
        return 1.0 - sum(w * betainc(b, a, y) for w, a, b in control)

    total = 0.0
    for w, a, b in treatment:
        lnb = betaln(a, b)
        total += w * (half(max(1.0, 1.0 / a), a, b, lnb, cdf_below, means)
                      + half(max(1.0, 1.0 / b), b, a, lnb, cdf_above,
                             [1.0 - m for m in means]))
    return total


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


def normal_difference_quantile_oracle(treatment, control, q: float) -> float:
    """q-quantile of theta_t - theta_c for independent normal mixtures, each
    given as (weight, mean, sd) triples.

    P(theta_t - theta_c <= x) is the sum over component pairs of the pair
    weight times Phi at x, standardized by the pair's mean difference and
    root-sum-square sd; brentq inverts it at xtol 1e-13.
    """
    pairs = [(wt * wc, mt - mc, math.hypot(st, sc))
             for wt, mt, st in treatment for wc, mc, sc in control]
    lo = min(m - 40.0 * s for _, m, s in pairs)
    hi = max(m + 40.0 * s for _, m, s in pairs)
    return brentq(lambda x: sum(w * ndtr((x - m) / s) for w, m, s in pairs) - q,
                  lo, hi, xtol=1e-13)
