"""Independent oracles for the benchmark's output checks.

Nothing here calls hctrial to get an expected value, and no value is a
recorded output of an earlier run: each expectation is derived from the
design's definition, so a later fix of a known defect is free to move the
outputs.  Everything is on the working scale (outcome sd 1) unless a name
says otherwise.

Monte Carlo estimates are compared with ``Z_TOL`` standard errors of the
exact value, plus one replicate's worth of slack; at 5 SE a correct program
misses one of ~1.7 million checks.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

Z_TOL = 5.0
_SQRT2 = math.sqrt(2.0)


def phi(z: float) -> float:
    return 0.5 * math.erfc(-z / _SQRT2)


def mc_tolerance(p: float, reps: int) -> float:
    return Z_TOL * math.sqrt(max(p * (1.0 - p), 0.0) / reps) + 1.0 / reps


# ---------------------------------------------------------------------------
# Interim borrowing rule with a single-normal historical prior N(m0, s0)
# ---------------------------------------------------------------------------
#
# The interim posterior is N(ybar, 1/sqrt(n)), so with S = s0^2 + 1/n and
# A = sqrt(2 s0 / sqrt(n) / S) the Hellinger distance is
#     h(ybar)^2 = 1 - A exp(-(ybar - m0)^2 / (4 S)),
# minimal at ybar = m0 (h_min^2 = 1 - A).  Borrowing (xi > 0) happens when
# (h - h_min) / (1 - h_min) <= gamma, i.e. h <= h_c = h_min + gamma (1 - h_min),
# i.e. |ybar - m0| <= c = sqrt(4 S log(A / (1 - h_c^2))).


def _interim_constants(s0: float, n: int) -> tuple[float, float, float]:
    s1 = 1.0 / math.sqrt(n)
    big_s = s0 * s0 + s1 * s1
    a = math.sqrt(2.0 * s0 * s1 / big_s)
    return big_s, a, math.sqrt(max(0.0, 1.0 - a))


def borrow_halfwidth(s0: float, n: int, gamma: float) -> float:
    """Largest |ybar - m0| at which the interim look still borrows."""
    big_s, a, h_min = _interim_constants(s0, n)
    h_c = h_min + gamma * (1.0 - h_min)
    return math.sqrt(4.0 * big_s * math.log(a / (1.0 - h_c * h_c)))


def borrowing_probability(s0: float, n: int, gamma: float, delta: float) -> float:
    """P(xi > 0) when the true control mean is m0 + delta; ybar ~ N(., 1/sqrt(n))."""
    if gamma == 0.0:
        return 0.0
    c = borrow_halfwidth(s0, n, gamma)
    sd = 1.0 / math.sqrt(n)
    return phi((c - delta) / sd) - phi((-c - delta) / sd)


def saved_moments(s0: float, n: int, gamma: float, delta: float, n_total: int, t: float,
                  ratio: float, lam: float, points: int = 20001) -> tuple[float, float]:
    """Mean and variance of the saved count, by a midpoint rule over the
    borrowing region |ybar - m0| <= c (nothing is saved outside it)."""
    if gamma == 0.0:
        return 0.0, 0.0
    big_s, a, h_min = _interim_constants(s0, n)
    c = borrow_halfwidth(s0, n, gamma)
    du = 2.0 * c / points
    u = -c + du * (np.arange(points) + 0.5)
    h = np.sqrt(np.maximum(0.0, 1.0 - a * np.exp(-u * u / (4.0 * big_s))))
    xi = 1.0 - np.clip((h - h_min) / (1.0 - h_min), 0.0, 1.0)
    planned = round((1.0 - t) * n_total / (ratio + 1.0))
    stage2_control = np.floor((1.0 - t) * (1.0 - xi / lam) * n_total / (ratio + 1.0) + 1e-9)
    saved = planned - stage2_control
    sd = 1.0 / math.sqrt(n)
    w = np.exp(-0.5 * ((u - delta) / sd) ** 2) / (sd * math.sqrt(2.0 * math.pi)) * du
    mean = float(np.dot(w, saved))
    return mean, float(np.dot(w, saved * saved)) - mean * mean


# ---------------------------------------------------------------------------
# Non-borrowing comparator, continuous endpoint
# ---------------------------------------------------------------------------


def comparator_rejection_rate(theta_c: float, theta_t: float, n_c: int, n_t: int,
                              eta: float) -> float:
    """P(success) of the fixed two-arm trial with N(0, 1) priors on both arms.

    The posterior means are S/(1 + n) with S ~ N(n theta, n), and success is
    m_t - m_c > z_eta * sqrt(1/(1 + n_t) + 1/(1 + n_c)).
    """
    z = NormalDist().inv_cdf(eta)
    mu = n_t * theta_t / (1.0 + n_t) - n_c * theta_c / (1.0 + n_c)
    sd = math.sqrt(n_t / (1.0 + n_t) ** 2 + n_c / (1.0 + n_c) ** 2)
    cut = z * math.sqrt(1.0 / (1.0 + n_t) + 1.0 / (1.0 + n_c))
    return 1.0 - phi((cut - mu) / sd)


# ---------------------------------------------------------------------------
# Minimal Hellinger distance to a normal-mixture prior, by dense grid
# ---------------------------------------------------------------------------


def _normal_pdf(x: np.ndarray, m: float, s: float) -> np.ndarray:
    return np.exp(-0.5 * ((x - m) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))


def minimal_hellinger_grid(components: list[tuple[float, float, float]], interim_sd: float,
                           x_points: int = 20001, mu_points: int = 801) -> float:
    """min over mu of H(mixture, N(mu, interim_sd)), by brute force.

    ``components`` are (weight, mean, sd).  A coarse mu grid over the
    component means +- 5 sd picks the basin, a fine grid around the best
    coarse point refines it; the Bhattacharyya integral is a Riemann sum on
    a grid reaching 10 sd past every density involved.
    """
    means = [m for _, m, _ in components]
    wide = max(max(s for _, _, s in components), interim_sd)
    mu_lo, mu_hi = min(means) - 5.0 * wide, max(means) + 5.0 * wide
    x = np.linspace(mu_lo - 10.0 * wide, mu_hi + 10.0 * wide, x_points)
    dx = x[1] - x[0]
    root_p = np.sqrt(sum(w * _normal_pdf(x, m, s) for w, m, s in components))

    def distances(mus: np.ndarray) -> np.ndarray:
        out = np.empty(len(mus))
        for i in range(0, len(mus), 32):
            chunk = mus[i:i + 32, None]
            root_q = np.sqrt(_normal_pdf(x[None, :], chunk, interim_sd))
            bc = (root_p[None, :] * root_q).sum(axis=1) * dx
            out[i:i + 32] = np.sqrt(np.clip(1.0 - bc, 0.0, 1.0))
        return out

    coarse = np.linspace(mu_lo, mu_hi, mu_points)
    best = coarse[int(np.argmin(distances(coarse)))]
    step = coarse[1] - coarse[0]
    fine = np.linspace(best - 2.0 * step, best + 2.0 * step, 401)
    return float(distances(fine).min())
