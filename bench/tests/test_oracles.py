"""Each oracle against brute force at a small size."""

import math

import numpy as np
import pytest

import oracles

RNG = np.random.default_rng(20260809)


def _hellinger_normal(m1, s1, m2, s2):
    ssum = s1 * s1 + s2 * s2
    bc = np.sqrt(2.0 * s1 * s2 / ssum) * np.exp(-0.25 * (m1 - m2) ** 2 / ssum)
    return np.sqrt(np.maximum(0.0, 1.0 - bc))


@pytest.mark.parametrize("n,gamma,delta", [(16, 0.2, 0.0), (20, 0.3, 40 / 88),
                                           (24, 0.5, -30 / 88)])
def test_borrowing_probability_matches_a_dense_grid(n, gamma, delta):
    # the borrowing set found numerically: Bhattacharyya integrals on an x grid
    # for every ybar on a fine grid, then the normal mass of {h* <= gamma}
    s0, s1 = 18 / 88, 1 / math.sqrt(n)
    x = np.linspace(-3.0, 3.0, 6001)
    dx = x[1] - x[0]

    def pdf(m, s):
        return np.exp(-0.5 * ((x - m) / s) ** 2) / (s * math.sqrt(2 * math.pi))

    root_p = np.sqrt(pdf(0.0, s0))

    def h(ybar):
        return math.sqrt(max(0.0, 1.0 - float(np.sum(root_p * np.sqrt(pdf(ybar, s1))) * dx)))

    ys = np.linspace(delta - 6 * s1, delta + 6 * s1, 3001)
    h_min = h(0.0)
    h_star = np.array([(h(y) - h_min) / (1.0 - h_min) for y in ys])
    dens = np.exp(-0.5 * ((ys - delta) / s1) ** 2) / (s1 * math.sqrt(2 * math.pi))
    grid_p = float(np.sum(dens * (h_star <= gamma)) * (ys[1] - ys[0]))
    assert oracles.borrowing_probability(s0, n, gamma, delta) == pytest.approx(grid_p, abs=3e-3)


def test_borrowing_probability_matches_monte_carlo():
    s0, n, gamma, delta = 18 / 88, 20, 0.3, 20 / 88
    s1 = 1 / math.sqrt(n)
    ybar = RNG.normal(delta, s1, 200_000)
    h = _hellinger_normal(0.0, s0, ybar, s1)
    h_min = _hellinger_normal(0.0, s0, 0.0, s1)
    borrow = (h - h_min) / (1 - h_min) <= gamma
    p = oracles.borrowing_probability(s0, n, gamma, delta)
    assert abs(borrow.mean() - p) < 5 * math.sqrt(p * (1 - p) / borrow.size)
    assert oracles.borrowing_probability(s0, n, 0.0, delta) == 0.0


def test_saved_moments_match_monte_carlo():
    s0, n, gamma, n_total, t = 18 / 88, 16, 0.4, 80, 0.4
    s1 = 1 / math.sqrt(n)
    ybar = RNG.normal(0.0, s1, 200_000)
    h = _hellinger_normal(0.0, s0, ybar, s1)
    h_min = _hellinger_normal(0.0, s0, 0.0, s1)
    h_star = np.clip((h - h_min) / (1 - h_min), 0, 1)
    xi = np.where(h_star <= gamma, 1 - h_star, 0.0)
    saved = 24 - np.floor((1 - t) * (1 - xi) * n_total / 2 + 1e-9)
    mean, var = oracles.saved_moments(s0, n, gamma, 0.0, n_total, t, 1.0, 1.0)
    assert abs(saved.mean() - mean) < 5 * math.sqrt(var / saved.size)
    assert var == pytest.approx(saved.var(), rel=0.05)


@pytest.mark.parametrize("theta_c,theta_t", [(0.0, 0.0), (0.2, 0.2), (-0.2, 0.2)])
def test_comparator_rate_matches_monte_carlo(theta_c, theta_t):
    n_c = n_t = 100
    reps = 20_000
    s_c = RNG.normal(theta_c, 1.0, (reps, n_c)).sum(axis=1)
    s_t = RNG.normal(theta_t, 1.0, (reps, n_t)).sum(axis=1)
    # N(0, 1) priors: posterior mean S / (1 + n), variance 1 / (1 + n)
    diff = s_t / (1 + n_t) - s_c / (1 + n_c)
    z = diff / math.sqrt(1 / (1 + n_t) + 1 / (1 + n_c))
    prob = 0.5 * np.vectorize(math.erfc)(-z / math.sqrt(2))
    hits = (prob > 0.975).mean()
    p = oracles.comparator_rejection_rate(theta_c, theta_t, n_c, n_t, 0.975)
    assert abs(hits - p) < 5 * math.sqrt(p * (1 - p) / reps) + 1 / reps


def test_minimal_hellinger_grid_single_normal_closed_form():
    s0, s1 = 0.12, 1 / math.sqrt(30)
    closed = math.sqrt(1 - math.sqrt(2 * s0 * s1 / (s0 * s0 + s1 * s1)))
    got = oracles.minimal_hellinger_grid([(1.0, 0.3, s0)], s1)
    assert got == pytest.approx(closed, abs=1e-4)


def test_minimal_hellinger_grid_finds_the_major_component():
    comps = [(0.8, -0.6, 0.08), (0.2, 0.6, 0.08)]
    s1 = 1 / math.sqrt(30)
    got = oracles.minimal_hellinger_grid(comps, s1)
    # brute force on a plain grid of candidate means
    x = np.linspace(-4, 4, 40001)
    dx = x[1] - x[0]
    p = sum(w * np.exp(-0.5 * ((x - m) / s) ** 2) / (s * math.sqrt(2 * math.pi))
            for w, m, s in comps)
    best = min(
        math.sqrt(max(0.0, 1 - float(np.sum(np.sqrt(
            p * np.exp(-0.5 * ((x - mu) / s1) ** 2) / (s1 * math.sqrt(2 * math.pi)))) * dx)))
        for mu in np.linspace(-1.0, 1.0, 2001))
    assert got == pytest.approx(best, abs=1e-4)
    assert got < 0.5
