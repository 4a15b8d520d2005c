import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import betaln

from hctrial import (
    DataSummary,
    NumericsError,
    OutcomeModel,
    PriorSpec,
    SimilarityConfig,
    assess_similarity,
    hellinger_beta,
    hellinger_normal,
    interim_posterior,
    minimal_hellinger,
    normalized_hellinger,
    similarity_xi,
)
from hctrial import similarity
from hctrial.similarity import xi_of_totals


class TestInterimPosterior:
    def test_continuous(self, continuous_model):
        g = interim_posterior(DataSummary(50, 0.0), continuous_model)
        c = g.components[0]
        assert c.mean == 0.0
        assert c.scale == pytest.approx(1.0 / math.sqrt(50.0))

    def test_binary_jeffreys(self, binary_model):
        g = interim_posterior(DataSummary(30, 9.0), binary_model)
        a, b = g.beta_shapes()
        assert float(a[0]) == pytest.approx(9.5)
        assert float(b[0]) == pytest.approx(21.5)
        assert g.components[0].scale == pytest.approx(31.0)

    def test_too_few_observations(self, continuous_model):
        with pytest.raises(ValueError, match="at least 2"):
            interim_posterior(DataSummary(1, 0.3), continuous_model)


class TestMinimalHellinger:
    def test_continuous_single_closed_form(self, continuous_model):
        hist = PriorSpec.normal(0.0, 1.0 / math.sqrt(70.0))
        interim = interim_posterior(DataSummary(100, 37.0), continuous_model)
        h_min = minimal_hellinger(hist, interim, continuous_model)
        assert h_min == pytest.approx(0.0888, abs=5e-4)
        # the analytic value is the distance at zero drift
        probe = PriorSpec.normal(0.0, 0.1)
        assert h_min == hellinger_normal(hist, probe)

    def test_equal_scales_vanishes(self, continuous_model):
        hist = PriorSpec.normal(0.4, 0.1)
        interim = PriorSpec.normal(-0.2, 0.1)
        assert minimal_hellinger(hist, interim, continuous_model) == 0.0

    def test_continuous_single_matches_search(self, continuous_model):
        # force the generic search path through a length-2 mixture with
        # identical components and compare with the analytic single result
        hist_single = PriorSpec.normal(0.15, 0.2)
        hist_mix = PriorSpec.mixture("normal", [(0.5, 0.15, 0.2), (0.5, 0.15, 0.2)])
        interim = PriorSpec.normal(0.9, 0.12)
        a = minimal_hellinger(hist_single, interim, continuous_model)
        b = minimal_hellinger(hist_mix, interim, continuous_model)
        assert b == pytest.approx(a, abs=1e-6)

    def test_binary_matches_grid_search(self, binary_model):
        hist = PriorSpec.beta(0.3, 65.0)
        interim = interim_posterior(DataSummary(100, 30.0), binary_model)  # phi = 101
        h_min = minimal_hellinger(hist, interim, binary_model)
        grid = np.linspace(0.001, 0.999, 2000)
        grid_min = min(
            hellinger_beta(hist, PriorSpec.beta(m, 101.0)) for m in grid
        )
        assert h_min == pytest.approx(grid_min, abs=1e-4)
        assert h_min <= grid_min + 1e-9

    @pytest.mark.parametrize("n1c", [200, 500])
    @pytest.mark.parametrize("precision", [500.0, 1000.0, 2000.0])
    @pytest.mark.parametrize("mean", [0.02, 0.05, 0.1])
    def test_concentrated_single_beta_matches_closed_form_oracle(
        self, binary_model, mean, precision, n1c
    ):
        # both distributions concentrated near zero: the profile is flat at
        # 1.0 over most of (0, 1) and dips only near the prior mean
        hist = PriorSpec.beta(mean, precision)
        phi = n1c + 1.0
        h_min = minimal_hellinger(hist, PriorSpec.beta(0.5, phi), binary_model)
        want = closed_form_beta_hmin(mean * precision, (1.0 - mean) * precision, phi)
        assert h_min == pytest.approx(want, abs=1e-6)
        assert h_min <= want + 1e-9

    def test_minimum_beside_the_clamped_end_of_the_scan(self, binary_model):
        # Beta(0.1, 49.9): the best scan point is the clamped end 1e-3, where
        # the distance is 0.0772; the refine finds the lower minimum inside
        hist = PriorSpec.beta(0.002, 50.0)
        phi = 100.0
        got = minimal_hellinger(hist, PriorSpec.beta(0.5, phi), binary_model)
        assert type(got) is float
        assert hellinger_beta(hist, PriorSpec.beta(1e-3, phi)) == pytest.approx(0.0772, abs=1e-4)
        assert got == pytest.approx(0.07434610381, abs=1e-10)

        # a grid in u = log x resolves the x^-0.9 singularity at zero
        def log_root_p(u):
            return 0.5 * (stats.beta.logpdf(np.exp(u), 0.1, 49.9) + u)

        def log_root_q(u, mu):
            return 0.5 * (stats.beta.logpdf(np.exp(u), mu * phi, (1.0 - mu) * phi) + u)

        u = np.linspace(-460.0, 0.0, 11501)[:-1]
        want = dense_grid_hmin(log_root_p, log_root_q, u, np.linspace(1e-3, 3e-3, 201))
        assert got == pytest.approx(want, abs=1e-5)
        assert got <= want

    def test_prior_mean_approx_evaluates_at_prior_mean(self, continuous_model, two_normal_mixture):
        interim = PriorSpec.normal(0.3, 0.15)
        approx = minimal_hellinger(
            two_normal_mixture, interim, continuous_model, mode="prior_mean_approx"
        )
        from hctrial import hellinger_numeric

        probe = PriorSpec.normal(two_normal_mixture.mean(), 0.15)
        assert approx == pytest.approx(
            hellinger_numeric(two_normal_mixture, probe), abs=1e-12
        )
        exact = minimal_hellinger(two_normal_mixture, interim, continuous_model)
        assert approx >= exact - 1e-9

    def test_unconverged_refine_names_the_prior(self, binary_model, monkeypatch):
        # one iteration leaves the bounded minimiser unconverged
        real = similarity.minimize_scalar
        monkeypatch.setattr(similarity, "minimize_scalar", lambda *args, options, **kwargs:
                            real(*args, options={**options, "maxiter": 1}, **kwargs))
        similarity._minimal_hellinger_cached.cache_clear()
        hist = PriorSpec.mixture("beta", [(0.8, 0.25, 100.0), (0.2, 0.75, 100.0)])
        with pytest.raises(NumericsError) as info:
            minimal_hellinger(hist, PriorSpec.beta(0.5, 31.0), binary_model)
        assert str(info.value) == ("minimal-distance search did not converge for prior "
                                   "[(0.8, 25.0, 75.0), (0.2, 75.0, 25.0)] at interim scale 31.0")

    def test_interim_must_be_single(self, continuous_model):
        hist = PriorSpec.normal(0.0, 0.2)
        mix = PriorSpec.mixture("normal", [(0.5, 0.0, 0.2), (0.5, 0.1, 0.3)])
        with pytest.raises(ValueError, match="single"):
            minimal_hellinger(hist, mix, continuous_model)


def closed_form_beta_hmin(a, b, phi):
    """min over mu of the Hellinger distance between Beta(a, b) and
    Beta(mu phi, (1 - mu) phi) from the closed-form Bhattacharyya coefficient,
    on 200,001 means in [0.001, 0.999] refined between the best one's
    neighbours."""

    def h(mu):
        c, d = mu * phi, (1.0 - mu) * phi
        log_bc = betaln(0.5 * (a + c), 0.5 * (b + d)) - 0.5 * (betaln(a, b) + betaln(c, d))
        return np.sqrt(np.maximum(0.0, 1.0 - np.exp(log_bc)))

    mus = np.linspace(0.001, 0.999, 200001)
    values = h(mus)
    i = int(np.argmin(values))
    fine = np.linspace(mus[max(i - 1, 0)], mus[min(i + 1, len(mus) - 1)], 20001)
    return float(min(values[i], h(fine).min()))


def dense_grid_hmin(log_root_p, log_root_q, x, mus):
    """min over mu of the Hellinger distance sqrt(1 - BC(mu)), with the
    Bhattacharyya coefficient BC(mu) a Riemann sum of sqrt(p q_mu) on ``x``."""
    dx = x[1] - x[0]
    best = 0.0
    for chunk in np.array_split(mus, max(1, len(mus) // 64)):
        bc = np.exp(log_root_p(x)[None, :] + log_root_q(x[None, :], chunk[:, None]))
        best = max(best, float(bc.sum(axis=1).max() * dx))
    return math.sqrt(max(0.0, 1.0 - best))


class TestMinimalHellingerMixtureBasins:
    """A mixture prior leaves one basin per separated component in the
    distance profile; the exact minimum is in the major component's."""

    @pytest.mark.parametrize("n, expected", [(30, 0.483), (50, 0.415)])
    def test_separated_normal_mixture_matches_dense_grid(self, continuous_model, n, expected):
        comps = [(0.8, -0.6, 0.08), (0.2, 0.6, 0.08)]
        hist = PriorSpec.mixture("normal", comps)
        sd = 1.0 / math.sqrt(n)
        got = minimal_hellinger(hist, PriorSpec.normal(0.0, sd), continuous_model)

        def log_root_p(x):
            return 0.5 * np.log(sum(w * stats.norm.pdf(x, m, s) for w, m, s in comps))

        def log_root_q(x, mu):
            return 0.5 * stats.norm.logpdf(x, mu, sd)

        want = dense_grid_hmin(log_root_p, log_root_q, np.linspace(-3.0, 3.0, 6001),
                               np.linspace(-1.5, 1.5, 1501))
        assert got == pytest.approx(want, abs=1e-4)
        assert got == pytest.approx(expected, abs=5e-4)

    def test_separated_beta_mixture_matches_dense_grid(self, binary_model):
        comps = [(0.8, 0.2, 100.0), (0.2, 0.7, 100.0)]
        hist = PriorSpec.mixture("beta", comps)
        phi = 31.0
        got = minimal_hellinger(hist, PriorSpec.beta(0.5, phi), binary_model)

        def log_root_p(x):
            return 0.5 * np.log(sum(w * stats.beta.pdf(x, m * p, (1 - m) * p)
                                    for w, m, p in comps))

        def log_root_q(x, mu):
            return 0.5 * stats.beta.logpdf(x, mu * phi, (1.0 - mu) * phi)

        x = np.linspace(0.0, 1.0, 10001)[1:-1]
        want = dense_grid_hmin(log_root_p, log_root_q, x, np.linspace(0.002, 0.998, 499))
        assert got == pytest.approx(want, abs=1e-4)

    def test_component_mean_beside_a_grid_point_keeps_the_refine_open(self, continuous_model):
        # the scan grid has a point at -5.6e-17, within rounding of the
        # component mean 0.0: a refine bracket reaching only to the best scan
        # point's neighbours would have no width on one side
        comps = [(0.5, 0.0, 0.05), (0.5, 0.6, 0.05)]
        hist = PriorSpec.mixture("normal", comps)
        sd = 1.0 / math.sqrt(50.0)
        got = minimal_hellinger(hist, PriorSpec.normal(0.0, sd), continuous_model)

        def log_root_p(x):
            return 0.5 * np.log(sum(w * stats.norm.pdf(x, m, s) for w, m, s in comps))

        def log_root_q(x, mu):
            return 0.5 * stats.norm.logpdf(x, mu, sd)

        want = dense_grid_hmin(log_root_p, log_root_q, np.linspace(-1.0, 1.6, 5201),
                               np.linspace(-0.5, 1.1, 1601))
        assert got == pytest.approx(want, abs=1e-4)


class TestNormalizedHellinger:
    def test_at_floor(self):
        assert normalized_hellinger(0.0888, 0.0888) == 0.0

    def test_at_ceiling(self):
        assert normalized_hellinger(1.0, 0.0888) == 1.0

    def test_arithmetic(self):
        assert normalized_hellinger(0.5, 0.0888) == pytest.approx(0.45127, abs=1e-4)

    def test_negative_differences_clamped(self):
        # the prior-mean shortcut can overshoot the true minimum
        assert normalized_hellinger(0.10, 0.12) == 0.0

    def test_floor_must_be_below_one(self):
        with pytest.raises(ValueError):
            normalized_hellinger(0.5, 1.0)


class TestSimilarityXi:
    def test_below_threshold(self):
        assert similarity_xi(0.2, SimilarityConfig(gamma=0.3)) == pytest.approx(0.8)

    def test_above_threshold(self):
        assert similarity_xi(0.35, SimilarityConfig(gamma=0.3)) == 0.0

    def test_boundary_inclusive(self):
        assert similarity_xi(0.3, SimilarityConfig(gamma=0.3)) == pytest.approx(0.7)

    def test_zero_gamma_sentinel(self):
        assert similarity_xi(0.0, SimilarityConfig(gamma=0.0)) == 0.0

    @given(h_star=st.floats(0.0, 1.0), gamma=st.floats(0.05, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_range(self, h_star, gamma):
        xi = similarity_xi(h_star, SimilarityConfig(gamma=gamma))
        assert xi == 0.0 or xi >= 1.0 - gamma
        assert 0.0 <= xi <= 1.0

    def test_non_increasing_in_distance(self):
        cfg = SimilarityConfig(gamma=0.4)
        values = [similarity_xi(h, cfg) for h in np.linspace(0.0, 1.0, 101)]
        assert all(b <= a for a, b in zip(values, values[1:]))


class TestPipeline:
    def test_zero_drift_is_floor_for_any_information(self, continuous_model):
        # at zero drift the normalized distance vanishes whatever the
        # historical information content
        for ess in (10.0, 30.0, 70.0, 200.0):
            hist = PriorSpec.normal(0.0, ess ** -0.5)
            state = assess_similarity(
                hist, DataSummary(50, 0.0), continuous_model, SimilarityConfig(gamma=0.3)
            )
            assert state.h_star == 0.0
            assert state.xi == 1.0

    def test_exact_mode_distance_never_beats_floor(self, continuous_model, binary_model,
                                                   two_normal_mixture):
        cfg = SimilarityConfig(gamma=0.3)
        rng = np.random.default_rng(20260809)
        hist_bin = PriorSpec.beta(0.3, 65.0)
        for _ in range(500):
            theta = rng.uniform(-1.0, 1.0)
            total = rng.normal(theta * 40, math.sqrt(40.0))
            state = assess_similarity(
                two_normal_mixture, DataSummary(40, total), continuous_model, cfg
            )
            assert state.h >= state.h_min - 1e-6
            assert 0.0 <= state.h_star <= 1.0
        for _ in range(500):
            p = rng.uniform(0.05, 0.95)
            s = rng.binomial(40, p)
            state = assess_similarity(hist_bin, DataSummary(40, float(s)), binary_model, cfg)
            assert state.h >= state.h_min - 1e-6
            assert state.xi == 0.0 or state.h_star <= cfg.gamma

    def test_state_bookkeeping(self, continuous_model):
        hist = PriorSpec.normal(0.0, 70.0 ** -0.5)
        state = assess_similarity(
            hist, DataSummary(30, 3.0), continuous_model, SimilarityConfig(gamma=0.3)
        )
        assert state.n_interim_control == 30
        assert state.interim_posterior.components[0].mean == pytest.approx(0.1)
        assert state.h_min <= state.h <= 1.0


class TestXiOfTotals:
    """The array rule against the scalar pipeline, draw by draw."""

    @staticmethod
    def _scalar(hist, n, totals, model, cfg):
        return np.array([assess_similarity(hist, DataSummary(n, float(s)), model, cfg).xi
                         for s in totals.tolist()])

    def test_binary_equals_scalar(self, binary_model):
        cfg = SimilarityConfig(gamma=0.3)
        rng = np.random.default_rng(25)
        for hist in (PriorSpec.beta(0.3, 65.0),
                     PriorSpec.mixture("beta", [(0.7, 0.3, 65.0), (0.3, 0.3, 10.0)])):
            totals = np.r_[np.arange(28), rng.binomial(27, 0.35, size=200)]
            xis = xi_of_totals(hist, 27, totals, binary_model, cfg)
            assert xis.tolist() == self._scalar(hist, 27, totals, binary_model, cfg).tolist()

    def test_normal_mixture_equals_scalar(self, continuous_model):
        hist = PriorSpec.mixture("normal", [(0.7, 0.0, 0.15), (0.3, 0.1, 0.3)])
        totals = np.random.default_rng(26).normal(0.1 * 20, math.sqrt(20.0), size=300)
        for mode in (similarity.EXACT, similarity.PRIOR_MEAN_APPROX):
            cfg = SimilarityConfig(gamma=0.3, hmin_mode=mode)
            xis = xi_of_totals(hist, 20, totals, continuous_model, cfg)
            want = self._scalar(hist, 20, totals, continuous_model, cfg)
            assert xis.tolist() == want.tolist()

    def test_single_normal_within_rounding_and_same_decisions(self, continuous_model):
        # the case-study prior at n1c = 16, drifts of up to 0.8 sd either way,
        # so that the draws straddle every gamma's cut
        hist = PriorSpec.normal(-50.0 / 88.0, 18.0 / 88.0)
        rng = np.random.default_rng(27)
        theta = hist.mean() + rng.uniform(-0.8, 0.8, size=100_000)
        totals = rng.normal(theta * 16, 4.0)
        cfg = SimilarityConfig(gamma=0.3)
        xis = xi_of_totals(hist, 16, totals, continuous_model, cfg)
        want = self._scalar(hist, 16, totals, continuous_model, cfg)
        assert np.abs(xis - want).max() <= 1e-12
        assert ((xis > 0.0) == (want > 0.0)).all()
        assert 0.2 < (want > 0.0).mean() < 0.8

    def test_zero_gamma_borrows_nothing(self, continuous_model):
        hist = PriorSpec.normal(0.0, 0.1)
        xis = xi_of_totals(hist, 16, np.zeros(5), continuous_model, SimilarityConfig(gamma=0.0))
        assert xis.tolist() == [0.0] * 5

    def test_too_few_patients_rejected(self, continuous_model):
        with pytest.raises(ValueError, match="at least 2"):
            xi_of_totals(PriorSpec.normal(0.0, 0.1), 1, np.zeros(3), continuous_model,
                         SimilarityConfig(gamma=0.3))
