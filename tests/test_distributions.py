import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from hctrial import (
    DataSummary,
    OutcomeModel,
    PriorSpec,
    delta_point_and_interval,
    hellinger_beta,
    hellinger_normal,
    hellinger_numeric,
    posterior_update,
    prob_delta_positive,
)

from numeric_oracles import (
    beta_difference_quantile_oracle,
    beta_hellinger_oracle,
    normal_hellinger_oracle,
)

means = st.floats(-3.0, 3.0)
sds = st.floats(0.02, 5.0)
beta_means = st.floats(0.02, 0.98)
precisions = st.floats(0.5, 500.0)


class TestPriorSpec:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            PriorSpec.mixture("normal", [(0.5, 0.0, 1.0), (0.4, 1.0, 1.0)])

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError, match="scale"):
            PriorSpec.normal(0.0, 0.0)

    def test_beta_mean_open_interval(self):
        with pytest.raises(ValueError, match="mean"):
            PriorSpec.beta(1.0, 10.0)

    def test_mixture_moments(self):
        mix = PriorSpec.mixture("normal", [(0.25, -1.0, 0.5), (0.75, 1.0, 0.5)])
        assert mix.mean() == pytest.approx(0.5)
        # law of total variance
        assert mix.variance() == pytest.approx(0.25 + 0.25 * 2.25 + 0.75 * 0.25)


class TestPosteriorUpdate:
    def test_normal_single(self, continuous_model):
        post = posterior_update(
            PriorSpec.normal(0.0, 1.0), DataSummary(100, 30.0), continuous_model
        )
        c = post.components[0]
        assert c.mean == pytest.approx(30.0 / 101.0)
        assert c.scale == pytest.approx(1.0 / math.sqrt(101.0))

    def test_beta_single(self, binary_model):
        post = posterior_update(
            PriorSpec.beta(0.5, 1.0), DataSummary(30, 10.0), binary_model
        )
        a, b = post.beta_shapes()
        assert float(a[0]) == pytest.approx(10.5)
        assert float(b[0]) == pytest.approx(20.5)

    def test_identical_components_keep_weights(self, continuous_model):
        prior = PriorSpec.mixture("normal", [(0.5, 0.3, 0.7), (0.5, 0.3, 0.7)])
        post = posterior_update(prior, DataSummary(40, 11.0), continuous_model)
        assert post.components[0].weight == pytest.approx(0.5)
        assert post.components[1].weight == pytest.approx(0.5)

    def test_empty_data_returns_prior(self, continuous_model):
        prior = PriorSpec.normal(0.2, 0.4)
        assert posterior_update(prior, DataSummary(0, 0.0), continuous_model) is prior

    def test_family_mismatch(self, binary_model):
        with pytest.raises(ValueError, match="family"):
            posterior_update(PriorSpec.normal(0, 1), DataSummary(5, 2.0), binary_model)

    @given(
        w=st.floats(0.05, 0.95),
        m1=means, m2=means, s1=sds, s2=sds,
        n1=st.integers(1, 40), n2=st.integers(1, 40),
        y1=st.floats(-20, 20), y2=st.floats(-20, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_equals_pooled_normal(self, w, m1, m2, s1, s2, n1, n2, y1, y2):
        model = OutcomeModel("continuous")
        prior = PriorSpec.mixture("normal", [(w, m1, s1), (1.0 - w, m2, s2)])
        seq = posterior_update(
            posterior_update(prior, DataSummary(n1, y1), model),
            DataSummary(n2, y2), model,
        )
        pooled = posterior_update(prior, DataSummary(n1 + n2, y1 + y2), model)
        for cs, cp in zip(seq.components, pooled.components):
            assert cs.weight == pytest.approx(cp.weight, abs=1e-10)
            assert cs.mean == pytest.approx(cp.mean, abs=1e-10)
            assert cs.scale == pytest.approx(cp.scale, abs=1e-10)

    @given(
        w=st.floats(0.05, 0.95),
        m1=beta_means, m2=beta_means, p1=precisions, p2=precisions,
        n1=st.integers(1, 40), n2=st.integers(1, 40),
        f1=st.floats(0, 1), f2=st.floats(0, 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_equals_pooled_beta(self, w, m1, m2, p1, p2, n1, n2, f1, f2):
        model = OutcomeModel("binary")
        prior = PriorSpec.mixture("beta", [(w, m1, p1), (1.0 - w, m2, p2)])
        s1, s2 = round(n1 * f1), round(n2 * f2)
        seq = posterior_update(
            posterior_update(prior, DataSummary(n1, s1), model),
            DataSummary(n2, s2), model,
        )
        pooled = posterior_update(prior, DataSummary(n1 + n2, s1 + s2), model)
        for cs, cp in zip(seq.components, pooled.components):
            assert cs.weight == pytest.approx(cp.weight, abs=1e-10)
            assert cs.mean == pytest.approx(cp.mean, abs=1e-10)
            assert cs.scale == pytest.approx(cp.scale, abs=1e-10)


class TestHellingerClosedForms:
    def test_identical_normals_give_zero(self):
        p = PriorSpec.normal(0.0, 0.1)
        assert hellinger_normal(p, p) == 0.0

    def test_normal_example(self):
        h = hellinger_normal(PriorSpec.normal(0.2, 0.1), PriorSpec.normal(0.0, 0.1))
        assert h * h == pytest.approx(1.0 - math.exp(-0.04 / 0.08), abs=1e-12)
        assert h == pytest.approx(0.6272713450, abs=1e-6)
        assert h == pytest.approx(normal_hellinger_oracle(0.2, 0.1, 0.0, 0.1), abs=1e-6)

    def test_normal_information_mismatch_floor(self):
        h = hellinger_normal(
            PriorSpec.normal(0.0, 0.1), PriorSpec.normal(0.0, 1.0 / math.sqrt(70.0))
        )
        assert h == pytest.approx(0.0888, abs=5e-4)
        assert h == pytest.approx(
            normal_hellinger_oracle(0.0, 0.1, 0.0, 70.0 ** -0.5), abs=1e-6
        )

    def test_normal_monotone_in_drift(self):
        s_i, s_h = 0.1, 1.0 / math.sqrt(70.0)
        grid = [
            hellinger_normal(PriorSpec.normal(d, s_i), PriorSpec.normal(0.0, s_h))
            for d in np.arange(0.0, 1.0001, 0.05)
        ]
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_identical_betas_give_zero(self):
        p = PriorSpec.beta(0.3, 65.0)
        assert hellinger_beta(p, p) == 0.0

    def test_beta_against_quadrature(self):
        h = hellinger_beta(PriorSpec.beta(0.3, 65.0), PriorSpec.beta(0.5, 31.0))
        assert h == pytest.approx(
            beta_hellinger_oracle(0.3 * 65, 0.7 * 65, 0.5 * 31, 0.5 * 31), abs=1e-6
        )

    def test_beta_oracle_refuses_shapes_below_one(self):
        with pytest.raises(ValueError, match="shapes"):
            beta_hellinger_oracle(0.5, 0.5, 2.0, 2.0)

    def test_beta_mean_shift_monotonicity(self):
        base = PriorSpec.beta(0.5, 2.0)
        near = hellinger_beta(base, PriorSpec.beta(0.6, 2.0))
        far = hellinger_beta(base, PriorSpec.beta(0.9, 2.0))
        assert far > near

    def test_beta_survives_large_precision(self):
        # the naive ratio of beta functions overflows well before phi = 5000
        h = hellinger_beta(PriorSpec.beta(0.3, 5000.0), PriorSpec.beta(0.31, 5000.0))
        assert 0.0 < h < 1.0

    @given(m1=means, s1=sds, m2=means, s2=sds)
    @settings(max_examples=80, deadline=None)
    def test_normal_symmetry_and_bounds(self, m1, s1, m2, s2):
        p, q = PriorSpec.normal(m1, s1), PriorSpec.normal(m2, s2)
        h = hellinger_normal(p, q)
        assert h == hellinger_normal(q, p)
        assert 0.0 <= h <= 1.0

    @given(m1=beta_means, p1=precisions, m2=beta_means, p2=precisions)
    @settings(max_examples=80, deadline=None)
    def test_beta_symmetry_and_bounds(self, m1, p1, m2, p2):
        p, q = PriorSpec.beta(m1, p1), PriorSpec.beta(m2, p2)
        h = hellinger_beta(p, q)
        assert h == hellinger_beta(q, p)
        assert 0.0 <= h <= 1.0


class TestHellingerNumeric:
    def test_identity_mixture(self):
        mix = PriorSpec.mixture("normal", [(0.3, -1.0, 0.4), (0.7, 0.5, 1.2)])
        assert hellinger_numeric(mix, mix) <= 1e-6

    def test_matches_normal_closed_form(self):
        p, q = PriorSpec.normal(0.2, 0.1), PriorSpec.normal(-0.3, 0.5)
        assert hellinger_numeric(p, q) == pytest.approx(hellinger_normal(p, q), abs=1e-6)

    def test_matches_beta_closed_form(self):
        p, q = PriorSpec.beta(0.3, 65.0), PriorSpec.beta(0.55, 12.0)
        assert hellinger_numeric(p, q) == pytest.approx(hellinger_beta(p, q), abs=1e-6)

    @pytest.mark.parametrize("m1, p1, m2, p2", [
        # Beta(0.5, 0.5) vs Beta(0.9375, 0.0625): endpoint mass of (1-x)^(b-1)
        (0.5, 1.0, 0.9375, 1.0),
        # Beta(0.5, 0.5) vs Beta(0.25, 0.25): singular at both ends
        (0.5, 1.0, 0.5, 0.5),
    ])
    def test_matches_beta_closed_form_below_unit_shapes(self, m1, p1, m2, p2):
        p, q = PriorSpec.beta(m1, p1), PriorSpec.beta(m2, p2)
        assert hellinger_numeric(p, q) == pytest.approx(hellinger_beta(p, q), abs=1e-6)

    def test_beta_mixture_of_equal_components_matches_closed_form(self):
        # shape 0.14 on the left: the mixture path crosses the singular end
        mix = PriorSpec.mixture("beta", [(0.4, 0.2, 0.7), (0.6, 0.2, 0.7)])
        q = PriorSpec.beta(0.85, 3.0)
        assert hellinger_numeric(mix, q) == pytest.approx(
            hellinger_beta(PriorSpec.beta(0.2, 0.7), q), abs=1e-6
        )

    def test_mixture_vs_independent_oracle(self, two_normal_mixture):
        from scipy.stats import norm as norm_dist

        def mix_pdf(x):
            return (0.539 * norm_dist(0.00027, 0.2006).pdf(x)
                    + 0.461 * norm_dist(-0.00031, 0.0672).pdf(x))

        probe = PriorSpec.normal(0.15, 0.2)
        from numeric_oracles import hellinger_oracle
        want = hellinger_oracle(mix_pdf, norm_dist(0.15, 0.2).pdf, -2.5, 2.5)
        assert hellinger_numeric(two_normal_mixture, probe) == pytest.approx(want, abs=1e-6)

    def test_support_mismatch_rejected(self):
        with pytest.raises(ValueError, match="support"):
            hellinger_numeric(PriorSpec.normal(0, 1), PriorSpec.beta(0.4, 4.0))


class TestProbDeltaPositive:
    def test_symmetric_continuous(self, continuous_model):
        p = PriorSpec.normal(0.3, 0.2)
        assert prob_delta_positive(p, p, continuous_model) == pytest.approx(0.5)

    def test_symmetric_binary(self, binary_model):
        p = PriorSpec.beta(0.4, 20.0)
        assert prob_delta_positive(p, p, binary_model) == pytest.approx(0.5, abs=1e-6)

    def test_gaussian_closed_form(self, continuous_model):
        prob = prob_delta_positive(
            PriorSpec.normal(0.2, 0.1), PriorSpec.normal(0.0, 0.1), continuous_model
        )
        assert prob == pytest.approx(norm.cdf(0.2 / math.sqrt(0.02)), abs=1e-9)
        assert prob == pytest.approx(0.9214, abs=2e-4)

    def test_binary_against_monte_carlo(self, binary_model):
        post_t = PriorSpec.beta(20.5 / 31.0, 31.0)   # Beta(20.5, 10.5)
        post_c = PriorSpec.beta(10.5 / 31.0, 31.0)   # Beta(10.5, 20.5)
        prob = prob_delta_positive(post_t, post_c, binary_model)
        rng = np.random.default_rng(20260809)
        draws_t = rng.beta(20.5, 10.5, 1_000_000)
        draws_c = rng.beta(10.5, 20.5, 1_000_000)
        mc = float((draws_t > draws_c).mean())
        se = math.sqrt(mc * (1 - mc) / 1e6)
        assert abs(prob - mc) < 3 * se

    def test_binary_shapes_below_one_against_monte_carlo(self, binary_model):
        # at shape 0.05 about 28% of the control mass and 13% of the treatment
        # mass lie below the 1e-12 clip of the quadrature's integrand
        post_t = PriorSpec.beta(0.5, 0.1)   # Beta(0.05, 0.05)
        post_c = PriorSpec.beta(0.01, 5.0)  # Beta(0.05, 4.95)
        prob = prob_delta_positive(post_t, post_c, binary_model)
        rng = np.random.default_rng(20261018)
        draws_t = rng.beta(0.05, 0.05, 1_000_000)
        draws_c = rng.beta(0.05, 4.95, 1_000_000)
        mc = float((draws_t > draws_c).mean())
        se = math.sqrt(mc * (1 - mc) / 1e6)
        assert abs(prob - mc) < 4 * se

    def test_complement_continuous(self, continuous_model):
        a = PriorSpec.mixture("normal", [(0.4, 0.1, 0.3), (0.6, -0.2, 0.15)])
        b = PriorSpec.normal(0.05, 0.2)
        total = (prob_delta_positive(a, b, continuous_model)
                 + prob_delta_positive(b, a, continuous_model))
        assert total == pytest.approx(1.0, abs=1e-6)


class TestDeltaPointAndInterval:
    def test_symmetric_posteriors(self, continuous_model):
        p = PriorSpec.normal(0.1, 0.25)
        point, lo, hi = delta_point_and_interval(p, p, continuous_model)
        assert point == 0.0
        assert lo == pytest.approx(-hi, abs=1e-7)

    def test_gaussian_closed_form(self, continuous_model):
        point, lo, hi = delta_point_and_interval(
            PriorSpec.normal(0.4, 0.1), PriorSpec.normal(0.0, 0.1), continuous_model
        )
        half = norm.ppf(0.975) * math.sqrt(0.02)
        assert point == pytest.approx(0.4)
        assert lo == pytest.approx(0.4 - half, abs=1e-6)
        assert hi == pytest.approx(0.4 + half, abs=1e-6)

    def test_binary_against_large_oracle(self, binary_model):
        post_t = PriorSpec.beta(20.5 / 31.0, 31.0)
        post_c = PriorSpec.beta(10.5 / 31.0, 31.0)
        point, lo, hi = delta_point_and_interval(post_t, post_c, binary_model)
        assert point == pytest.approx(10.0 / 31.0, abs=1e-12)
        rng = np.random.default_rng(123)
        oracle = rng.beta(20.5, 10.5, 10_000_000) - rng.beta(10.5, 20.5, 10_000_000)
        o_lo, o_hi = np.quantile(oracle, [0.025, 0.975])
        assert lo == pytest.approx(o_lo, abs=4e-3)
        assert hi == pytest.approx(o_hi, abs=4e-3)
        assert lo < point < hi

    # (weight, a, b) triples of the treatment and control posteriors
    @pytest.mark.parametrize("treatment, control", [
        pytest.param([(1.0, 20.5, 10.5)], [(1.0, 10.5, 20.5)], id="moderate"),
        # zero successes in 90 and 45 patients on Beta(0.5, 0.5) and
        # Beta(0.3, 1) priors: a shape of 0.5 puts a singularity at 0
        pytest.param([(1.0, 0.5, 90.5)], [(1.0, 0.3, 45.7)], id="zero-successes"),
        pytest.param([(0.7, 21.0, 41.0), (0.3, 36.0, 24.0)], [(1.0, 15.0, 45.0)],
                     id="two-component-mixture"),
        pytest.param([(1.0, 10200.0, 9800.0)], [(1.0, 9900.0, 10100.0)],
                     id="precision-2e4"),
    ])
    def test_binary_against_quadrature_oracle(self, binary_model, treatment, control):
        def spec(parts):
            return PriorSpec.mixture("beta", [(w, a / (a + b), a + b) for w, a, b in parts])

        _, lo, hi = delta_point_and_interval(spec(treatment), spec(control), binary_model)
        assert lo == pytest.approx(
            beta_difference_quantile_oracle(treatment, control, 0.025), abs=1e-4)
        assert hi == pytest.approx(
            beta_difference_quantile_oracle(treatment, control, 0.975), abs=1e-4)

    def test_level_validated(self, continuous_model):
        p = PriorSpec.normal(0.0, 1.0)
        with pytest.raises(ValueError, match="level"):
            delta_point_and_interval(p, p, continuous_model, level=1.0)
