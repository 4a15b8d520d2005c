import math

import numpy as np
import pytest

import hctrial.distributions as distributions
from hctrial import adaptive_design, similarity
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc
from scipy.stats import norm

from hctrial import (
    DataSummary,
    OutcomeModel,
    PriorSpec,
    delta_point_and_interval,
    elir_ess,
    hellinger_beta,
    hellinger_normal,
    hellinger_numeric,
    posterior_update,
    prob_delta_positive,
)

from numeric_oracles import (
    beta_difference_quantile_oracle,
    beta_hellinger_oracle,
    beta_success_probability_oracle,
    hellinger_oracle,
    normal_difference_quantile_oracle,
    normal_hellinger_oracle,
    normal_mixture_breakpoints,
    normal_mixture_pdf,
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
    def test_failed_beta_quadrature_names_the_densities(self, disagreeing_fixed_rule):
        mix = PriorSpec.mixture("beta", [(0.5, 0.25, 8.0), (0.5, 0.5, 4.0)])
        with pytest.raises(distributions.NumericsError) as info:
            hellinger_numeric(mix, PriorSpec.beta(0.5, 20.0))
        message = str(info.value)
        assert message.startswith("hellinger quadrature did not converge")
        assert message.endswith(
            "for densities [(0.5, 2.0, 6.0), (0.5, 2.0, 2.0)]; [(1.0, 10.0, 10.0)]")

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
        # and shapes from 0.05 to 200 on both sides
        rng = np.random.default_rng(20261022)
        for _ in range(40):
            a, b, c, d = np.exp(rng.uniform(math.log(0.05), math.log(200.0), 4))
            w = rng.uniform(0.1, 0.9)
            single, other = _beta_spec([(1.0, a, b)]), _beta_spec([(1.0, c, d)])
            doubled = _beta_spec([(w, a, b), (1.0 - w, a, b)])
            assert hellinger_numeric(doubled, other) == pytest.approx(
                hellinger_beta(single, other), abs=1e-9)

    def test_beta_mixture_steep_near_both_ends(self):
        # a U-shaped control component beside one piled up near 1, against a
        # narrow treatment near 0; the value is what adaptive quadrature gave
        treatment = _beta_spec([(1.0, 9.41, 106.2)])
        control = _beta_spec([(0.159, 0.237, 0.184), (0.841, 46.2, 1.44)])
        assert hellinger_numeric(treatment, control) == pytest.approx(
            0.9341823478769113, abs=1e-9)

    def test_mixture_vs_independent_oracle(self, two_normal_mixture):
        from scipy.stats import norm as norm_dist

        def mix_pdf(x):
            return (0.539 * norm_dist(0.00027, 0.2006).pdf(x)
                    + 0.461 * norm_dist(-0.00031, 0.0672).pdf(x))

        probe = PriorSpec.normal(0.15, 0.2)
        want = hellinger_oracle(mix_pdf, norm_dist(0.15, 0.2).pdf, -2.5, 2.5)
        assert hellinger_numeric(two_normal_mixture, probe) == pytest.approx(want, abs=1e-6)

    def test_support_mismatch_rejected(self):
        with pytest.raises(ValueError, match="support"):
            hellinger_numeric(PriorSpec.normal(0, 1), PriorSpec.beta(0.4, 4.0))

    # separated mixtures whose component sd runs from 1/20 of the interim
    # posterior's sd to 3 times it, against interim posteriors at n = 25, 30
    @pytest.mark.parametrize("interim_sd", [0.2, 30.0 ** -0.5])
    @pytest.mark.parametrize("sd_ratio", [0.05, 0.4, 1.0, 3.0])
    @pytest.mark.parametrize("interim_mean", [-3.0, -0.6, 0.0, 0.3, 3.0])
    def test_normal_mixture_against_oracle(self, interim_sd, sd_ratio, interim_mean):
        mix = [(0.8, -0.6, sd_ratio * interim_sd), (0.2, 0.6, sd_ratio * interim_sd)]
        interim = [(1.0, interim_mean, interim_sd)]
        want = hellinger_oracle(normal_mixture_pdf(mix), normal_mixture_pdf(interim),
                                *normal_mixture_breakpoints(mix, interim))
        got = hellinger_numeric(PriorSpec.mixture("normal", mix),
                                PriorSpec.mixture("normal", interim))
        assert got == pytest.approx(want, abs=1e-10)


class TestFixedNormalRule:
    def test_disagreeing_rules_raise(self):
        # a step between breakpoints: the 24- and 12-node rules disagree
        with pytest.raises(distributions.NumericsError, match="did not converge"):
            distributions._normal_integral(lambda x: (x > 0.3) * 1.0,
                                           (PriorSpec.normal(0.0, 1.0),), 1e-8, "step")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_raises(self, bad):
        # inf times a zero weight of the other rule is nan
        with np.errstate(invalid="ignore"), \
                pytest.raises(distributions.NumericsError, match="did not converge"):
            distributions._normal_integral(lambda x: np.where(x > 0.0, bad, 0.0),
                                           (PriorSpec.normal(0.0, 1.0),), 1e-8, "nan")

    def test_error_names_the_densities(self, disagreeing_fixed_rule):
        mix = PriorSpec.mixture("normal", [(0.8, -0.6, 0.08), (0.2, 0.6, 0.08)])
        with pytest.raises(distributions.NumericsError) as info:
            hellinger_numeric(mix, PriorSpec.normal(0.1, 0.2))
        message = str(info.value)
        assert message.startswith("hellinger quadrature did not converge")
        assert message.endswith(
            "for densities [(0.8, -0.6, 0.08), (0.2, 0.6, 0.08)]; [(1.0, 0.1, 0.2)]")

    def test_work_is_bounded_by_the_components(self):
        # 13 breakpoints per component, whatever the ratio of the sds
        seen = []

        def integrand(x):
            seen.append(x.shape)
            return np.zeros(x.shape)

        wide_and_narrow = (PriorSpec.mixture("normal", [(0.5, 0.0, 1e-3), (0.5, 0.0, 1e3)]),
                           PriorSpec.normal(5.0, 1.0))
        distributions._normal_integral(integrand, wide_and_narrow, 1e-8, "count")
        assert seen == [(3 * 13 - 2, 36)]  # the two breakpoints at 0 coincide


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
        # mass lie below x = 1e-12
        post_t = PriorSpec.beta(0.5, 0.1)   # Beta(0.05, 0.05)
        post_c = PriorSpec.beta(0.01, 5.0)  # Beta(0.05, 4.95)
        prob = prob_delta_positive(post_t, post_c, binary_model)
        rng = np.random.default_rng(20261018)
        draws_t = rng.beta(0.05, 0.05, 1_000_000)
        draws_c = rng.beta(0.05, 4.95, 1_000_000)
        mc = float((draws_t > draws_c).mean())
        se = math.sqrt(mc * (1 - mc) / 1e6)
        assert abs(prob - mc) < 4 * se
        # the fixed rule reaches that mass through its endpoint substitution
        oracle = beta_success_probability_oracle([(1.0, 0.05, 0.05)], [(1.0, 0.05, 4.95)])
        assert abs(prob - oracle) < 1e-6

    @pytest.mark.parametrize("treatment, control", [
        ([(1.0, 0.5, 90.5)], [(1.0, 27.5, 63.5)]),
        ([(1.0, 0.5, 90.5)], [(1.0, 0.5, 45.5)]),
        ([(1.0, 0.5, 90.5)], [(1.0, 0.3, 45.7)]),
        ([(1.0, 90.5, 0.5)], [(1.0, 60.5, 30.5)]),
        ([(1.0, 0.3, 0.7)], [(1.0, 0.5, 0.5)]),
        ([(0.5, 0.3, 0.7), (0.5, 32.0, 8.0)], [(1.0, 12.0, 18.0)]),
    ], ids=["zero_vs_mid", "zero_vs_zero", "zero_vs_shape_0.3", "all_vs_mid",
            "both_u_shaped", "mixture"])
    def test_binary_shapes_below_one_against_oracle(self, binary_model, treatment, control):
        # posteriors a campaign reaches: a prior of shape below 1 after 0 or
        # all successes, and the shapes themselves
        def prior(parts):
            return PriorSpec.mixture("beta", [(w, a / (a + b), a + b) for w, a, b in parts])

        prob = prob_delta_positive(prior(treatment), prior(control), binary_model)
        assert abs(prob - beta_success_probability_oracle(treatment, control)) < 1e-9

    def test_binary_random_pairs_against_oracle(self, binary_model):
        parts = _random_beta_parts(np.random.default_rng(20261021), 120, smallest=0.05)
        for treatment, control in zip(parts[::2], parts[1::2]):
            prob = prob_delta_positive(_beta_spec(treatment), _beta_spec(control), binary_model)
            assert abs(prob - beta_success_probability_oracle(treatment, control)) < 1e-9

    def test_binary_large_precision_against_oracle(self, binary_model):
        # the oracle's density is one exp of a log, which holds at precision 2e4
        treatment, control = [(1.0, 10200.0, 9800.0)], [(1.0, 9900.0, 10100.0)]
        prob = prob_delta_positive(_beta_spec(treatment), _beta_spec(control), binary_model)
        assert abs(prob - beta_success_probability_oracle(treatment, control)) < 1e-9
        assert prob == pytest.approx(0.99865082208742, abs=1e-11)

    def test_binary_makes_no_adaptive_quadrature(self, binary_model, monkeypatch):
        monkeypatch.setattr(distributions, "integrate", None)
        for treatment, control in (([(1.0, 46.5, 44.5)], [(1.0, 24.5, 65.5)]),
                                   ([(1.0, 0.05, 0.05)], [(1.0, 0.05, 4.95)])):
            distributions._prob_positive_beta.__wrapped__(_beta_spec(treatment),
                                                          _beta_spec(control))
        mixture = _beta_spec([(0.7, 19.5, 45.5), (0.3, 3.0, 7.0)])
        hellinger_numeric(mixture, _beta_spec([(1.0, 0.05, 4.95)]))
        elir_ess(mixture, binary_model)

    def test_disagreeing_rules_name_both_posteriors(self, binary_model,
                                                    disagreeing_fixed_rule):
        distributions._prob_positive_beta.cache_clear()
        post_t = PriorSpec.mixture("beta", [(0.5, 0.25, 8.0), (0.5, 0.5, 4.0)])
        with pytest.raises(distributions.NumericsError) as info:
            prob_delta_positive(post_t, PriorSpec.beta(0.5, 20.0), binary_model)
        message = str(info.value)
        assert message.startswith("success-probability quadrature did not converge")
        assert message.endswith(
            "for densities [(0.5, 2.0, 6.0), (0.5, 2.0, 2.0)]; [(1.0, 10.0, 10.0)]")

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

    @pytest.fixture
    def brentq_calls(self, monkeypatch):
        calls, brentq = [], distributions.brentq

        def counted(*args, **kwargs):
            calls.append(args)
            return brentq(*args, **kwargs)

        monkeypatch.setattr(distributions, "brentq", counted)
        return calls

    @pytest.mark.parametrize("level", [0.8, 0.95, 0.99])
    def test_single_normal_closed_form_against_oracle(self, continuous_model, level,
                                                      brentq_calls):
        rng = np.random.default_rng(20261019)
        q_lo, q_hi = 0.5 * (1.0 - level), 0.5 * (1.0 + level)
        for mt, mc, st_, sc in zip(rng.uniform(-3.0, 3.0, 200), rng.uniform(-3.0, 3.0, 200),
                                   rng.uniform(0.01, 2.0, 200), rng.uniform(0.01, 2.0, 200)):
            treatment, control = [(1.0, mt, st_)], [(1.0, mc, sc)]
            point, lo, hi = delta_point_and_interval(
                PriorSpec.normal(mt, st_), PriorSpec.normal(mc, sc), continuous_model, level)
            assert point == mt - mc
            assert lo == pytest.approx(
                normal_difference_quantile_oracle(treatment, control, q_lo), abs=1e-10)
            assert hi == pytest.approx(
                normal_difference_quantile_oracle(treatment, control, q_hi), abs=1e-10)
        assert brentq_calls == []

    @pytest.mark.parametrize("treatment, control", [
        pytest.param((0.4, 0.1), (0.0, 0.1), id="moderate"),
        pytest.param((-1.3, 0.02), (0.7, 0.5), id="unequal-sds"),
    ])
    def test_identical_halves_root_find_to_the_closed_form(self, continuous_model,
                                                           brentq_calls, treatment, control):
        def halves(mean, sd):
            return PriorSpec.mixture("normal", [(0.5, mean, sd), (0.5, mean, sd)])

        single = delta_point_and_interval(
            PriorSpec.normal(*treatment), PriorSpec.normal(*control), continuous_model)
        assert brentq_calls == []
        mixed = delta_point_and_interval(halves(*treatment), halves(*control), continuous_model)
        assert len(brentq_calls) == 2
        assert mixed == pytest.approx(single, abs=1e-8)

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


BINARY_CACHES = (distributions._lattice_masses, distributions._prob_positive_beta,
                 distributions._lattice_interval, distributions._beta_breaks)


def _beta_spec(parts):
    """A beta mixture from (weight, a, b) triples."""
    return PriorSpec.mixture("beta", [(w, a / (a + b), a + b) for w, a, b in parts])


def _random_beta_parts(rng, count, smallest=0.1):
    """(weight, a, b) triples of beta posteriors with shapes from ``smallest``
    to 200, every third a two-component mixture."""
    out = []
    for i in range(count):
        a, b = np.exp(rng.uniform(math.log(smallest), math.log(200.0), (2, 2)))
        w = rng.uniform(0.1, 0.9)
        out.append([(w, a[0], b[0]), (1.0 - w, a[1], b[1])] if i % 3 == 2
                   else [(1.0, a[0], b[0])])
    return out


class TestBinaryAnalysisCaches:
    @pytest.fixture(autouse=True)
    def cleared(self):
        for cache in BINARY_CACHES:
            cache.cache_clear()

    @staticmethod
    def _uncached_interval(monkeypatch, post_t, post_c):
        with monkeypatch.context() as m:
            m.setattr(distributions, "_lattice_masses", distributions._lattice_masses.__wrapped__)
            return (post_t.mean() - post_c.mean(),
                    *distributions._lattice_interval.__wrapped__(post_t, post_c, 0.95))

    def test_hits_equal_the_uncached_computation(self, binary_model, monkeypatch):
        # every treatment posterior meets every control posterior, so a cache
        # keyed on less than the whole pair would return another pair's value
        parts = _random_beta_parts(np.random.default_rng(20261020), 8)
        prob_cache, interval_cache = (distributions._prob_positive_beta,
                                      distributions._lattice_interval)
        for parts_t in parts[:4]:
            for parts_c in parts[4:]:
                post_t, post_c = _beta_spec(parts_t), _beta_spec(parts_c)
                want_prob = prob_cache.__wrapped__(post_t, post_c)
                want_interval = self._uncached_interval(monkeypatch, post_t, post_c)
                assert prob_delta_positive(post_t, post_c, binary_model) == want_prob
                assert delta_point_and_interval(post_t, post_c, binary_model) == want_interval

                # equal values, new objects: the second call is a hit
                again_t, again_c = _beta_spec(parts_t), _beta_spec(parts_c)
                hits = prob_cache.cache_info().hits, interval_cache.cache_info().hits
                assert prob_delta_positive(again_t, again_c, binary_model) == want_prob
                assert delta_point_and_interval(again_t, again_c, binary_model) == want_interval
                assert (prob_cache.cache_info().hits, interval_cache.cache_info().hits) == (
                    hits[0] + 1, hits[1] + 1)

    def test_lattice_masses_read_only_and_exact(self):
        edges = np.linspace(0.0, 1.0, 4097)
        for parts in _random_beta_parts(np.random.default_rng(7), 6):
            post = _beta_spec(parts)
            masses = distributions._lattice_masses(post)
            with pytest.raises(ValueError, match="read-only"):
                masses[0] = 0.0
            cdf = np.zeros(4097)
            for c, a, b in zip(post.components, *post.beta_shapes()):
                cdf += c.weight * betainc(a, b, edges)
            np.testing.assert_array_equal(masses, np.diff(cdf))
            assert masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_cached_breaks_are_shared_not_extended(self, binary_model):
        # a control component far narrower than the treatment adds its own
        # breakpoints to the treatment's panels, on a copy of the cached set
        treatment, control = PriorSpec.beta(0.4, 20.0), PriorSpec.beta(0.45, 100.0)
        key = (treatment.components[0], distributions._BETA_PANEL_SDS)
        breaks = distributions._beta_breaks(*key)
        assert isinstance(breaks[0], frozenset)
        prob_delta_positive(treatment, control, binary_model)
        assert distributions._beta_breaks(*key) == breaks
        hits = distributions._beta_breaks.cache_info().hits
        hellinger_numeric(treatment, control)
        hellinger_numeric(treatment, PriorSpec.beta(0.3, 50.0))
        # the second distance places only the new density's breakpoints
        assert distributions._beta_breaks.cache_info().hits == hits + 1

    def test_continuous_calls_leave_binary_caches_alone(self, continuous_model):
        sizes = [cache.cache_info().currsize for cache in BINARY_CACHES]
        single, mixture = (PriorSpec.normal(0.2, 0.1),
                           PriorSpec.mixture("normal", [(0.4, 0.1, 0.3), (0.6, -0.2, 0.15)]))
        for post_t, post_c in ((single, single), (mixture, single)):
            prob_delta_positive(post_t, post_c, continuous_model)
            delta_point_and_interval(post_t, post_c, continuous_model)
        assert [cache.cache_info().currsize for cache in BINARY_CACHES] == sizes

    def test_every_cache_is_bounded(self):
        for cache in (*BINARY_CACHES, adaptive_design.adjust_control_prior,
                      similarity._minimal_hellinger_cached):
            assert cache.cache_info().maxsize is not None
