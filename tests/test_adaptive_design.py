import dataclasses
import math
import warnings

import numpy as np
import pytest

from hctrial import (
    DesignConfig,
    EssValue,
    OutcomeModel,
    PriorSpec,
    SimilarityConfig,
    adjust_control_prior,
    elir_ess,
    final_decision,
    prob_delta_positive,
    rescale_to_ess,
    stage2_sizes,
)


def make_design(variant="design1", n=200, r=1.0, t=0.5, lam=1.0, gamma=0.3):
    return DesignConfig(
        variant=variant, n_total=n, allocation_ratio=r, t=t, lam=lam,
        eta=0.975, similarity=SimilarityConfig(gamma=gamma),
    )


class TestStageTwoSizes:
    def test_no_borrowing_keeps_plan(self):
        plan = stage2_sizes(make_design(t=0.5), 0.0)
        assert (plan.n2_control, plan.n2_treatment, plan.n_saved) == (50, 50, 0)
        assert plan.allocation_ratio_stage2 == 1.0

    def test_full_borrowing_drops_all_controls(self):
        plan = stage2_sizes(make_design(t=0.5, lam=1.0), 1.0)
        assert (plan.n2_control, plan.n2_treatment, plan.n_saved) == (0, 50, 50)
        assert plan.allocation_ratio_stage2 == math.inf

    def test_reallocation_with_capped_ratio(self):
        plan = stage2_sizes(make_design(variant="design2", t=0.5, lam=2.0), 1.0)
        assert (plan.n2_control, plan.n2_treatment) == (25, 75)
        assert plan.allocation_ratio_stage2 == pytest.approx(3.0)
        # cap formula for the stage-2 ratio: (lam R + 1) / (lam - 1)
        assert plan.allocation_ratio_stage2 == pytest.approx((2 * 1 + 1) / (2 - 1))

    def test_monotone_in_xi_and_lam(self):
        for lam in (1.0, 2.0, 4.0, 8.0):
            design = make_design(t=0.4, lam=lam)
            sizes = [stage2_sizes(design, xi).n2_control for xi in np.linspace(0, 1, 51)]
            assert all(b <= a for a, b in zip(sizes, sizes[1:]))
        for xi in np.linspace(0.0, 1.0, 11):
            by_lam = [stage2_sizes(make_design(t=0.4, lam=lam), xi).n2_control
                      for lam in (1.0, 2.0, 4.0, 8.0)]
            assert all(b >= a for a, b in zip(by_lam, by_lam[1:]))

    def test_design2_conserves_total(self):
        for t in (0.3, 0.4, 0.5, 0.6):
            design = make_design(variant="design2", t=t, lam=2.0)
            for xi in np.linspace(0.0, 1.0, 101):
                plan = stage2_sizes(design, xi)
                total = (design.n_stage1_total + plan.n2_control + plan.n2_treatment)
                assert total == design.n_total

    def test_saved_bound(self):
        for t in (0.3, 0.6):
            for lam in (1.0, 2.0):
                design = make_design(t=t, lam=lam)
                cap = (1 - t) * design.n_total / 2
                for xi in np.linspace(0.0, 1.0, 21):
                    saved = stage2_sizes(design, xi).n_saved
                    assert 0 <= saved <= cap
                    if saved == cap:
                        assert xi == 1.0 and lam == 1.0

    def test_xi_out_of_range(self):
        with pytest.raises(ValueError):
            stage2_sizes(make_design(), 1.5)


class TestDesignConfigValidation:
    def test_fractional_interim_size_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            make_design(n=201, t=0.5)

    def test_lam_below_one_rejected(self):
        with pytest.raises(ValueError, match="lam"):
            make_design(lam=0.5)

    def test_full_loss_lam_warns(self):
        with pytest.warns(UserWarning, match="lam = 1 permits a full loss"):
            make_design(lam=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            make_design(lam=2.0)

    def test_lam_one_notice_names_the_caller_of_replace(self):
        design = make_design(lam=2.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            dataclasses.replace(design, lam=1.0)
        assert [w.filename for w in caught if "lam = 1" in str(w.message)] == [__file__]

    def test_tiny_stage1_control_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            DesignConfig(variant="design1", n_total=20, allocation_ratio=1.0,
                         t=0.1, lam=1.0, eta=0.975, similarity=SimilarityConfig())

    def test_stage1_split_gives_spare_patient_to_treatment(self):
        design = DesignConfig(variant="design1", n_total=150, allocation_ratio=2.0,
                              t=0.3, lam=2.0, eta=0.975,
                              similarity=SimilarityConfig(gamma=0.3))
        # 45 stage-1 patients at 1:1 -> 22 control, 23 treatment
        assert design.n_stage1_control == 22
        assert design.n_stage1_treatment == 23


class TestAdjustControlPrior:
    def test_normal_closed_form(self, continuous_model):
        hist = PriorSpec.normal(0.0, 1.0 / math.sqrt(70.0))
        out = adjust_control_prior(hist, 35, continuous_model)
        assert out.components[0].scale == pytest.approx(1.0 / math.sqrt(35.0), rel=1e-12)

    def test_zero_saved_forces_one_patient(self, continuous_model):
        hist = PriorSpec.normal(0.0, 1.0 / math.sqrt(70.0))
        out = adjust_control_prior(hist, 0, continuous_model)
        assert elir_ess(out, continuous_model).value == pytest.approx(1.0, abs=0.01)
        assert out.components[0].mean == 0.0

    def test_beta_closed_form(self, binary_model):
        out = adjust_control_prior(PriorSpec.beta(0.3, 65.0), 13, binary_model)
        assert out.components[0].scale == pytest.approx(13.0, rel=1e-12)
        assert out.components[0].mean == 0.3

    def test_binary_fallback_prior(self, binary_model):
        out = adjust_control_prior(
            PriorSpec.beta(0.3, 65.0), 0, binary_model, binary_simple_fallback=True
        )
        a, b = out.beta_shapes()
        assert (float(a[0]), float(b[0])) == (0.5, 0.5)
        # fallback only fires when nothing was saved
        kept = adjust_control_prior(
            PriorSpec.beta(0.3, 65.0), 13, binary_model, binary_simple_fallback=True
        )
        assert kept.components[0].mean == 0.3

    def test_ess_round_trip_over_saved_counts(self, continuous_model):
        hist = PriorSpec.normal(0.1, 1.0 / math.sqrt(70.0))
        for k in (0, 10, 35, 50):
            out = adjust_control_prior(hist, k, continuous_model)
            assert elir_ess(out, continuous_model).value == pytest.approx(
                max(k, 1), abs=0.01
            )

    def test_repeat_is_cache_hit_equal_to_uncached_rescale(self, continuous_model):
        hist = PriorSpec.mixture("normal", [(0.8, -0.6, 0.08), (0.2, 0.6, 0.08)])
        first = adjust_control_prior(hist, 17, continuous_model)
        hits = adjust_control_prior.cache_info().hits
        again = adjust_control_prior(hist, 17, continuous_model)
        assert adjust_control_prior.cache_info().hits == hits + 1
        assert again is first
        assert first == rescale_to_ess(hist, EssValue(17.0), continuous_model)


class TestFinalDecision:
    def test_threshold_is_strict(self, continuous_model):
        post_t = PriorSpec.normal(0.3, 0.1)
        post_c = PriorSpec.normal(0.0, 0.1)
        prob = prob_delta_positive(post_t, post_c, continuous_model)
        assert final_decision(post_t, post_c, continuous_model, eta=prob) == (False, prob)
        assert final_decision(post_t, post_c, continuous_model, eta=prob - 1e-9)[0] is True

    def test_symmetric_case_fails(self, continuous_model):
        p = PriorSpec.normal(0.2, 0.15)
        success, prob = final_decision(p, p, continuous_model, eta=0.975)
        assert success is False
        assert prob == pytest.approx(0.5)

    def test_clear_win(self, continuous_model):
        success, prob = final_decision(
            PriorSpec.normal(0.5, 0.05), PriorSpec.normal(0.0, 0.05),
            continuous_model, eta=0.975,
        )
        assert success is True and prob > 0.999


class TestSampleSizeUtilities:
    def test_continuous_reference(self):
        from hctrial import normal_two_arm_size

        assert normal_two_arm_size(0.4) == 99

    def test_binary_reference(self):
        from hctrial import binary_two_arm_size

        assert binary_two_arm_size(0.3, 0.5) == 91
