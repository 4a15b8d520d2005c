import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hctrial import EssValue, NumericsError, OutcomeModel, PriorSpec, elir_ess, ess, rescale_to_ess
from numeric_oracles import elir_oracle


class TestClosedForms:
    def test_unit_normal_worth_one_patient(self, continuous_model):
        assert elir_ess(PriorSpec.normal(0.3, 1.0), continuous_model).value == pytest.approx(1.0)

    def test_normal_worth_seventy(self, continuous_model):
        prior = PriorSpec.normal(0.0, 1.0 / math.sqrt(70.0))
        assert elir_ess(prior, continuous_model).value == pytest.approx(70.0)

    def test_beta_worth_its_precision(self, binary_model):
        assert elir_ess(PriorSpec.beta(0.3, 65.0), binary_model).value == pytest.approx(65.0)

    @given(sd=st.floats(0.05, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_normal_inverse_variance(self, sd):
        got = elir_ess(PriorSpec.normal(0.0, sd), OutcomeModel("continuous")).value
        assert got == pytest.approx(1.0 / sd**2, rel=1e-3)

    @given(mean=st.floats(0.05, 0.95), phi=st.floats(0.5, 400.0))
    @settings(max_examples=40, deadline=None)
    def test_beta_total_precision(self, mean, phi):
        got = elir_ess(PriorSpec.beta(mean, phi), OutcomeModel("binary")).value
        assert got == pytest.approx(phi, rel=1e-3)


class TestMixtures:
    def test_centered_mixture_worth_seventy(self, two_normal_mixture, continuous_model):
        assert elir_ess(two_normal_mixture, continuous_model).value == pytest.approx(70.0, abs=0.1)

    def test_mixture_quadrature_matches_single_limit(self, continuous_model):
        # two identical components behave exactly like one
        single = PriorSpec.normal(0.4, 0.2)
        doubled = PriorSpec.mixture("normal", [(0.5, 0.4, 0.2), (0.5, 0.4, 0.2)])
        want = elir_ess(single, continuous_model).value
        assert elir_ess(doubled, continuous_model).value == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("components", [
        [(0.5, 0.0, 0.01), (0.5, 0.0, 1.0)],
        [(0.3, -1.0, 0.02), (0.7, 1.0, 2.0)],
        [(0.2, 0.0, 0.05), (0.5, 0.3, 0.5), (0.3, -2.0, 5.0)],
        [(0.6, -0.6, 0.005), (0.4, 0.6, 0.5)],
        [(0.8, -0.6, 0.08), (0.2, 0.6, 0.08)],
    ], ids=["nested", "apart", "three", "narrow_major", "separated"])
    def test_normal_mixture_against_oracle(self, continuous_model, components):
        got = elir_ess(PriorSpec.mixture("normal", components), continuous_model).value
        assert got == pytest.approx(elir_oracle(components), rel=1e-8)

    def test_disagreeing_rules_name_the_prior(self, continuous_model, disagreeing_fixed_rule):
        mix = PriorSpec.mixture("normal", [(0.8, -0.6, 0.08), (0.2, 0.6, 0.08)])
        with pytest.raises(NumericsError) as info:
            elir_ess(mix, continuous_model)
        message = str(info.value)
        assert message.startswith("effective-sample-size quadrature did not converge")
        assert message.endswith("for densities [(0.8, -0.6, 0.08), (0.2, 0.6, 0.08)]")

    def test_failed_beta_quadrature_names_the_prior(self, binary_model, disagreeing_fixed_rule):
        mix = PriorSpec.mixture("beta", [(0.5, 0.25, 40.0), (0.5, 0.5, 20.0)])
        with pytest.raises(NumericsError) as info:
            elir_ess(mix, binary_model)
        message = str(info.value)
        assert message.startswith("effective-sample-size quadrature did not converge")
        assert message.endswith("for densities [(0.5, 10.0, 30.0), (0.5, 10.0, 10.0)]")

    def test_beta_mixture_quadrature(self, binary_model):
        mix = PriorSpec.mixture("beta", [(0.6, 0.3, 65.0), (0.4, 0.45, 30.0)])
        got = elir_ess(mix, binary_model).value
        # between the component precisions, nearer the dominant one
        assert 25.0 < got < 55.0


def _beta_mixture(parts):
    """A beta mixture from (weight, a, b) triples."""
    return PriorSpec.mixture("beta", [(w, a / (a + b), a + b) for w, a, b in parts])


class TestBetaMixtureOracle:
    """The beta-mixture ELIR against 40-digit mpmath quadratures of both its
    defining form and the form by parts, which agree to 15 digits on each
    case, and against the closed form a + b of duplicated components."""

    @pytest.mark.parametrize("exponent", range(1, 10))
    def test_duplicated_components_near_unit_shapes(self, binary_model, exponent):
        shape = 1.0 + 10.0 ** -exponent
        for a, b in ((shape, 3.0), (3.0, shape), (shape, 30.0)):
            mix = _beta_mixture([(0.5, a, b), (0.5, a, b)])
            assert elir_ess(mix, binary_model).value == pytest.approx(a + b, abs=1e-4)

    @pytest.mark.parametrize("parts, want", [
        ([(0.75, 1.46, 1.14), (0.25, 59.6, 33.5)], 11.2855417381632),
        ([(0.34, 104.0, 1.05), (0.66, 3.7, 9.4)], 44.36138714817),
        ([(0.7, 3.7, 9.4), (0.3, 104.0, 1.05)], 40.6834062333003),
        ([(0.5, 1.0 + 1e-9, 3.0), (0.5, 4.0, 2.5)], 3.1869067556),
        ([(0.6, 1.0 + 1e-5, 40.0), (0.4, 3.0, 1.0 + 1e-5)], 25.4637066609),
        ([(0.3, 20.0, 1.0 + 1e-7), (0.7, 1.5, 30.0)], 28.3498626047),
    ], ids=["mixed_shapes", "steep_upper_end", "steep_upper_end_swapped",
            "shape_1e-9_above_one", "shapes_1e-5_above_one", "shape_1e-7_above_one"])
    def test_against_mpmath(self, binary_model, parts, want):
        assert elir_ess(_beta_mixture(parts), binary_model).value == pytest.approx(want, abs=1e-6)


class TestRescaling:
    def test_normal_half_information(self, continuous_model):
        prior = PriorSpec.normal(0.0, 1.0 / math.sqrt(70.0))
        out = rescale_to_ess(prior, EssValue(35.0), continuous_model)
        assert out.components[0].scale == pytest.approx(1.0 / math.sqrt(35.0), rel=1e-12)
        assert out.components[0].mean == 0.0

    def test_beta_target_is_new_precision(self, binary_model):
        out = rescale_to_ess(PriorSpec.beta(0.3, 65.0), EssValue(13.0), binary_model)
        assert out.components[0].scale == pytest.approx(13.0, rel=1e-12)
        assert out.components[0].mean == 0.3

    def test_mixture_round_trip(self, two_normal_mixture, continuous_model):
        out = rescale_to_ess(two_normal_mixture, EssValue(35.0), continuous_model)
        assert elir_ess(out, continuous_model).value == pytest.approx(35.0, abs=0.01)
        for c_out, c_in in zip(out.components, two_normal_mixture.components):
            assert c_out.mean == c_in.mean

    @pytest.mark.parametrize("target", [1.0, 5.0, 20.0, 70.0])
    def test_round_trip_targets_normal(self, target, two_normal_mixture, continuous_model):
        single = PriorSpec.normal(0.1, 0.25)
        for prior in (single, two_normal_mixture):
            out = rescale_to_ess(prior, EssValue(target), continuous_model)
            assert elir_ess(out, continuous_model).value == pytest.approx(target, abs=0.01)

    @pytest.mark.parametrize("target", [5.0, 20.0, 70.0])
    def test_round_trip_targets_beta(self, target, binary_model):
        # mixture targets below the floor, about 3.00 patients here, would push
        # a component shape to 1 or under and are clamped to it
        single = PriorSpec.beta(0.35, 40.0)
        mix = PriorSpec.mixture("beta", [(0.5, 0.3, 65.0), (0.5, 0.4, 35.0)])
        for prior in (single, mix):
            out = rescale_to_ess(prior, EssValue(target), binary_model)
            assert elir_ess(out, binary_model).value == pytest.approx(target, abs=0.01)

    @pytest.mark.parametrize("parts, want", [
        ([(0.7, 0.3, 65.0), (0.3, 0.3, 10.0)], 11.29),
        ([(0.5, 0.3, 65.0), (0.5, 0.4, 35.0)], 3.00),
        ([(0.8, 0.3, 60.0), (0.2, 0.5, 6.0)], 12.77),
    ])
    def test_beta_mixture_target_below_floor_clamped(self, binary_model, parts, want):
        # (weight, mean, precision): the scale factor stops where the
        # smallest shape reaches 1 + 1e-9, and a lower target gets that
        # prior; by parts, its ELIR there is above 2
        mix = PriorSpec.mixture("beta", parts)
        a, b = mix.beta_shapes()
        v_min = (1.0 + 1e-9) / float(min(a.min(), b.min()))
        out = rescale_to_ess(mix, EssValue(1.0), binary_model)
        assert out.means().tolist() == mix.means().tolist()
        assert out.weights().tolist() == mix.weights().tolist()
        assert out.scales() == pytest.approx(mix.scales() * v_min, rel=1e-15)
        floor = elir_ess(out, binary_model).value
        assert 2.0 < floor == pytest.approx(want, abs=0.01)
        above = rescale_to_ess(mix, EssValue(floor + 0.5), binary_model)
        assert elir_ess(above, binary_model).value == pytest.approx(floor + 0.5, abs=0.01)

    def test_target_below_one_clamped(self, continuous_model):
        prior = PriorSpec.normal(0.0, 0.2)
        out = rescale_to_ess(prior, EssValue(0.0), continuous_model)
        assert elir_ess(out, continuous_model).value == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("kind, family, components, constant, named", [
        ("continuous", "normal", [(0.8, -0.6, 0.08), (0.2, 0.6, 0.08)], 500.0,
         "[(0.8, -0.6, 0.08), (0.2, 0.6, 0.08)]"),
        ("binary", "beta", [(0.5, 0.25, 40.0), (0.5, 0.5, 20.0)], 5.0,
         "[(0.5, 10.0, 30.0), (0.5, 10.0, 10.0)]"),
    ], ids=["above_target", "below_target"])
    def test_unbracketed_target_names_the_prior(self, monkeypatch, kind, family, components,
                                                constant, named):
        # an ESS that ignores the scale factor leaves no root to bracket
        monkeypatch.setattr(ess, "elir_ess", lambda prior, model: EssValue(constant))
        with pytest.raises(NumericsError) as info:
            rescale_to_ess(PriorSpec.mixture(family, components), EssValue(50.0),
                           OutcomeModel(kind))
        message = str(info.value)
        assert message.startswith("cannot bracket a scale factor")
        assert message.endswith(f"for target 50.0 patients for prior {named}")

    def test_negative_ess_rejected(self):
        with pytest.raises(ValueError):
            EssValue(-1.0)
