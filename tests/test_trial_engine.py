import math

import numpy as np
import pytest
from scipy.stats import binom

from hctrial import (
    DataSummary,
    DesignConfig,
    NumericsError,
    OutcomeModel,
    PriorSpec,
    Scenario,
    SimilarityConfig,
    assess_similarity,
    run_campaign,
    simulate_comparator,
    simulate_trial,
    stage2_sizes,
)
import hctrial.trial_engine as trial_engine
from hctrial.trial_engine import _replicate_stream, _response_pools


def make_scenario(theta_c=0.0, theta_t=0.4, t=0.3, gamma=0.3, lam=1.0,
                  variant="design1", reps=20, seed=31, kind="continuous",
                  hist=None, n=200):
    model = OutcomeModel(kind)
    if hist is None:
        hist = (PriorSpec.normal(0.0, 70.0 ** -0.5) if kind == "continuous"
                else PriorSpec.beta(0.3, 65.0))
    treat = (PriorSpec.normal(0.0, 1.0) if kind == "continuous"
             else PriorSpec.beta(0.5, 1.0))
    design = DesignConfig(variant=variant, n_total=n, allocation_ratio=1.0, t=t,
                          lam=lam, eta=0.975, similarity=SimilarityConfig(gamma=gamma))
    return Scenario(model=model, theta_control=theta_c, theta_treatment=theta_t,
                    historical_prior=hist, treatment_prior=treat, design=design,
                    replications=reps, seed=seed)


class TestDeterminism:
    def test_same_stream_same_result(self):
        sc = make_scenario()
        a = simulate_trial(sc, np.random.default_rng(1234))
        b = simulate_trial(sc, np.random.default_rng(1234))
        assert a == b

    def test_comparator_deterministic(self):
        sc = make_scenario()
        a = simulate_comparator(sc, np.random.default_rng(99))
        b = simulate_comparator(sc, np.random.default_rng(99))
        assert a == b

    def test_binary_trial_deterministic(self):
        sc = make_scenario(theta_c=0.3, theta_t=0.5, kind="binary", n=180)
        a = simulate_trial(sc, np.random.default_rng(5))
        b = simulate_trial(sc, np.random.default_rng(5))
        assert a == b

    def test_campaign_matches_manual_replicates(self):
        sc = make_scenario(reps=8)
        ocs = run_campaign([sc], paired_comparator=False)
        manual = [simulate_trial(sc, _replicate_stream(sc.seed, 0, r)).n_saved
                  for r in range(8)]
        assert ocs[0].mean_saved == pytest.approx(float(np.mean(manual)))

    def test_worker_count_invariance(self):
        sc = make_scenario(reps=12)
        a = run_campaign([sc], paired_comparator=True, workers=1)
        b = run_campaign([sc], paired_comparator=True, workers=2)
        assert a == b

    def test_binary_worker_count_invariance(self):
        # each worker process keeps its own cache of binary analyses
        scenarios = [make_scenario(theta_c=0.3, theta_t=th, kind="binary", n=180, reps=40)
                     for th in (0.3, 0.5)]
        a = run_campaign(scenarios, paired_comparator=True, workers=1)
        b = run_campaign(scenarios, paired_comparator=True, workers=2)
        assert a == b

    def test_worker_count_capped_at_cpu_count(self, monkeypatch):
        # the stub pool records its size and maps serially, so no process starts
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, chunksize=1):
                return map(fn, iterable)

        monkeypatch.setattr(trial_engine, "ProcessPoolExecutor", SerialPool)
        sc = make_scenario(reps=6)
        want = run_campaign([sc], paired_comparator=True, workers=1)
        monkeypatch.setattr(trial_engine.os, "cpu_count", lambda: 4)
        assert run_campaign([sc], paired_comparator=True, workers=64) == want
        monkeypatch.setattr(trial_engine.os, "cpu_count", lambda: None)
        assert run_campaign([sc], paired_comparator=True, workers=64) == want
        assert sizes == [4]


class TestBookkeeping:
    def test_design1_total_is_n_minus_saved(self):
        sc = make_scenario(reps=30)
        for r in range(30):
            res = simulate_trial(sc, _replicate_stream(sc.seed, 0, r))
            (n1c, n1t), (n2c, n2t) = res.arm_sizes
            assert n1c + n1t + n2c + n2t == sc.design.n_total - res.n_saved

    def test_design2_total_is_n(self):
        sc = make_scenario(variant="design2", lam=2.0, reps=30)
        for r in range(30):
            res = simulate_trial(sc, _replicate_stream(sc.seed, 0, r))
            (n1c, n1t), (n2c, n2t) = res.arm_sizes
            assert n1c + n1t + n2c + n2t == sc.design.n_total

    def test_interval_contains_point(self):
        sc = make_scenario(reps=10)
        for r in range(10):
            res = simulate_trial(sc, _replicate_stream(sc.seed, 0, r))
            lo, hi = res.delta_interval
            assert lo <= res.delta_point <= hi

    def test_comparator_arm_sizes(self):
        sc = make_scenario()
        res = simulate_comparator(sc, np.random.default_rng(0))
        assert res.arm_sizes == ((100, 100), (0, 0))
        assert res.n_saved == 0 and res.xi == 0.0


class TestExactSavedCount:
    """Binary null point of acceptance criterion 10 (t = 0.3, N = 180, no drift)."""

    @staticmethod
    def _saved_by_successes(sc):
        design = sc.design
        n1c = design.n_stage1_control
        return [
            stage2_sizes(design, assess_similarity(
                sc.historical_prior, DataSummary(n1c, float(s)), sc.model, design.similarity,
            ).xi).n_saved
            for s in range(n1c + 1)
        ]

    def test_saved_depends_only_on_stage1_successes(self):
        sc = make_scenario(theta_c=0.3, theta_t=0.3, kind="binary", n=180)
        saved = self._saved_by_successes(sc)
        n1c = sc.design.n_stage1_control
        for r in range(10):
            res = simulate_trial(sc, _replicate_stream(sc.seed, 0, r))
            resp = _replicate_stream(sc.seed, 0, r).spawn(1)[0]
            control, _ = _response_pools(sc, resp)
            assert res.n_saved == saved[int(control[:n1c].sum())]

    def test_expected_saved_by_enumeration(self):
        # E[n_saved] = sum over S ~ Bin(27, 0.3) of pmf(S) * n_saved(S); the
        # frozen value of acceptance criterion 10 rests on this sum
        sc = make_scenario(theta_c=0.3, theta_t=0.3, kind="binary", n=180)
        n1c = sc.design.n_stage1_control
        assert n1c == 27
        saved = self._saved_by_successes(sc)
        expected = sum(binom.pmf(s, n1c, 0.3) * v for s, v in enumerate(saved))
        assert expected == pytest.approx(39.7752, abs=1e-4)

    def test_beta_mixture_simulated_saved_within_4_se(self):
        # a beta-mixture historical prior, whose ELIR floor (about 11.3
        # patients) is above many of the saved counts the campaign meets
        hist = PriorSpec.mixture("beta", [(0.7, 0.3, 65.0), (0.3, 0.3, 10.0)])
        sc = make_scenario(theta_c=0.3, theta_t=0.3, kind="binary", n=180, hist=hist,
                           reps=400)
        n1c = sc.design.n_stage1_control
        pmf = binom.pmf(np.arange(n1c + 1), n1c, 0.3)
        saved = np.array(self._saved_by_successes(sc), dtype=float)
        exact = float(pmf @ saved)
        se = (float(pmf @ (saved - exact) ** 2) / sc.replications) ** 0.5
        assert 0 < exact and se > 0
        oc = run_campaign([sc], paired_comparator=False, workers=1)[0]
        assert abs(oc.mean_saved - exact) < 4 * se


class TestBorrowingDisabled:
    def test_zero_gamma_equals_comparator_analysis(self):
        # with borrowing disabled and a zero-mean historical prior, the
        # adaptive trial runs the comparator's analysis on the same draws
        sc = make_scenario(theta_c=0.15, theta_t=0.55, gamma=0.0)
        for r in range(10):
            resp = _replicate_stream(sc.seed, 0, r).spawn(1)[0]
            from hctrial.trial_engine import _response_pools, _run_adaptive, _run_comparator

            pools = _response_pools(sc, resp)
            adaptive = _run_adaptive(sc, pools)
            comp = _run_comparator(sc, pools)
            assert adaptive.xi == 0.0
            assert adaptive.n_saved == 0
            assert adaptive.arm_sizes[0] == (30, 30)
            assert adaptive.posterior_prob == pytest.approx(comp.posterior_prob, abs=1e-9)
            assert adaptive.success == comp.success
            assert adaptive.delta_point == pytest.approx(comp.delta_point, abs=1e-9)


class TestAggregation:
    def test_paired_fields_populated(self):
        sc = make_scenario(reps=40)
        oc = run_campaign([sc], paired_comparator=True)[0]
        assert oc.comparator_rejection_rate is not None
        assert oc.rejection_rate_diff == pytest.approx(
            oc.rejection_rate - oc.comparator_rejection_rate
        )
        assert 0.0 <= oc.rejection_rate <= 1.0
        assert oc.rejection_rate_se <= 0.5 / math.sqrt(40)

    def test_unpaired_fields_none(self):
        sc = make_scenario(reps=10)
        oc = run_campaign([sc], paired_comparator=False)[0]
        assert oc.comparator_rejection_rate is None
        assert oc.rejection_rate_diff is None

    def test_empty_scenario_list_rejected(self):
        with pytest.raises(ValueError):
            run_campaign([], paired_comparator=False)

    def test_binary_campaign_smoke(self):
        sc = make_scenario(theta_c=0.3, theta_t=0.5, kind="binary", n=180, reps=8)
        oc = run_campaign([sc], paired_comparator=True)[0]
        assert oc.replications == 8
        assert oc.mean_ci_length > 0


class TestPairedComparator:
    def test_rate_is_mean_of_simulated_comparators(self):
        sc = make_scenario(reps=24)
        oc = run_campaign([sc], paired_comparator=True)[0]
        comp = [simulate_comparator(sc, _replicate_stream(sc.seed, 0, r)).success
                for r in range(24)]
        assert 0 < sum(comp) < 24
        assert oc.comparator_rejection_rate == float(np.mean(comp))
        adaptive = [simulate_trial(sc, _replicate_stream(sc.seed, 0, r)).success
                    for r in range(24)]
        diff = np.array(adaptive, dtype=float) - np.array(comp, dtype=float)
        assert oc.rejection_rate_diff == float(diff.mean())


class TestErrorContext:
    def test_numerics_error_names_scenario_and_replicate(self, monkeypatch):
        calls = []

        def failing(*args, **kwargs):
            calls.append(args)
            if len(calls) == 5:
                raise NumericsError("hellinger quadrature did not converge")
            return assess_similarity(*args, **kwargs)

        monkeypatch.setattr(trial_engine, "assess_similarity", failing)
        sc = make_scenario(reps=3)
        with pytest.raises(NumericsError) as info:
            run_campaign([sc, sc], paired_comparator=True, workers=1)
        assert str(info.value) == (
            "scenario 1, replicate 1: hellinger quadrature did not converge"
        )
        assert isinstance(info.value.__cause__, NumericsError)

    def test_fixed_rule_error_names_densities_scenario_and_replicate(
            self, disagreeing_fixed_rule):
        hist = PriorSpec.mixture("normal", [(0.8, -0.6, 0.08), (0.2, 0.6, 0.08)])
        with pytest.raises(NumericsError) as info:
            run_campaign([make_scenario(reps=2, hist=hist)], paired_comparator=False, workers=1)
        message = str(info.value)
        assert message.startswith("scenario 0, replicate 0: hellinger quadrature did not converge")
        assert "for densities [(0.8, -0.6, 0.08), (0.2, 0.6, 0.08)]; [(1.0, " in message


class TestScenarioValidation:
    def test_binary_theta_bounds(self):
        with pytest.raises(ValueError, match="theta_control"):
            make_scenario(theta_c=1.2, theta_t=0.5, kind="binary", n=180)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            make_scenario(seed=-1)
