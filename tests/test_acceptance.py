"""Acceptance suite: every quantitative target the package commits to,
checked at its stated tolerance and printed as one PASS/FAIL line each.

Replication counts follow the reference scale of 5000 trials per grid point,
so this module takes several minutes on one core.  Criterion 8 pins the
bundled case-study calibration table produced with a single-normal stand-in
for the original mixture prior; the observed deviations are printed in full.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hctrial as h
from hctrial import (
    CalibrationGrid,
    DataSummary,
    DesignConfig,
    EssValue,
    OutcomeModel,
    PriorSpec,
    Scenario,
    SimilarityConfig,
)
from hctrial.cli import RunManifest, run as cli_run
from hctrial.similarity import minimal_hellinger, normalized_hellinger, similarity_xi

pytestmark = pytest.mark.acceptance

SEED = 20260809
REPS = 5000

CONTINUOUS = OutcomeModel("continuous")
BINARY = OutcomeModel("binary")
HIST_NORMAL = PriorSpec.normal(0.0, 1.0 / math.sqrt(70.0))
TREAT_NORMAL = PriorSpec.normal(0.0, 1.0)
HIST_BETA = PriorSpec.beta(0.3, 65.0)
TREAT_BETA = PriorSpec.beta(0.5, 1.0)
MIXTURE_PRIOR = PriorSpec.mixture(
    "normal", [(0.539, 0.00027, 0.2006), (0.461, -0.00031, 0.0672)]
)

# binary reference effect: 0.3 -> 0.5 fixed on the log-odds scale
_LOGODDS_SHIFT = math.log(0.5 / 0.5) - math.log(0.3 / 0.7)

_campaign_cache: dict = {}


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} — {detail}")


def _design(t, gamma=0.3, lam=1.0, n=200, variant="design1"):
    return DesignConfig(variant=variant, n_total=n, allocation_ratio=1.0, t=t,
                        lam=lam, eta=0.975, similarity=SimilarityConfig(gamma=gamma))


def _continuous_point(t, d, effect, gamma=0.3, lam=1.0):
    return Scenario(
        model=CONTINUOUS, theta_control=d, theta_treatment=d + effect,
        historical_prior=HIST_NORMAL, treatment_prior=TREAT_NORMAL,
        design=_design(t, gamma=gamma, lam=lam), replications=REPS, seed=SEED,
    )


def _binary_point(t, d, alternative):
    p_c = 0.3 + d
    p_t = (1.0 / (1.0 + math.exp(-(_LOGODDS_SHIFT + math.log(p_c / (1 - p_c)))))
           if alternative else p_c)
    return Scenario(
        model=BINARY, theta_control=p_c, theta_treatment=p_t,
        historical_prior=HIST_BETA, treatment_prior=TREAT_BETA,
        design=_design(t, n=180), replications=REPS, seed=SEED,
    )


def _run_point(key, scenario):
    if key not in _campaign_cache:
        _campaign_cache[key] = h.run_campaign([scenario], paired_comparator=True)[0]
    return _campaign_cache[key]


# ---------------------------------------------------------------------------
# 1. closed-form distances agree with the density-integral oracle
# ---------------------------------------------------------------------------


class TestC01OracleEquivalence:
    @given(m1=st.floats(-3, 3), s1=st.floats(0.02, 5), m2=st.floats(-3, 3),
           s2=st.floats(0.02, 5))
    @settings(max_examples=250, deadline=None, derandomize=True)
    def test_normal_closed_form_vs_quadrature(self, m1, s1, m2, s2):
        p, q = PriorSpec.normal(m1, s1), PriorSpec.normal(m2, s2)
        assert h.hellinger_normal(p, q) == pytest.approx(
            h.hellinger_numeric(p, q), abs=1e-6
        )

    @given(m1=st.floats(0.02, 0.98), p1=st.floats(0.5, 500),
           m2=st.floats(0.02, 0.98), p2=st.floats(0.5, 500))
    @settings(max_examples=250, deadline=None, derandomize=True)
    def test_beta_closed_form_vs_quadrature(self, m1, p1, m2, p2):
        p, q = PriorSpec.beta(m1, p1), PriorSpec.beta(m2, p2)
        assert h.hellinger_beta(p, q) == pytest.approx(
            h.hellinger_numeric(p, q), abs=1e-6
        )

    def test_report(self):
        _report("1 oracle equivalence",
                True, "closed forms vs quadrature, 2 x 250 random pairs, 1e-6")


# ---------------------------------------------------------------------------
# 2. information content: closed forms and rescale round trips
# ---------------------------------------------------------------------------


class TestC02EffectiveSampleSize:
    def test_quadrature_matches_closed_forms(self):
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for _ in range(50):
            sd = float(rng.uniform(0.05, 3.0))
            # duplicated components force the quadrature path
            mix = PriorSpec.mixture("normal", [(0.5, 0.2, sd), (0.5, 0.2, sd)])
            got = h.elir_ess(mix, CONTINUOUS).value
            worst = max(worst, abs(got - 1.0 / sd**2) / (1.0 / sd**2))
        for _ in range(50):
            mean = float(rng.uniform(0.1, 0.9))
            phi = float(rng.uniform(3.0, 300.0))
            mix = PriorSpec.mixture("beta", [(0.5, mean, phi), (0.5, mean, phi)])
            got = h.elir_ess(mix, BINARY).value
            worst = max(worst, abs(got - phi) / phi)
        ok = worst < 1e-3
        _report("2 ESS closed forms", ok, f"worst relative error {worst:.2e} (tol 1e-3)")
        assert ok

    def test_rescale_round_trips(self):
        rng = np.random.default_rng(SEED + 1)
        worst = 0.0
        for _ in range(50):
            prior = PriorSpec.normal(float(rng.normal()), float(rng.uniform(0.05, 2.0)))
            target = float(rng.uniform(1.0, 150.0))
            out = h.rescale_to_ess(prior, EssValue(target), CONTINUOUS)
            worst = max(worst, abs(h.elir_ess(out, CONTINUOUS).value - target))
        for _ in range(50):
            prior = PriorSpec.beta(float(rng.uniform(0.1, 0.9)),
                                   float(rng.uniform(2.0, 200.0)))
            target = float(rng.uniform(1.0, 150.0))
            out = h.rescale_to_ess(prior, EssValue(target), BINARY)
            worst = max(worst, abs(h.elir_ess(out, BINARY).value - target))
        out = h.rescale_to_ess(MIXTURE_PRIOR, EssValue(35.0), CONTINUOUS)
        worst = max(worst, abs(h.elir_ess(out, CONTINUOUS).value - 35.0))
        ok = worst <= 0.01
        _report("2 ESS rescale round-trip", ok, f"worst gap {worst:.4f} patients (tol 0.01)")
        assert ok


# ---------------------------------------------------------------------------
# 3. patients saved under perfect historical agreement
# ---------------------------------------------------------------------------


class TestC03SavedPatients:
    def test_saved_at_null(self):
        early = _run_point(("c", 0.3, 0.0, "null"), _continuous_point(0.3, 0.0, 0.0))
        late = _run_point(("c", 0.6, 0.0, "null"), _continuous_point(0.6, 0.0, 0.0))
        ok = abs(early.mean_saved - 43.0) <= 3.0 and abs(late.mean_saved - 22.0) <= 3.0
        _report("3 saved patients", ok,
                f"t=0.3: {early.mean_saved:.1f} (want 43±3), "
                f"t=0.6: {late.mean_saved:.1f} (want 22±3)")
        assert ok


# ---------------------------------------------------------------------------
# 4. power shift against the comparator at the earliest interim
# ---------------------------------------------------------------------------


class TestC04PowerDifferences:
    def test_power_differences(self):
        low = _run_point(("c", 0.3, -0.2, "alt"), _continuous_point(0.3, -0.2, 0.4))
        high = _run_point(("c", 0.3, 0.1, "alt"), _continuous_point(0.3, 0.1, 0.4))
        ok = (abs(low.rejection_rate_diff - (-0.18)) <= 0.03
              and abs(high.rejection_rate_diff - 0.07) <= 0.03)
        _report("4 power differences", ok,
                f"d=-0.2: {low.rejection_rate_diff:+.3f} (want -0.18±0.03), "
                f"d=+0.1: {high.rejection_rate_diff:+.3f} (want +0.07±0.03)")
        assert ok


# ---------------------------------------------------------------------------
# 5. type I inflation peak and its decay with later interims
# ---------------------------------------------------------------------------


class TestC05TypeIInflation:
    def test_inflation_and_monotone_decay(self):
        diffs = []
        for t in (0.3, 0.4, 0.5, 0.6):
            oc = _run_point(("c", t, 0.3, "null"), _continuous_point(t, 0.3, 0.0))
            diffs.append(oc.rejection_rate_diff)
        peak_ok = abs(diffs[0] - 0.09) <= 0.015
        mono_ok = all(b <= a + 0.015 for a, b in zip(diffs, diffs[1:]))
        ok = peak_ok and mono_ok
        _report("5 type I inflation", ok,
                f"diffs over t: {[f'{d:+.3f}' for d in diffs]} "
                f"(want +0.09±0.015 at t=0.3, non-increasing within ±0.015)")
        assert ok


# ---------------------------------------------------------------------------
# 6. the comparator hits its frequentist design point
# ---------------------------------------------------------------------------


class TestC06ComparatorSanity:
    def test_power_and_size(self):
        alt = _run_point(("c", 0.3, 0.0, "alt"), _continuous_point(0.3, 0.0, 0.4))
        null = _run_point(("c", 0.3, 0.0, "null"), _continuous_point(0.3, 0.0, 0.0))
        power = alt.comparator_rejection_rate
        size = null.comparator_rejection_rate
        ok = abs(power - 0.80) <= 0.02 and abs(size - 0.025) <= 0.006
        _report("6 comparator sanity", ok,
                f"power {power:.3f} (want 0.80±0.02), type I {size:.4f} (want 0.025±0.006)")
        assert ok


# ---------------------------------------------------------------------------
# 7. sensitivity directions for the borrowing threshold and the ratio cap
# ---------------------------------------------------------------------------


class TestC07Sensitivity:
    def test_gamma_direction(self):
        pow_03 = _run_point(("c", 0.5, 0.1, "alt"), _continuous_point(0.5, 0.1, 0.4))
        pow_05 = _run_point(("c5", 0.5, 0.1, "alt"),
                            _continuous_point(0.5, 0.1, 0.4, gamma=0.5))
        t1_03 = _run_point(("c", 0.5, 0.3, "null"), _continuous_point(0.5, 0.3, 0.0))
        t1_05 = _run_point(("c5", 0.5, 0.3, "null"),
                           _continuous_point(0.5, 0.3, 0.0, gamma=0.5))
        # at the wider threshold the comparator-relative shifts reach +0.06
        # (power, d=0.1) and +0.04 (type I, d=0.3), and neither falls below
        # the base threshold's shift by more than Monte Carlo noise
        level_ok = (abs(pow_05.rejection_rate_diff - 0.06) <= 0.03
                    and abs(t1_05.rejection_rate_diff - 0.04) <= 0.015)
        slack_pow = 2 * math.hypot(pow_05.rejection_rate_diff_se, pow_03.rejection_rate_diff_se)
        slack_t1 = 2 * math.hypot(t1_05.rejection_rate_diff_se, t1_03.rejection_rate_diff_se)
        dir_ok = (pow_05.rejection_rate_diff >= pow_03.rejection_rate_diff - slack_pow
                  and t1_05.rejection_rate_diff >= t1_03.rejection_rate_diff - slack_t1)
        ok = level_ok and dir_ok
        _report("7 gamma sensitivity", ok,
                f"gamma=0.5 power diff {pow_05.rejection_rate_diff:+.3f} (want +0.06±0.03), "
                f"type I diff {t1_05.rejection_rate_diff:+.3f} (want +0.04±0.015); "
                f"base gamma=0.3 gave {pow_03.rejection_rate_diff:+.3f}/"
                f"{t1_03.rejection_rate_diff:+.3f}")
        assert ok

    def test_lambda_cap_shrinks_savings(self):
        lam1 = _run_point(("c", 0.5, 0.0, "null"), _continuous_point(0.5, 0.0, 0.0))
        lam8 = _run_point(("l8", 0.5, 0.0, "null"),
                          _continuous_point(0.5, 0.0, 0.0, lam=8.0))
        ok = abs(lam1.mean_saved - 30.0) <= 3.0 and abs(lam8.mean_saved - 4.0) <= 3.0
        _report("7 lambda sensitivity", ok,
                f"saved lam=1: {lam1.mean_saved:.1f} (want 30±3), "
                f"lam=8: {lam8.mean_saved:.1f} (want 4±3)")
        assert ok


# ---------------------------------------------------------------------------
# 8. case-study calibration table with the single-normal stand-in prior
# ---------------------------------------------------------------------------

# reference borrowing probabilities for the bundled case study
# (rows: drift in outcome units; columns keyed by (t, gamma)); the original
# analysis used a four-component mixture prior that is not available in
# closed form, so these are expected to hold only approximately
REFERENCE_TABLE = {
    -40: {(0.4, 0.2): 0.15, (0.5, 0.2): 0.10, (0.6, 0.2): 0.08,
          (0.4, 0.3): 0.23, (0.5, 0.3): 0.17, (0.6, 0.3): 0.13,
          (0.4, 0.4): 0.33, (0.5, 0.4): 0.26, (0.6, 0.4): 0.21,
          (0.4, 0.5): 0.45, (0.5, 0.5): 0.38, (0.6, 0.5): 0.32},
    -30: {(0.4, 0.2): 0.27, (0.5, 0.2): 0.22, (0.6, 0.2): 0.19,
          (0.4, 0.3): 0.38, (0.5, 0.3): 0.33, (0.6, 0.3): 0.28,
          (0.4, 0.4): 0.50, (0.5, 0.4): 0.45, (0.6, 0.4): 0.39,
          (0.4, 0.5): 0.63, (0.5, 0.5): 0.58, (0.6, 0.5): 0.53},
    -20: {(0.4, 0.2): 0.41, (0.5, 0.2): 0.38, (0.6, 0.2): 0.35,
          (0.4, 0.3): 0.54, (0.5, 0.3): 0.51, (0.6, 0.3): 0.48,
          (0.4, 0.4): 0.67, (0.5, 0.4): 0.64, (0.6, 0.4): 0.60,
          (0.4, 0.5): 0.78, (0.5, 0.5): 0.75, (0.6, 0.5): 0.73},
    0:   {(0.4, 0.2): 0.58, (0.5, 0.2): 0.57, (0.6, 0.2): 0.58,
          (0.4, 0.3): 0.72, (0.5, 0.3): 0.72, (0.6, 0.3): 0.72,
          (0.4, 0.4): 0.83, (0.5, 0.4): 0.83, (0.6, 0.4): 0.83,
          (0.4, 0.5): 0.91, (0.5, 0.5): 0.91, (0.6, 0.5): 0.91},
    20:  {(0.4, 0.2): 0.40, (0.5, 0.2): 0.37, (0.6, 0.2): 0.35,
          (0.4, 0.3): 0.53, (0.5, 0.3): 0.49, (0.6, 0.3): 0.47,
          (0.4, 0.4): 0.65, (0.5, 0.4): 0.61, (0.6, 0.4): 0.59,
          (0.4, 0.5): 0.76, (0.5, 0.5): 0.73, (0.6, 0.5): 0.71},
    30:  {(0.4, 0.2): 0.26, (0.5, 0.2): 0.21, (0.6, 0.2): 0.18,
          (0.4, 0.3): 0.37, (0.5, 0.3): 0.31, (0.6, 0.3): 0.27,
          (0.4, 0.4): 0.48, (0.5, 0.4): 0.42, (0.6, 0.4): 0.38,
          (0.4, 0.5): 0.60, (0.5, 0.5): 0.55, (0.6, 0.5): 0.51},
    40:  {(0.4, 0.2): 0.14, (0.5, 0.2): 0.10, (0.6, 0.2): 0.07,
          (0.4, 0.3): 0.22, (0.5, 0.3): 0.16, (0.6, 0.3): 0.12,
          (0.4, 0.4): 0.31, (0.5, 0.4): 0.24, (0.6, 0.4): 0.19,
          (0.4, 0.5): 0.43, (0.5, 0.5): 0.35, (0.6, 0.5): 0.29},
}

EXPECTED_ADMISSIBLE = {(0.4, 0.2), (0.5, 0.2), (0.6, 0.2), (0.6, 0.3)}

CASE_MODEL = OutcomeModel("continuous", known_sd=88.0)
CASE_HIST = PriorSpec.normal(-50.0 / 88.0, 18.0 / 88.0)


class TestC08CaseStudyCalibration:
    @pytest.fixture(scope="class")
    def calibration(self):
        template = DesignConfig(variant="design1", n_total=80, allocation_ratio=1.0,
                                t=0.4, lam=1.0, eta=0.975,
                                similarity=SimilarityConfig(gamma=0.2))
        grid = CalibrationGrid(t_values=(0.4, 0.5, 0.6),
                               gamma_values=(0.2, 0.3, 0.4, 0.5),
                               delta_star=40.0 / 88.0, epsilon=0.15,
                               replications=REPS, seed=SEED)
        report = h.select_design_params(grid, template, CASE_HIST, CASE_MODEL)
        table = {}
        for di, d_raw in enumerate(sorted(REFERENCE_TABLE)):
            for ti, t in enumerate(grid.t_values):
                for gi, gamma in enumerate(grid.gamma_values):
                    design = replace(template, t=t,
                                     similarity=SimilarityConfig(gamma=gamma))
                    table[(d_raw, t, gamma)] = h.borrowing_probability(
                        design, CASE_HIST, CASE_MODEL, d_raw / 88.0, REPS,
                        np.random.default_rng(np.random.SeedSequence([SEED, di, ti, gi])),
                    )
        return report, table

    def test_cell_agreement_at_first_interim(self, calibration):
        _, table = calibration
        diffs = {
            (d, t, g): abs(table[(d, t, g)] - REFERENCE_TABLE[d][(t, g)])
            for d in REFERENCE_TABLE for (t, g) in REFERENCE_TABLE[d] if t == 0.4
        }
        within = sum(1 for v in diffs.values() if v <= 0.05)
        ok = within >= 20
        lines = ", ".join(
            f"d={d:+d},g={g}: {table[(d, 0.4, g)]:.3f} vs {REFERENCE_TABLE[d][(0.4, g)]:.2f}"
            for (d, _, g) in sorted(diffs) if diffs[(d, 0.4, g)] > 0.05
        )
        _report("8 calibration cells", ok,
                f"{within}/28 cells within ±0.05 at t=0.4 (need ≥20); "
                f"out-of-tolerance: {lines or 'none'}")
        assert ok, f"only {within}/28 calibration cells within ±0.05"

    def test_admissible_set_and_selection(self, calibration):
        report, _ = calibration
        admissible = {(c.t, c.gamma) for c in report.cells if c.admissible}
        probs = {(c.t, c.gamma): c.borrowing_prob for c in report.cells}
        set_ok = admissible == EXPECTED_ADMISSIBLE
        sel_ok = report.selected == (0.4, 0.2)
        _report("8 admissible set", set_ok and sel_ok,
                f"admissible {sorted(admissible)} (want {sorted(EXPECTED_ADMISSIBLE)}), "
                f"selected {report.selected} (want (0.4, 0.2)); "
                f"MAD probabilities {[(k, round(v, 3)) for k, v in sorted(probs.items())]}")
        assert set_ok, (
            f"admissible set {sorted(admissible)} differs from {sorted(EXPECTED_ADMISSIBLE)}"
        )
        assert sel_ok


# ---------------------------------------------------------------------------
# 9. exact and prior-mean minimal-distance modes give identical designs
# ---------------------------------------------------------------------------


class TestC09ApproximationEquivalence:
    def test_identical_stage2_sizes_on_mixture_grid(self):
        mismatches = 0
        checked = 0
        for t in (0.3, 0.4, 0.5, 0.6):
            design = _design(t)
            n1c = design.n_stage1_control
            interim_scale = 1.0 / math.sqrt(n1c)
            h_min_exact = minimal_hellinger(
                MIXTURE_PRIOR, PriorSpec.normal(0.0, interim_scale), CONTINUOUS, "exact"
            )
            h_min_approx = minimal_hellinger(
                MIXTURE_PRIOR, PriorSpec.normal(0.0, interim_scale), CONTINUOUS,
                "prior_mean_approx",
            )
            for di, d in enumerate(np.arange(-0.4, 0.41, 0.1)):
                rng = np.random.default_rng(
                    np.random.SeedSequence([SEED, int(t * 10), di])
                )
                sums = rng.normal(d * n1c, math.sqrt(n1c), REPS)
                for total in sums:
                    g = h.interim_posterior(DataSummary(n1c, float(total)), CONTINUOUS)
                    dist = h.hellinger_numeric(MIXTURE_PRIOR, g)
                    xi_e = similarity_xi(
                        normalized_hellinger(dist, h_min_exact), design.similarity
                    )
                    xi_a = similarity_xi(
                        normalized_hellinger(dist, h_min_approx), design.similarity
                    )
                    checked += 1
                    if (h.stage2_sizes(design, xi_e).n2_control
                            != h.stage2_sizes(design, xi_a).n2_control):
                        mismatches += 1
        ok = mismatches == 0
        _report("9 minimal-distance approximation", ok,
                f"{mismatches}/{checked} stage-2 size mismatches across the t x drift grid")
        assert ok


# ---------------------------------------------------------------------------
# 10. binary endpoint pipeline
# ---------------------------------------------------------------------------

# Exact E[n_saved] at the null, drift-0 point.  n_saved there depends only on
# the stage-1 control successes S ~ Bin(27, 0.3), so summing pmf(S) * n_saved(S)
# over S = 0..27 gives 39.7752; see TestExactSavedCount in test_trial_engine.py.
BINARY_SAVED_FROZEN = 39.78


class TestC10BinaryPipeline:
    @pytest.fixture(scope="class")
    def null_grid(self):
        return {
            d: _run_point(("b", 0.3, d, "null"), _binary_point(0.3, d, False))
            for d in (-0.1, 0.0, 0.1)
        }

    def test_saved_matches_continuous_analogue(self, null_grid):
        saved = null_grid[0.0].mean_saved
        analogue = 43.0 * 180.0 / 200.0
        ok = abs(saved - analogue) <= 4.0
        _report("10 binary saved scale", ok,
                f"saved {saved:.2f} vs continuous analogue {analogue:.1f} (±4)")
        assert ok

    def test_saved_regression_value(self, null_grid):
        saved = null_grid[0.0].mean_saved
        se = null_grid[0.0].mean_saved_se
        ok = abs(saved - BINARY_SAVED_FROZEN) <= max(3 * se, 0.5)
        _report("10 binary saved regression", ok,
                f"saved {saved:.2f} vs frozen {BINARY_SAVED_FROZEN} (±{max(3 * se, 0.5):.2f})")
        assert ok

    def test_qualitative_shape(self, null_grid):
        t1 = {d: oc.rejection_rate_diff for d, oc in null_grid.items()}
        saved = {d: oc.mean_saved for d, oc in null_grid.items()}
        inflation_ok = t1[0.1] > t1[0.0] and t1[0.1] > t1[-0.1] and t1[0.1] > 0.01
        saved_peak_ok = saved[0.0] > saved[0.1] and saved[0.0] > saved[-0.1]
        ok = inflation_ok and saved_peak_ok
        _report("10 binary shape", ok,
                f"type I diffs {[(d, round(v, 3)) for d, v in sorted(t1.items())]}, "
                f"saved {[(d, round(v, 1)) for d, v in sorted(saved.items())]}")
        assert ok


# ---------------------------------------------------------------------------
# 11. byte-level determinism of the batch front door
# ---------------------------------------------------------------------------

DETERMINISM_CONFIG = """
mode: simulate
model: {kind: continuous}
design:
  variant: design1
  n_total: 200
  t: [0.3, 0.5]
  gamma: 0.3
priors:
  historical_control:
    family: normal
    components: [{weight: 1.0, mean: 0.0, sd: 0.11952286093343936}]
  treatment:
    family: normal
    components: [{weight: 1.0, mean: 0.0, sd: 1.0}]
truth:
  drift_grid: [-0.2, 0.0, 0.2]
  effect: 0.4
replications: 200
seed: 20260809
"""


class TestC11Determinism:
    def test_reruns_and_worker_counts_byte_identical(self, tmp_path):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(DETERMINISM_CONFIG)
        outs = {}
        for name, workers in (("a", 1), ("b", 1), ("w2", 2)):
            out = tmp_path / name
            cli_run(RunManifest(config_path=cfg, output_dir=out, worker_count=workers))
            outs[name] = {
                f: (out / f).read_bytes() for f in ("results.csv", "summary.json")
            }
        rerun_ok = outs["a"] == outs["b"]
        worker_ok = outs["a"] == outs["w2"]
        ok = rerun_ok and worker_ok
        _report("11 determinism", ok,
                f"rerun identical: {rerun_ok}, worker-count invariant: {worker_ok}")
        assert ok
