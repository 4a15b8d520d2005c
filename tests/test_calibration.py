import numpy as np
import pytest
from scipy.stats import binom

from hctrial import (
    CalibrationGrid,
    DataSummary,
    DesignConfig,
    OutcomeModel,
    PriorSpec,
    SimilarityConfig,
    assess_similarity,
    borrowing_probability,
    expected_saved,
    select_design_params,
    stage2_sizes,
)

MODEL = OutcomeModel("continuous", known_sd=88.0)
HIST = PriorSpec.normal(-50.0 / 88.0, 18.0 / 88.0)


def case_design(t=0.4, gamma=0.2):
    return DesignConfig(
        variant="design1", n_total=80, allocation_ratio=1.0, t=t, lam=1.0,
        eta=0.975, similarity=SimilarityConfig(gamma=gamma),
    )


def rng(*key):
    return np.random.default_rng(np.random.SeedSequence(list(key)))


class TestBorrowingProbability:
    def test_zero_gamma_sentinel(self):
        stream = rng(1)
        before = stream.bit_generator.state
        p = borrowing_probability(case_design(gamma=0.0), HIST, MODEL,
                                  -40.0 / 88.0, 500, stream)
        assert p == 0.0
        assert stream.bit_generator.state == before

    def test_zero_drift_maximizes_borrowing(self):
        design = case_design(t=0.4, gamma=0.2)
        p0 = borrowing_probability(design, HIST, MODEL, 0.0, 2000, rng(2))
        p40 = borrowing_probability(design, HIST, MODEL, 40.0 / 88.0, 2000, rng(3))
        assert p0 > p40

    def test_non_increasing_in_t_under_drift(self):
        probs = [
            borrowing_probability(case_design(t=t, gamma=0.2), HIST, MODEL,
                                  40.0 / 88.0, 3000, rng(4, int(t * 10)))
            for t in (0.4, 0.5, 0.6)
        ]
        se = (0.15 * 0.85 / 3000) ** 0.5
        assert all(b <= a + 2 * se for a, b in zip(probs, probs[1:]))
        assert probs[-1] < probs[0]

    def test_non_decreasing_in_gamma(self):
        probs = [
            borrowing_probability(case_design(t=0.5, gamma=g), HIST, MODEL,
                                  30.0 / 88.0, 3000, rng(5, int(g * 10)))
            for g in (0.2, 0.3, 0.4, 0.5)
        ]
        se = (0.4 * 0.6 / 3000) ** 0.5
        assert all(b >= a - 2 * se for a, b in zip(probs, probs[1:]))
        assert probs[-1] > probs[0]

    def test_decreasing_in_drift_magnitude(self):
        design = case_design(t=0.5, gamma=0.3)
        probs = [
            borrowing_probability(design, HIST, MODEL, d / 88.0, 3000, rng(6, d))
            for d in (0, 20, 30, 40)
        ]
        assert all(b < a for a, b in zip(probs, probs[1:]))

    def test_binary_endpoint_drift_validation(self):
        model = OutcomeModel("binary")
        hist = PriorSpec.beta(0.3, 65.0)
        design = DesignConfig(variant="design1", n_total=180, allocation_ratio=1.0,
                              t=0.4, lam=1.0, eta=0.975,
                              similarity=SimilarityConfig(gamma=0.3))
        with pytest.raises(ValueError, match="outside"):
            borrowing_probability(design, hist, model, 0.8, 10, rng(7))


class TestExpectedSaved:
    def test_zero_gamma_saves_nothing(self):
        # every borrowing weight is 0, so no stage-1 sample is drawn
        stream = rng(8)
        before = stream.bit_generator.state
        assert expected_saved(case_design(gamma=0.0), HIST, MODEL, 500, stream) == 0.0
        assert stream.bit_generator.state == before

    def test_more_patience_earlier(self):
        early = expected_saved(case_design(t=0.4, gamma=0.2), HIST, MODEL, 3000, rng(9))
        late = expected_saved(case_design(t=0.6, gamma=0.2), HIST, MODEL, 3000, rng(10))
        assert early > late > 0


class TestBinaryStageOneOracle:
    """The binary stage-1 draw against exact sums over its n1c + 1 outcomes:
    N = 180, t = 0.3 (n1c = 27), Beta(0.3, 65) historical prior."""

    MODEL = OutcomeModel("binary")
    HIST = PriorSpec.beta(0.3, 65.0)
    DESIGN = DesignConfig(variant="design1", n_total=180, allocation_ratio=1.0, t=0.3,
                          lam=1.0, eta=0.975, similarity=SimilarityConfig(gamma=0.3))
    REPS = 2000

    def _by_successes(self):
        n1c = self.DESIGN.n_stage1_control
        assert n1c == 27
        xis = [assess_similarity(self.HIST, DataSummary(n1c, float(s)), self.MODEL,
                                 self.DESIGN.similarity).xi for s in range(n1c + 1)]
        return n1c, np.array(xis)

    @pytest.mark.parametrize("delta", [0.0, 0.1])
    def test_borrowing_probability_within_4_se(self, delta):
        n1c, xis = self._by_successes()
        pmf = binom.pmf(np.arange(n1c + 1), n1c, 0.3 + delta)
        exact = float(pmf @ (xis > 0.0))
        p = borrowing_probability(self.DESIGN, self.HIST, self.MODEL, delta, self.REPS,
                                  rng(14, int(delta * 10)))
        assert abs(p - exact) < 4 * (exact * (1 - exact) / self.REPS) ** 0.5

    def test_expected_saved_within_4_se(self):
        n1c, xis = self._by_successes()
        pmf = binom.pmf(np.arange(n1c + 1), n1c, 0.3)
        saved = np.array([stage2_sizes(self.DESIGN, xi).n_saved for xi in xis])
        exact = float(pmf @ saved)
        # the frozen value of acceptance criterion 10 (see TestExactSavedCount)
        assert exact == pytest.approx(39.7752, abs=1e-4)
        se = (float(pmf @ (saved - exact) ** 2) / self.REPS) ** 0.5
        mean = expected_saved(self.DESIGN, self.HIST, self.MODEL, self.REPS, rng(15))
        assert abs(mean - exact) < 4 * se


class TestSelection:
    def test_impossibly_small_epsilon_yields_no_selection(self):
        grid = CalibrationGrid(t_values=(0.4,), gamma_values=(0.2,),
                               delta_star=40.0 / 88.0, epsilon=1e-9,
                               replications=300, seed=11)
        report = select_design_params(grid, case_design(), HIST, MODEL)
        assert report.selected is None
        assert "no (t, gamma)" in report.diagnostic
        assert not any(c.admissible for c in report.cells)

    def test_single_admissible_cell_selected(self):
        grid = CalibrationGrid(t_values=(0.5,), gamma_values=(0.2,),
                               delta_star=40.0 / 88.0, epsilon=0.15,
                               replications=2000, seed=12)
        report = select_design_params(grid, case_design(), HIST, MODEL)
        assert report.selected == (0.5, 0.2)

    def test_selection_maximizes_saved(self):
        grid = CalibrationGrid(t_values=(0.4, 0.6), gamma_values=(0.2,),
                               delta_star=40.0 / 88.0, epsilon=0.5,
                               replications=2000, seed=13)
        report = select_design_params(grid, case_design(), HIST, MODEL)
        by_key = {(c.t, c.gamma): c for c in report.cells}
        assert report.selected == (0.4, 0.2)
        assert by_key[(0.4, 0.2)].mean_saved > by_key[(0.6, 0.2)].mean_saved

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            CalibrationGrid(t_values=(), gamma_values=(0.2,), delta_star=0.1,
                            epsilon=0.15, replications=100, seed=0)
