"""Pre-trial selection of the interim timing and borrowing threshold.

For each candidate pair (t, gamma) the borrowing probability under a maximum
acceptable drift is estimated by simulating only the stage-1 control data and
the similarity pipeline; pairs whose probability stays below the tolerated
level are admissible, and the admissible pair that saves the most patients
when the drift is zero wins.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .adaptive_design import DesignConfig, stage2_sizes
from .distributions import BINARY, CONTINUOUS, DataSummary, OutcomeModel, PriorSpec
from .similarity import assess_similarity

__all__ = [
    "CalibrationGrid",
    "CalibrationCell",
    "CalibrationReport",
    "borrowing_probability",
    "expected_saved",
    "select_design_params",
]


@dataclass(frozen=True)
class CalibrationGrid:
    """Candidate (t, gamma) grid with the drift constraint.

    ``delta_star`` is the maximum acceptable drift on the working scale and
    ``epsilon`` the tolerated borrowing probability under that drift.
    ``table_delta_stars`` lists extra drift levels to tabulate for reporting;
    they do not influence admissibility.
    """

    t_values: tuple[float, ...]
    gamma_values: tuple[float, ...]
    delta_star: float
    epsilon: float
    replications: int
    seed: int
    table_delta_stars: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.t_values or not self.gamma_values:
            raise ValueError("calibration grids must not be empty")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError("epsilon must lie in (0, 1)")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class CalibrationCell:
    t: float
    gamma: float
    borrowing_prob: float
    mean_saved: float
    admissible: bool


@dataclass(frozen=True)
class CalibrationReport:
    cells: tuple[CalibrationCell, ...]
    selected: tuple[float, float] | None
    diagnostic: str = ""


def _stage1_control_summary(
    design: DesignConfig, model: OutcomeModel, theta: float, rng: np.random.Generator
) -> DataSummary:
    """Draw the sufficient statistic of the stage-1 control sample."""
    n = design.n_stage1_control
    if model.kind == CONTINUOUS:
        total = float(rng.normal(theta * n, math.sqrt(n)))
    else:
        total = float(rng.binomial(n, theta))
    return DataSummary(n, total)


def _true_control_mean(historical: PriorSpec, model: OutcomeModel, delta: float) -> float:
    theta = historical.mean() + delta
    if model.kind == BINARY and not (0.0 < theta < 1.0):
        raise ValueError(
            f"drift {delta} puts the control response probability at {theta}, outside (0, 1)"
        )
    return theta


def borrowing_probability(
    design: DesignConfig,
    historical: PriorSpec,
    model: OutcomeModel,
    delta_star: float,
    reps: int,
    stream: np.random.Generator,
) -> float:
    """Monte Carlo probability that any borrowing occurs when the true control
    mean sits ``delta_star`` away from the historical prior mean."""
    if design.similarity.gamma == 0.0:
        return 0.0
    theta = _true_control_mean(historical, model, delta_star)
    hits = 0
    for _ in range(reps):
        data = _stage1_control_summary(design, model, theta, stream)
        state = assess_similarity(historical, data, model, design.similarity)
        hits += state.xi > 0.0
    return hits / reps


def expected_saved(
    design: DesignConfig,
    historical: PriorSpec,
    model: OutcomeModel,
    reps: int,
    stream: np.random.Generator,
) -> float:
    """Monte Carlo mean of the saved (or reallocated) patient count when the
    concurrent control behaves exactly like the historical prior mean."""
    theta = _true_control_mean(historical, model, 0.0)
    total = 0
    for _ in range(reps):
        data = _stage1_control_summary(design, model, theta, stream)
        state = assess_similarity(historical, data, model, design.similarity)
        total += stage2_sizes(design, state.xi).n_saved
    return total / reps


def _cell_design(template: DesignConfig, t: float, gamma: float) -> DesignConfig:
    """The template design at (t, gamma); the template gave any lam = 1 notice."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "lam = 1", UserWarning)
        return replace(template, t=t, similarity=replace(template.similarity, gamma=gamma))


def select_design_params(
    grid: CalibrationGrid,
    design_template: DesignConfig,
    historical: PriorSpec,
    model: OutcomeModel,
) -> CalibrationReport:
    """Fill the (t, gamma) grid and pick the admissible cell saving the most
    patients; ties break toward the smaller t, then the smaller gamma."""
    cells: list[CalibrationCell] = []
    for ti, t in enumerate(grid.t_values):
        for gi, gamma in enumerate(grid.gamma_values):
            design = _cell_design(design_template, t, gamma)
            prob = borrowing_probability(
                design, historical, model, grid.delta_star, grid.replications,
                np.random.default_rng(np.random.SeedSequence([grid.seed, ti, gi, 1])),
            )
            saved = expected_saved(
                design, historical, model, grid.replications,
                np.random.default_rng(np.random.SeedSequence([grid.seed, ti, gi, 2])),
            )
            cells.append(CalibrationCell(t, gamma, prob, saved, prob < grid.epsilon))

    admissible = [c for c in cells if c.admissible]
    if not admissible:
        return CalibrationReport(
            cells=tuple(cells),
            selected=None,
            diagnostic=(
                f"no (t, gamma) cell keeps the borrowing probability under "
                f"{grid.epsilon} at drift {grid.delta_star}"
            ),
        )
    best = min(admissible, key=lambda c: (-c.mean_saved, c.t, c.gamma))
    return CalibrationReport(cells=tuple(cells), selected=(best.t, best.gamma))
