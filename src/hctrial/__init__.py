"""Two-stage hybrid-control trial designs with Hellinger-distance borrowing."""

from .adaptive_design import (
    DESIGN1,
    DESIGN2,
    DesignConfig,
    StageTwoPlan,
    adjust_control_prior,
    final_decision,
    stage2_sizes,
)
from .calibration import (
    CalibrationCell,
    CalibrationGrid,
    CalibrationReport,
    borrowing_probability,
    expected_saved,
    select_design_params,
)
from .distributions import (
    BETA,
    BINARY,
    CONTINUOUS,
    NORMAL,
    DataSummary,
    NumericsError,
    OutcomeModel,
    PriorComponent,
    PriorSpec,
    delta_point_and_interval,
    hellinger_beta,
    hellinger_normal,
    hellinger_numeric,
    posterior_update,
    prob_delta_positive,
)
from .ess import EssValue, elir_ess, rescale_to_ess
from .samplesize import binary_two_arm_size, normal_two_arm_size
from .similarity import (
    EXACT,
    PRIOR_MEAN_APPROX,
    InterimState,
    SimilarityConfig,
    assess_similarity,
    interim_posterior,
    minimal_hellinger,
    normalized_hellinger,
    similarity_xi,
)
from .trial_engine import (
    OperatingCharacteristics,
    Scenario,
    TrialResult,
    run_campaign,
    simulate_comparator,
    simulate_trial,
)

__version__ = "0.1.0"
