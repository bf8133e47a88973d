"""Multicomponent-objective smoothing for sparse, irregular time series.

The estimator fits a canonical stochastic oscillator to scattered
observations by staged gradient ascent on a weighted sum of point-wise,
distributional, model-coherence, and parameter-flex log-likelihoods. An
ultradian glucose-insulin ODE simulator is included as a synthetic data
source.
"""

from .kernels import (
    KernelTables,
    bandwidth_rule_of_thumb,
    build_tables,
    gaussian_kernel,
    time_products,
)
from .objective import (
    Components,
    EstimationState,
    GradientBundle,
    PolarSingularityError,
    WeightSchedule,
    eval_components,
    eval_L1,
    eval_L2,
    eval_L3_L4,
    eval_Lparams,
    eval_total,
    fd_check,
    grad_total,
)
from .optimizer import (
    EstimationResult,
    FrequencyEstimationError,
    HyperConfig,
    StageTrace,
    density_estimate,
    estimate,
    initialize,
    reconstruct_trajectory,
    resolve_time_scales,
    run_stage,
)
from .oscillator import (
    EffectiveGaps,
    ModelNoise,
    ParamPriors,
    ParamTrajectory,
    effective_gaps,
)
from .timeseries import (
    KickSeries,
    MeasurementSpec,
    ObservationSeries,
    load_kicks,
    load_observations,
    subsample,
    write_observations,
)
from .ultradian import (
    BlowUpError,
    NutritionSchedule,
    SimulationResult,
    UltradianParams,
    UltradianState,
    default_initial_state,
    icu_fit_params,
    nominal_params,
    simulate,
)

__version__ = "0.1.0"
