"""Integrated covariance estimation for noisy, asynchronous high-frequency data.

The package covers the full inference pipeline: synchronization of irregular
tick schemes, noise-robust integrated-covariance estimators, estimation of
the asymptotic covariance matrix of those estimators, a feasible CLT for
linear combinations, a conditional-independence test for triples of assets,
and a simulation harness that validates the distribution theory end to end.
"""

from .sampling import (
    InterpolationError,
    SamplingScheme,
    SyncGrid,
    global_refresh,
    pairwise_refresh,
    tick_interpolation,
)
from .kernels import (
    KernelConstants,
    KernelFunction,
    WeightScheme,
    builtin_kernel,
    cubic_weights,
    end_effect_adjust,
    kernel_constants,
    weights_from_kernel,
)
from .timefuncs import (
    StepFunction,
    SyncOverlap,
    TimeCovariationBundle,
    lasa_function,
    sync_overlap,
    time_covariations,
    weighted_lasa_function,
)
from .estimators import (
    CovEstimate,
    EstimatorConfig,
    NoiseMoments,
    TickSeries,
    estimate_matrix,
    generalized_multiscale,
    hayashi_yoshida,
    kernel_estimator,
    multiscale,
    multiscale_adjusted,
    noise_moments,
    realized_cov,
    svec_index,
    svec_pack,
    svec_pairs,
    svec_unpack,
)
from .avar import (
    AcovMatrix,
    GmsAcovConfig,
    TheoryInputs,
    acov_gms_hat,
    acov_matrix_hat,
    acov_rc_hat,
    acov_theory,
    dimension_identity,
    gms_theory_inputs,
    hy_theory_inputs,
    isserlis_cov,
    lincomb_avar,
    standardize,
)
from .citest import CiTestResult, ci_avar, ci_statistic, ci_test
from .sim import (
    SCENARIOS,
    ItoModelConfig,
    NoiseConfig,
    SamplingConfig,
    SimulatedPaths,
    mc_validate,
    observe,
    sample_scheme,
    simulate_paths,
)
from .tickio import RunReport, TickFileError, load_ticks, write_ticks

__version__ = "0.1.0"
