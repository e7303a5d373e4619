"""Graph-based two-sample divergence estimation and classification error bounds.

The estimator pools two samples, builds their exact Euclidean minimum
spanning tree, and counts edges that cross between the samples. That count
converges to a density-overlap functional, which brackets the Bayes error
rate and bounds target-domain error under covariate shift; the same
quantities drive greedy feature selection. An independent numerical
integration oracle validates every estimate and inequality for known
densities.
"""

from .bounds import (
    BerBounds,
    DaBoundReport,
    bc_bound_gaussian,
    ber_bounds_from_dp_tilde,
    ber_bounds_from_estimate,
    bhattacharyya_coefficient_gaussian,
    chernoff_upper_gaussian,
    da_bound,
    gaussian_bounds,
    mahalanobis_bound_gaussian,
    shift_penalty,
)
from .dataset import (
    DatasetError,
    GaussianModel,
    LabeledSample,
    derive_rng,
    load_csv,
    load_points_csv,
    sample_gaussian,
    save_csv,
)
from .divergence import DivergenceEstimate, estimate, estimate_from_labeled, fr_statistic
from .emst import MstResult, build_mst
from .experiments import (
    FUKUNAGA_SAMPLING_MODELS,
    McSummary,
    SweepRow,
    fukunaga_d1,
    fukunaga_d2,
    fukunaga_d2_as_sampled,
    run_consistency,
    run_fukunaga,
    run_sweep,
)
from .featsel import SelectionTrace, criterion_phi, forward_select
from .oracle import (
    DensityPair,
    OracleError,
    affinity_integral,
    bayes_error,
    bc_integral,
    chernoff_integral,
    dp_tilde_integral,
    gaussian_pair,
    integrals,
    scaled_chernoff_integral,
    tv_integral,
)

__version__ = "0.1.0"
