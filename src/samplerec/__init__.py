"""Density-weighted least-squares sampling recovery on mixed-smoothness
periodic spaces, with a reproducible experiment harness."""

from .density import (
    DensityParams,
    PointSet,
    density_eval,
    density_selfcheck,
    density_values,
    inverse_cdf_1d,
    sample_points,
    truncated_density,
)
from .errors import (
    ErrorReport,
    certified_upper_bound,
    empirical_error,
    worst_case_error_trunc,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    ValidationError,
    load_config,
    run_beta,
    run_claims,
    run_density_check,
    run_rates,
)
from .lsq import Fit, HeadSVD, InfoMatrices, build_matrices, fit, head_svd, singular_extrema, spectral_norm
from .spectral import (
    CoefVector,
    EnumerationLimitError,
    OrderedBasis,
    PrecisionError,
    SpaceParams,
    SpectrumSummary,
    basis_eval,
    basis_matrix,
    beta_gamma,
    hnorm_weight,
    ordered_basis,
    project,
    random_unit_function,
    spectral_sums,
)

__version__ = "0.1.0"
