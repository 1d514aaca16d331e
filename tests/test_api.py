import types

import samplerec

# The public names of the package.  A change to this list is a change to the
# library's API: update it together with README.md and CHANGES.md.
PUBLIC_NAMES = [
    "CoefVector",
    "ConfigError",
    "DensityParams",
    "EnumerationLimitError",
    "ExperimentConfig",
    "ExperimentResult",
    "HeadSVD",
    "OrderedBasis",
    "PointSet",
    "PrecisionError",
    "SpaceParams",
    "SpectrumSummary",
    "ValidationError",
    "basis_eval",
    "basis_matrix",
    "beta_gamma",
    "certified_upper_bound",
    "density_selfcheck",
    "density_values",
    "empirical_error",
    "fit",
    "head_factor",
    "head_svd",
    "hnorm_weight",
    "load_config",
    "ordered_basis",
    "project",
    "random_unit_function",
    "run_beta",
    "run_claims",
    "run_density_check",
    "run_rates",
    "sample_points",
    "spectral_norm",
    "spectral_sums",
    "truncated_density",
    "worst_case_error_trunc",
]


def test_public_names_are_pinned():
    # submodules become attributes of the package as other code imports
    # them, so they are left out of the comparison
    names = sorted(
        name for name, value in vars(samplerec).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
