"""Exact simulation of Brown-Resnick max-stable random fields.

The field eta(t) = sup_i (V_i + W_i(t) - sigma^2(t)/2), parameterized by
the fractional variogram gamma(t) = scale * |t|^alpha / 2, is sampled
without truncation error at finitely many sites.  Validation oracles
(closed-form bivariate law, finite-dimensional CDF identity, change of
measure) and estimators (Pickands set function, discrete extremal index)
are included, along with a command-line front end.
"""

__version__ = "0.1.0"

from .distributions import (
    bivariate_neglog,
    change_of_measure_check,
    fdd_cdf_oracle,
    gumbel_cdf,
    gumbel_quantile,
    std_normal_cdf,
)
from .gaussian import (
    FactorizationError,
    FactorizedGaussian,
    SiteSet,
    box_grid,
    build_sampler,
    load_sites_csv,
)
from .pointprocess import SamplingMeasure, poisson_points
from .simulator import (
    ClusterLimitError,
    FieldSample,
    replications,
    simulate,
    simulate_naive,
    transform_marginals,
)
from .statseval import (
    EstimateWithError,
    ResourceLimitError,
    cluster_count_stats,
    extremal_index_estimate,
    ks_critical,
    ks_statistic,
    ks_two_sample,
    pickands_coupled,
    pickands_estimate,
    qq_data,
)
from .streams import RandomStream, mask64
from .variogram import (
    VariogramModel,
    as_points,
    cov_w,
    covariance_matrix,
    gamma,
)

__all__ = [
    "ClusterLimitError",
    "EstimateWithError",
    "FactorizationError",
    "FactorizedGaussian",
    "FieldSample",
    "RandomStream",
    "ResourceLimitError",
    "SamplingMeasure",
    "SiteSet",
    "VariogramModel",
    "as_points",
    "bivariate_neglog",
    "box_grid",
    "build_sampler",
    "change_of_measure_check",
    "cluster_count_stats",
    "cov_w",
    "covariance_matrix",
    "extremal_index_estimate",
    "fdd_cdf_oracle",
    "gamma",
    "gumbel_cdf",
    "gumbel_quantile",
    "ks_critical",
    "ks_statistic",
    "ks_two_sample",
    "load_sites_csv",
    "mask64",
    "pickands_coupled",
    "pickands_estimate",
    "poisson_points",
    "qq_data",
    "replications",
    "simulate",
    "simulate_naive",
    "std_normal_cdf",
    "transform_marginals",
]
