"""Sliced-Wasserstein distances three ways, with diagnostics and benchmarks.

Exact closed forms where they exist (sorted one-dimensional samples,
univariate and isotropic Gaussians), Monte Carlo projection estimates under
sphere-uniform or scaled-Gaussian direction laws, and a deterministic O(nd)
approximation built on the near-Gaussianity of high-dimensional projections,
plus the moment diagnostics that bound its error and a benchmark harness
that measures error decay and speed against Monte Carlo.
"""

from .core_ot import (
    Gaussian1d,
    IsoGaussian,
    Samples1d,
    sw2_gaussian_iso_closed,
    w2_gaussian_1d,
    w2_gaussian_iso,
    wasserstein_1d_pp,
)
from .datagen import (
    Ar1Config,
    DatasetRole,
    FactorConfig,
    FactorFamily,
    NoiseKind,
    factor_hyperparams,
    gen_ar1,
    gen_factors,
    load_csv,
    save_csv,
)
from .errors import (
    DatasetParseError,
    DimMismatch,
    EmptyInput,
    InsufficientSamples,
    InvalidLag,
    InvalidOrder,
    InvalidSample,
    LengthMismatch,
    NonPositiveError,
    SwkitError,
)
from .estimators import (
    EmpiricalDistribution,
    Method,
    MomentStats,
    ProjectionLaw,
    SwEstimate,
    WeakDepParams,
    autocov_decay,
    center,
    estimate,
    gaussian_projection_constant,
    indep_bound,
    moment_stats,
    monte_carlo_sw_pp,
    project,
    sample_directions,
    sw_hat,
    sw_moment_approx_sq,
    theorem2_gap_bound,
    weakdep_bound,
    xi_d,
)

__version__ = "0.1.0"
