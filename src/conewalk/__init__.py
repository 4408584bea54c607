"""conewalk: radial random walks on matrix spaces and index-mu random
walks on the cone of positive semidefinite matrices, with a batch
verification harness for their large-dimension limit behavior."""

__version__ = "0.1.0"

from .bessel import (
    BesselParam,
    bessel_character_1d,
    convolve_points,
    kappa_exact,
    kappa_mu,
    sample_contraction,
)
from .cone_linalg import (
    COMPLEX,
    REAL,
    clamp_psd,
    cone_step,
    devectorize_herm,
    frob_norm,
    herm_part,
    psd_sqrt,
    trace_herm,
    vectorize_herm,
)
from .limit_lab import (
    MardiaResult,
    Moments,
    RateFit,
    chi2_cdf,
    empirical_cov,
    ks_2samp,
    ks_distance,
    mardia_tests,
    moment_identity_rhs,
    normal_cdf,
    normalize_clt,
    t_squared_limit,
)
from .orbit_sampler import (
    GroupWalkConfig,
    haar_block,
    run_cone_walks,
    run_group_walks,
    sample_radial_matrix,
    sample_stiefel_frame,
)
from .radial_laws import MomentData, RadialLaw, law_from_spec, moments
