"""depscale: dependence index, maximal correlation, and the m-dependence scale.

The package measures statistical dependence between two random quantities
through the spectrum of the conditional-expectation operator: the dependence
index D (best achievable image variance), the maximal correlation R (with
D = R**2), and the m-dependence scale D_m, whose vanishing order grades how
many directions of dependence a joint carries.  Discrete joint tables,
Gaussian covariance blocks, and raw samples are all supported inputs.
"""

from .ace import TransformPair, ace_pair, ace_subspace
from .errors import (
    DepscaleError,
    FormatError,
    InvalidBlockError,
    InvalidDistributionError,
    NegativeEntryError,
    NonConvergenceError,
    NotNormalizedError,
    NotPositiveDefiniteError,
    NotScalarError,
    NumericalError,
    SvdFailureError,
    TooFewSamplesError,
    ZeroMarginalError,
)
from .estimate import (
    BinningSpec,
    ProfileEstimate,
    bin_column,
    empirical_joint,
    empirical_joint_grouped,
    gaussian_quantile_joint,
)
from .gaussian import NoiseCurve, gaussian_d, gaussian_r, lambda_max, noise_curve
from .io import load_covariance_csv, load_joint_csv, load_samples_csv
from .joints import (
    DiscreteJoint,
    FunctionTable,
    GaussianJoint,
    SampleTable,
    augment_with_independent,
    coarsen_y,
    conditional_matrix,
    make_joint,
)
from .spectral import (
    DependenceProfile,
    SingularSpectrum,
    dependence_scale,
    gram_det_oracle,
    maximal_correlation,
    normalized_matrix,
    singular_spectrum,
)
from .structure import (
    CompletenessResult,
    check_completeness,
    make_finite_rank_joint,
)

__version__ = "0.1.0"

__all__ = [
    "BinningSpec",
    "CompletenessResult",
    "DepscaleError",
    "DependenceProfile",
    "DiscreteJoint",
    "FormatError",
    "FunctionTable",
    "GaussianJoint",
    "InvalidBlockError",
    "InvalidDistributionError",
    "NegativeEntryError",
    "NoiseCurve",
    "NonConvergenceError",
    "NotNormalizedError",
    "NotPositiveDefiniteError",
    "NotScalarError",
    "NumericalError",
    "ProfileEstimate",
    "SampleTable",
    "SingularSpectrum",
    "SvdFailureError",
    "TooFewSamplesError",
    "TransformPair",
    "ZeroMarginalError",
    "ace_pair",
    "ace_subspace",
    "augment_with_independent",
    "bin_column",
    "check_completeness",
    "coarsen_y",
    "conditional_matrix",
    "dependence_scale",
    "empirical_joint",
    "empirical_joint_grouped",
    "gaussian_d",
    "gaussian_quantile_joint",
    "gaussian_r",
    "gram_det_oracle",
    "lambda_max",
    "load_covariance_csv",
    "load_joint_csv",
    "load_samples_csv",
    "make_finite_rank_joint",
    "make_joint",
    "maximal_correlation",
    "noise_curve",
    "normalized_matrix",
    "singular_spectrum",
]
