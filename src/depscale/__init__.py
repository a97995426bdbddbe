"""depscale: dependence index, maximal correlation, and the m-dependence scale.

The package measures statistical dependence between two random quantities
through the spectrum of the conditional-expectation operator: the dependence
index D (best achievable image variance), the maximal correlation R (with
D = R**2), and the m-dependence scale D_m, whose vanishing order grades how
many directions of dependence a joint carries.  Discrete joint tables,
Gaussian covariance blocks, and raw samples are all supported inputs.

Every public name is importable from here, but ``import depscale`` loads no
submodule: a name's module is imported on first access (PEP 562), so a
program, the CLI among them, pays only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each submodule and the public names it defines.
_PUBLIC = {
    "ace": ("TransformPair", "ace_pair", "ace_subspace"),
    "errors": (
        "DepscaleError", "FormatError", "InvalidBlockError", "InvalidDistributionError",
        "NegativeEntryError", "NonConvergenceError", "NotNormalizedError",
        "NotPositiveDefiniteError", "NotScalarError", "NumericalError", "SvdFailureError",
        "TooFewSamplesError", "ZeroMarginalError",
    ),
    "estimate": (
        "BinningSpec", "ProfileEstimate", "bin_column", "empirical_joint",
        "empirical_joint_grouped", "gaussian_quantile_joint",
    ),
    "gaussian": ("NoiseCurve", "gaussian_d", "gaussian_r", "lambda_max", "noise_curve"),
    "io": ("load_covariance_csv", "load_joint_csv", "load_samples_csv"),
    "joints": (
        "DiscreteJoint", "FunctionTable", "GaussianJoint", "SampleTable",
        "augment_with_independent", "coarsen_y", "conditional_matrix", "make_joint",
    ),
    "spectral": (
        "DependenceProfile", "SingularSpectrum", "dependence_scale", "gram_det_oracle",
        "maximal_correlation", "normalized_matrix", "singular_spectrum",
    ),
    "structure": ("CompletenessResult", "check_completeness", "make_finite_rank_joint"),
}

_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
