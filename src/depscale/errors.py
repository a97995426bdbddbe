"""Exception hierarchy for depscale.

Every exception carries a short machine-readable ``code`` (the class name
without the ``Error`` suffix) so the CLI can emit structured error objects,
and an ``exit_code`` separating bad input (2) from numerical failure (3).
"""

from __future__ import annotations


class DepscaleError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2

    @property
    def code(self) -> str:
        name = type(self).__name__
        return name[: -len("Error")] if name.endswith("Error") else name


# --- input / validation errors (CLI exit 2) ---------------------------------


class NegativeEntryError(DepscaleError):
    """A probability table contains a negative entry."""


class NotNormalizedError(DepscaleError):
    """Probabilities deviate from total mass 1 beyond the input tolerance."""


class ZeroMarginalError(DepscaleError):
    """A row or column of a joint table has zero mass."""


class InvalidDistributionError(DepscaleError):
    """An input is malformed: a probability vector, sample column, column
    partition, or finite-rank construction (negative, zero-mass, missing,
    uncovered, uncentered, or wrong shape)."""


class NotPositiveDefiniteError(DepscaleError):
    """A covariance block is not symmetric positive definite."""


class InvalidBlockError(DepscaleError):
    """Covariance block dimensions are inconsistent."""


class NotScalarError(DepscaleError):
    """An operation requiring 1x1 covariance blocks got a larger joint."""


class TooFewSamplesError(DepscaleError):
    """A sample table has fewer than two rows."""


class FormatError(DepscaleError):
    """A CSV file does not match the expected layout."""


# --- numerical failures (CLI exit 3) -----------------------------------------


class NumericalError(DepscaleError):
    exit_code = 3


class SvdFailureError(NumericalError):
    """The singular value decomposition did not converge."""


class NonConvergenceError(NumericalError):
    """An iterative solver stalled before reaching its tolerance."""
