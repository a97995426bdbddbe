"""Completeness certificates and finite-rank joint constructions.

A joint is *complete* (in the X -> Y direction) when the only functions of X
whose conditional expectation given Y is constant are the constants
themselves.  On finite alphabets that is a rank condition: the centered
conditional-expectation operator must have a trivial kernel, which needs
|X| <= |Y| and every nontrivial singular value strictly positive.  When the
test fails, a witness function is produced, not just a boolean: a
standardized phi whose image E{phi(X)|Y} has (near) zero variance.

The other half of this module builds joints on the opposite end of the
scale: conditionals of the form

    p(x | y) = p0(x) + sum_{i<m} p_i(x) q_i(y)

whose conditional-expectation images span at most m directions beyond the
constants, so the order-m scale value vanishes identically.  These are the
canonical witnesses that each rung of the scale is genuinely weaker than the
one below it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidDistributionError
from .joints import CONSTRUCTION_MASS_TOL, DiscreteJoint, FunctionTable, _probability_vector
from .spectral import DEFAULT_ORDER_TOL, _deflated_normalized, singular_spectrum


@dataclass(frozen=True)
class CompletenessResult:
    """Outcome of a completeness check.

    ``min_sigma`` is the smallest singular value that had to be positive
    (None when the dimension condition |X| <= |Y| already fails, or when
    |X| = 1 leaves only constants).  For an incomplete joint, ``witness``
    is a standardized function of X with near-constant conditional
    expectation; for a complete one it is None.
    """

    complete: bool
    min_sigma: float | None
    witness: FunctionTable | None


def check_completeness(j: DiscreteJoint, tol: float = DEFAULT_ORDER_TOL) -> CompletenessResult:
    """Decide completeness of the X -> Y conditional family, with certificate.

    The verdict is :meth:`SingularSpectrum.complete`: |X| <= |Y| (with
    |X| > |Y| a nonconstant kernel function always exists) and all
    min(|X|, |Y|) - 1 nontrivial singular values exceed max(``tol``, ROUNDOFF).  Only an
    incomplete joint pays for the witness.
    """
    spectrum = singular_spectrum(j)
    sigma = spectrum.sigma
    complete = spectrum.complete(tol)
    return CompletenessResult(
        complete=complete,
        min_sigma=float(sigma[-1]) if sigma.size and j.n_x <= j.n_y else None,
        witness=None if complete else _kernel_witness(j),
    )


def _kernel_witness(j: DiscreteJoint) -> FunctionTable:
    """A standardized phi on X whose conditional image is (near) constant.

    The deflated normalized table ``Qc`` has sqrt(p_x) in its left null
    space; appending sqrt(p_x) as a column lifts that constant direction to
    singular value 1.  The last left singular vector of ``[Qc | sqrt(p_x)]``
    is then a unit direction orthogonal to sqrt(p_x) with the smallest
    singular value of ``Qc`` (zero when |X| > |Y|), so its image has
    variance sigma^2 <= tol^2 on an incomplete joint.
    """
    _, Qc = _deflated_normalized(j)
    u0 = np.sqrt(j.p_x)
    U, _, _ = np.linalg.svd(np.column_stack([Qc, u0]), full_matrices=True)
    return FunctionTable(U[:, -1] / u0, "x", standardized=True)


def make_finite_rank_joint(
    p0: np.ndarray,
    components: Sequence[tuple[np.ndarray, np.ndarray]],
    p_y: np.ndarray,
) -> DiscreteJoint:
    """Joint with conditional p(x|y) = p0(x) + sum_i p_i(x) q_i(y).

    Each component is a pair (p_i on X summing to zero, q_i on Y); the
    resulting conditional must stay nonnegative cell by cell.  The images
    E{phi(X)|Y} of all inputs then live in span{1, q_1, ..., q_m}, so the
    joint's order-m scale value is exactly zero with m = len(components).
    ``p0`` (on X) and ``p_y`` (on Y, strictly positive) must be probability
    vectors within 1e-9 of mass 1; both are then renormalized exactly.
    """
    p_y = _probability_vector(p_y, "p_y", positive=True)
    p0 = _probability_vector(p0, "p0", positive=False)
    cond = np.tile(p0[:, None], (1, p_y.size))
    for i, (p_i, q_i) in enumerate(components):
        p_i = np.asarray(p_i, dtype=float)
        q_i = np.asarray(q_i, dtype=float)
        if p_i.shape != p0.shape or q_i.shape != p_y.shape:
            raise InvalidDistributionError(
                f"component {i} has shapes {p_i.shape}/{q_i.shape}, "
                f"expected {p0.shape}/{p_y.shape}"
            )
        if abs(p_i.sum()) > CONSTRUCTION_MASS_TOL:
            raise InvalidDistributionError(
                f"component {i} sums to {float(p_i.sum())!r}, not 0"
            )
        cond = cond + np.outer(p_i, q_i)
    if np.any(cond < 0):
        x, y = np.argwhere(cond < 0)[0]
        raise InvalidDistributionError(
            f"conditional p(x|y) is {float(cond[x, y])!r} at cell ({x}, {y})"
        )
    return DiscreteJoint(cond * p_y[None, :])
