"""Joint distribution containers and structural operations.

The discrete side of the package works on finite joint probability tables
P(x, y) with strictly positive marginals; the Gaussian side works on a
partitioned covariance matrix.  Everything downstream (spectra, transforms,
completeness) consumes these containers, so validation is front-loaded here:
a constructed object is always safe to compute with.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import Any, Literal, Sequence

import numpy as np

from .errors import (
    InvalidBlockError,
    InvalidDistributionError,
    NegativeEntryError,
    NotNormalizedError,
    NotPositiveDefiniteError,
    TooFewSamplesError,
    ZeroMarginalError,
)

# Every tolerance, stated against the scale of what it tests: mass 1, sigma0 =
# 1 (which bounds every correlation), or an _equilibrate'd diagonal in [1/4, 1).
INPUT_MASS_TOL = 1e-9  #: mass: an input table's or vector's distance from 1
CONSTRUCTION_MASS_TOL = 1e-12  #: mass: a finite-rank component's sum's distance from 0
DEFAULT_ORDER_TOL = 1e-10  #: sigma0: default ``tol``; a singular value or rho <= tol is 0
SPECTRUM_SLACK = 1e-10  #: sigma0: slack on sigma0 = 1, on [0, 1] and on the order
ORACLE_TOL = 1e-12  #: sigma0: oracle stop on ||grad log det||**2, relative to the max
CURVE_SLACK = 1e-12  #: sigma0: slack on a noise curve's rise to lambda = 0 and fall
STANDARDIZED_TOL = 1e-8  #: variance 1: a table this close to it is standardized
VANISHING_SHARE = 1e-9  #: largest entry: a smaller share of it vanishes in the sign rule
COV_SLACK = 1e-10  #: equilibrated diagonal: slack on symmetry and on PSD
COV_FLOOR = 1e-12  #: equilibrated diagonal: a diagonal block's eigenvalues exceed it
ROUNDOFF = 64 * np.finfo(float).eps  #: sigma0: least ACE cut; times rho_1, least residual


def check_tol(tol: float) -> None:
    """Reject a numerical tolerance that is negative or not finite."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and >= 0, got {float(tol)!r}")


def _debug_logger() -> Any:
    """The ``depscale`` logger, or None while logging is not imported.

    A record can reach a handler only once logging has been imported (and
    configured); importing it here would add ~3 ms to every CLI start.
    """
    logging = sys.modules.get("logging")
    return None if logging is None else logging.getLogger("depscale")


def _current_cpu() -> int | None:
    """The CPU this thread last ran on, from Linux's ``/proc``; else None."""
    try:
        with open("/proc/thread-self/stat", "rb") as fh:
            # field 39, the 37th after the parenthesised command name
            return int(fh.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _place_worker(worker: int) -> None:
    """Give ``worker`` (a forked child's pid, a thread's native id) every
    usable CPU but this thread's: the one placement rule of both parallel
    steps, applied by the starter just after it starts its worker.  On a VM
    whose other vCPU has idled, Linux at times starts a new task beside its
    starter, and the two then share one CPU for the whole step.  Without
    ``/proc`` or a second usable CPU, or if the host refuses, nothing happens."""
    cpu = _current_cpu()
    others = os.sched_getaffinity(0) - {cpu} if cpu is not None else None
    if others:
        try:
            os.sched_setaffinity(worker, others)
        except OSError:  # a set the host refuses, or a worker already gone (ESRCH)
            pass


def _quarter_split(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, s) with p == a * 4**s exactly and a in [1/4, 1), for p > 0."""
    m, e = np.frexp(p)
    s = -(-e // 2)
    return np.ldexp(m, e - 2 * s), s


def _equilibrate(v: np.ndarray, name: str) -> np.ndarray:
    """Covariance ``v`` with row and column i divided exactly by 2**s_i, where
    v_ii = c * 4**s_i, c in [1/4, 1) (van der Sluis 1969), then symmetrized.  An
    entry past 1 fails a 2 x 2 minor: it is rejected before a difference can overflow."""
    if not np.all(np.isfinite(v)):
        raise NotPositiveDefiniteError(f"{name} contains non-finite entries")
    d = np.diag(v)
    if np.any(d <= 0):
        raise NotPositiveDefiniteError(f"{name} has a variance at or below 0")
    _, s = _quarter_split(d)
    with np.errstate(over="ignore"):
        e = np.ldexp(v, -np.add.outer(s, s))
    if not np.all(np.abs(e) <= 1.0 + COV_SLACK):
        raise NotPositiveDefiniteError(f"{name} has an entry beyond its variances: not PSD")
    if not np.all(np.abs(e - e.T) <= COV_SLACK):
        raise NotPositiveDefiniteError(f"{name} is not symmetric")
    return (e + e.T) / 2.0  # eigh reads one triangle


def _frozen_array(a: np.ndarray, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class DiscreteJoint:
    """A finite joint probability table.

    ``probs[x, y]`` is P(X = x, Y = y).  Entries are nonnegative, the total
    mass is renormalized to 1 exactly at construction, and every row and
    column marginal is strictly positive (zero-mass atoms are rejected, not
    silently dropped).  An atom is its index: every dependence measure is
    invariant under renaming the atoms, so the table carries no names, and a
    caller that wants them keeps its own index-to-name list.  The marginals
    ``p_x`` (row sums) and ``p_y`` (column sums) are computed once, from the
    frozen ``probs``.
    """

    probs: np.ndarray
    p_x: np.ndarray = field(init=False, repr=False, compare=False)
    p_y: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 2 or p.size == 0:
            raise InvalidDistributionError(
                f"joint table must be a nonempty 2-D array, got shape {p.shape}"
            )
        if not np.all(np.isfinite(p)):
            raise InvalidDistributionError("joint table contains non-finite entries")
        if np.any(p < 0):
            x, y = np.argwhere(p < 0)[0]
            raise NegativeEntryError(
                f"negative probability {float(p[x, y])!r} at cell ({x}, {y})"
            )
        total = p.sum()
        if abs(total - 1.0) > INPUT_MASS_TOL:
            raise NotNormalizedError(
                f"joint table mass is {float(total)!r}, outside 1 +/- {INPUT_MASS_TOL}"
            )
        p = p / total  # exact renormalization after validation; a new array
        p.flags.writeable = False
        for name, axis, atom in (("p_x", 1, "row"), ("p_y", 0, "column")):
            marginal = p.sum(axis=axis)
            if np.any(marginal <= 0):
                raise ZeroMarginalError(
                    f"{atom} {int(np.argmin(marginal))} has zero mass"
                )
            marginal.flags.writeable = False
            object.__setattr__(self, name, marginal)
        object.__setattr__(self, "probs", p)

    @property
    def n_x(self) -> int:
        return self.probs.shape[0]

    @property
    def n_y(self) -> int:
        return self.probs.shape[1]

    def transposed(self) -> "DiscreteJoint":
        """The joint with the roles of X and Y swapped."""
        return DiscreteJoint(self.probs.T)


def make_joint(probs: np.ndarray | Sequence[Sequence[float]]) -> DiscreteJoint:
    """Validate and exactly renormalize a probability table.

    Accepts any nonnegative rectangular table whose mass is within 1e-9 of 1
    and whose row/column sums are all strictly positive.  Rows and columns
    are the atoms of X and Y, named by their indices.
    """
    return DiscreteJoint(np.asarray(probs, dtype=float))


def conditional_matrix(j: DiscreteJoint) -> np.ndarray:
    """Conditional table K with ``K[x, y] = P(X = x | Y = y)``.

    Every column is a probability vector; columns are well defined because
    construction guarantees positive column marginals.
    """
    return j.probs / j.p_y[None, :]


def augment_with_independent(j: DiscreteJoint, r: np.ndarray) -> DiscreteJoint:
    """Extend Y with an independent coordinate Z ~ r.

    Returns the joint of (X, (Y, Z)) with P(x, (y, z)) = P(x, y) * r(z).
    Columns are ordered with Y major and Z minor, i.e. column index
    ``y * len(r) + z``, which :func:`coarsen_y` over consecutive groups of
    ``len(r)`` columns inverts exactly.
    """
    r = _probability_vector(r, "r", positive=True)
    return DiscreteJoint(np.kron(j.probs, r[None, :]))


def _probability_vector(v: np.ndarray, name: str, *, positive: bool) -> np.ndarray:
    """``v`` checked as a probability vector and renormalized exactly.

    Entries must be finite and nonnegative (strictly positive when
    ``positive``), with mass within ``INPUT_MASS_TOL`` of 1.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise InvalidDistributionError(f"{name} must be a nonempty 1-D probability vector")
    if not np.all(np.isfinite(v)):
        raise InvalidDistributionError(f"{name} contains non-finite entries")
    if np.any(v < 0):
        raise InvalidDistributionError(f"{name} contains a negative entry")
    if positive and np.any(v == 0):
        raise InvalidDistributionError(f"{name} contains a zero-mass atom")
    total = v.sum()
    if abs(total - 1.0) > INPUT_MASS_TOL:
        raise InvalidDistributionError(
            f"{name} has mass {float(total)!r}, outside 1 +/- {INPUT_MASS_TOL}"
        )
    return v / total


def coarsen_y(j: DiscreteJoint, partition: Sequence[Sequence[int]]) -> DiscreteJoint:
    """Merge Y atoms along a partition of the column indices.

    ``partition`` is a list of groups of 0-based column indices covering every
    column exactly once.  Group order becomes the new column order.  This is
    deterministic post-processing of Y, so no dependence measure can increase
    under it.
    """
    groups = [[int(i) for i in g] for g in partition]
    if not all(groups) or sorted(i for g in groups for i in g) != list(range(j.n_y)):
        raise InvalidDistributionError(
            f"partition must split columns 0..{j.n_y - 1} into nonempty groups "
            "that use each column exactly once"
        )
    cols = np.stack([j.probs[:, idx].sum(axis=1) for idx in groups], axis=1)
    return DiscreteJoint(cols)


@dataclass(frozen=True)
class GaussianJoint:
    """A jointly Gaussian pair (X, Y) described by its covariance blocks.

    Only second moments matter here, so means are not stored.  ``v11`` (m x m)
    and ``v22`` (n x n) must be symmetric positive definite and the assembled
    block matrix symmetric positive semidefinite, after :func:`_equilibrate`.
    ``whitened`` is its cross block whitened by its diagonal blocks' ``eigh``,
    (v_x / sqrt(w_x))^T e12 (v_y / sqrt(w_y)); block ``lambda_max`` reads it.
    """

    v11: np.ndarray
    v12: np.ndarray
    v22: np.ndarray
    whitened: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        v11 = np.atleast_2d(np.asarray(self.v11, dtype=float))
        v22 = np.atleast_2d(np.asarray(self.v22, dtype=float))
        v12 = np.asarray(self.v12, dtype=float)
        if v12.ndim != 2:
            v12 = v12.reshape(v11.shape[0], -1)
        m, n = v11.shape[0], v22.shape[0]
        if v11.shape != (m, m) or v22.shape != (n, n) or v12.shape != (m, n):
            raise InvalidBlockError(
                f"inconsistent block shapes {v11.shape}, {v12.shape}, {v22.shape}"
            )
        e = _equilibrate(np.block([[v11, v12], [v12.T, v22]]), "the covariance blocks")
        roots = []
        for name, block in (("v11", e[:m, :m]), ("v22", e[m:, m:])):
            w, v = np.linalg.eigh(block)
            if w[0] <= COV_FLOOR:  # the eigenvalues whitening takes square roots of
                raise NotPositiveDefiniteError(f"{name} is singular to within {COV_FLOOR}")
            roots.append(v / np.sqrt(w))
        if np.linalg.eigvalsh(e)[0] < -COV_SLACK:
            raise NotPositiveDefiniteError("the covariance is not positive semidefinite")
        object.__setattr__(self, "whitened", _frozen_array(roots[0].T @ e[:m, m:] @ roots[1]))
        object.__setattr__(self, "v11", _frozen_array(v11))
        object.__setattr__(self, "v12", _frozen_array(v12))
        object.__setattr__(self, "v22", _frozen_array(v22))

    @property
    def dim_x(self) -> int:
        return self.v11.shape[0]

    @property
    def dim_y(self) -> int:
        return self.v22.shape[0]

    @property
    def is_scalar(self) -> bool:
        return self.dim_x == 1 and self.dim_y == 1


@dataclass(frozen=True)
class FunctionTable:
    """Values of a real function on the atoms of one side of a joint.

    ``side`` records which alphabet the table lives on.  The ``standardized``
    flag is set by factories that have centered and scaled the values against
    the corresponding marginal (mean 0, variance 1 within STANDARDIZED_TOL).
    """

    values: np.ndarray
    side: Literal["x", "y"]
    standardized: bool = False

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise InvalidDistributionError("function table must be a nonempty vector")
        if not np.all(np.isfinite(v)):
            raise InvalidDistributionError("function table has non-finite entries")
        if self.side not in ("x", "y"):
            raise InvalidDistributionError(f"side must be 'x' or 'y', got {self.side!r}")
        object.__setattr__(self, "values", _frozen_array(v))


@dataclass(frozen=True)
class SampleTable:
    """Paired observations of (X, Y), numeric or categorical per column.

    Columns are stored as read-only numpy arrays of equal length (float
    arrays for numeric columns, object arrays otherwise).  At least two rows
    are required, and missing or non-finite entries are rejected.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x, (y,) = _sample_columns(self.x, [self.y])
        object.__setattr__(self, "x", _frozen_array(x, x.dtype))
        object.__setattr__(self, "y", _frozen_array(y, y.dtype))

    @property
    def n(self) -> int:
        return self.x.shape[0]


def _sample_columns(
    x: np.ndarray, ys: Sequence[np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Paired sample columns, X against one or more Y columns, checked.

    Every column must be 1-D.  A numeric column comes back as a float array,
    not copied when it already is one, and must be finite; any other column
    comes back as an object array of strings, none of them empty (a missing
    cell).  All columns share one length of at least 2.
    """
    if len(ys) == 0:
        raise InvalidDistributionError("need at least one y column")
    cols = [_sample_column(c, name) for c, name in zip([x, *ys], _column_names(len(ys)))]
    n = cols[0].shape[0]
    for col in cols[1:]:
        if col.shape[0] != n:
            raise InvalidDistributionError(
                f"column lengths differ: {n} vs {col.shape[0]}"
            )
    if n < 2:
        raise TooFewSamplesError(f"need at least 2 paired observations, got {n}")
    return cols[0], cols[1:]


def _column_names(n_ys: int) -> list[str]:
    """How messages name the X column and the Y columns."""
    return ["x", "y"] if n_ys == 1 else ["x", *(f"y[{i}]" for i in range(n_ys))]


def _sample_column(col: np.ndarray, name: str) -> np.ndarray:
    col = np.asarray(col)
    if col.ndim != 1:
        raise InvalidDistributionError(f"sample column {name!r} must be 1-D")
    if col.dtype.kind in "fiu":
        col = col.astype(float, copy=False)
        if not np.all(np.isfinite(col)):
            raise InvalidDistributionError(
                f"sample column {name!r} has missing or non-finite entries"
            )
        return col
    items = [str(v) for v in col.tolist()]
    if any(s == "" for s in items):
        raise InvalidDistributionError(f"sample column {name!r} has missing entries")
    return np.array(items, dtype=object)
