"""Joint distribution containers and structural operations.

The discrete side of the package works on finite joint probability tables
P(x, y) with strictly positive marginals; the Gaussian side works on a
partitioned covariance matrix.  Everything downstream (spectra, transforms,
completeness) consumes these containers, so validation is front-loaded here:
a constructed object is always safe to compute with.

Tolerances: input tables and probability vectors (CSV entry points in
:mod:`depscale.io`, and the vectors handed to constructions) are accepted up
to 1e-9 deviation from mass 1 and then renormalized exactly, which is also
the contract of :func:`make_joint`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

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

#: Allowed deviation of an *input* table's total mass from 1 before rejection.
INPUT_MASS_TOL = 1e-9


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
    silently dropped).  Optional ``labels_x`` / ``labels_y`` name the atoms;
    they play no role in any computation.  The marginals ``p_x`` (row sums)
    and ``p_y`` (column sums) are computed once, from the frozen ``probs``.
    """

    probs: np.ndarray
    labels_x: tuple[str, ...] | None = None
    labels_y: tuple[str, ...] | None = None
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
        p = _frozen_array(p / total)  # exact renormalization after validation
        for name, axis, atom in (("p_x", 1, "row"), ("p_y", 0, "column")):
            marginal = p.sum(axis=axis)
            if np.any(marginal <= 0):
                raise ZeroMarginalError(
                    f"{atom} {int(np.argmin(marginal))} has zero mass"
                )
            marginal.flags.writeable = False
            object.__setattr__(self, name, marginal)
        object.__setattr__(self, "probs", p)
        for name, n in (("labels_x", p.shape[0]), ("labels_y", p.shape[1])):
            labels = getattr(self, name)
            if labels is not None:
                labels = tuple(str(s) for s in labels)
                if len(labels) != n:
                    raise InvalidDistributionError(
                        f"{name} has {len(labels)} entries for {n} atoms"
                    )
                object.__setattr__(self, name, labels)

    @property
    def n_x(self) -> int:
        return self.probs.shape[0]

    @property
    def n_y(self) -> int:
        return self.probs.shape[1]

    def transposed(self) -> "DiscreteJoint":
        """The joint with the roles of X and Y swapped."""
        return DiscreteJoint(self.probs.T, self.labels_y, self.labels_x)


def make_joint(
    probs: np.ndarray | Sequence[Sequence[float]],
    labels_x: Sequence[str] | None = None,
    labels_y: Sequence[str] | None = None,
) -> DiscreteJoint:
    """Validate and exactly renormalize a probability table.

    Accepts any nonnegative rectangular table whose mass is within 1e-9 of 1
    and whose row/column sums are all strictly positive.
    """
    return DiscreteJoint(
        np.asarray(probs, dtype=float),
        None if labels_x is None else tuple(labels_x),
        None if labels_y is None else tuple(labels_y),
    )


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
    labels_y = None
    if j.labels_y is not None:
        labels_y = tuple(
            f"{ly}|z{k}" for ly in j.labels_y for k in range(r.size)
        )
    return DiscreteJoint(np.kron(j.probs, r[None, :]), j.labels_x, labels_y)


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
    seen: set[int] = set()
    groups: list[list[int]] = []
    for g in partition:
        idx = [int(i) for i in g]
        if len(idx) == 0:
            raise InvalidDistributionError("empty group in partition")
        for i in idx:
            if i < 0 or i >= j.n_y:
                raise InvalidDistributionError(
                    f"column index {i} out of range for {j.n_y} columns"
                )
            if i in seen:
                raise InvalidDistributionError(f"column index {i} appears twice")
            seen.add(i)
        groups.append(idx)
    if len(seen) != j.n_y:
        missing = sorted(set(range(j.n_y)) - seen)
        raise InvalidDistributionError(f"columns {missing} not covered by partition")
    cols = np.stack([j.probs[:, idx].sum(axis=1) for idx in groups], axis=1)
    labels_y = None
    if j.labels_y is not None:
        labels_y = tuple("+".join(j.labels_y[i] for i in idx) for idx in groups)
    return DiscreteJoint(cols, j.labels_x, labels_y)


@dataclass(frozen=True)
class GaussianJoint:
    """A jointly Gaussian pair (X, Y) described by its covariance blocks.

    Only second moments matter for anything computed here, so means are not
    stored.  ``v11`` (m x m) and ``v22`` (n x n) must be symmetric positive
    definite; the assembled (m+n) x (m+n) block matrix must be symmetric
    positive semidefinite.
    """

    v11: np.ndarray
    v12: np.ndarray
    v22: np.ndarray

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
        for name, block in (("v11", v11), ("v22", v22)):
            if not np.allclose(block, block.T, atol=1e-10, rtol=0.0):
                raise NotPositiveDefiniteError(f"{name} is not symmetric")
            if np.min(np.linalg.eigvalsh((block + block.T) / 2.0)) <= 1e-12:
                raise NotPositiveDefiniteError(
                    f"{name} has an eigenvalue at or below the 1e-12 floor"
                )
        full = np.block([[v11, v12], [v12.T, v22]])
        if np.min(np.linalg.eigvalsh((full + full.T) / 2.0)) < -1e-10:
            raise NotPositiveDefiniteError(
                "assembled block covariance is not positive semidefinite"
            )
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
    the corresponding marginal (mean 0, variance 1 within 1e-10).
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
    y_names = ["y"] if len(ys) == 1 else [f"y[{i}]" for i in range(len(ys))]
    cols = [_sample_column(c, name) for c, name in zip([x, *ys], ["x", *y_names])]
    n = cols[0].shape[0]
    for col in cols[1:]:
        if col.shape[0] != n:
            raise InvalidDistributionError(
                f"column lengths differ: {n} vs {col.shape[0]}"
            )
    if n < 2:
        raise TooFewSamplesError(f"need at least 2 paired observations, got {n}")
    return cols[0], cols[1:]


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
