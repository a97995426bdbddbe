"""Empirical joints from samples, binning, and plug-in dependence profiles.

Samples only enter the pipeline here.  A pair of observed columns is turned
into a plug-in joint table by discretizing each column and counting; the
spectral machinery then runs unchanged on the result.  Three discretizers
are available per column:

``quantile``
    Equal-mass bins.  Interior edges are midpoint-interpolated order
    statistics read off one sort of the column; the default everywhere is
    8 x 8.
``uniform-width``
    Equal-width bins spanning [min, max].
``categorical``
    One atom per distinct observed value; bin counts are ignored.

Bins that receive no samples are dropped: the atom alphabet is exactly the
nonempty bins, numbered in order, and an atom is its index (no interval or
value labels are kept).  Numeric codes are found by comparison with the
edges.  A column that quantile or uniform binning cannot split (constant,
or collapsed by ties) falls back to categorical.

Plug-in estimates are biased upward for small samples; reports carry an
explicit flag once n < 10 * |X| * |Y|.

For calibration, :func:`gaussian_quantile_joint` is a *sample-free*
discretizer: the quantile-grid cell masses of a standard bivariate Gaussian by
Gauss-Legendre quadrature in quantile space, to about 1e-6 absolute.  Dyadic
refinements of the grid nest, so its R climbs monotonically toward |rho|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import InvalidDistributionError
from .joints import DiscreteJoint, SampleTable, _column_names, _sample_columns
from .spectral import SingularSpectrum, singular_spectrum

Strategy = Literal["quantile", "uniform-width", "categorical"]

_STRATEGIES = ("quantile", "uniform-width", "categorical")

#: The most cells a plug-in joint may have.  A column of distinct strings is
#: binned one atom per value, so n such rows would make an n x n table; 2**24
#: cells (4096 x 4096) are 128 MiB of float64, before any SVD copy.
_MAX_CELLS = 2**24


@dataclass(frozen=True)
class BinningSpec:
    """How to discretize the two columns of a sample table.

    ``bins_x`` / ``bins_y`` are requested bin counts for the non-categorical
    strategies (at least 2 each); the categorical strategy ignores them.
    """

    strategy: Strategy = "quantile"
    bins_x: int = 8
    bins_y: int = 8

    def __post_init__(self) -> None:
        if self.strategy not in _STRATEGIES:
            raise InvalidDistributionError(
                f"unknown binning strategy {self.strategy!r}; "
                f"expected one of {_STRATEGIES}"
            )
        if self.strategy != "categorical":
            if self.bins_x < 2 or self.bins_y < 2:
                raise InvalidDistributionError(
                    f"bin counts must be >= 2, got {self.bins_x} x {self.bins_y}"
                )


@dataclass(frozen=True)
class ProfileEstimate:
    """A plug-in joint of ``n`` samples with its spectrum.

    The profile is ``spectrum.profile(max_order, tol)``; the achieved
    alphabet sizes after dropping empty bins and categorical fallbacks are
    ``joint.n_x`` and ``joint.n_y``.
    """

    spectrum: SingularSpectrum
    joint: DiscreteJoint
    n: int

    @property
    def bias_warning(self) -> bool:
        """n < 10 * |X| * |Y|, the regime where the plug-in R is noticeably
        inflated."""
        return self.n < 10 * self.joint.n_x * self.joint.n_y


def bin_column(values: np.ndarray, bins: int, strategy: Strategy) -> np.ndarray:
    """Discretize one column into dense codes.

    Codes are dense in 0..k-1 with every atom occupied, so the alphabet size
    is ``codes.max() + 1``; empty bins are dropped and the occupied ones keep
    their order.  Categorical codes number the distinct values in sorted
    order.  A numeric column must be non-empty and finite, or
    ``InvalidDistributionError`` is raised.  Numeric strategies fall back to
    categorical when the edges collapse, and raise ``FloatingPointError``
    when computing the edges overflows.
    """
    if strategy == "categorical" or values.dtype == object:
        return np.unique(values.astype(str) if values.dtype == object else values,
                         return_inverse=True)[1]
    col = values.astype(float, copy=False)
    if col.size == 0 or not np.all(np.isfinite(col)):
        raise InvalidDistributionError("a numeric column to bin must be non-empty and finite")
    with np.errstate(over="raise", invalid="raise"):
        if strategy == "quantile":
            # np.quantile(col, k / bins, method="midpoint") by numpy's arithmetic.
            s = np.sort(col)
            v = (s.size - 1) * (np.arange(1, bins) / bins)
            lo = np.floor(v).astype(np.intp)
            a, b = s[lo], s[np.minimum(lo + 1, s.size - 1)]
            edges = np.where(v == lo, a + (b - a) * 0, b - (b - a) * 0.5)
        elif strategy == "uniform-width":
            edges = np.linspace(col.min(), col.max(), bins + 1)[1:-1]
        else:  # pragma: no cover - BinningSpec already screens strategies
            raise InvalidDistributionError(f"unknown binning strategy {strategy!r}")
    if bins > 128:  # past about 160 bins a binary search beats a pass per edge
        codes = np.digitize(col, edges)
    else:  # np.digitize's codes, for finite values and non-decreasing edges
        codes = np.zeros(col.shape, np.uint8)
        for edge in edges:
            codes += col >= edge
    occupied = np.flatnonzero(np.bincount(codes, minlength=bins))
    if occupied.size < 2:
        # Degenerate edges: the column is constant or collapses under ties.
        return bin_column(values, bins, "categorical")
    remap = np.full(bins, -1)
    remap[occupied] = np.arange(occupied.size)
    return remap[codes]


def empirical_joint(sample: SampleTable, spec: BinningSpec) -> DiscreteJoint:
    """Plug-in joint table of a paired sample under ``spec``."""
    return empirical_joint_grouped(sample.x, [sample.y], spec)


def empirical_joint_grouped(
    x: np.ndarray, ys: Sequence[np.ndarray], spec: BinningSpec
) -> DiscreteJoint:
    """Plug-in joint of X against one or more jointly binned Y columns.

    Each Y column is discretized on its own, then the tuple of codes forms
    the product alphabet; with a single column this is exactly
    :func:`empirical_joint`.  Used to study how dependence grows as more
    coordinates are adjoined to Y.  The columns must pass the checks of
    :class:`~depscale.joints.SampleTable`, and the table may have at most
    ``_MAX_CELLS`` cells.
    """
    x, ys = _sample_columns(x, ys)
    n = x.shape[0]
    parts = []
    sizes = [spec.bins_x] + [spec.bins_y] * len(ys)
    for col, bins, name in zip([x, *ys], sizes, _column_names(len(ys))):
        try:
            parts.append(bin_column(col, bins, spec.strategy))
        except FloatingPointError:
            raise InvalidDistributionError(
                f"sample column {name!r}: {spec.strategy} bin edges overflow a float"
            ) from None
    codes_x, *parts = parts
    codes_y = _product_codes(parts)
    n_x, n_y = int(codes_x.max()) + 1, int(codes_y.max()) + 1
    if n_x * n_y > _MAX_CELLS:
        raise InvalidDistributionError(
            f"a plug-in joint of {n_x} x {n_y} atoms is over the {_MAX_CELLS}-cell cap"
        )
    counts = np.bincount(codes_x * n_y + codes_y, minlength=n_x * n_y).reshape(n_x, n_y)
    return DiscreteJoint(counts / n)


def _product_codes(parts: Sequence[np.ndarray]) -> np.ndarray:
    """Dense codes of the observed tuples of several binned columns.

    Tuples are numbered in lexicographic order, first column most
    significant (the order of ``np.unique(axis=0)``).  The code is
    re-densified after each column, so it stays below the sample count and
    no array is sized by the product of the alphabets: ``np.bincount``
    renumbers a combined code below the sample count, ``np.unique`` others.
    """
    code = parts[0]
    for col in parts[1:]:
        code = code * (int(col.max()) + 1) + col
        if int(code.max()) < code.size:
            code = (np.cumsum(np.bincount(code) > 0) - 1)[code]
        else:
            code = np.unique(code, return_inverse=True)[1]
    return code


def profile_of_joint(joint: DiscreteJoint, n: int) -> ProfileEstimate:
    """Wrap a plug-in joint of ``n`` samples with its spectrum."""
    return ProfileEstimate(spectrum=singular_spectrum(joint), joint=joint, n=n)


# --------------------------------------------------------------------------
# Sample-free discretization of a standard bivariate Gaussian.
# --------------------------------------------------------------------------

_GL_NODES = 48


def gaussian_quantile_joint(
    rho: float, bins_x: int, bins_y: int | None = None
) -> DiscreteJoint:
    """Quantile-grid cell masses of a correlation-``rho`` Gaussian.

    Cell (i, j) is P(X in x-bin i, Y in y-bin j) on equal-mass bins (edges at
    normal quantiles).  Substituting u = Phi(x) makes each x-panel finite:

        P[i, j] = integral over u in (i/k, (i+1)/k) of
                  Phi((b_{j+1} - rho * ndtri(u)) / s) - Phi((b_j - ...) / s) du

    with s = sqrt(1 - rho^2), by a fixed-order Gauss-Legendre rule per panel.
    The rule meets the singularity of ``ndtri`` in the two tail panels, so a
    cell is accurate to about 1e-6 absolute, not to rounding (9.2e-7 off
    Owen's T at rho 0.5 on 4 x 4 bins).  Needs |rho| < 1.
    """
    # scipy is imported here, its only use, to keep it off the CLI's start-up.
    from scipy.special import ndtr, ndtri

    if not -1.0 < rho < 1.0:
        raise InvalidDistributionError(
            f"rho must lie strictly inside (-1, 1), got {float(rho)!r}"
        )
    if bins_y is None:
        bins_y = bins_x
    if bins_x < 2 or bins_y < 2:
        raise InvalidDistributionError("need at least 2 bins per axis")
    s = np.sqrt(1.0 - rho * rho)
    nodes, weights = np.polynomial.legendre.leggauss(_GL_NODES)
    starts = np.arange(bins_x) / bins_x
    # Quadrature points for every x-panel at once: u has shape (bins_x, nodes).
    half = 1.0 / (2.0 * bins_x)
    u = starts[:, None] + half * (nodes[None, :] + 1.0)
    x = ndtri(u)
    edges_y = np.concatenate([[-np.inf], ndtri(np.arange(1, bins_y) / bins_y), [np.inf]])
    # cdf[i, q, j] = Phi((b_j - rho x_iq) / s); differences give bin masses.
    z = (edges_y[None, None, :] - rho * x[:, :, None]) / s
    cdf = ndtr(z)
    masses = cdf[:, :, 1:] - cdf[:, :, :-1]
    table = np.einsum("q,iqj->ij", weights * half, masses)
    table = np.clip(table, 0.0, None)
    return DiscreteJoint(table / table.sum())
