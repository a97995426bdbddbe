"""Empirical joints from samples, binning, and plug-in dependence profiles.

Samples only enter the pipeline here.  A pair of observed columns is turned
into a plug-in joint table by discretizing each column and counting; the
spectral machinery then runs unchanged on the result.  Three discretizers
are available per column:

``quantile``
    Equal-mass bins.  Interior edges are midpoint-interpolated order
    statistics (ties resolved by value, then input order via stable
    sorting); the default everywhere is 8 x 8.
``uniform-width``
    Equal-width bins spanning [min, max].
``categorical``
    One atom per distinct observed value; bin counts are ignored.

Bins that receive no samples are merged into their nearest nonempty
neighbor (nearest by bin index, ties toward the left): the merged bin's
label absorbs the empty interval, so the atom alphabet is exactly the
nonempty bins and nothing is dropped silently.  A column that quantile or
uniform binning cannot split (constant, or collapsed by ties) falls back to
categorical.

Plug-in estimates are biased upward for small samples; reports carry an
explicit flag once n < 10 * |X| * |Y|.

For calibration there is also a *sample-free* discretizer,
:func:`gaussian_quantile_joint`, which computes the exact cell masses of a
standard bivariate Gaussian on the quantile grid by Gauss-Legendre
quadrature in quantile space.  Dyadic refinements of that grid are nested,
so its maximal correlation climbs monotonically toward |rho|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import InvalidDistributionError
from .joints import DiscreteJoint, SampleTable, _sample_columns
from .spectral import (
    DEFAULT_ORDER_TOL,
    DependenceProfile,
    SingularSpectrum,
    singular_spectrum,
)

Strategy = Literal["quantile", "uniform-width", "categorical"]

_STRATEGIES = ("quantile", "uniform-width", "categorical")


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
    """A plug-in dependence profile with its provenance.

    ``spectrum`` is the plug-in joint's spectrum the profile was read from.
    ``bins`` holds the achieved alphabet sizes (|X|, |Y|) after empty-bin
    merging and categorical fallbacks; ``bias_warning`` is set when
    n < 10 * |X| * |Y|, the regime where the plug-in R is noticeably
    inflated.
    """

    profile: DependenceProfile
    spectrum: SingularSpectrum
    joint: DiscreteJoint
    n: int
    bins: tuple[int, int]
    bias_warning: bool


def bin_column(values: np.ndarray, bins: int, strategy: Strategy) -> tuple[np.ndarray, list[str]]:
    """Discretize one column; returns (codes, atom labels).

    Codes are dense in 0..k-1 with every atom occupied.  Numeric strategies
    fall back to categorical when the edges collapse.
    """
    if strategy == "categorical" or values.dtype == object:
        atoms, codes = np.unique(values.astype(str) if values.dtype == object else values,
                                 return_inverse=True)
        return codes, [str(a) for a in atoms]
    col = values.astype(float)
    if strategy == "quantile":
        qs = np.arange(1, bins) / bins
        edges = np.quantile(col, qs, method="midpoint")
    elif strategy == "uniform-width":
        edges = np.linspace(col.min(), col.max(), bins + 1)[1:-1]
    else:  # pragma: no cover - BinningSpec already screens strategies
        raise InvalidDistributionError(f"unknown binning strategy {strategy!r}")
    codes = np.digitize(col, edges)
    occupied = np.flatnonzero(np.bincount(codes, minlength=bins))
    if occupied.size < 2:
        # Degenerate edges: the column is constant or collapses under ties.
        return bin_column(values, bins, "categorical")
    remap = np.full(bins, -1)
    remap[occupied] = np.arange(occupied.size)
    labels = _merged_interval_labels(edges, occupied, bins)
    return remap[codes], labels


def _merged_interval_labels(edges: np.ndarray, occupied: np.ndarray, bins: int) -> list[str]:
    """Interval labels where empty bins are absorbed by the nearest occupied one."""
    # owner[b] = occupied bin absorbing original bin b (nearest index, tie left).
    pos = np.searchsorted(occupied, np.arange(bins))
    pos = np.clip(pos, 0, occupied.size - 1)
    left = occupied[np.clip(pos - 1, 0, occupied.size - 1)]
    right = occupied[pos]
    dist_left = np.abs(np.arange(bins) - left)
    dist_right = np.abs(right - np.arange(bins))
    owner = np.where(dist_left <= dist_right, left, right)
    owner[occupied] = occupied
    bounds = np.concatenate([[-np.inf], edges, [np.inf]])
    labels = []
    for b in occupied:
        mine = np.nonzero(owner == b)[0]
        lo, hi = bounds[mine.min()], bounds[mine.max() + 1]
        labels.append(f"[{lo:.6g}, {hi:.6g})")
    return labels


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
    :class:`~depscale.joints.SampleTable`.
    """
    x, ys = _sample_columns(x, ys)
    n = x.shape[0]
    codes_x, labels_x = bin_column(x, spec.bins_x, spec.strategy)
    parts = [bin_column(y, spec.bins_y, spec.strategy) for y in ys]
    codes_y, labels_y = _product_codes(parts)
    n_x, n_y = len(labels_x), len(labels_y)
    counts = np.bincount(codes_x * n_y + codes_y, minlength=n_x * n_y).reshape(n_x, n_y)
    return DiscreteJoint(
        counts / n, labels_x=tuple(labels_x), labels_y=tuple(labels_y)
    )


def _product_codes(
    parts: Sequence[tuple[np.ndarray, list[str]]],
) -> tuple[np.ndarray, list[str]]:
    """Dense codes and labels of the observed tuples of several binned columns.

    Tuples are numbered in lexicographic order, first column most
    significant (the order of ``np.unique(axis=0)``).  The code is
    re-densified after each column, so it stays below the sample count and
    no array is sized by the product of the alphabets.
    """
    code, labels = parts[0]
    # combos[d][t] is column d's code in tuple t.
    combos = [np.arange(len(labels))]
    for col, col_labels in parts[1:]:
        k = len(col_labels)
        used, code = np.unique(code * k + col, return_inverse=True)
        combos = [c[used // k] for c in combos] + [used % k]
    labels = [
        "&".join(part[1][i] for part, i in zip(parts, combo))
        for combo in zip(*combos)
    ]
    return code, labels


def profile_of_joint(
    joint: DiscreteJoint, n: int, max_order: int | None, *, tol: float = DEFAULT_ORDER_TOL
) -> ProfileEstimate:
    """Wrap a plug-in joint's profile with its estimation metadata.

    ``max_order`` None means min(|X|, |Y|) - 1 (see :meth:`SingularSpectrum.profile`).
    """
    spectrum = singular_spectrum(joint)
    return ProfileEstimate(
        profile=spectrum.profile(max_order, tol),
        spectrum=spectrum,
        joint=joint,
        n=n,
        bins=(joint.n_x, joint.n_y),
        bias_warning=n < 10 * joint.n_x * joint.n_y,
    )


# --------------------------------------------------------------------------
# Sample-free discretization of a standard bivariate Gaussian.
# --------------------------------------------------------------------------

_GL_NODES = 48


def gaussian_quantile_joint(
    rho: float, bins_x: int, bins_y: int | None = None
) -> DiscreteJoint:
    """Exact quantile-grid cell masses of a correlation-``rho`` Gaussian.

    Cell (i, j) receives P(X in x-bin i, Y in y-bin j) where the bins are
    equal-mass intervals (edges at normal quantiles).  Substituting
    u = Phi(x) makes each x-panel finite:

        P[i, j] = integral over u in (i/k, (i+1)/k) of
                  Phi((b_{j+1} - rho * ndtri(u)) / s) - Phi((b_j - ...) / s) du

    with s = sqrt(1 - rho^2), evaluated by fixed-order Gauss-Legendre
    quadrature per panel.  Needs |rho| < 1.
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
    table = table / table.sum()
    edges_x = np.concatenate([[-np.inf], ndtri(starts[1:]), [np.inf]])
    labels_x = [f"[{edges_x[i]:.6g}, {edges_x[i+1]:.6g})" for i in range(bins_x)]
    labels_y = [f"[{edges_y[j]:.6g}, {edges_y[j+1]:.6g})" for j in range(bins_y)]
    return DiscreteJoint(table, labels_x=tuple(labels_x), labels_y=tuple(labels_y))
