"""Spectral evaluation of the dependence index and the m-dependence scale.

Everything here works on the normalized joint table

    Q[x, y] = P(x, y) / sqrt(p_x(x) * p_y(y)),

whose singular values are 1 = sigma_0 >= sigma_1 >= ... >= 0.  The leading
pair is always (sqrt(p_x), sqrt(p_y)) and corresponds to constant functions;
the nontrivial spectrum starts at sigma_1.  The dependence index of the joint
is sigma_1 ** 2 (the variance of the best conditional-expectation image over
standardized inputs), the maximal correlation is sigma_1, and the order-m
scale value is the product sigma_1**2 * ... * sigma_{m+1}**2: the maximal
generalized variance of the images of m+1 orthonormal standardized inputs is
reached on the top singular subspace, where it factors into that product.

Two independent routes to the same numbers live here on purpose:

* :func:`singular_spectrum` / :func:`dependence_scale` — SVD with the
  constant direction explicitly projected out (never trusting value ordering
  to separate it).
* :func:`gram_det_oracle` — direct numerical maximization of the image
  generalized variance over frames of standardized functions, built from the
  conditional table with no SVD or eigendecomposition anywhere in the path.

Tests hold the two routes against each other; neither is ever collapsed into
the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, SvdFailureError
from .joints import DiscreteJoint, _frozen_array, conditional_matrix

#: Slack allowed on structurally exact spectrum facts (sigma0 = 1, ordering).
SPECTRUM_SLACK = 1e-10

#: Default threshold below which a singular value is treated as zero.
DEFAULT_ORDER_TOL = 1e-10


def normalized_matrix(j: DiscreteJoint) -> np.ndarray:
    """The table P(x, y) / sqrt(p_x(x) p_y(y)).

    Entries lie in [0, 1] because P(x, y) <= min(p_x(x), p_y(y)).
    """
    return j.probs / np.sqrt(np.outer(j.p_x, j.p_y))


@dataclass(frozen=True)
class SingularSpectrum:
    """Singular values of the normalized table, split at the constant pair.

    ``sigma0`` is the leading singular value of the full normalized matrix
    (structurally 1; deviation means the table or its marginals are broken).
    ``sigma`` holds the min(|X|, |Y|) - 1 remaining values in descending
    order, all in [0, 1].  ``shape`` is the joint's (|X|, |Y|).

    Every dependence quantity of the joint is read from this one object, and
    every tolerance question is answered by one rule: a singular value
    counts as zero when it is at most ``tol``.
    """

    sigma0: float
    sigma: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        s = np.asarray(self.sigma, dtype=float)
        if abs(self.sigma0 - 1.0) > SPECTRUM_SLACK:
            raise SvdFailureError(
                f"leading singular value {float(self.sigma0)!r} is not 1; "
                "the normalized table is inconsistent"
            )
        if s.size and (np.any(s < -SPECTRUM_SLACK) or np.any(s > 1 + SPECTRUM_SLACK)):
            raise SvdFailureError("nontrivial singular values escape [0, 1]")
        if s.size > 1 and np.any(np.diff(s) > SPECTRUM_SLACK):
            raise SvdFailureError("singular values are not in descending order")
        if s.shape != (max(min(self.shape) - 1, 0),):
            raise SvdFailureError(
                f"{s.size} nontrivial singular values do not fit a "
                f"{self.shape[0]}x{self.shape[1]} joint"
            )
        s = np.clip(s, 0.0, 1.0)
        s.flags.writeable = False
        object.__setattr__(self, "sigma", s)

    @property
    def r(self) -> float:
        """Maximal correlation sup corr(phi(X), psi(Y)) = sigma_1; its square
        is the dependence index."""
        return float(self.sigma[0]) if self.sigma.size else 0.0

    def order(self, tol: float = DEFAULT_ORDER_TOL) -> int:
        """Dependence order: the numerical rank of ``sigma``, i.e. the first
        m with sigma_{m+1} <= tol (values beyond the spectrum count as zero).

        The conditional images span this many directions beyond constants,
        and d[m] vanishes from this m on.  At most min(|X|, |Y|) - 1.
        """
        below = np.flatnonzero(self.sigma <= tol)
        return int(below[0]) if below.size else int(self.sigma.size)

    def complete(self, tol: float = DEFAULT_ORDER_TOL) -> bool:
        """Completeness of the X -> Y conditional family: |X| <= |Y| and no
        nontrivial singular value is zero, i.e. the order is full."""
        n_x, n_y = self.shape
        return n_x <= n_y and self.order(tol) == self.sigma.size

    def profile(
        self, max_order: int | None = None, tol: float = DEFAULT_ORDER_TOL
    ) -> DependenceProfile:
        """The scale d[0..max_order], d[m] = prod_{i<=m} sigma_{i+1}**2.

        ``max_order`` defaults to min(|X|, |Y|) - 1.  Singular values beyond
        the spectrum count as zero, so ``d[m] == 0`` whenever
        ``m >= min(|X|, |Y|) - 1``.
        """
        if max_order is None:
            max_order = self.sigma.size
        if max_order < 0:
            raise ValueError(f"max_order must be >= 0, got {max_order}")
        padded = np.zeros(max_order + 1)
        k = min(self.sigma.size, max_order + 1)
        padded[:k] = self.sigma[:k]
        order = self.order(tol)
        return DependenceProfile(
            r=self.r,
            d=np.cumprod(padded**2),
            order=order if order <= max_order else None,
        )


def _deflated_normalized(j: DiscreteJoint) -> tuple[np.ndarray, np.ndarray]:
    """Normalized matrix with the constant-direction pair projected out.

    Returns ``(Q, Qc)`` where ``Q`` is :func:`normalized_matrix` and
    ``Qc = (I - u0 u0') Q (I - v0 v0')`` with ``u0 = sqrt(p_x)``,
    ``v0 = sqrt(p_y)``.  The double-sided projection removes the known unit
    singular pair exactly rather than relying on the SVD to rank it first.
    """
    Q = normalized_matrix(j)
    u0 = np.sqrt(j.p_x)
    v0 = np.sqrt(j.p_y)
    Qc = Q - np.outer(u0, u0 @ Q)
    Qc = Qc - np.outer(Qc @ v0, v0)
    return Q, Qc


def _svd_values(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological
        raise SvdFailureError(f"SVD did not converge: {exc}") from exc


def singular_spectrum(j: DiscreteJoint) -> SingularSpectrum:
    """Full spectrum of the normalized table, deflated of the constant pair."""
    Q, Qc = _deflated_normalized(j)
    sigma0 = float(_svd_values(Q)[0])
    k = min(j.n_x, j.n_y) - 1
    sigma = _svd_values(Qc)[:k] if k > 0 else np.empty(0)
    return SingularSpectrum(sigma0=sigma0, sigma=sigma, shape=(j.n_x, j.n_y))


def maximal_correlation(j: DiscreteJoint) -> float:
    """Largest correlation sup corr(phi(X), psi(Y)): :attr:`SingularSpectrum.r`."""
    return singular_spectrum(j).r


@dataclass(frozen=True)
class DependenceProfile:
    """The m-dependence scale d[0..max_order] of a joint.

    ``d[m]`` is the largest generalized variance (covariance determinant) of
    the images of m+1 standardized, mutually uncorrelated functions of X.
    ``r`` is the maximal correlation (so d[0] == r**2), and ``order`` is the
    joint's dependence order (see :meth:`SingularSpectrum.order`), or None
    when it exceeds ``max_order``.
    """

    r: float
    d: np.ndarray
    order: int | None

    def __post_init__(self) -> None:
        d = _frozen_array(self.d)
        if d.size == 0:
            raise SvdFailureError("profile must contain at least d[0]")
        if np.any(d < 0) or np.any(d > 1):
            raise SvdFailureError("profile values escape [0, 1]")
        if np.any(np.diff(d) > SPECTRUM_SLACK):
            raise SvdFailureError("profile is not non-increasing")
        if abs(d[0] - self.r**2) > SPECTRUM_SLACK:
            raise SvdFailureError("profile head disagrees with r**2")
        object.__setattr__(self, "d", d)


def dependence_scale(
    j: DiscreteJoint, max_order: int, *, tol: float = DEFAULT_ORDER_TOL
) -> DependenceProfile:
    """Evaluate the dependence scale d[0..max_order]: :meth:`SingularSpectrum.profile`."""
    return singular_spectrum(j).profile(max_order, tol)


# --------------------------------------------------------------------------
# Independent oracle: direct ascent on the image generalized variance.
# --------------------------------------------------------------------------


def gram_det_oracle(
    j: DiscreteJoint,
    m: int,
    restarts: int = 32,
    seed: int = 0,
    *,
    tol: float = 1e-12,
    max_iter: int = 10_000,
) -> float:
    """Maximize det Cov(E{phi_0|Y}, ..., E{phi_m|Y}) by projected gradient.

    The feasible set is all (m+1)-tuples of functions of X with identity
    covariance (standardized, mutually uncorrelated).  The tuple is
    parametrized as an orthonormal frame in the mean-zero subspace and pushed
    uphill with an Armijo line search and QR retraction; all ``restarts``
    frames advance in one batch.  No SVD, eigendecomposition, or product
    formula is used: the objective is assembled from the conditional table
    and evaluated as a bare determinant, which keeps this an independent
    check of :func:`dependence_scale`.

    Returns the best objective seen.  Raises
    :class:`~depscale.errors.NonConvergenceError` if no restart reaches the
    gradient tolerance.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    n_x = j.n_x
    k = m + 1
    if k > n_x - 1:
        # Identity covariance needs m+1 independent mean-zero directions on X.
        return 0.0

    # Image second-moment matrix in whitened coordinates: for phi written as
    # a[x] / sqrt(p_x(x)), the covariance of images E{phi_i|Y} is a_i' M a_j.
    K = conditional_matrix(j)
    p_x, p_y = j.p_x, j.p_y
    M_f = (K * p_y[None, :]) @ K.T - np.outer(p_x, p_x)
    rt = np.sqrt(p_x)
    M = M_f / np.outer(rt, rt)

    # Orthonormal basis of the mean-zero subspace (complement of sqrt(p_x)).
    full, _ = np.linalg.qr(rt[:, None], mode="complete")
    N = full[:, 1:]
    Mt = N.T @ M @ N
    Mt = (Mt + Mt.T) / 2.0

    rng = np.random.default_rng(seed)
    B = _batch_orthonormal(rng.standard_normal((restarts, n_x - 1, k)))
    best, n_converged = _ascend_frames(Mt, B, tol, max_iter)
    if n_converged == 0:
        raise NonConvergenceError(
            f"no ascent restart reached tolerance {tol} in {max_iter} iterations"
        )
    return min(max(best, 0.0), 1.0)


def _ascend_frames(Mt: np.ndarray, B: np.ndarray, tol: float, max_iter: int) -> tuple[float, int]:
    """Push a batch of Stiefel frames uphill on det(B' Mt B).

    Armijo line search with a growing step memory; a frame is done when its
    squared tangent gradient falls below ``tol`` (relative to the objective
    scale), which pins the objective far tighter than it pins the frame —
    flat near-tied directions stop early at the right value instead of
    crawling.  Finished frames are compacted out of the batch.

    Returns (best objective seen, number of frames that converged).
    """
    S = np.swapaxes(B, 1, 2) @ (Mt @ B)
    val = np.linalg.det(S)
    best = float(val.max(initial=0.0))
    step = np.full(B.shape[0], 1.0)
    n_converged = 0

    for _ in range(max_iter):
        if B.shape[0] == 0:
            break
        G_t = 2.0 * (Mt @ B) @ _batch_adjugate(S)
        BtG = np.swapaxes(B, 1, 2) @ G_t
        G_t -= B @ ((BtG + np.swapaxes(BtG, 1, 2)) / 2.0)
        g2 = (G_t**2).sum(axis=(1, 2))

        scale = (1.0 + np.abs(val)) ** 2
        done = g2 <= tol * scale
        stalled = np.zeros_like(done)

        live = ~done
        trial = step * 2.0
        accepted = np.zeros_like(done)
        while (todo := live & ~accepted).any():
            cand = _batch_orthonormal(B[todo] + trial[todo, None, None] * G_t[todo])
            S_c = np.swapaxes(cand, 1, 2) @ (Mt @ cand)
            val_c = np.linalg.det(S_c)
            ok = val_c >= val[todo] + 1e-4 * trial[todo] * g2[todo]
            idx = np.nonzero(todo)[0]
            good = idx[ok]
            B[good] = cand[ok]
            S[good] = S_c[ok]
            val[good] = val_c[ok]
            step[good] = trial[good]
            accepted[good] = True
            bad = idx[~ok]
            trial[bad] /= 2.0
            exhausted = bad[trial[bad] < 1e-18]
            if exhausted.size:
                # No uphill step at any scale: flat to machine precision.
                stalled[exhausted] = True
                live[exhausted] = False
        best = max(best, float(val.max(initial=0.0)))

        finished = done | (stalled & (g2 <= np.sqrt(tol) * scale))
        n_converged += int(np.count_nonzero(finished))
        drop = finished | stalled
        if drop.any():
            keep = ~drop
            B, S, val, step = B[keep], S[keep], val[keep], step[keep]

    return best, n_converged


def _batch_orthonormal(a: np.ndarray) -> np.ndarray:
    """Orthonormalize each frame in a stack via QR."""
    q, _ = np.linalg.qr(a)
    return q


def _batch_adjugate(s: np.ndarray) -> np.ndarray:
    """Adjugate of each k x k matrix in a stack.

    adj(S) = det(S) inv(S) when invertible, but stays finite at singular S,
    which matters because the ascent visits det = 0 frames whenever
    m + 1 exceeds the joint's nontrivial rank.  Computed from cofactors:
    closed forms for k <= 3, minor expansion above.
    """
    k = s.shape[-1]
    if k == 1:
        return np.ones_like(s)
    if k == 2:
        out = np.empty_like(s)
        out[..., 0, 0] = s[..., 1, 1]
        out[..., 1, 1] = s[..., 0, 0]
        out[..., 0, 1] = -s[..., 0, 1]
        out[..., 1, 0] = -s[..., 1, 0]
        return out
    if k == 3:
        # Rows of the adjugate are cross products of pairs of columns.
        c0, c1, c2 = s[..., :, 0], s[..., :, 1], s[..., :, 2]
        out = np.stack(
            [np.cross(c1, c2), np.cross(c2, c0), np.cross(c0, c1)], axis=-2
        )
        return out
    idx = np.arange(k)
    out = np.empty_like(s)
    for i in range(k):
        rows = idx[idx != i]
        for jcol in range(k):
            cols = idx[idx != jcol]
            minor = s[..., rows[:, None], cols[None, :]]
            out[..., jcol, i] = (-1.0) ** (i + jcol) * np.linalg.det(minor)
    return out
