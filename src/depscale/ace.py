"""Optimal transform pairs by alternating conditional expectations.

The maximal correlation of a finite joint is attained by a pair of
standardized tables (phi on X, psi on Y), and the attaining pair is the fixed
point of the alternation

    psi  <-  standardize( E{phi(X) | Y} )
    phi  <-  standardize( E{psi(Y) | X} )

with exact conditional expectations read off the joint table (nothing is
sampled).  A sweep applies phi -> E{E{phi|Y}|X}, whose eigenvalues are the
squared singular values, so the alternation is subspace iteration.  It runs
on k + 8 functions (at most the n_x - 1 mean-zero ones), so pair i converges
at rate (sigma_{k+9}/sigma_i)^2 rather than (sigma_{k+1}/sigma_k)^2 (Halko,
Martinsson and Tropp 2011), and applies Rayleigh-Ritz every sweep (Saad
2011, ch. 5) by the SVD of the R factor of the weighted images (their Gram
matrix would bury each rho below sqrt(eps) rho_1, ibid. sec. 4.5).  It stops
once each residual ||E{psi_i|X} - rho_i phi_i||, a bound on the error of
rho_i, is at most max(tol, ROUNDOFF rho_1 / rho_i).  No SVD of the
normalized table is taken.

Results are reported rather than raised: a joint with no nontrivial pair
(independence) comes back flagged ``degenerate`` with rho = 0, and an
iteration that used up its sweep budget comes back flagged
``converged=False`` with the last iterate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .joints import (DEFAULT_ORDER_TOL, ROUNDOFF, STANDARDIZED_TOL, VANISHING_SHARE,
                     DiscreteJoint, FunctionTable, check_tol, conditional_matrix)

#: Functions iterated beyond the k requested (capped at n_x - 1).
_OVERSAMPLE = 8


@dataclass(frozen=True)
class TransformPair:
    """A standardized transform pair and its achieved correlation.

    ``rho`` is corr(phi(X), psi(Y)) under the joint, clipped to at most 1
    as :class:`~depscale.spectral.SingularSpectrum` clips sigma.  ``n_iter``
    counts full sweeps; ``trace`` records the top Ritz value after each sweep
    (monotone non-decreasing up to roundoff).
    """

    phi: FunctionTable
    psi: FunctionTable
    rho: float
    converged: bool
    degenerate: bool
    n_iter: int
    trace: tuple[float, ...] = ()


def _standardize(values: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, float]:
    """Center and scale under the given marginal; returns (table, variance)."""
    mu = values @ weights
    centered = values - mu
    var = float((centered**2) @ weights)
    if var == 0:
        return np.zeros_like(values), var
    return centered / np.sqrt(var), var


def ace_pair(
    j: DiscreteJoint,
    tol: float = DEFAULT_ORDER_TOL,
    max_iter: int = 10_000,
    seed: int = 0,
) -> TransformPair:
    """Leading transform pair of ``j`` by alternating conditional expectations.

    :func:`ace_subspace` with k = 1: stops when the pair's residual
    ||E{psi|X} - rho phi|| is at most ``tol``.  The returned pair is
    sign-normalized: rho >= 0 and the first nonvanishing entry of phi is
    positive.
    """
    pairs = ace_subspace(j, 1, tol=tol, max_iter=max_iter, seed=seed)
    return pairs[0]


def ace_subspace(
    j: DiscreteJoint,
    k: int,
    tol: float = DEFAULT_ORDER_TOL,
    max_iter: int = 10_000,
    seed: int = 0,
) -> list[TransformPair]:
    """Leading ``k`` transform pairs by oversampled subspace iteration.

    Iterates min(k + 8, n_x - 1) functions of X, orthonormal under the
    X-marginal.  Each sweep rotates them by Rayleigh-Ritz (the SVD of the R
    factor of their weighted images) so the correlations come out
    individually extremal and descending, and stops once every leading pair
    that is not degenerate has residual ||E{psi_i|X} - rho_i phi_i|| at most
    max(``tol``, ROUNDOFF rho_1 / rho_i) (``tol`` finite and >= 0; below
    ROUNDOFF, 64 machine epsilons, tol = 0 included, it is raised to that).
    Pairs with rho at most that tol, or beyond the rank, are degenerate, rho = 0.
    ``max_iter`` (the sweep budget) must be at least 1.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    check_tol(tol)
    cut = max(tol, ROUNDOFF)
    p_x, p_y = j.p_x, j.p_y
    # Conditional expectation operators as plain matrices:
    # (E{phi|Y})(y) = sum_x phi(x) P(x,y)/p_y(y), and symmetrically.
    to_y = conditional_matrix(j)
    to_x = j.probs / p_x[:, None]

    # Only n_x - 1 mean-zero directions exist on X: the block is capped
    # there, and pairs asked beyond them are padded with degenerate ones.
    directions = max(j.n_x - 1, 1)
    k_eff = min(k, directions)
    b = min(k_eff + _OVERSAMPLE, directions)
    rng = np.random.default_rng(seed)
    F = _orthonormal_frame(rng.standard_normal((j.n_x, b)), p_x)

    trace: list[float] = []
    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        # Rayleigh-Ritz: rotate so the centred images G = E{F|Y} come out
        # uncorrelated under p_y, with descending variances rho^2.
        G = F.T @ to_y
        G -= (G @ p_y)[:, None]
        V = np.linalg.svd(np.linalg.qr((G * np.sqrt(p_y)).T, mode="r"))[2].T
        F, G = F @ V, V.T @ G
        rho2 = (G**2) @ p_y
        trace.append(float(np.sqrt(rho2[0])))
        back = to_x @ G.T  # E{G|X}
        # With psi_i = G_i / rho_i, the residual E{psi_i|X} - rho_i phi_i is
        # (back_i - rho_i^2 phi_i) / rho_i; compare it to tol without dividing,
        # and ask no less than ROUNDOFF rho_1 of it: back's rounding is eps rho_1.
        lead = rho2[:k_eff]
        res = np.sqrt(((back[:, :k_eff] - F[:, :k_eff] * lead) ** 2).T @ p_x)
        live = np.sqrt(lead) > cut
        if np.all(res[live] <= np.maximum(cut * np.sqrt(lead[live]), ROUNDOFF * trace[-1])):
            converged = True
            break
        F = _orthonormal_frame(back, p_x)

    out: list[TransformPair] = []
    for i in range(k_eff):
        phi = F[:, i]
        image = phi @ to_y
        psi, var = _standardize(image, p_y)
        if np.sqrt(var) <= cut:
            out.append(_degenerate_pair(j, phi, sweeps, trace))
            continue
        rho = float(np.einsum("x,xy,y->", phi, j.probs, psi))
        if rho < 0:
            psi = -psi
            rho = -rho
        rho = min(rho, 1.0)
        phi, psi = _sign_normalize(phi, psi)
        out.append(
            TransformPair(
                phi=FunctionTable(phi, "x", standardized=True),
                psi=FunctionTable(psi, "y", standardized=True),
                rho=rho,
                converged=converged,
                degenerate=False,
                n_iter=sweeps,
                trace=tuple(trace),
            )
        )
    # One frozen pair, repeated: a huge k costs a list, not k constructions.
    return out + [_degenerate_pair(j, None, sweeps, trace)] * (k - k_eff)


def _degenerate_pair(
    j: DiscreteJoint, phi: np.ndarray | None, sweeps: int, trace: list[float]
) -> TransformPair:
    """A flagged rho = 0 pair with arbitrary (standardized where possible) tables."""
    p_x, p_y = j.p_x, j.p_y
    if phi is None:
        phi = _standardize(np.arange(j.n_x, dtype=float), p_x)[0]
    phi_var = _standardize(phi, p_x)[1]
    psi, psi_var = _standardize(np.arange(j.n_y, dtype=float), p_y)
    return TransformPair(
        phi=FunctionTable(phi, "x", standardized=abs(phi_var - 1.0) <= STANDARDIZED_TOL),
        psi=FunctionTable(psi, "y", standardized=psi_var > 0),
        rho=0.0,
        converged=True,
        degenerate=True,
        n_iter=sweeps,
        trace=tuple(trace),
    )


def _orthonormal_frame(F: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Orthonormalize columns of F under cov_w: mean 0, Gram identity.

    Works in whitened coordinates a = sqrt(w) * f, where centering is a
    projection and the Gram condition is plain orthonormality.
    """
    rt = np.sqrt(weights)
    A = F * rt[:, None]
    A = A - np.outer(rt, rt @ A)
    Q, _ = np.linalg.qr(A)
    Q = Q - np.outer(rt, rt @ Q)  # re-kill the mean after QR roundoff
    norms = np.sqrt((Q**2).sum(axis=0))
    norms[norms == 0] = 1.0
    return (Q / norms) / rt[:, None]


def _sign_normalize(phi: np.ndarray, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flip both tables so the first nonvanishing entry of phi is positive."""
    scale = np.max(np.abs(phi))
    if scale == 0:
        return phi, psi
    nonzero = np.nonzero(np.abs(phi) > VANISHING_SHARE * scale)[0]
    if nonzero.size and phi[nonzero[0]] < 0:
        return -phi, -psi
    return phi, psi
