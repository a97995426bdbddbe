"""Closed-form dependence quantities for jointly Gaussian vectors.

For a Gaussian pair with covariance blocks (v11, v12, v22), the maximal
correlation is attained by linear functions, so everything reduces to the
matrix

    Sigma = v11^{-1/2} v12 v22^{-1} v21 v11^{-1/2},

whose largest eigenvalue is the squared leading canonical correlation:
R = sqrt(lambda_max), D = R^2 = lambda_max.  Scalar blocks short-circuit to
|v12| / sqrt(v11 * v22) so the 1x1 case is exact, not merely close.

Inverse square roots go through a symmetric eigendecomposition with a hard
eigenvalue floor: blocks that fail it are rejected outright rather than
pseudo-inverted, because a silently regularized answer would not be the
quantity named above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError, NotScalarError
from .joints import GaussianJoint

_EIG_FLOOR = 1e-12


def _spd_eigh(block: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the symmetrized block, rejecting near-singular blocks."""
    w, v = np.linalg.eigh((block + block.T) / 2.0)
    if np.min(w) <= _EIG_FLOOR:
        raise NotPositiveDefiniteError(
            f"{name} has eigenvalue {float(np.min(w))!r} at or below the {_EIG_FLOOR} floor"
        )
    return w, v


def lambda_max(g: GaussianJoint) -> float:
    """Largest eigenvalue of v11^{-1/2} v12 v22^{-1} v21 v11^{-1/2}, in [0, 1]."""
    if g.is_scalar:
        return gaussian_r(g) ** 2
    wx, vx = _spd_eigh(g.v11, "v11")
    wy, vy = _spd_eigh(g.v22, "v22")
    isq = (vx / np.sqrt(wx)) @ vx.T
    sigma = isq @ g.v12 @ ((vy / wy) @ vy.T) @ g.v12.T @ isq
    w = np.linalg.eigvalsh((sigma + sigma.T) / 2.0)
    return float(min(max(float(w[-1]), 0.0), 1.0))


def gaussian_r(g: GaussianJoint) -> float:
    """Maximal correlation of a Gaussian pair: sqrt(lambda_max)."""
    if g.is_scalar:
        r = abs(float(g.v12[0, 0])) / np.sqrt(float(g.v11[0, 0]) * float(g.v22[0, 0]))
        return min(r, 1.0)
    return float(np.sqrt(lambda_max(g)))


def gaussian_d(g: GaussianJoint) -> float:
    """Dependence index of a Gaussian pair: lambda_max = R^2."""
    return lambda_max(g)


@dataclass(frozen=True)
class NoiseCurve:
    """Maximal correlation of (X, Y + lambda * Z) along a grid of lambdas.

    Z is independent Gaussian noise with variance ``var_z``; only lambda^2
    enters, so the curve is even, peaks at lambda = 0, and falls off
    monotonically on each side.  Arrays are plot-ready; nothing is rendered.
    """

    lambdas: np.ndarray
    r_values: np.ndarray

    def __post_init__(self) -> None:
        lam = np.asarray(self.lambdas, dtype=float).copy()
        r = np.asarray(self.r_values, dtype=float).copy()
        if lam.ndim != 1 or lam.shape != r.shape or lam.size == 0:
            raise ValueError("lambdas and r_values must be matching nonempty vectors")
        if np.any(np.diff(lam) <= 0):
            raise ValueError("lambdas must be strictly increasing")
        neg = lam <= 0
        pos = lam >= 0
        if np.any(np.diff(r[neg]) < -1e-12) or np.any(np.diff(r[pos]) > 1e-12):
            raise ValueError("r_values must rise toward lambda = 0 and fall after it")
        lam.flags.writeable = False
        r.flags.writeable = False
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "r_values", r)


def noise_curve(g: GaussianJoint, lambdas: np.ndarray, var_z: float = 1.0) -> NoiseCurve:
    """Evaluate R(X, Y + lambda Z) for scalar Gaussian joints.

    Adding independent noise to Y leaves v11 and v12 alone and inflates v22
    by lambda^2 * var_z, so the curve is the scalar closed form of
    :func:`gaussian_r`, min(|v12| / sqrt(v11 (v22 + lambda^2 var_z)), 1),
    evaluated on every lambda at once.  Lambdas and ``var_z`` must be finite;
    a lambda so large that lambda^2 overflows gives R = 0.
    """
    if not g.is_scalar:
        raise NotScalarError(
            f"noise_curve needs 1x1 blocks, got {g.dim_x}x{g.dim_y}"
        )
    if not 0 < var_z < np.inf:
        raise NotPositiveDefiniteError(
            f"var_z must be positive and finite, got {float(var_z)!r}"
        )
    lam = np.asarray(lambdas, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise NotPositiveDefiniteError("noise scales (lambdas) must be finite")
    v11, v12, v22 = float(g.v11[0, 0]), float(g.v12[0, 0]), float(g.v22[0, 0])
    with np.errstate(over="ignore"):
        r = np.minimum(abs(v12) / np.sqrt(v11 * (v22 + (lam * lam) * var_z)), 1.0)
    return NoiseCurve(lambdas=lam, r_values=r)
