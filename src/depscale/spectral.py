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
* :func:`gram_det_oracle` — direct maximization of the log of the image
  generalized variance over frames of standardized functions, by a
  Barzilai-Borwein Riemannian ascent built from the conditional table with
  only QR and LU factorizations: no SVD or eigendecomposition in the path.

Tests hold the two routes against each other; neither is ever collapsed into
the other.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .errors import NonConvergenceError, SvdFailureError
from .joints import (DEFAULT_ORDER_TOL, ORACLE_TOL, SPECTRUM_SLACK, DiscreteJoint,
                     _debug_logger, _frozen_array, _place_worker, _quarter_split,
                     check_tol, conditional_matrix)

#: numpy releases the GIL for an SVD only when its shorter side passes this,
#: so only then do the SVDs of Q and Qc run side by side, Q's on a second
#: thread placed off this one's CPU (CHANGES.md has the measurements).
_GIL_FREE_SIDE = 500

#: Held while OpenBLAS is pinned, so two spectra built at once on different
#: threads cannot restore each other's thread count out of order.
_PIN_LOCK = threading.Lock()


def normalized_matrix(j: DiscreteJoint) -> np.ndarray:
    """The table P(x, y) / sqrt(p_x(x) p_y(y)).

    Entries lie in [0, 1] because P(x, y) <= min(p_x(x), p_y(y)).  Each
    marginal is split as a * 4**s with a in [1/4, 1) and the powers of two
    leave the table exactly, so p_x(x) p_y(y) cannot underflow.
    """
    (a_x, s_x), (a_y, s_y) = _quarter_split(j.p_x), _quarter_split(j.p_y)
    scaled = np.ldexp(j.probs, -np.add.outer(s_x, s_y))
    return scaled / np.sqrt(np.outer(a_x, a_y))


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
        ``tol`` must be finite and nonnegative (checked here for all three).
        """
        check_tol(tol)
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
    """Full spectrum of the normalized table, deflated of the constant pair.

    Its two SVDs run with OpenBLAS held to one thread (:func:`_svd_pair`),
    so it is the spectrum OpenBLAS gives on one thread on any host.
    """
    Q, Qc = _deflated_normalized(j)
    values_q, values_qc = _svd_pair(Q, Qc)
    k = min(j.n_x, j.n_y) - 1
    return SingularSpectrum(
        sigma0=float(values_q[0]), sigma=values_qc[:k], shape=(j.n_x, j.n_y)
    )


@functools.cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The thread-count getter and setter of the OpenBLAS bundled with
    numpy, or None when numpy carries no such library."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))  # already loaded by numpy
        except OSError:
            continue
        get = getattr(handle, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(handle, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def _svd_pair(Q: np.ndarray, Qc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values of ``Q`` and ``Qc``, with numpy's OpenBLAS held to
    one thread for the pair and then set back.

    When Q's shorter side passes ``_GIL_FREE_SIDE``, Q's SVD runs on a
    second thread, placed by :func:`~depscale.joints._place_worker`, while
    Qc's runs on this one, and a worker's error is raised here.  Otherwise,
    or with no thread to be had, both run here.  When numpy carries no
    OpenBLAS of its own, both run here at its own thread count.  One DEBUG
    record names the path taken and the BLAS thread count.
    """
    blas = _openblas()
    side_by_side = blas is not None and min(Q.shape) > _GIL_FREE_SIDE
    log = _debug_logger()
    if log is not None:
        how = "side by side" if side_by_side else "one after the other"
        log.debug("spectrum of %d x %d cells: SVDs %s, BLAS threads %s",
                  *Q.shape, how, 1 if blas else "unknown")
    if blas is None:
        return _svd_values(Q), _svd_values(Qc)
    get_threads, set_threads = blas
    done: list[Any] = []

    def svd_q() -> None:
        try:
            done.append(_svd_values(Q))
        except Exception as exc:  # raised again in the caller
            done.append(exc)

    worker = None
    with _PIN_LOCK:
        threads = get_threads()
        set_threads(1)
        try:
            if side_by_side:
                worker = threading.Thread(target=svd_q, name="depscale-svd")
                try:
                    worker.start()
                except RuntimeError:  # no thread to be had
                    worker = None
                else:
                    _place_worker(worker.native_id)
            if worker is None:
                svd_q()
            values_qc = _svd_values(Qc)
        finally:
            if worker is not None:
                worker.join()
            set_threads(threads)
    if isinstance(done[0], Exception):
        raise done[0]
    return done[0], values_qc


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
# Independent oracle: Riemannian ascent of the image log generalized variance.
# --------------------------------------------------------------------------

_EPS = float(np.finfo(float).eps)

#: Nonmonotone Armijo test: a step must lift log det by _ARMIJO * step *
#: ||G||**2 above the least value of the last _MEMORY iterates.
_MEMORY = 5
_ARMIJO = 1e-4


def gram_det_oracle(
    j: DiscreteJoint,
    m: int,
    restarts: int = 32,
    seed: int = 0,
    *,
    tol: float = ORACLE_TOL,
    max_iter: int = 10_000,
) -> float:
    """Maximize det Cov(E{phi_0|Y}, ..., E{phi_m|Y}) by Riemannian ascent.

    The tuple ranges over functions of X with identity covariance, written
    as an orthonormal frame B of mean-zero directions, so that the image
    covariance is S = B' Mt B.  All ``restarts`` frames climb
    f(B) = log det S together on the Stiefel manifold (Absil, Mahony and
    Sepulchre 2008, ch. 3-4): Barzilai-Borwein steps along the Riemannian
    gradient G = 2 (Mt B S^-1 - B), QR retraction, and a nonmonotone Armijo
    test (Wen and Yin 2013).  Only QR and LU factorizations are used, never
    an SVD, eigendecomposition or product formula, which keeps this an
    independent check of :func:`dependence_scale`.

    A restart converges when ||G||_F**2 <= ``tol`` or G is within its own
    rounding error.  As f is a log, ``tol`` sets the error relative to the
    maximum: near it, about tol / (4 (1 - sigma_{m+2}**2 / sigma_{m+1}**2)).
    A restart is null when S has an eigenvalue within rounding of 0: an
    entry of S^-1 of at least 1 / (64 n eps (||Mt||_F + n eps)), with
    n = |X| - 1.  When every restart is null the maximum is 0.  One DEBUG
    record on the ``depscale`` logger counts the restarts converged and
    null and the iterations.

    Returns the best objective seen.  Raises
    :class:`~depscale.errors.NonConvergenceError` if no restart converges
    and not all are null, and ``ValueError`` if ``tol`` is negative or not
    finite or ``max_iter`` is below 1.
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    check_tol(tol)
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    n_x = j.n_x
    k = m + 1
    if k > n_x - 1:
        # Identity covariance needs m+1 independent mean-zero directions on X.
        return 0.0

    # phi = N a / sqrt(p_x), N an orthonormal basis of the complement of
    # sqrt(p_x), is mean-zero with variance ||a||**2; its image E{phi|Y = y}
    # is a' W[:, y], W[:, y] = N' K[:, y] sqrt(p_y(y) / p_x), so image
    # covariances are a_i' Mt a_j with Mt = W W'.
    rt = np.sqrt(j.p_x)
    N = np.linalg.qr(rt[:, None], mode="complete")[0][:, 1:]
    W = N.T @ (conditional_matrix(j) * np.sqrt(j.p_y) / rt[:, None])
    Mt = W @ W.T

    rng = np.random.default_rng(seed)
    B = _retract(rng.standard_normal((restarts, n_x - 1, k)))
    best, n_converged, n_null, n_iter = _ascend_log_det(Mt, B, tol, max_iter)
    log = _debug_logger()
    if log is not None:
        log.debug(
            "gram_det_oracle m=%d: %d of %d restarts converged, %d null, %d iterations",
            m, n_converged, restarts, n_null, n_iter,
        )
    if n_null == restarts:
        return 0.0
    if n_converged == 0:
        raise NonConvergenceError(
            f"no ascent restart reached tolerance {tol} in {max_iter} iterations"
        )
    return min(float(np.exp(best)), 1.0)


def _ascend_log_det(
    Mt: np.ndarray, B: np.ndarray, tol: float, max_iter: int
) -> tuple[float, int, int, int]:
    """Ascend log det(B' Mt B) on a stack of frames B.

    Null frames leave the batch at the start: S has at most the m+1-th
    eigenvalue of Mt as its least one, so when Mt's is within rounding of 0
    every frame is null.  A frame leaves later when it converges or its line
    search finds no uphill move above rounding.  Returns (best log det seen,
    frames converged, frames null, iterations).
    """
    n, size = Mt.shape[0], float(np.linalg.norm(Mt))
    # S = B' Mt B is rounded at about n eps ||Mt||, and Mt = W W' keeps
    # eigenvalues near (n eps)**2 where W holds only rounding.
    floor = 64 * n * _EPS * (size + n * _EPS)
    # Rounding error of G per unit of ||S^-1||_F: that of Mt B and of S.
    noise2 = (4 * _EPS * n * size) ** 2
    MtB, S_inv, f, null = _log_det_images(Mt, B, floor)
    B, MtB, S_inv, f = (a[~null] for a in (B, MtB, S_inv, f))
    hist = np.repeat(f[:, None], _MEMORY, axis=1)
    best = float(f.max(initial=-np.inf))
    n_converged, n_null, it = 0, int(np.count_nonzero(null)), 0
    B_prev = G_prev = None
    while it < max_iter and B.shape[0]:
        it += 1
        G = 2.0 * (MtB @ S_inv - B)
        g2 = (G**2).sum(axis=(1, 2))
        done = g2 <= tol + noise2 * (S_inv**2).sum(axis=(1, 2))
        n_converged += int(np.count_nonzero(done))
        keep = ~done
        B, MtB, S_inv, f, hist, G, g2 = (a[keep] for a in (B, MtB, S_inv, f, hist, G, g2))
        # No step moves a frame further than norm 1.
        step = 1.0 / np.sqrt(g2)
        if B_prev is not None:
            bb = _bb_step(B - B_prev[keep], G - G_prev[keep], long=it % 2 == 0)
            step = np.minimum(bb, step)
        B_prev, G_prev = B, G
        B, MtB, S_inv, f, stalled = _line_search(
            Mt, B, MtB, S_inv, f, G, step, g2, hist.min(axis=1), floor
        )
        best = max(best, float(f.max(initial=-np.inf)))
        keep = ~stalled
        hist = np.column_stack((hist[:, 1:], f))[keep]
        B, MtB, S_inv, f, B_prev, G_prev = (
            a[keep] for a in (B, MtB, S_inv, f, B_prev, G_prev)
        )
    return best, n_converged, n_null, it


def _bb_step(s: np.ndarray, y: np.ndarray, long: bool) -> np.ndarray:
    """Barzilai-Borwein step of each frame from its last move ``s`` and
    gradient change ``y``: <s,s>/|<s,y>| if ``long``, else |<s,y>|/<y,y>;
    inf where the ratio is undefined."""
    sy = np.abs((s * y).sum(axis=(1, 2)))
    num, den = ((s**2).sum(axis=(1, 2)), sy) if long else (sy, (y**2).sum(axis=(1, 2)))
    return np.divide(num, den, out=np.full_like(den, np.inf), where=den > 0)


def _line_search(
    Mt: np.ndarray, B: np.ndarray, MtB: np.ndarray, S_inv: np.ndarray, f: np.ndarray,
    G: np.ndarray, step: np.ndarray, g2: np.ndarray, f_ref: np.ndarray, floor: float,
) -> tuple[np.ndarray, ...]:
    """Halve each frame's step until its retracted move passes the Armijo
    test against ``f_ref`` and is not null.

    A frame stalls once its move falls below rounding.  Returns the
    accepted (B, Mt B, S^-1, f) and the stalled mask.
    """
    B, MtB, S_inv, f = B.copy(), MtB.copy(), S_inv.copy(), f.copy()
    todo = np.ones(B.shape[0], dtype=bool)
    stalled = np.zeros_like(todo)
    while todo.any():
        idx = np.flatnonzero(todo)
        cand = _retract(B[idx] + step[idx, None, None] * G[idx])
        MtB_c, S_inv_c, f_c, null_c = _log_det_images(Mt, cand, floor)
        ok = ~null_c & (f_c >= f_ref[idx] + _ARMIJO * step[idx] * g2[idx])
        acc = idx[ok]
        B[acc], MtB[acc], S_inv[acc], f[acc] = cand[ok], MtB_c[ok], S_inv_c[ok], f_c[ok]
        todo[acc] = False
        rej = idx[~ok]
        step[rej] /= 2.0
        lost = rej[step[rej] * np.sqrt(g2[rej]) < _EPS]
        todo[lost] = False
        stalled[lost] = True
    return B, MtB, S_inv, f, stalled


def _log_det_images(
    Mt: np.ndarray, B: np.ndarray, floor: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(Mt B, S^-1, log det S, null) for a stack of frames, S = B' Mt B.

    Mt B is one matrix product over every frame.  A frame is null when
    det S <= 0 or an entry of S^-1 is at least 1 / ``floor``, which bounds
    the smallest eigenvalue of S by ``floor`` without a decomposition.
    """
    r, n, k = B.shape
    MtB = (Mt @ B.transpose(1, 0, 2).reshape(n, r * k)).reshape(n, r, k).transpose(1, 0, 2)
    S = np.swapaxes(B, 1, 2) @ MtB
    sign, f = np.linalg.slogdet(S)
    null = sign <= 0
    S_inv = np.zeros_like(S)
    S_inv[~null] = np.linalg.inv(S[~null])
    null |= np.abs(S_inv).max(axis=(1, 2), initial=0.0) * floor >= 1.0
    return MtB, S_inv, f, null


def _retract(X: np.ndarray) -> np.ndarray:
    """Q factor of each frame in a stack, signed so that diag(R) >= 0."""
    q, r = np.linalg.qr(X)
    return q * np.where(np.diagonal(r, axis1=1, axis2=2) < 0, -1.0, 1.0)[:, None, :]
