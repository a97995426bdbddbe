"""Shared generators for random test instances, and guards on child
processes and threads.

Everything here is deterministic given the caller's Generator, so tests can
freeze seeds and stay reproducible.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from depscale import DiscreteJoint, make_finite_rank_joint, make_joint


@pytest.fixture(autouse=True)
def no_unreaped_child():
    """Fail a test that leaves an exited child process unreaped (a zombie).

    The check reaps every zombie it finds, so the next test starts clean.
    """
    yield
    zombies = []
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:  # no child processes at all
            break
        if pid == 0:  # children left, none of them exited
            break
        zombies.append(pid)
    assert zombies == [], f"exited child processes were not reaped: {zombies}"


@pytest.fixture(autouse=True)
def no_leftover_thread():
    """Fail a test that leaves a thread it started still alive."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert left == [], f"threads were left alive: {left}"


def random_joint(rng: np.random.Generator, n_x: int, n_y: int) -> DiscreteJoint:
    """A dense random joint with marginals bounded away from zero."""
    w = rng.dirichlet(np.ones(n_x * n_y)).reshape(n_x, n_y)
    w = 0.999 * w + 0.001 / w.size
    return make_joint(w)


def random_independent(rng: np.random.Generator, n_x: int, n_y: int) -> DiscreteJoint:
    """An exactly rank-one (outer product) joint."""
    p_x = rng.dirichlet(np.ones(n_x))
    p_x = 0.99 * p_x + 0.01 / n_x
    p_y = rng.dirichlet(np.ones(n_y))
    p_y = 0.99 * p_y + 0.01 / n_y
    return make_joint(np.outer(p_x, p_y))


def _unit_orthogonal_frame(
    rng: np.random.Generator, anchor: np.ndarray, k: int
) -> np.ndarray:
    """k orthonormal columns, all orthogonal to the unit vector ``anchor``."""
    block = np.concatenate(
        [anchor[:, None], rng.standard_normal((anchor.size, k))], axis=1
    )
    q, _ = np.linalg.qr(block)
    return q[:, 1:]


def random_finite_rank(
    rng: np.random.Generator,
    k: int,
    n_x: int,
    n_y: int,
    sigma: np.ndarray | None = None,
) -> DiscreteJoint:
    """A joint whose conditional p(x|y) has exactly k nonconstant components.

    Built by choosing the singular structure directly: target values
    ``sigma`` (drawn from [0.5, 1] when not given) attach orthonormal
    directions to the normalized table, then the whole perturbation is
    scaled to 90% of the largest size keeping all cells nonnegative.  The
    parameters handed to make_finite_rank_joint are the exact conditional
    components realizing that table.  Requires k <= min(n_x, n_y) - 1.
    """
    p_x = rng.dirichlet(np.ones(n_x))
    p_x = 0.25 * p_x + 0.75 / n_x
    p_y = rng.dirichlet(np.ones(n_y))
    p_y = 0.25 * p_y + 0.75 / n_y
    rx, ry = np.sqrt(p_x), np.sqrt(p_y)
    u = _unit_orthogonal_frame(rng, rx, k)
    v = _unit_orthogonal_frame(rng, ry, k)
    if sigma is None:
        sigma = np.sort(rng.uniform(0.7, 1.0, size=k))[::-1]
    pert = rx[:, None] * ((u * sigma) @ v.T) * ry[None, :]
    base = np.outer(p_x, p_y)
    neg = np.minimum(pert, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(neg < 0, base / -neg, np.inf)
    scale = 0.95 * float(np.min(ratios))
    components = [
        (scale * sigma[i] * rx * u[:, i], v[:, i] / ry) for i in range(k)
    ]
    return make_finite_rank_joint(p_x, components, p_y)


def hadamard_joint(rng: np.random.Generator, n: int, top: np.ndarray) -> DiscreteJoint:
    """An n x n joint (n a power of 2) with uniform marginals and normalized
    spectrum ``top`` followed by a geometric tail from 4e-4 down to 1e-6.

    The singular vectors are randomly chosen and permuted columns of a
    Sylvester-Hadamard matrix, so they are +-1 tables orthogonal to the
    constants; cells stay positive while the spectrum sums to below 1.  A
    near-tied ``top`` is the slow case for iterating exactly k functions.
    """
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    sigma = np.concatenate([top, np.geomspace(4e-4, 1e-6, n - 1 - top.size)])
    f = h[rng.permutation(n)][:, 1 + rng.permutation(n - 1)]
    g = h[rng.permutation(n)][:, 1 + rng.permutation(n - 1)]
    return make_joint((1.0 + (f * sigma) @ g.T) / (n * n))


def random_partition(rng: np.random.Generator, n_cols: int) -> list[list[int]]:
    """A random set partition of column indices with no empty groups."""
    g = int(rng.integers(1, n_cols + 1))
    owner = rng.integers(0, g, size=n_cols)
    perm = rng.permutation(n_cols)
    owner[perm[:g]] = np.arange(g)
    return [[int(c) for c in np.flatnonzero(owner == i)] for i in range(g)]


def pearson_under(j: DiscreteJoint) -> float:
    """Pearson correlation of the atom indices under the joint pmf."""
    x = np.arange(j.n_x, dtype=float)
    y = np.arange(j.n_y, dtype=float)
    mx = x @ j.p_x
    my = y @ j.p_y
    vx = ((x - mx) ** 2) @ j.p_x
    vy = ((y - my) ** 2) @ j.p_y
    if vx <= 0.0 or vy <= 0.0:
        return 0.0
    cov = (x - mx) @ j.probs @ (y - my)
    return float(cov / np.sqrt(vx * vy))
