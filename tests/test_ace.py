"""Alternating-conditional-expectations solver vs. the SVD route."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_finite_rank, random_joint
from depscale import (
    ace_pair,
    ace_subspace,
    conditional_matrix,
    make_joint,
    maximal_correlation,
    singular_spectrum,
)

FIXTURE = [[0.4, 0.1], [0.1, 0.4]]


def test_identity_coupling_reaches_one():
    p = ace_pair(make_joint([[0.5, 0.0], [0.0, 0.5]]))
    assert_allclose(p.rho, 1.0, atol=1e-12)
    assert_allclose(p.phi.values, [1.0, -1.0], atol=1e-12)
    assert_allclose(p.psi.values, [1.0, -1.0], atol=1e-12)


def test_fixture_pair():
    p = ace_pair(make_joint(FIXTURE))
    assert_allclose(p.rho, 0.6, atol=1e-10)
    # (1, -1) is already standardized under the (1/2, 1/2) marginal, and the
    # sign convention makes the first entry positive.
    assert_allclose(p.phi.values, [1.0, -1.0], atol=1e-8)
    assert_allclose(p.psi.values, [1.0, -1.0], atol=1e-8)
    assert p.converged and not p.degenerate


def test_independent_joint_is_degenerate():
    p = ace_pair(make_joint([[0.25, 0.25], [0.25, 0.25]]))
    assert p.degenerate
    assert p.rho == 0.0


def test_returned_tables_are_standardized():
    rng = np.random.default_rng(20)
    for _ in range(10):
        j = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        p = ace_pair(j)
        if p.degenerate:
            continue
        assert p.phi.standardized and p.psi.standardized
        for t, w in ((p.phi, j.p_x), (p.psi, j.p_y)):
            assert abs(t.values @ w) <= 1e-10
            assert abs(((t.values - t.values @ w) ** 2) @ w - 1.0) <= 1e-10


def test_achieved_rho_is_the_correlation_of_the_pair():
    rng = np.random.default_rng(21)
    for _ in range(10):
        j = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        p = ace_pair(j)
        rho = float(p.phi.values @ j.probs @ p.psi.values)
        assert abs(rho - p.rho) <= 1e-10


def test_sweeps_never_decrease_the_correlation():
    rng = np.random.default_rng(22)
    for _ in range(15):
        j = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        trace = np.asarray(ace_pair(j).trace)
        assert np.all(np.diff(trace) >= -1e-12)


def test_fixed_point_residual():
    rng = np.random.default_rng(23)
    for _ in range(10):
        j = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        p = ace_pair(j, tol=1e-12)
        if p.degenerate:
            continue
        k = conditional_matrix(j)
        image = p.phi.values @ k  # E{phi | Y}
        image = (image - image @ j.p_y) / np.sqrt(
            ((image - image @ j.p_y) ** 2) @ j.p_y
        )
        back = conditional_matrix(j.transposed()).T @ image  # E{psi | X}
        back = (back - back @ j.p_x) / np.sqrt(((back - back @ j.p_x) ** 2) @ j.p_x)
        align = abs(float(back @ (p.phi.values * j.p_x)))
        assert align >= 1.0 - 1e-6


def test_agreement_with_spectral_route():
    rng = np.random.default_rng(24)
    tol = 1e-10
    for _ in range(40):
        j = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        s = singular_spectrum(j).sigma
        if s.size > 1 and s[0] - s[1] <= 1e-6:
            continue
        p = ace_pair(j, tol=tol)
        assert abs(p.rho - maximal_correlation(j)) <= 10 * tol


def test_agreement_holds_on_engineered_narrow_gaps():
    rng = np.random.default_rng(25)
    tol = 1e-10
    for gap in (3e-2, 1e-2, 3e-3):
        for _ in range(5):
            s1 = rng.uniform(0.6, 1.0)
            j = random_finite_rank(rng, 2, 5, 5, sigma=np.array([s1, s1 * (1 - gap)]))
            p = ace_pair(j, tol=tol)
            assert abs(p.rho - maximal_correlation(j)) <= 10 * tol


class TestSubspace:
    def test_block_size_one_matches_ace_pair(self):
        j = make_joint(FIXTURE)
        single = ace_pair(j, seed=3)
        block = ace_subspace(j, 1, seed=3)
        assert len(block) == 1
        assert block[0].rho == single.rho
        assert_allclose(block[0].phi.values, single.phi.values)

    def test_correlations_match_the_spectrum(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            j = random_joint(rng, 4, 4)
            sigma = singular_spectrum(j).sigma
            pairs = ace_subspace(j, 2, tol=1e-12)
            got = np.array([p.rho for p in pairs])
            assert_allclose(got, sigma[:2], atol=1e-8)

    def test_x_side_frame_is_orthonormal(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            j = random_joint(rng, 5, 5)
            pairs = ace_subspace(j, 3, tol=1e-12)
            frame = np.stack([p.phi.values for p in pairs], axis=1)
            gram = frame.T @ (frame * j.p_x[:, None])
            assert_allclose(gram, np.eye(3), atol=1e-8)

    def test_pairs_beyond_the_rank_are_degenerate(self):
        j = make_joint(np.outer([0.3, 0.3, 0.4], [0.5, 0.5]))
        pairs = ace_subspace(j, 2)
        assert all(p.degenerate for p in pairs)
        assert all(p.rho == 0.0 for p in pairs)

    def test_k_beyond_alphabet_is_padded(self):
        pairs = ace_subspace(make_joint(FIXTURE), 3)
        assert len(pairs) == 3
        assert not pairs[0].degenerate
        assert pairs[1].degenerate and pairs[2].degenerate

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            ace_subspace(make_joint(FIXTURE), 0)
