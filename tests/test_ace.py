"""Alternating-conditional-expectations solver vs. the SVD route."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import hadamard_joint, random_finite_rank, random_joint
from depscale import (
    ace_pair,
    ace_subspace,
    conditional_matrix,
    gram_det_oracle,
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


def residuals(j, pairs):
    """||E{psi|X} - rho phi|| under the X-marginal, one per pair."""
    to_x = j.probs / j.p_x[:, None]
    return np.array([
        np.sqrt(((to_x @ p.psi.values - p.rho * p.phi.values) ** 2) @ j.p_x)
        for p in pairs
    ])


def assert_matches_spectrum(j, pairs, atol=1e-12):
    sigma = singular_spectrum(j).sigma
    assert all(p.converged and not p.degenerate for p in pairs)
    assert_allclose([p.rho for p in pairs], sigma[: len(pairs)], rtol=0, atol=atol)


class TestOversampledIteration:
    def test_near_tied_hadamard_spectrum(self):
        # Leading values 0.993 apart: k functions alone converge at rate
        # 0.993^2 per sweep, the oversampled block in a few sweeps.
        top = 0.12 * 0.993 ** np.arange(8)
        for seed in range(3):
            j = hadamard_joint(np.random.default_rng(seed), 64, top)
            pairs = ace_subspace(j, 4, max_iter=50)
            assert_matches_spectrum(j, pairs)

    def test_dirichlet_draw_converges_within_200_sweeps(self):
        j = random_joint(np.random.default_rng(5), 64, 64)
        pairs = ace_subspace(j, 4, max_iter=200)
        assert_matches_spectrum(j, pairs)

    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
    def test_returned_pairs_meet_the_residual_bound(self, tol):
        rng = np.random.default_rng(28)
        for _ in range(5):
            j = random_joint(rng, 24, 20)
            pairs = ace_subspace(j, 3, tol=tol)
            assert all(p.converged for p in pairs)
            # The stop reads the rotated block; the returned tables are
            # recomputed from it, which moves the residual by roundoff.
            assert np.all(residuals(j, pairs) <= tol + 1e-14)

    def test_k_at_the_block_cap(self):
        rng = np.random.default_rng(29)
        for n_x, n_y in ((6, 8), (12, 12), (30, 9)):
            j = random_joint(rng, n_x, n_y)
            k = n_x - 1
            pairs = ace_subspace(j, k, tol=1e-12)
            assert len(pairs) == k
            m = min(n_x, n_y) - 1
            assert_matches_spectrum(j, pairs[:m])
            assert all(p.degenerate for p in pairs[m:])

    def test_exact_tie_inside_the_block(self):
        # sigma_2 = sigma_3: the second pair is any unit function of a
        # two-dimensional eigenspace, but its correlation is still sigma_2.
        rng = np.random.default_rng(30)
        for _ in range(3):
            j = random_finite_rank(rng, 4, 16, 16, sigma=np.array([0.9, 0.6, 0.6, 0.3]))
            sigma = singular_spectrum(j).sigma
            assert sigma[1] - sigma[2] <= 1e-15
            pairs = ace_subspace(j, 2, tol=1e-12)
            assert_matches_spectrum(j, pairs)
            assert np.all(residuals(j, pairs) <= 1e-12 + 1e-14)

    def test_zero_tol_stops_at_roundoff(self):
        # No residual is exactly 0 in floating point; tol = 0 asks for the
        # roundoff level rather than running out the sweep budget.
        rng = np.random.default_rng(31)
        joints = [make_joint(FIXTURE), random_joint(rng, 16, 16), random_joint(rng, 40, 7),
                  hadamard_joint(rng, 64, 0.12 * 0.993 ** np.arange(8))]
        for j in joints:
            pairs = ace_subspace(j, 4, tol=0.0, max_iter=500)
            m = min(4, min(j.n_x, j.n_y) - 1)
            assert_matches_spectrum(j, pairs[:m])

    @pytest.mark.parametrize("top", [(0.5, 1.1e-12, 5e-13), (0.5, 1.1e-10, 5e-11)])
    def test_values_far_below_sqrt_eps_converge(self, top):
        # A Gram matrix of the images would bury these values under its
        # rounding (sqrt(eps) rho_1).  Neither route resolves a value past
        # about eps rho_1 in absolute terms, so that is the slack.
        for seed in range(4):
            j = hadamard_joint(np.random.default_rng(seed), 8, np.array(top))
            sigma = singular_spectrum(j).sigma[:7]
            pairs = ace_subspace(j, 7, tol=0.0, max_iter=300)
            assert all(p.converged and not p.degenerate for p in pairs)
            err = np.abs(np.array([p.rho for p in pairs]) - sigma)
            assert np.all(err <= 1e-8 * sigma + np.finfo(float).eps * sigma[0])

    @pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
    def test_invalid_tolerance_is_rejected(self, tol):
        j = make_joint(FIXTURE)
        with pytest.raises(ValueError, match="tol"):
            ace_subspace(j, 1, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            gram_det_oracle(j, 0, tol=tol)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_sweep_budget_below_one_is_rejected(self, max_iter):
        j = make_joint(FIXTURE)
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            ace_subspace(j, 1, max_iter=max_iter)
        with pytest.raises(ValueError, match="max_iter must be >= 1"):
            gram_det_oracle(j, 0, max_iter=max_iter)


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

    def test_padded_tables_are_standardized(self):
        j = make_joint([[0.3, 0.1, 0.1], [0.1, 0.2, 0.2]])
        for pair in ace_subspace(j, 3)[1:]:
            assert pair.degenerate
            for table, marginal in ((pair.phi, j.p_x), (pair.psi, j.p_y)):
                assert table.standardized
                assert_allclose(table.values @ marginal, 0.0, atol=1e-15)
                assert_allclose(table.values**2 @ marginal, 1.0, rtol=1e-15)


@st.composite
def _near_the_cut(draw):
    """A tolerance and a leading spectrum: 0.5, then two values each placed
    2x to 100x above the tolerance, or at most half of it (zero included)."""
    tol = draw(st.sampled_from([1e-12, 1e-10, 1e-8]))
    near = st.one_of(st.floats(2.0, 100.0), st.floats(0.0, 0.5))
    factors = sorted((draw(near), draw(near)), reverse=True)
    return tol, [0.5, *(tol * f for f in factors)]


@st.composite
def _at_the_cut(draw):
    """A tolerance and a leading spectrum: 0.5, then one value 1.01x to
    1.1x above or below the tolerance, and one at half of it."""
    tol = draw(st.sampled_from([1e-12, 1e-10, 1e-8]))
    factor = draw(st.floats(1.01, 1.1))
    near = tol * factor if draw(st.booleans()) else tol / factor
    return tol, [0.5, near, tol / 2]


class TestZeroRule:
    """``order`` and ACE call the same singular values zero: those at most
    ``tol``.

    ACE stops once each pair above the cut has residual at most
    ``max(tol * rho, ROUNDOFF * rho_1)``, which bounds the error of rho by
    about ``tol`` only, and a pair whose Ritz value sits under the cut is
    not held to it.  With the block as wide as the alphabet, values 1.01x
    to 1.1x from the cut are read on their side; with a narrower block such
    a value may be read on its other side (1.01e-8 as 0.988e-8 at ``tol``
    1e-8 with k = 4 on a 32 x 32 table whose tail lies from 0.95 to 0.3 of
    the cut, for one).  Both tests use the full block; the first places its
    values at least a factor 2 from the cut, the second 1.01x to 1.1x.
    """

    @settings(max_examples=60, deadline=None)
    @given(case=_near_the_cut(), n=st.sampled_from([4, 8]), seed=st.integers(0, 2**16))
    @example(case=(1e-12, [0.5, 1e-11, 1e-13]), n=4, seed=0)
    @example(case=(1e-10, [0.5, 1e-11, 1e-13]), n=4, seed=0)
    @example(case=(1e-8, [0.5, 1e-11, 1e-13]), n=4, seed=0)
    def test_order_is_the_count_of_nondegenerate_pairs(self, case, n, seed):
        self.assert_zero_rule(*case, n, seed)

    @settings(max_examples=60, deadline=None)
    @given(case=_at_the_cut(), n=st.sampled_from([4, 8]), seed=st.integers(0, 2**16))
    def test_values_just_off_the_cut_with_the_full_block(self, case, n, seed):
        self.assert_zero_rule(*case, n, seed)

    @staticmethod
    def assert_zero_rule(tol, top, n, seed):
        j = hadamard_joint(np.random.default_rng(seed), n, np.array(top))
        order = singular_spectrum(j).order(tol)
        # The tail of the construction lies from 4e-4 down to 1e-6.
        assert order == n - 4 + sum(v > tol for v in top)
        pairs = ace_subspace(j, n - 1, tol=tol)
        assert sum(not p.degenerate for p in pairs) == order
