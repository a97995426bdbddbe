"""Singular spectrum, dependence indices, and the determinant oracle.

The spectral route (products of squared singular values) and the direct
ascent oracle are two independent evaluations of the same supremum; the
heavier cross-checks live in the acceptance suite, the quick ones here.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    pearson_under,
    random_independent,
    random_joint,
    random_partition,
)
from depscale import (
    DependenceProfile,
    NonConvergenceError,
    SingularSpectrum,
    SvdFailureError,
    augment_with_independent,
    coarsen_y,
    dependence_scale,
    gram_det_oracle,
    make_joint,
    maximal_correlation,
    normalized_matrix,
    singular_spectrum,
)
from depscale.spectral import _batch_adjugate

FIXTURE = [[0.4, 0.1], [0.1, 0.4]]


def test_normalized_matrix_independent_is_rank_one():
    q = normalized_matrix(make_joint([[0.25, 0.25], [0.25, 0.25]]))
    assert_allclose(q, [[0.5, 0.5], [0.5, 0.5]])


def test_normalized_matrix_diagonal_is_identity():
    q = normalized_matrix(make_joint([[0.5, 0.0], [0.0, 0.5]]))
    assert_allclose(q, np.eye(2))


def test_normalized_matrix_fixture():
    q = normalized_matrix(make_joint(FIXTURE))
    assert_allclose(q, [[0.8, 0.2], [0.2, 0.8]])


def test_spectrum_of_independent_joint_vanishes():
    s = singular_spectrum(make_joint(np.outer([0.4, 0.6], [0.2, 0.3, 0.5])))
    assert s.sigma.shape == (1,)
    assert s.sigma[0] <= 1e-10


def test_spectrum_of_diagonal_joint_is_one():
    s = singular_spectrum(make_joint([[0.5, 0.0], [0.0, 0.5]]))
    assert_allclose(s.sigma, [1.0])


def test_spectrum_fixture():
    s = singular_spectrum(make_joint(FIXTURE))
    assert_allclose(s.sigma, [0.6], atol=1e-12)
    assert_allclose(s.sigma0, 1.0, atol=1e-12)


def test_spectrum_length_and_certificate():
    rng = np.random.default_rng(7)
    for _ in range(20):
        j = random_joint(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        s = singular_spectrum(j)
        assert s.sigma.shape == (min(j.n_x, j.n_y) - 1,)
        assert abs(s.sigma0 - 1.0) <= 1e-10
        assert np.all(np.diff(s.sigma) <= 1e-12)
        assert np.all(s.sigma >= 0.0) and np.all(s.sigma <= 1.0)


class TestSingularSpectrumValidation:
    def test_rejects_bad_certificate(self):
        with pytest.raises(SvdFailureError, match="not 1"):
            SingularSpectrum(sigma0=0.7, sigma=np.array([0.5]), shape=(2, 2))

    def test_rejects_out_of_range_values(self):
        with pytest.raises(SvdFailureError):
            SingularSpectrum(sigma0=1.0, sigma=np.array([1.5]), shape=(2, 2))

    def test_rejects_ascending_values(self):
        with pytest.raises(SvdFailureError):
            SingularSpectrum(sigma0=1.0, sigma=np.array([0.2, 0.8]), shape=(3, 3))

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, np.nan, np.inf])
    def test_tolerance_methods_reject_a_bad_tol(self, tol):
        # Independent table: a negative or NaN tol would count sigma = [0]
        # as nonzero and call the joint complete.
        s = singular_spectrum(make_joint([[0.25, 0.25], [0.25, 0.25]]))
        for method in (s.order, s.complete, lambda tol: s.profile(None, tol)):
            with pytest.raises(ValueError, match="tol must be finite and >= 0"):
                method(tol)

    def test_zero_tol_is_accepted(self):
        s = singular_spectrum(make_joint(FIXTURE))
        assert s.order(0.0) == 1 and s.complete(0.0)


def dependence_index(j):
    return singular_spectrum(j).r ** 2


def test_kolmogorov_index_examples():
    assert dependence_index(make_joint([[0.25, 0.25], [0.25, 0.25]])) <= 1e-15
    assert_allclose(dependence_index(make_joint([[0.5, 0.0], [0.0, 0.5]])), 1.0)
    assert_allclose(dependence_index(make_joint(FIXTURE)), 0.36, atol=1e-12)


def test_maximal_correlation_examples():
    assert maximal_correlation(make_joint([[0.25, 0.25], [0.25, 0.25]])) <= 1e-15
    assert_allclose(maximal_correlation(make_joint([[0.5, 0.0], [0.0, 0.5]])), 1.0)
    assert_allclose(maximal_correlation(make_joint(FIXTURE)), 0.6, atol=1e-12)


def test_dependence_scale_fixture():
    prof = dependence_scale(make_joint(FIXTURE), 1)
    assert_allclose(prof.r, 0.6, atol=1e-12)
    assert_allclose(prof.d, [0.36, 0.0], atol=1e-12)
    assert prof.order == 1


def test_dependence_scale_beyond_rank_is_zero():
    rng = np.random.default_rng(8)
    j = random_joint(rng, 3, 4)
    prof = dependence_scale(j, 5)
    assert prof.d.shape == (6,)
    assert np.all(prof.d[min(j.n_x, j.n_y) - 1 :] == 0.0)


def test_dependence_scale_independent_all_zero():
    j = make_joint(np.outer([0.4, 0.6], [0.2, 0.3, 0.5]))
    prof = dependence_scale(j, 2)
    assert np.all(prof.d <= 1e-15)
    assert prof.order == 0


def test_profile_head_is_r_squared():
    rng = np.random.default_rng(9)
    for _ in range(25):
        j = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        prof = dependence_scale(j, 3)
        assert abs(prof.d[0] - prof.r**2) <= 1e-10


def test_profile_chain_zero_propagates():
    # D_m = 0 forces D_{m+1} = 0 exactly, not just within tolerance.
    j = make_joint(FIXTURE)
    prof = dependence_scale(j, 3)
    hit_zero = False
    for value in prof.d:
        if hit_zero:
            assert value == 0.0
        hit_zero = hit_zero or value == 0.0
    assert hit_zero


class TestDependenceProfileValidation:
    def test_rejects_increasing_values(self):
        with pytest.raises(SvdFailureError, match="non-increasing"):
            DependenceProfile(r=0.5, d=np.array([0.25, 0.5]), order=None)

    def test_rejects_head_mismatch(self):
        with pytest.raises(SvdFailureError, match="r\\*\\*2"):
            DependenceProfile(r=0.9, d=np.array([0.25]), order=None)

    def test_rejects_out_of_range(self):
        with pytest.raises(SvdFailureError):
            DependenceProfile(r=1.1, d=np.array([1.21]), order=None)


def test_m_dependence_order_examples():
    assert singular_spectrum(make_joint([[0.25, 0.25], [0.25, 0.25]])).order() == 0
    assert singular_spectrum(make_joint(FIXTURE)).order() == 1
    rng = np.random.default_rng(10)
    j = random_joint(rng, 4, 5)  # full rank almost surely
    assert singular_spectrum(j).order() == 3


def test_oracle_fixture():
    assert_allclose(gram_det_oracle(make_joint(FIXTURE), 0), 0.36, atol=1e-6)


def test_oracle_independent_vanishes():
    j = make_joint(np.outer([0.3, 0.3, 0.4], [0.2, 0.5, 0.3]))
    assert gram_det_oracle(j, 1) <= 1e-9


def test_oracle_matches_spectral_product_on_random_fours():
    rng = np.random.default_rng(11)
    for _ in range(10):
        j = random_joint(rng, 4, 4)
        sigma = singular_spectrum(j).sigma
        want = float(sigma[0] ** 2 * sigma[1] ** 2)
        assert abs(gram_det_oracle(j, 1) - want) <= 1e-6


def test_oracle_beyond_feasible_tuple_returns_zero():
    # m+1 orthonormal mean-zero functions cannot exist on a 2-atom alphabet.
    assert gram_det_oracle(make_joint(FIXTURE), 1) == 0.0


def test_oracle_rejects_nonpositive_restarts():
    with pytest.raises(ValueError, match="restarts"):
        gram_det_oracle(make_joint(FIXTURE), 0, restarts=0)


def test_oracle_reports_failure_when_budget_is_exhausted():
    rng = np.random.default_rng(9)
    j = random_joint(rng, 3, 3)
    with pytest.raises(NonConvergenceError, match="restart"):
        gram_det_oracle(j, 0, restarts=2, tol=1e-30, max_iter=1)


def test_oracle_is_seed_reproducible():
    j = make_joint(FIXTURE)
    a = gram_det_oracle(j, 0, restarts=4, seed=5)
    b = gram_det_oracle(j, 0, restarts=4, seed=5)
    assert a == b


class TestBatchAdjugate:
    """The oracle's gradient needs adj(S), which stays finite at det S = 0."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_invertible_stacks_match_det_times_inverse(self, k):
        rng = np.random.default_rng(60 + k)
        s = rng.standard_normal((50, k, k))
        want = np.linalg.det(s)[:, None, None] * np.linalg.inv(s)
        assert_allclose(_batch_adjugate(s), want, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_rank_deficient_stacks(self, k):
        rng = np.random.default_rng(70 + k)
        for rank in range(k):
            a = rng.standard_normal((30, k, rank))
            s = a @ rng.standard_normal((30, rank, k))
            adj = _batch_adjugate(s)
            # S adj(S) = adj(S) S = det(S) I = 0.
            assert_allclose(s @ adj, 0.0, atol=1e-10)
            assert_allclose(adj @ s, 0.0, atol=1e-10)
            # adj(S) has rank 1 at rank k - 1 and vanishes below.
            ranks = np.linalg.matrix_rank(adj, tol=1e-8)
            assert np.all(ranks == (1 if rank == k - 1 else 0))

    def test_one_by_one_gives_exact_ones(self):
        s = np.array([[[0.0]], [[2.5]], [[-1e-300]], [[7.0]]])
        adj = _batch_adjugate(s)
        assert adj.shape == s.shape
        assert np.array_equal(adj, np.ones_like(s))

    def test_symmetric_stack_gives_symmetric_adjugate(self):
        rng = np.random.default_rng(80)
        b = rng.standard_normal((20, 6, 3))
        s = np.swapaxes(b, 1, 2) @ b
        adj = _batch_adjugate(s)
        assert_allclose(adj, np.swapaxes(adj, 1, 2), atol=1e-12)


# ---------------------------------------------------------------------------
# invariants on generated joints


def test_transpose_symmetry():
    rng = np.random.default_rng(12)
    for _ in range(30):
        j = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        t = j.transposed()
        assert abs(maximal_correlation(j) - maximal_correlation(t)) <= 1e-10
        a = dependence_scale(j, 3).d
        b = dependence_scale(t, 3).d
        assert_allclose(a, b, atol=1e-10)


def test_range_of_scale_values():
    rng = np.random.default_rng(13)
    for _ in range(30):
        j = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        d = dependence_scale(j, 4).d
        assert np.all(d >= 0.0) and np.all(d <= 1.0)


def test_independence_in_both_directions():
    rng = np.random.default_rng(14)
    for _ in range(20):
        j = random_independent(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        assert maximal_correlation(j) <= 1e-10
    for _ in range(20):
        j = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        if maximal_correlation(j) <= 1e-10:
            gap = np.max(np.abs(j.probs - np.outer(j.p_x, j.p_y)))
            assert gap <= 1e-8


def test_coarsening_cannot_increase_dependence():
    rng = np.random.default_rng(15)
    for _ in range(25):
        j = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(3, 6)))
        co = coarsen_y(j, random_partition(rng, j.n_y))
        assert dependence_index(co) <= dependence_index(j) + 1e-10
        d_full = dependence_scale(j, 3).d
        d_co = dependence_scale(co, 3).d
        assert np.all(d_co <= d_full + 1e-10)


def test_augmentation_with_independent_z_changes_nothing():
    rng = np.random.default_rng(16)
    for _ in range(25):
        j = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        n_z = int(rng.integers(2, 4))
        r = rng.dirichlet(np.ones(n_z)) * 0.9 + 0.1 / n_z
        aug = augment_with_independent(j, r)
        assert_allclose(
            dependence_scale(aug, 3).d, dependence_scale(j, 3).d, atol=1e-10
        )


def test_maximal_correlation_dominates_pearson():
    rng = np.random.default_rng(17)
    for _ in range(30):
        j = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        assert maximal_correlation(j) >= abs(pearson_under(j)) - 1e-10
