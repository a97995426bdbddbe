"""Construction, validation, and joint-building helpers."""

import errno
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_joint
from depscale import (
    DiscreteJoint,
    FunctionTable,
    GaussianJoint,
    InvalidBlockError,
    InvalidDistributionError,
    NegativeEntryError,
    NotNormalizedError,
    NotPositiveDefiniteError,
    SampleTable,
    TooFewSamplesError,
    ZeroMarginalError,
    augment_with_independent,
    coarsen_y,
    conditional_matrix,
    gaussian_r,
    lambda_max,
    make_joint,
)
import depscale.joints
from depscale.joints import _place_worker, _sample_columns


class TestMakeJoint:
    def test_uniform_independent(self):
        j = make_joint([[0.25, 0.25], [0.25, 0.25]])
        assert j.n_x == 2 and j.n_y == 2
        assert j.probs.sum() == 1.0

    def test_diagonal(self):
        j = make_joint([[0.5, 0.0], [0.0, 0.5]])
        assert_allclose(j.probs, [[0.5, 0.0], [0.0, 0.5]])

    def test_negative_entry(self):
        with pytest.raises(NegativeEntryError, match="negative probability"):
            make_joint([[0.6, 0.6], [-0.1, -0.1]])

    def test_not_normalized(self):
        with pytest.raises(NotNormalizedError, match="mass is 0.8"):
            make_joint([[0.4, 0.4]])

    def test_small_mass_error_is_renormalized_exactly(self):
        off = 1.0 + 5e-10  # inside the 1e-9 input tolerance
        j = make_joint(np.array([[0.4, 0.1], [0.1, 0.4]]) * off)
        assert j.probs.sum() == 1.0

    def test_zero_row_marginal(self):
        with pytest.raises(ZeroMarginalError):
            make_joint([[0.5, 0.5], [0.0, 0.0]])

    def test_zero_column_marginal(self):
        with pytest.raises(ZeroMarginalError):
            make_joint([[0.5, 0.0], [0.5, 0.0]])

    def test_rejects_non_matrix(self):
        with pytest.raises(InvalidDistributionError):
            make_joint([0.5, 0.5])

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidDistributionError):
            make_joint([[0.5, np.nan], [0.25, 0.25]])

    def test_probs_are_immutable(self):
        j = make_joint([[0.5, 0.5]])
        with pytest.raises(ValueError):
            j.probs[0, 0] = 1.0

    def test_probs_do_not_share_the_callers_array(self):
        table = np.array([[0.25, 0.25], [0.25, 0.25]])
        j = make_joint(table)
        table[0, 0] = 0.5
        assert j.probs[0, 0] == 0.25 and table.flags.writeable

    def test_transposed_swaps_sides(self):
        j = make_joint([[0.2, 0.2, 0.1], [0.1, 0.1, 0.3]])
        t = j.transposed()
        assert t.n_x == 3 and t.n_y == 2
        assert_allclose(t.probs, j.probs.T)


class TestMarginals:
    def test_symmetric_table(self):
        j = make_joint([[0.4, 0.1], [0.1, 0.4]])
        p_x, p_y = j.p_x, j.p_y
        assert_allclose(p_x, [0.5, 0.5])
        assert_allclose(p_y, [0.5, 0.5])

    def test_diagonal(self):
        j = make_joint([[0.5, 0.0], [0.0, 0.5]])
        p_x, p_y = j.p_x, j.p_y
        assert_allclose(p_x, [0.5, 0.5])
        assert_allclose(p_y, [0.5, 0.5])

    def test_rectangular(self):
        j = make_joint([[0.2, 0.2, 0.1], [0.1, 0.1, 0.3]])
        p_x, p_y = j.p_x, j.p_y
        assert_allclose(p_x, [0.5, 0.5])
        assert_allclose(p_y, [0.3, 0.3, 0.4])

    def test_each_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            j = random_joint(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            p_x, p_y = j.p_x, j.p_y
            assert abs(p_x.sum() - 1.0) <= 1e-12
            assert abs(p_y.sum() - 1.0) <= 1e-12

    def test_computed_once_read_only_and_bit_identical(self):
        j = random_joint(np.random.default_rng(3), 5, 4)
        assert j.p_x is j.p_x and j.p_y is j.p_y
        assert np.array_equal(j.p_x, j.probs.sum(axis=1))
        assert np.array_equal(j.p_y, j.probs.sum(axis=0))
        with pytest.raises(ValueError):
            j.p_x[0] = 1.0


class TestConditionalMatrix:
    def test_identity_coupling(self):
        k = conditional_matrix(make_joint([[0.5, 0.0], [0.0, 0.5]]))
        assert_allclose(k, np.eye(2))

    def test_independent(self):
        k = conditional_matrix(make_joint([[0.25, 0.25], [0.25, 0.25]]))
        assert_allclose(k, [[0.5, 0.5], [0.5, 0.5]])

    def test_divides_by_column_marginal(self):
        k = conditional_matrix(make_joint([[0.4, 0.1], [0.1, 0.4]]))
        assert_allclose(k, [[0.8, 0.2], [0.2, 0.8]])

    def test_columns_are_probability_vectors(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            j = random_joint(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            k = conditional_matrix(j)
            assert np.all(k >= 0)
            assert_allclose(k.sum(axis=0), np.ones(j.n_y), atol=1e-12)


class TestAugmentWithIndependent:
    def test_singleton_z_is_identity(self):
        j = make_joint([[0.5, 0.0], [0.0, 0.5]])
        assert_allclose(augment_with_independent(j, [1.0]).probs, j.probs)

    def test_uniform_by_uniform(self):
        j = make_joint([[0.25, 0.25], [0.25, 0.25]])
        out = augment_with_independent(j, [0.5, 0.5])
        assert_allclose(out.probs, np.full((2, 4), 0.125))

    def test_entrywise_product(self):
        j = make_joint([[0.4, 0.1], [0.1, 0.4]])
        out = augment_with_independent(j, [0.3, 0.7])
        assert_allclose(
            out.probs,
            [[0.12, 0.28, 0.03, 0.07], [0.03, 0.07, 0.12, 0.28]],
        )

    def test_rejects_bad_z_distribution(self):
        j = make_joint([[0.4, 0.1], [0.1, 0.4]])
        with pytest.raises(InvalidDistributionError):
            augment_with_independent(j, [0.5, 0.6])
        with pytest.raises(InvalidDistributionError):
            augment_with_independent(j, [1.0, 0.0])  # zero atom
        with pytest.raises(InvalidDistributionError):
            augment_with_independent(j, [1.5, -0.5])

    def test_summing_over_z_blocks_recovers_input(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            n_z = int(rng.integers(2, 4))
            r = rng.dirichlet(np.ones(n_z)) * 0.9 + 0.1 / n_z
            out = augment_with_independent(j, r)
            back = out.probs.reshape(j.n_x, j.n_y, n_z).sum(axis=2)
            assert_allclose(back, j.probs, atol=1e-15)


class TestCoarsenY:
    def test_identity_partition(self):
        j = make_joint([[0.2, 0.2, 0.1], [0.1, 0.1, 0.3]])
        out = coarsen_y(j, [[0], [1], [2]])
        assert_allclose(out.probs, j.probs)

    def test_single_group_gives_independence(self):
        j = make_joint([[0.2, 0.2, 0.1], [0.1, 0.1, 0.3]])
        out = coarsen_y(j, [[0, 1, 2]])
        assert out.n_y == 1
        assert_allclose(out.probs[:, 0], j.p_x)

    def test_inverts_the_augment_example(self):
        j = make_joint([[0.12, 0.28, 0.03, 0.07], [0.03, 0.07, 0.12, 0.28]])
        out = coarsen_y(j, [[0, 1], [2, 3]])
        assert_allclose(out.probs, [[0.4, 0.1], [0.1, 0.4]])

    @pytest.mark.parametrize(
        "partition",
        [
            [[0, 1], []],  # empty group
            [[0], [0, 1]],  # duplicate column
            [[0]],  # column 1 left out
            [[0], [1], [2]],  # out of range
        ],
    )
    def test_invalid_partitions(self, partition):
        j = make_joint([[0.4, 0.1], [0.1, 0.4]])
        with pytest.raises(InvalidDistributionError):
            coarsen_y(j, partition)


class TestGaussianJoint:
    def test_scalar_blocks(self):
        g = GaussianJoint(v11=[[1.0]], v12=[[0.5]], v22=[[1.0]])
        assert g.is_scalar
        assert g.dim_x == 1 and g.dim_y == 1

    def test_rejects_singular_diagonal_block(self):
        with pytest.raises(NotPositiveDefiniteError):
            GaussianJoint(v11=[[0.0]], v12=[[0.0]], v22=[[1.0]])

    def test_accepts_a_small_variance_beside_a_large_one(self):
        # Equilibrated, diag(1, 1e-13) is well conditioned: a variance is a
        # unit, not a near-singular direction, and X is independent of Y.
        g = GaussianJoint(v11=np.diag([1.0, 1e-13]), v12=np.zeros((2, 1)), v22=[[1.0]])
        assert (gaussian_r(g), lambda_max(g)) == (0.0, 0.0)

    def test_rejects_near_singular_block(self):
        # lambda_max relies on this floor: it inverts the blocks unchecked.
        # The two variables are equal up to 1e-14 of their scale.
        v11 = 1e-30 * np.array([[1.0, 1.0 - 1e-14], [1.0 - 1e-14, 1.0]])
        with pytest.raises(NotPositiveDefiniteError, match="v11 is singular"):
            GaussianJoint(v11=v11, v12=np.zeros((2, 1)), v22=[[1.0]])

    @pytest.mark.parametrize("block", ["v11", "v12", "v22"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, block, bad):
        blocks = {"v11": np.eye(2), "v12": np.zeros((2, 1)), "v22": np.eye(1)}
        blocks[block].flat[0] = bad
        with pytest.raises(NotPositiveDefiniteError, match="non-finite"):
            GaussianJoint(**blocks)

    def test_entries_near_the_float_maximum(self):
        g = GaussianJoint(v11=np.diag([1e308, 1.0]), v12=np.zeros((2, 1)), v22=[[1.0]])
        assert g.v11[0, 0] == 1e308

    def test_accepts_a_block_whose_raw_eigenvalues_round_below_zero(self):
        # The raw block's smallest eigenvalue is within rounding (about
        # eps * 3e16) of 0 and is computed negative, but its correlation
        # matrix has eigenvalues 1 and 1 +- sqrt(2/3).  Y is the first
        # variable of X, so R is 1.
        v11 = [[1.0, 1e8, 0.0], [1e8, 3e16, 1e8], [0.0, 1e8, 1.0]]
        g = GaussianJoint(v11=v11, v12=[[1.0], [1e8], [0.0]], v22=[[1.0]])
        assert (gaussian_r(g), lambda_max(g)) == (1.0, 1.0)

    def test_rejects_cross_block_breaking_psd(self):
        # |v12| > sqrt(v11 v22) cannot come from any distribution
        with pytest.raises(NotPositiveDefiniteError):
            GaussianJoint(v11=[[1.0]], v12=[[1.2]], v22=[[1.0]])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(InvalidBlockError):
            GaussianJoint(v11=np.eye(2), v12=np.eye(3), v22=np.eye(3))

    def test_rejects_asymmetric_block(self):
        with pytest.raises(NotPositiveDefiniteError, match="symmetric"):
            GaussianJoint(
                v11=[[1.0, 0.3], [0.2, 1.0]], v12=np.zeros((2, 2)), v22=np.eye(2)
            )


class TestFunctionTable:
    def test_mean_and_variance_under_weights(self):
        t = FunctionTable([1.0, -1.0], "x")
        w = np.array([0.5, 0.5])
        assert t.values @ w == 0.0
        assert ((t.values - t.values @ w) ** 2) @ w == 1.0

    def test_rejects_bad_side(self):
        with pytest.raises(InvalidDistributionError, match="side"):
            FunctionTable([1.0, 2.0], "z")

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidDistributionError):
            FunctionTable([1.0, np.inf], "x")

    def test_rejects_empty(self):
        with pytest.raises(InvalidDistributionError):
            FunctionTable([], "y")


class TestSampleTable:
    def test_numeric_columns(self):
        s = SampleTable([1, 2, 3], [4.0, 5.0, 6.0])
        assert s.n == 3
        assert s.x.dtype == float

    def test_categorical_column_becomes_strings(self):
        s = SampleTable(["a", "b", "a"], [1.0, 2.0, 3.0])
        assert s.x.dtype == object
        assert list(s.x) == ["a", "b", "a"]

    def test_too_few_rows(self):
        with pytest.raises(TooFewSamplesError):
            SampleTable([1.0], [2.0])

    def test_length_mismatch(self):
        with pytest.raises(InvalidDistributionError, match="lengths differ"):
            SampleTable([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_missing_entries_rejected(self):
        with pytest.raises(InvalidDistributionError):
            SampleTable([1.0, np.nan, 3.0], [1.0, 2.0, 3.0])

    def test_float_columns_are_checked_without_a_copy(self):
        x, y = np.arange(3.0), np.arange(3.0)
        checked_x, (checked_y,) = _sample_columns(x, [y])
        assert checked_x is x and checked_y is y
        s = SampleTable(x, y)  # the table keeps its own read-only copy
        x[0] = 9.0
        assert s.x[0] == 0.0 and not s.x.flags.writeable


class TestPlaceWorker:
    """The one placement rule: a worker gets every usable CPU but its starter's."""

    @pytest.fixture
    def asked(self, monkeypatch):
        """The (worker, CPUs) of each placement asked for, on a faked host
        with CPUs 0 to 3 whose starter runs on CPU 2."""
        calls = []
        monkeypatch.setattr(depscale.joints, "_current_cpu", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setattr(os, "sched_setaffinity",
                            lambda pid, cpus: calls.append((pid, sorted(cpus))), raising=False)
        return calls

    def test_every_cpu_but_the_starters(self, asked):
        _place_worker(4242)
        assert asked == [(4242, [0, 1, 3])]

    def test_nothing_without_proc(self, monkeypatch, asked):
        monkeypatch.setattr(depscale.joints, "_current_cpu", lambda: None)
        _place_worker(4242)
        assert asked == []

    def test_nothing_with_one_usable_cpu(self, monkeypatch, asked):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2}, raising=False)
        _place_worker(4242)
        assert asked == []

    @pytest.mark.parametrize("code", [errno.ESRCH, errno.EINVAL, errno.EPERM],
                             ids=["exited", "refused set", "not allowed"])
    def test_a_refusal_leaves_the_worker_where_it_is(self, monkeypatch, asked, code):
        def refuse(pid, cpus):
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(os, "sched_setaffinity", refuse, raising=False)
        _place_worker(4242)
