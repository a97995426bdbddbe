"""Construction, validation, and joint-building helpers."""

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
    make_joint,
)
from depscale.joints import _sample_columns


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

    def test_label_length_checked(self):
        with pytest.raises(InvalidDistributionError):
            make_joint([[0.5, 0.5]], labels_y=["only-one"])

    def test_probs_are_immutable(self):
        j = make_joint([[0.5, 0.5]])
        with pytest.raises(ValueError):
            j.probs[0, 0] = 1.0

    def test_transposed_swaps_sides(self):
        j = make_joint([[0.2, 0.2, 0.1], [0.1, 0.1, 0.3]], labels_x=["a", "b"])
        t = j.transposed()
        assert t.n_x == 3 and t.n_y == 2
        assert t.labels_y == ("a", "b")
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

    def test_labels_carry_the_z_atom(self):
        j = make_joint([[0.4, 0.1], [0.1, 0.4]], labels_y=["u", "v"])
        out = augment_with_independent(j, [0.3, 0.7])
        assert out.labels_y == ("u|z0", "u|z1", "v|z0", "v|z1")

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

    def test_merged_labels_join(self):
        j = make_joint([[0.4, 0.1], [0.1, 0.4]], labels_y=["u", "v"])
        out = coarsen_y(j, [[0, 1]])
        assert out.labels_y == ("u+v",)

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
