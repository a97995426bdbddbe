"""Completeness certificates and the finite-rank conditional construction."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_finite_rank, random_independent, random_joint
from depscale import (
    FunctionTable,
    InvalidDistributionError,
    check_completeness,
    conditional_matrix,
    dependence_scale,
    make_finite_rank_joint,
    make_joint,
    maximal_correlation,
    singular_spectrum,
)


def member(j, m: int) -> bool:
    """Whether ``j`` is in the order-m class: its order is at most m, and
    then its order-m scale value vanishes."""
    spectrum = singular_spectrum(j)
    inside = spectrum.order() <= m
    assert not inside or spectrum.profile(m).d[m] <= 1e-10
    return inside


def image_variance(j, phi: np.ndarray) -> float:
    """Variance of E{phi(X)|Y} under the Y marginal, straight from the table."""
    image = phi @ conditional_matrix(j)
    mean = image @ j.p_y
    return float(((image - mean) ** 2) @ j.p_y)


class TestCompleteness:
    def test_diagonal_joint_is_complete(self):
        res = check_completeness(make_joint([[0.5, 0.0], [0.0, 0.5]]))
        assert res.complete
        assert res.witness is None
        assert res.min_sigma == pytest.approx(1.0)

    def test_independent_joint_is_incomplete_with_witness(self):
        j = make_joint([[0.25, 0.25], [0.25, 0.25]])
        res = check_completeness(j)
        assert not res.complete
        assert isinstance(res.witness, FunctionTable)
        assert res.witness.standardized
        assert image_variance(j, res.witness.values) <= 1e-12

    def test_wide_rank_two_joint_is_complete(self):
        res = check_completeness(make_joint([[0.3, 0.1, 0.1], [0.1, 0.2, 0.2]]))
        assert res.complete
        assert res.min_sigma is not None and res.min_sigma > 1e-10

    def test_tall_joint_fails_the_dimension_condition(self):
        rng = np.random.default_rng(40)
        j = random_joint(rng, 4, 2)
        res = check_completeness(j)
        assert not res.complete
        assert res.min_sigma is None
        assert image_variance(j, res.witness.values) <= 1e-12

    def test_witness_is_standardized_under_the_x_marginal(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            j = random_independent(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            res = check_completeness(j)
            assert not res.complete
            w = res.witness.values
            assert abs(w @ j.p_x) <= 1e-9
            assert abs(((w - w @ j.p_x) ** 2) @ j.p_x - 1.0) <= 1e-9

    @pytest.mark.parametrize(
        "case",
        ["one-extra-x-atom", "finite-rank-square", "finite-rank-wide"],
    )
    def test_witness_on_incomplete_shapes(self, case):
        # |X| = |Y| + 1 is the tallest shape whose joined SVD is square;
        # finite-rank joints with |X| <= |Y| are incomplete only through
        # vanishing singular values.
        rng = np.random.default_rng(43)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            if case == "one-extra-x-atom":
                j = random_joint(rng, n + 1, n)
            else:
                n_y = n + 1 if case == "finite-rank-square" else n + 3
                j = random_finite_rank(rng, int(rng.integers(0, n)), n + 1, n_y)
            res = check_completeness(j)
            assert not res.complete
            w = res.witness.values
            assert abs(w @ j.p_x) <= 1e-9
            assert abs((w**2) @ j.p_x - 1.0) <= 1e-9
            assert image_variance(j, w) <= 1e-12

    def test_random_square_joints_are_complete(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            j = random_joint(rng, 3, 3)
            assert check_completeness(j).complete


class TestFiniteRankJoint:
    def test_no_components_gives_independence(self):
        j = make_finite_rank_joint(
            np.array([0.2, 0.5, 0.3]), [], np.array([0.5, 0.5])
        )
        assert maximal_correlation(j) <= 1e-12
        assert singular_spectrum(j).order() == 0

    def test_single_component_example(self):
        j = make_finite_rank_joint(
            np.full(3, 1 / 3),
            [(np.array([0.2, 0.0, -0.2]), np.array([1.0, -1.0]))],
            np.array([0.5, 0.5]),
        )
        prof = dependence_scale(j, 1)
        assert prof.d[0] > 1e-3
        assert prof.d[1] <= 1e-10
        assert singular_spectrum(j).order() <= 1

    def test_two_components_on_four_atoms(self):
        p1 = np.array([0.15, -0.15, 0.05, -0.05])
        p2 = np.array([0.05, 0.05, -0.05, -0.05])
        q1 = np.array([1.0, -1.0, 0.5, -0.5])
        q2 = np.array([0.5, 0.5, -1.0, -1.0])
        j = make_finite_rank_joint(
            np.full(4, 0.25), [(p1, q1), (p2, q2)], np.full(4, 0.25)
        )
        prof = dependence_scale(j, 2)
        assert prof.d[2] <= 1e-12
        assert singular_spectrum(j).order() <= 2

    def test_offending_cell_is_reported(self):
        # first violation in row-major order: p(0|y=1) = 1/3 - 0.5 < 0
        with pytest.raises(InvalidDistributionError, match=r"cell \(0, 1\)"):
            make_finite_rank_joint(
                np.full(3, 1 / 3),
                [(np.array([0.5, 0.0, -0.5]), np.array([1.0, -1.0]))],
                np.array([0.5, 0.5]),
            )

    def test_uncentered_component_rejected(self):
        with pytest.raises(InvalidDistributionError, match="component 0 sums to"):
            make_finite_rank_joint(
                np.full(2, 0.5),
                [(np.array([0.3, 0.0]), np.array([1.0, -1.0]))],
                np.array([0.5, 0.5]),
            )

    @pytest.mark.parametrize("p0", [[0.5, 0.6], [0.5, np.nan], [1.5, -0.5]])
    def test_bad_p0_rejected(self, p0):
        with pytest.raises(InvalidDistributionError, match="p0"):
            make_finite_rank_joint(np.array(p0), [], np.array([0.5, 0.5]))

    def test_bad_y_marginal_rejected(self):
        with pytest.raises(InvalidDistributionError):
            make_finite_rank_joint(np.full(2, 0.5), [], np.array([0.5, 0.6]))


class TestClassMembership:
    def test_independent_is_order_zero(self):
        j = make_joint([[0.25, 0.25], [0.25, 0.25]])
        assert member(j, 0)

    def test_fixture_enters_at_order_one(self):
        j = make_joint([[0.4, 0.1], [0.1, 0.4]])
        assert not member(j, 0)
        assert member(j, 1)

    def test_generated_joints_enter_at_their_component_count(self):
        rng = np.random.default_rng(43)
        for k in (1, 2, 3):
            for _ in range(5):
                j = random_finite_rank(rng, k, k + 2, k + 2)
                assert member(j, k)
                assert not member(j, k - 1)

    def test_membership_is_nested(self):
        rng = np.random.default_rng(44)
        for _ in range(15):
            j = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            flags = [member(j, m) for m in range(5)]
            for earlier, later in zip(flags, flags[1:]):
                assert later or not earlier

    def test_complete_joints_are_never_prematurely_dependent(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            j = random_joint(rng, 4, 4)
            if not check_completeness(j).complete:
                continue
            for m in range(min(j.n_x, j.n_y) - 1):
                assert not member(j, m)
