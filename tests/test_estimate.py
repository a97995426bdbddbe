"""Binning, plug-in estimation, and the analytic Gaussian discretization."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from depscale import (
    BinningSpec,
    DiscreteJoint,
    InvalidDistributionError,
    SampleTable,
    bin_column,
    coarsen_y,
    empirical_joint,
    empirical_joint_grouped,
    gaussian_quantile_joint,
    maximal_correlation,
)
from depscale.estimate import _merged_interval_labels, profile_of_joint


class TestBinningSpec:
    def test_defaults(self):
        spec = BinningSpec()
        assert spec.strategy == "quantile"
        assert spec.bins_x == spec.bins_y == 8

    def test_unknown_strategy(self):
        with pytest.raises(InvalidDistributionError, match="unknown binning strategy"):
            BinningSpec(strategy="kmeans")

    def test_bin_counts_must_be_at_least_two(self):
        with pytest.raises(InvalidDistributionError):
            BinningSpec(bins_x=1)

    def test_categorical_ignores_bin_counts(self):
        BinningSpec(strategy="categorical", bins_x=1, bins_y=1)  # must not raise


class TestBinColumn:
    def test_quantile_midpoint_edges(self):
        codes, labels = bin_column(np.array([0.0, 1.0, 2.0, 3.0]), 2, "quantile")
        assert codes.tolist() == [0, 0, 1, 1]
        assert labels == ["[-inf, 1.5)", "[1.5, inf)"]

    def test_uniform_width_edges(self):
        codes, _ = bin_column(np.array([0.0, 1.0, 2.0, 3.0]), 2, "uniform-width")
        assert codes.tolist() == [0, 0, 1, 1]

    def test_categorical_counts_distinct_values(self):
        codes, labels = bin_column(
            np.array(["b", "a", "b"], dtype=object), 5, "categorical"
        )
        assert labels == ["a", "b"]
        assert codes.tolist() == [1, 0, 1]

    def test_constant_column_falls_back_to_categorical(self):
        codes, labels = bin_column(np.full(6, 2.5), 4, "quantile")
        assert labels == ["2.5"]
        assert codes.tolist() == [0] * 6

    def test_ties_collapse_into_merged_interval_labels(self):
        codes, labels = bin_column(
            np.array([0.0, 0.0, 0.0, 1.0, 2.0, 3.0]), 3, "quantile"
        )
        assert codes.tolist() == [0, 0, 0, 0, 1, 1]
        assert labels == ["[-inf, 1.5)", "[1.5, inf)"]

    def test_codes_are_dense_and_every_bin_occupied(self):
        rng = np.random.default_rng(50)
        for strategy in ("quantile", "uniform-width"):
            values = rng.standard_normal(200)
            codes, labels = bin_column(values, 8, strategy)
            counts = np.bincount(codes, minlength=len(labels))
            assert np.all(counts > 0)
            assert codes.max() == len(labels) - 1


class TestEmpiricalJoint:
    def test_identical_columns_give_full_dependence(self):
        u = np.array([0.1, 0.9, 0.4, 0.7])
        j = empirical_joint(SampleTable(u, u), BinningSpec(bins_x=2, bins_y=2))
        assert_allclose(j.probs, [[0.5, 0.0], [0.0, 0.5]])
        assert_allclose(maximal_correlation(j), 1.0)

    def test_categorical_pairs_match_contingency_counts(self):
        s = SampleTable(["a", "a", "b"], ["u", "v", "u"])
        j = empirical_joint(s, BinningSpec(strategy="categorical"))
        assert j.labels_x == ("a", "b")
        assert j.labels_y == ("u", "v")
        assert_allclose(j.probs, np.array([[1, 1], [1, 0]]) / 3)

    def test_independent_uniforms_have_small_plug_in_r(self):
        rng = np.random.default_rng(51)
        s = SampleTable(rng.random(10_000), rng.random(10_000))
        j = empirical_joint(s, BinningSpec(bins_x=4, bins_y=4))
        assert maximal_correlation(j) <= 0.1

    def test_determinism(self):
        rng = np.random.default_rng(52)
        x, y = rng.random(500), rng.random(500)
        a = empirical_joint(SampleTable(x, y), BinningSpec())
        b = empirical_joint(SampleTable(x, y), BinningSpec())
        assert np.array_equal(a.probs, b.probs)

    def test_mixed_categorical_and_numeric(self):
        s = SampleTable(["a", "b", "a", "b"], [1.0, 2.0, 1.5, 2.5])
        j = empirical_joint(s, BinningSpec(bins_x=2, bins_y=2))
        assert j.n_x == 2 and j.n_y == 2


class TestEstimateProfile:
    def test_metadata_and_invariants(self):
        rng = np.random.default_rng(53)
        x = rng.standard_normal(4000)
        y = x + 0.5 * rng.standard_normal(4000)
        s = SampleTable(x, y)
        est = profile_of_joint(empirical_joint(s, BinningSpec()), s.n, 2)
        assert est.n == 4000
        assert est.bins == (8, 8)
        assert not est.bias_warning  # 4000 >= 10 * 64
        d = est.profile.d
        assert abs(d[0] - est.profile.r**2) <= 1e-10
        assert np.all(np.diff(d) <= 1e-10)

    def test_bias_warning_on_small_samples(self):
        rng = np.random.default_rng(54)
        s = SampleTable(rng.standard_normal(100), rng.standard_normal(100))
        est = profile_of_joint(empirical_joint(s, BinningSpec(bins_x=8, bins_y=8)), s.n, 0)
        assert est.bias_warning

    def test_identity_pair_reaches_one(self):
        u = np.linspace(0.0, 1.0, 64)
        s = SampleTable(u, u)
        est = profile_of_joint(empirical_joint(s, BinningSpec(bins_x=4, bins_y=4)), s.n, 0)
        assert_allclose(est.profile.d[0], 1.0)


class TestGroupedColumns:
    def test_single_column_group_matches_empirical_joint(self):
        rng = np.random.default_rng(55)
        x, y = rng.random(300), rng.random(300)
        spec = BinningSpec(bins_x=3, bins_y=3)
        a = empirical_joint(SampleTable(x, y), spec)
        b = empirical_joint_grouped(x, [y], spec)
        assert np.array_equal(a.probs, b.probs)

    def test_product_labels_join_with_ampersand(self):
        rng = np.random.default_rng(56)
        x, y, z = rng.random(400), rng.random(400), rng.random(400)
        j = empirical_joint_grouped(x, [y, z], BinningSpec(bins_x=2, bins_y=2))
        assert all("&" in lab for lab in j.labels_y)

    def test_adjoining_a_column_cannot_reduce_dependence(self):
        # Coarsening the (Y, Z) product back to Y recovers the single-column
        # joint, so the grouped estimate dominates the marginal one.
        rng = np.random.default_rng(57)
        x = rng.standard_normal(2000)
        y = x + rng.standard_normal(2000)
        z = rng.standard_normal(2000)
        spec = BinningSpec(bins_x=4, bins_y=4)
        single = empirical_joint_grouped(x, [y], spec)
        grouped = empirical_joint_grouped(x, [y, z], spec)
        assert (
            maximal_correlation(grouped)
            >= maximal_correlation(single) - 1e-10
        )
        # explicit round trip: merge the z-blocks of the product alphabet
        prefix = [lab.split("&")[0] for lab in grouped.labels_y]
        groups: dict[str, list[int]] = {}
        for idx, key in enumerate(prefix):
            groups.setdefault(key, []).append(idx)
        back = coarsen_y(grouped, list(groups.values()))
        order = np.argsort([g[0] for g in groups.values()])
        assert_allclose(back.probs[:, order], single.probs, atol=1e-15)


class TestGaussianQuantileJoint:
    def test_zero_correlation_is_exactly_uniform(self):
        j = gaussian_quantile_joint(0.0, 4)
        assert_allclose(j.probs, np.full((4, 4), 1 / 16), atol=1e-15)

    def test_equal_mass_marginals(self):
        j = gaussian_quantile_joint(0.8, 8)
        # x-bins integrate a constant, so they are exact; y-bin masses carry
        # the quadrature error of the endpoint panels.
        assert_allclose(j.p_x, np.full(8, 0.125), atol=1e-12)
        assert_allclose(j.p_y, np.full(8, 0.125), atol=1e-8)

    def test_sign_symmetry(self):
        a = maximal_correlation(gaussian_quantile_joint(0.6, 8))
        b = maximal_correlation(gaussian_quantile_joint(-0.6, 8))
        assert_allclose(a, b, atol=1e-12)

    def test_table_is_exchangeable(self):
        j = gaussian_quantile_joint(0.7, 6)
        assert_allclose(j.probs, j.probs.T, atol=1e-6)

    def test_refinement_monotonicity(self):
        values = [
            maximal_correlation(gaussian_quantile_joint(0.9, k))
            for k in (4, 8, 16, 32)
        ]
        assert np.all(np.diff(values) >= -1e-10)

    def test_requires_rho_strictly_inside_unit_interval(self):
        with pytest.raises(InvalidDistributionError):
            gaussian_quantile_joint(1.0, 8)

    def test_rectangular_grids(self):
        j = gaussian_quantile_joint(0.5, 4, 8)
        assert j.n_x == 4 and j.n_y == 8
        assert_allclose(j.p_x, np.full(4, 0.25), atol=1e-12)


def _reference_bin_column(values, bins, strategy):
    """``bin_column`` as it was written before ``bincount``: sort, then unique."""
    if strategy == "categorical" or values.dtype == object:
        atoms, codes = np.unique(values.astype(str) if values.dtype == object else values,
                                 return_inverse=True)
        return codes, [str(a) for a in atoms]
    col = values.astype(float)
    if strategy == "quantile":
        qs = np.arange(1, bins) / bins
        edges = np.quantile(np.sort(col, kind="stable"), qs, method="midpoint")
    else:
        edges = np.linspace(col.min(), col.max(), bins + 1)[1:-1]
    codes = np.digitize(col, edges)
    occupied = np.unique(codes)
    if occupied.size < 2:
        return _reference_bin_column(values, bins, "categorical")
    remap = np.full(bins, -1)
    remap[occupied] = np.arange(occupied.size)
    return remap[codes], _merged_interval_labels(edges, occupied, bins)


def _reference_grouped(x, ys, spec):
    """Grouped plug-in joint through ``np.unique(axis=0)`` and ``np.add.at``."""
    codes_x, labels_x = _reference_bin_column(x, spec.bins_x, spec.strategy)
    parts = [_reference_bin_column(y, spec.bins_y, spec.strategy) for y in ys]
    stacked = np.stack([c for c, _ in parts], axis=1)
    combos, codes_y = np.unique(stacked, axis=0, return_inverse=True)
    labels_y = ["&".join(parts[d][1][combo[d]] for d in range(len(parts))) for combo in combos]
    counts = np.zeros((len(labels_x), len(labels_y)))
    np.add.at(counts, (codes_x, codes_y.ravel()), 1.0)
    j = DiscreteJoint(counts / x.shape[0], labels_x=tuple(labels_x), labels_y=tuple(labels_y))
    return j.probs, j.labels_x, j.labels_y


class TestCountingMatchesReference:
    """``bincount`` occupancy and product codes reproduce the sort-based path."""

    SPECS = [
        BinningSpec("quantile", 4, 4),
        BinningSpec("uniform-width", 5, 6),
        BinningSpec("categorical"),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.strategy)
    def test_grouped_joint_on_fixed_columns(self, spec):
        rng = np.random.default_rng(58)
        n = 400
        x = rng.standard_normal(n)
        ties = np.repeat([0.0, 0.0, 0.0, 1.0, 5.0], n // 5)  # empty bins get merged
        gappy = np.where(rng.random(n) < 0.5, rng.random(n), 10 + rng.random(n))
        const = np.full(n, 2.5)  # falls back to categorical
        words = rng.choice(np.array(["u", "v", "w"], dtype=object), n)
        for ys in ([ties, gappy], [gappy, const, x], [words, ties], [const, const]):
            j = empirical_joint_grouped(x, ys, spec)
            probs, labels_x, labels_y = _reference_grouped(x, ys, spec)
            assert np.array_equal(j.probs, probs)
            assert (j.labels_x, j.labels_y) == (labels_x, labels_y)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 3), st.integers(-2, 2)),
            min_size=2, max_size=60,
        ),
        strategy=st.sampled_from(["quantile", "uniform-width", "categorical"]),
        bins=st.integers(2, 5),
    )
    def test_grouped_joint_on_tied_integer_columns(self, data, strategy, bins):
        x, y, z = (np.array(c, dtype=float) for c in zip(*data))
        spec = BinningSpec(strategy, bins, bins)
        for ys in ([y], [y, z], [z, y, x]):
            for col in (x, *ys):
                codes, labels = bin_column(col, bins, strategy)
                want_codes, want_labels = _reference_bin_column(col, bins, strategy)
                assert np.array_equal(codes, want_codes) and labels == want_labels
            j = empirical_joint_grouped(x, ys, spec)
            probs, labels_x, labels_y = _reference_grouped(x, ys, spec)
            assert np.array_equal(j.probs, probs)
            assert (j.labels_x, j.labels_y) == (labels_x, labels_y)

    def test_product_alphabet_is_never_allocated(self):
        # Two Y columns of n distinct values each: their product alphabet has
        # n^2 = 9e6 cells (72 MB as int64 counts); only n tuples occur.
        n = 3000
        rng = np.random.default_rng(59)
        x = rng.standard_normal(n)
        y1 = rng.permutation(n).astype(str).astype(object)
        y2 = rng.permutation(n).astype(str).astype(object)
        spec = BinningSpec(bins_x=2, bins_y=2)
        tracemalloc.start()
        try:
            j = empirical_joint_grouped(x, [y1, y2], spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert j.n_y == n
        assert peak < 8 * 2**20
        probs, _, labels_y = _reference_grouped(x, [y1, y2], spec)
        assert np.array_equal(j.probs, probs) and j.labels_y == labels_y
