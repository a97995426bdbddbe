"""Binning, plug-in estimation, and the analytic Gaussian discretization."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import depscale.estimate
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
    singular_spectrum,
)
from depscale.cli import main
from depscale.estimate import profile_of_joint


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

    @pytest.mark.parametrize("strategy", ["quantile", "uniform-width"])
    def test_bin_counts_stop_at_the_int64_limit(self, strategy):
        # Uniform-width codes are int64 edge indices; quantile keeps the same bound.
        with pytest.raises(InvalidDistributionError, match=r"\(--bins\) must lie in"):
            BinningSpec(strategy, bins_y=2**63)
        BinningSpec(strategy, 2**63 - 1, 2**63 - 1)  # must not raise

    def test_categorical_ignores_bin_counts(self):
        BinningSpec(strategy="categorical", bins_x=1, bins_y=1)  # must not raise


class TestBinColumn:
    def test_quantile_midpoint_edges(self):
        codes = bin_column(np.array([0.0, 1.0, 2.0, 3.0]), 2, "quantile")
        assert codes.tolist() == [0, 0, 1, 1]

    def test_uniform_width_edges(self):
        codes = bin_column(np.array([0.0, 1.0, 2.0, 3.0]), 2, "uniform-width")
        assert codes.tolist() == [0, 0, 1, 1]

    def test_categorical_counts_distinct_values(self):
        codes = bin_column(np.array(["b", "a", "b"], dtype=object), 5, "categorical")
        assert codes.tolist() == [1, 0, 1]  # distinct values in sorted order

    def test_constant_column_falls_back_to_categorical(self):
        codes = bin_column(np.full(6, 2.5), 4, "quantile")
        assert codes.tolist() == [0] * 6

    def test_ties_collapse_into_merged_interval_labels(self):
        # Edges 0 and 1.5: the first of three bins stays empty and is dropped.
        codes = bin_column(np.array([0.0, 0.0, 0.0, 1.0, 2.0, 3.0]), 3, "quantile")
        assert codes.tolist() == [0, 0, 0, 0, 1, 1]

    @pytest.mark.parametrize("strategy", ["quantile", "uniform-width"])
    @pytest.mark.parametrize(
        "values",
        [[0.0, np.nan, 1.0, 2.0], [0.0, np.inf, 1.0, 2.0], [-np.inf, 0.0, 1.0], []],
        ids=["nan", "inf", "-inf", "empty"],
    )
    def test_non_finite_or_empty_numeric_columns_are_rejected(self, values, strategy):
        for bins in (2, 10**11):
            with pytest.raises(InvalidDistributionError, match="non-empty and finite"):
                bin_column(np.array(values, dtype=float), bins, strategy)

    @pytest.mark.parametrize("strategy", ["quantile", "uniform-width", "categorical"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_a_non_finite_sample_is_rejected_before_binning(self, bad, strategy):
        x, y = np.array([0.0, 1.0, 2.0]), np.array([0.0, bad, 1.0])
        with pytest.raises(InvalidDistributionError, match="non-finite"):
            empirical_joint_grouped(x, [y], BinningSpec(strategy, 10**11, 10**11))

    @pytest.mark.parametrize("bins", [4, 5, 6, 7, 8, 100])
    def test_adjacent_doubles_get_a_quantile_bin_each(self, bins):
        # The midpoint of 1 and the next double rounds onto 1, so no midpoint
        # edge could part them; from n bins on the partition is categorical.
        col = np.array([0.0, 1.0, np.nextafter(1.0, 2.0), 5.0])
        assert bin_column(col, bins, "quantile").tolist() == [0, 1, 2, 3]

    # Columns for the uniform-width reference: general floats; a subnormal
    # range; values far from zero a few ulps apart, where edges round onto the
    # values and many bins share one double; and constant columns.
    UNIFORM_COLUMNS = st.one_of(
        st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
        st.lists(st.integers(0, 40).map(lambda k: k * 5e-324), min_size=1, max_size=30),
        st.lists(st.integers(0, 40).map(lambda k: 1e10 + k * np.spacing(1e10)), min_size=1,
                 max_size=30),
        st.tuples(st.floats(-1e300, 1e300), st.integers(1, 5)).map(lambda c: [c[0]] * c[1]),
    )

    @settings(max_examples=200, deadline=None)
    @given(values=UNIFORM_COLUMNS, data=st.data(),
           bins=st.one_of(st.sampled_from([2, 128, 129, 10**6]), st.integers(2, 10**6)))
    def test_uniform_width_counts_the_linspace_edges(self, values, data, bins):
        col = np.array(values)
        edges = np.linspace(col.min(), col.max(), bins + 1)[1:-1]
        # Values on an edge and one double below it.
        on = edges[data.draw(st.lists(st.integers(0, bins - 2), max_size=6), label="edges")]
        col = np.concatenate([col, on, np.nextafter(on, -np.inf)])
        want = _reference_bin_column(col, bins, "uniform-width")
        assert np.array_equal(bin_column(col, bins, "uniform-width"), want)

    def test_codes_are_dense_and_every_bin_occupied(self):
        rng = np.random.default_rng(50)
        for strategy in ("quantile", "uniform-width"):
            values = rng.standard_normal(200)
            codes = bin_column(values, 8, strategy)
            assert codes.min() == 0
            assert np.all(np.bincount(codes) > 0)

    # Extreme, tiny, subnormal and signed-zero values, adjacent doubles, and
    # values rounded to hundredths, drawn with repeats: tied columns.
    EXTREME_OR_TIED = st.one_of(
        st.sampled_from([-8e307, -1.5, -1e-300, -5e-324, -0.0, 0.0, 5e-324, 1e-300,
                         0.1, 1.0, np.nextafter(1.0, 2.0), 3.0, 8e307]),
        st.floats(-1e6, 1e6).map(lambda v: round(v, 2)),
    )

    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(EXTREME_OR_TIED, min_size=1, max_size=30), data=st.data())
    def test_quantile_from_the_row_count_on_is_categorical(self, values, data):
        # From n bins on, quantile binning is the categorical partition.
        col = np.array(values)
        bins = data.draw(st.integers(max(col.size, 2), col.size**2 + 3), label="bins")
        want = bin_column(col, 2, "categorical")
        assert np.array_equal(bin_column(col, bins, "quantile"), want)


class TestDense:
    @settings(max_examples=150, deadline=None)
    @given(codes=st.lists(st.one_of(st.integers(0, 8), st.integers(0, 2**62)), min_size=1,
                          max_size=40),
           dtype=st.sampled_from([np.int64, np.uint64]))
    def test_ranks_among_the_distinct_codes(self, codes, dtype):
        # Codes at or past the count of codes go by np.unique, the rest by np.bincount.
        c = np.array(codes, dtype=dtype)
        assert np.array_equal(depscale.estimate._dense(c), np.unique(c, return_inverse=True)[1])


class TestEmpiricalJoint:
    def test_identical_columns_give_full_dependence(self):
        u = np.array([0.1, 0.9, 0.4, 0.7])
        j = empirical_joint(SampleTable(u, u), BinningSpec(bins_x=2, bins_y=2))
        assert_allclose(j.probs, [[0.5, 0.0], [0.0, 0.5]])
        assert_allclose(maximal_correlation(j), 1.0)

    def test_categorical_pairs_match_contingency_counts(self):
        s = SampleTable(["a", "a", "b"], ["u", "v", "u"])
        j = empirical_joint(s, BinningSpec(strategy="categorical"))
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
        est = profile_of_joint(empirical_joint(s, BinningSpec()), s.n)
        assert est.n == 4000
        assert (est.joint.n_x, est.joint.n_y) == (8, 8)
        assert not est.bias_warning  # 4000 >= 10 * 64
        profile = est.spectrum.profile(2)
        d = profile.d
        assert abs(d[0] - profile.r**2) <= 1e-10
        assert np.all(np.diff(d) <= 1e-10)

    def test_bias_warning_on_small_samples(self):
        rng = np.random.default_rng(54)
        s = SampleTable(rng.standard_normal(100), rng.standard_normal(100))
        est = profile_of_joint(empirical_joint(s, BinningSpec(bins_x=8, bins_y=8)), s.n)
        assert est.bias_warning

    def test_identity_pair_reaches_one(self):
        u = np.linspace(0.0, 1.0, 64)
        s = SampleTable(u, u)
        est = profile_of_joint(empirical_joint(s, BinningSpec(bins_x=4, bins_y=4)), s.n)
        assert_allclose(est.spectrum.profile(0).d[0], 1.0)


class TestGroupedColumns:
    def test_single_column_group_matches_empirical_joint(self):
        rng = np.random.default_rng(55)
        x, y = rng.random(300), rng.random(300)
        spec = BinningSpec(bins_x=3, bins_y=3)
        a = empirical_joint(SampleTable(x, y), spec)
        b = empirical_joint_grouped(x, [y], spec)
        assert np.array_equal(a.probs, b.probs)

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
        # explicit round trip: merge the z-blocks of the product alphabet.
        # Product atoms number the observed (y, z) code tuples in
        # lexicographic order, so row t of the sorted tuples is atom t.
        tuples = np.unique(
            np.stack([bin_column(c, 4, "quantile") for c in (y, z)], axis=1), axis=0
        )
        assert tuples.shape[0] == grouped.n_y
        groups: dict[int, list[int]] = {}
        for idx, key in enumerate(tuples[:, 0].tolist()):
            groups.setdefault(key, []).append(idx)
        back = coarsen_y(grouped, list(groups.values()))
        order = np.argsort([g[0] for g in groups.values()])
        assert_allclose(back.probs[:, order], single.probs, atol=1e-15)

    def test_a_table_over_the_cell_cap_is_rejected(self, monkeypatch):
        # 4 x 3 atoms: 12 cells pass a cap of 12 and fail one of 11.
        x = np.array(list("abcdabcdabcd"), dtype=object)
        y = np.array(list("pqrpqrpqrpqr"), dtype=object)
        spec = BinningSpec(strategy="categorical")
        monkeypatch.setattr(depscale.estimate, "_MAX_CELLS", 12)
        assert empirical_joint_grouped(x, [y], spec).probs.shape == (4, 3)
        monkeypatch.setattr(depscale.estimate, "_MAX_CELLS", 11)
        with pytest.raises(InvalidDistributionError, match="4 x 3 atoms is over the 11-cell"):
            empirical_joint_grouped(x, [y], spec)


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


class TestLancasterSpectrum:
    """Nested quantile grids of a correlation-rho Gaussian against its whole
    spectrum, sigma_k = |rho|**k (Lancaster 1958).  A grid compresses the
    operator, so each sigma_k is at most |rho|**k and does not fall when the
    grid is refined into a nested one (Cauchy interlacing); then d[m] is at
    most |rho|**((m+1)(m+2)).  Each bound holds within 1e-6, the accuracy of
    the table's cells."""

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.8, -0.6])
    def test_whole_spectrum_under_refinement(self, rho):
        bound = np.abs(rho) ** np.arange(1, 9)  # sigma_1 .. sigma_8
        coarser = np.zeros(8)
        for bins in (4, 16, 64, 256):  # each grid's edges are the next one's
            s = singular_spectrum(gaussian_quantile_joint(rho, bins))
            sigma = s.sigma[:8]
            k = sigma.size
            assert np.all(sigma <= bound[:k] + 1e-6), bins
            assert np.all(sigma >= coarser[:k] - 1e-6), bins
            coarser[:k] = sigma
            m = np.arange(k)
            d = s.profile(k - 1).d
            assert np.all(d <= np.abs(rho) ** ((m + 1) * (m + 2)) + 1e-6), bins

    def test_cli_reads_the_written_table(self, tmp_path, capsys):
        """CLI ``compute`` on the 256-bin table written with ``repr`` cells
        prints the in-memory spectrum, order and completeness."""
        j = gaussian_quantile_joint(0.8, 256)
        path = tmp_path / "gauss256.csv"
        path.write_text("".join(",".join(map(repr, row)) + "\n" for row in j.probs.tolist()))
        assert main(["compute", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        s = singular_spectrum(j)
        assert_allclose(report["sigma"], s.sigma, rtol=0, atol=1e-12)
        assert (report["order"], report["complete"]) == (s.profile(None).order, s.complete())
        sigma = np.asarray(report["sigma"][:8])
        assert np.all(sigma <= 0.8 ** np.arange(1, 9) + 1e-6)


def _reference_bin_column(values, bins, strategy):
    """``bin_column`` as it was written before ``bincount``: sort, then unique;
    from n bins on, quantile binning is categorical."""
    if strategy == "categorical" or values.dtype == object or (
            strategy == "quantile" and bins >= values.size):
        return np.unique(values.astype(str) if values.dtype == object else values,
                         return_inverse=True)[1]
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
    return remap[codes]


def _reference_grouped(x, ys, spec):
    """Grouped plug-in joint through ``np.unique(axis=0)`` and ``np.add.at``."""
    codes_x = _reference_bin_column(x, spec.bins_x, spec.strategy)
    stacked = np.stack([_reference_bin_column(y, spec.bins_y, spec.strategy) for y in ys],
                       axis=1)
    combos, codes_y = np.unique(stacked, axis=0, return_inverse=True)
    counts = np.zeros((codes_x.max() + 1, combos.shape[0]))
    np.add.at(counts, (codes_x, codes_y.ravel()), 1.0)
    return DiscreteJoint(counts / x.shape[0]).probs


class TestCountingMatchesReference:
    """``bincount`` occupancy and product codes reproduce the sort-based path."""

    SPECS = [
        BinningSpec("quantile", 4, 4),
        BinningSpec("uniform-width", 5, 6),
        BinningSpec("categorical"),
        # Over 128 bins the codes come from np.digitize, not from comparisons.
        pytest.param(BinningSpec("quantile", 200, 129), id="quantile-200"),
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
            assert np.array_equal(j.probs, _reference_grouped(x, ys, spec))

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
                codes = bin_column(col, bins, strategy)
                assert np.array_equal(codes, _reference_bin_column(col, bins, strategy))
            j = empirical_joint_grouped(x, ys, spec)
            assert np.array_equal(j.probs, _reference_grouped(x, ys, spec))

    # Non-integer floats, signed zeros and ties, up to +-1e300 (edges stay finite).
    CELLS = st.one_of(
        st.floats(-1e300, 1e300), st.sampled_from([0.0, -0.0, 0.5, -2.25, 1e300, -1e300])
    )

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.lists(st.tuples(CELLS, CELLS, CELLS), min_size=2, max_size=200),
        strategy=st.sampled_from(["quantile", "uniform-width"]),
        bins=st.integers(2, 12),
    )
    def test_grouped_joint_on_float_columns(self, data, strategy, bins):
        x, y, z = (np.array(c, dtype=float) for c in zip(*data))
        spec = BinningSpec(strategy, bins, bins)
        for col in (x, y, z):
            codes = bin_column(col, bins, strategy)
            assert np.array_equal(codes, _reference_bin_column(col, bins, strategy))
        for ys in ([y], [y, z], [z, y, x]):
            j = empirical_joint_grouped(x, ys, spec)
            assert np.array_equal(j.probs, _reference_grouped(x, ys, spec))

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
        assert np.array_equal(j.probs, _reference_grouped(x, [y1, y2], spec))
