"""End-to-end command-line checks: reports, formats, and error objects.

Every assertion goes through ``main(argv)`` in process so stdout/stderr and
exit codes are exercised exactly as a shell user would see them.
"""

import argparse
import csv
import inspect
import io
import json
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import random_finite_rank, random_independent, random_joint
from depscale import dependence_scale, make_joint, singular_spectrum
from depscale import cli
from depscale.cli import main

FIXTURE_CSV = "0.4,0.1\n0.1,0.4\n"
INDEPENDENT_CSV = "0.25,0.25\n0.25,0.25\n"
# [[.25+e, .25-e], [.25-e, .25+e]] with e = 2.5e-7: sigma_1 = 4e = 1e-6,
# above the default 1e-10 tolerance while d[0] = sigma_1**2 = 1e-12 is below.
WEAK_CSV = "0.25000025,0.24999975\n0.24999975,0.25000025\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def write_table(tmp_path, name, probs):
    lines = [",".join(f"{float(v)!r}" for v in row) for row in probs]
    return write(tmp_path, name, "\n".join(lines) + "\n")


def write_samples(tmp_path, seed=33, n=3000):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = x + rng.standard_normal(n)
    z = rng.standard_normal(n)
    lines = ["x,y,z"]
    lines += [f"{float(a)!r},{float(b)!r},{float(c)!r}" for a, b, c in zip(x, y, z)]
    return write(tmp_path, "samples.csv", "\n".join(lines) + "\n")


class TestCompute:
    def test_full_report_matches_library_bit_for_bit(self, capsys, tmp_path):
        path = write(tmp_path, "j.csv", FIXTURE_CSV)
        code, out, err = run_cli(capsys, "compute", path)
        assert code == 0 and err == ""
        report = json.loads(out)
        j = make_joint([[0.4, 0.1], [0.1, 0.4]])
        spectrum = singular_spectrum(j)
        profile = dependence_scale(j, 1)
        assert report["schema"] == "v1"
        assert report["sigma0"] == spectrum.sigma0
        assert report["sigma"] == [float(s) for s in spectrum.sigma]
        assert report["R"] == profile.r == 0.6
        assert report["D"] == [float(v) for v in profile.d] == [0.36, 0.0]
        assert report["order"] == 1
        assert report["complete"] is True

    def test_independent_table(self, capsys, tmp_path):
        path = write(tmp_path, "j.csv", INDEPENDENT_CSV)
        code, out, _ = run_cli(capsys, "compute", path)
        assert code == 0
        report = json.loads(out)
        assert report["R"] <= 1e-12
        assert report["order"] == 0
        assert report["complete"] is False

    def test_order_is_the_rank_of_sigma(self, capsys, tmp_path):
        # order and complete read one rule: sigma_1 = 1e-6 is not zero.
        path = write(tmp_path, "j.csv", WEAK_CSV)
        code, out, _ = run_cli(capsys, "compute", path)
        assert code == 0
        report = json.loads(out)
        assert 0.5e-6 < report["sigma"][0] < 2e-6
        assert report["D"][0] <= 1e-10
        assert report["order"] == 1
        assert report["complete"] is True

    def test_order_and_complete_agree(self, capsys, tmp_path):
        rng = np.random.default_rng(46)
        seen = set()
        for i in range(24):
            n_x = int(rng.integers(2, 6))
            n_y = int(rng.integers(n_x, 7))
            kind = i % 3
            if kind == 0:
                j = random_joint(rng, n_x, n_y)
            elif kind == 1:
                j = random_independent(rng, n_x, n_y)
            else:
                j = random_finite_rank(rng, int(rng.integers(1, n_x)), n_x, n_y)
            path = write_table(tmp_path, f"j{i}.csv", j.probs)
            code, out, _ = run_cli(capsys, "compute", path)
            assert code == 0
            report = json.loads(out)
            full = report["order"] == min(n_x, n_y) - 1
            assert report["complete"] is full
            seen.add(full)
        assert seen == {True, False}

    def test_csv_format_flattens_fields(self, capsys, tmp_path):
        path = write(tmp_path, "j.csv", FIXTURE_CSV)
        code, out, _ = run_cli(capsys, "compute", path, "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["field", "index", "value"]
        table = {(r[0], r[1]): r[2] for r in rows[1:]}
        assert table[("schema", "")] == "v1"
        assert table[("R", "")] == "0.6"
        assert table[("sigma", "0")] == "0.6"
        assert table[("D", "0")] == "0.36"
        assert table[("D", "1")] == "0.0"
        assert table[("order", "")] == "1"
        assert table[("complete", "")] == "true"

    def test_unnormalized_table_is_a_structured_error(self, capsys, tmp_path):
        path = write(tmp_path, "j.csv", "0.3,0.1\n0.1,0.3\n")
        code, out, err = run_cli(capsys, "compute", path)
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["schema"] == "v1"
        assert error["error"] == "NotNormalized"
        assert "0.8" in error["message"]

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "compute", str(tmp_path / "absent.csv"))
        assert code == 2
        assert json.loads(err)["error"] == "Format"

    def test_negative_max_order(self, capsys, tmp_path):
        path = write(tmp_path, "j.csv", FIXTURE_CSV)
        code, _, err = run_cli(capsys, "compute", path, "--max-order", "-1")
        assert code == 2
        assert json.loads(err)["error"] == "InvalidArgument"


def _extreme_tables():
    """Tables of 1 x N, N x 1 or N x (N+1) cells 10**-e (e in 0..300) or 0,
    so zero rows and columns and marginals far below sqrt(tiny) all occur."""
    cell = st.one_of(st.just(0.0), st.integers(0, 300).map(lambda e: 10.0**-e))
    shape = st.integers(1, 6).flatmap(
        lambda n: st.sampled_from([(1, n), (n, 1), (n, n + 1)])
    )
    return shape.flatmap(
        lambda s: st.lists(st.lists(cell, min_size=s[1], max_size=s[1]),
                           min_size=s[0], max_size=s[0])
    )


def run_on_table(tmp_path_factory, table, *argv):
    """Run ``argv`` on the normalized ``table`` with every warning recorded.

    Asserts that no warning escaped, that the exit code is 0, 2 or 3, and
    that a failure is exactly one JSON error object; returns the report, or
    None on a failure.
    """
    probs = np.array(table, dtype=float)
    if probs.sum() > 0:
        probs /= probs.sum()
    path = write_table(tmp_path_factory.mktemp("extreme"), "j.csv", probs)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([argv[0], path, *argv[1:]])
    out, err = out.getvalue(), err.getvalue()
    assert caught == []
    assert code in (0, 2, 3)
    if code != 0:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n")
        assert set(json.loads(err)) == {"schema", "error", "message"}
        return None
    assert err == ""
    return json.loads(out)


class TestComputeProperties:
    """Whatever the table, ``compute`` gives a consistent report or one error."""

    @settings(max_examples=150, deadline=None)
    @given(table=_extreme_tables())
    # Marginals 1e-200 on both sides: their product underflows to 0.
    @example(table=[[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 1e-200]])
    def test_report_or_one_structured_error(self, tmp_path_factory, table):
        report = run_on_table(tmp_path_factory, table, "compute")
        if report is None:
            return
        n_x, n_y = np.shape(table)
        assert report["complete"] is (
            n_x <= n_y and report["order"] == len(report["sigma"])
        )
        d = np.array(report["D"])
        assert np.all(np.diff(d) <= 0)
        assert d[0] == report["R"] ** 2

    def test_underflowing_marginal_product(self, capsys, tmp_path):
        path = write(tmp_path, "j.csv", "0.5,0,0\n0,0.5,0\n0,0,1e-200\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "compute", path)
        assert caught == [] and code == 0 and err == ""
        report = json.loads(out)
        assert report["sigma"] == [1.0, 1.0]
        assert report["complete"] is True


class TestOracleProperties:
    """Whatever the table, ``oracle`` audits the spectral value or fails
    with one error."""

    @settings(max_examples=100, deadline=None)
    @given(table=_extreme_tables(), m=st.integers(0, 2))
    @example(table=[[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 1e-200]], m=1)
    def test_audit_or_one_structured_error(self, tmp_path_factory, table, m):
        report = run_on_table(
            tmp_path_factory, table, "oracle", "-m", str(m), "--restarts", "4"
        )
        if report is None:
            return
        spectral = report["spectral"]
        assert abs(report["oracle"] - spectral) <= 1e-6 + 1e-8 * spectral


class TestOneSpectrumPerReport:
    """A report reads every field off one spectrum: two value-only SVDs."""

    @pytest.fixture
    def svd_calls(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        return calls

    @pytest.mark.parametrize(
        "probs",
        [
            [[0.4, 0.1], [0.1, 0.4]],
            np.outer([0.5, 0.5], [0.2, 0.3, 0.5]),
            np.full((6, 3), 1 / 18) + np.kron(np.eye(3), [[0.01], [-0.01]]),
        ],
        ids=["complete", "independent", "tall"],
    )
    def test_compute(self, capsys, tmp_path, svd_calls, probs):
        path = write_table(tmp_path, "j.csv", probs)
        code, _, _ = run_cli(capsys, "compute", path)
        assert code == 0
        assert len(svd_calls) == 2

    def test_estimate(self, capsys, tmp_path, svd_calls):
        path = write_samples(tmp_path)
        code, _, _ = run_cli(capsys, "estimate", path, "--x", "x", "--y", "y")
        assert code == 0
        assert len(svd_calls) == 2


class TestEstimate:
    def test_single_column_report(self, capsys, tmp_path):
        path = write_samples(tmp_path)
        code, out, _ = run_cli(
            capsys, "estimate", path, "--x", "x", "--y", "y", "--bins", "4"
        )
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 3000
        assert report["bins"] == [4, 4]
        assert report["bias_warning"] is False
        assert 0.4 <= report["R"] <= 0.9

    def test_adjoining_a_noise_column_keeps_dependence(self, capsys, tmp_path):
        path = write_samples(tmp_path)
        _, out, _ = run_cli(
            capsys, "estimate", path, "--x", "x", "--y", "y", "--bins", "4"
        )
        single = json.loads(out)
        code, out, _ = run_cli(
            capsys, "estimate", path, "--x", "x", "--y", "y", "z", "--bins", "4"
        )
        assert code == 0
        grouped = json.loads(out)
        assert grouped["bins"] == [4, 16]
        # the plug-in estimate on the product alphabet dominates the marginal
        # one up to resampling noise in which cells are occupied
        assert grouped["R"] >= single["R"] - 0.02

    def test_columns_by_position_on_headerless_file(self, capsys, tmp_path):
        u = np.linspace(0.0, 1.0, 64)
        text = "\n".join(f"{float(v)!r},{float(v)!r}" for v in u) + "\n"
        path = write(tmp_path, "id.csv", text)
        code, out, _ = run_cli(
            capsys, "estimate", path, "--x", "0", "--y", "1", "--bins", "4"
        )
        assert code == 0
        report = json.loads(out)
        assert report["n"] == 64
        assert_allclose(report["R"], 1.0)

    def test_unknown_column_lists_the_header(self, capsys, tmp_path):
        path = write_samples(tmp_path)
        code, _, err = run_cli(capsys, "estimate", path, "--x", "x", "--y", "nope")
        assert code == 2
        error = json.loads(err)
        assert error["error"] == "Format"
        assert "'x', 'y', 'z'" in error["message"]

    # A valid 50-row file; three cases append one bad row to it.
    FIFTY_ROWS = "x,y\n" + "".join(f"{i},{(7 * i) % 10}\n" for i in range(50))

    @pytest.mark.parametrize(
        "text, y, error, message",
        [
            (FIFTY_ROWS + "nan,2\n", ["y"], "InvalidDistribution",
             "sample column 'x' has missing or non-finite entries"),
            (FIFTY_ROWS + "1,inf\n", ["y"], "InvalidDistribution",
             "sample column 'y' has missing or non-finite entries"),
            (FIFTY_ROWS + "1,inf\n", ["x", "y"], "InvalidDistribution",
             "sample column 'y[1]' has missing or non-finite entries"),
            ("x,y\n1,\n2,b\n", ["y"], "InvalidDistribution",
             "sample column 'y' has missing entries"),
            ("x,y\n1,2\n", ["y"], "TooFewSamples",
             "need at least 2 paired observations, got 1"),
        ],
        ids=["nan-cell", "inf-cell", "inf-cell-second-y", "empty-cell", "one-row"],
    )
    def test_invalid_samples_are_structured_errors(
        self, capsys, tmp_path, text, y, error, message
    ):
        path = write(tmp_path, "bad.csv", text)
        code, out, err = run_cli(capsys, "estimate", path, "--x", "x", "--y", *y)
        assert code == 2 and out == ""
        assert json.loads(err) == {"schema": "v1", "error": error, "message": message}

    # max - min overflows, so uniform-width edges cannot be computed.
    WIDE_RANGE = "x,y\n-1e308,1\n1e308,2\n0,3\n5,4\n"
    # Adjacent order statistics +-1e308: the midpoint quantile edge overflows.
    ALTERNATING = "x,y\n" + "".join(f"{(-1) ** i * 1e308!r},{i % 3}\n" for i in range(12))

    @pytest.mark.parametrize(
        "text, strategy, y",
        [
            (WIDE_RANGE, "uniform-width", ["y"]),
            (ALTERNATING, "quantile", ["y"]),
            (ALTERNATING, "uniform-width", ["y"]),
        ],
        ids=["uniform-width", "quantile", "uniform-width-alternating"],
    )
    def test_overflowing_bin_edges_are_structured_errors(
        self, capsys, tmp_path, text, strategy, y
    ):
        path = write(tmp_path, "wide.csv", text)
        code, out, err = run_cli(
            capsys, "estimate", path, "--x", "x", "--y", *y, "--strategy", strategy
        )
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "schema": "v1", "error": "InvalidDistribution",
            "message": f"sample column 'x': {strategy} bin edges overflow a float",
        }

    def test_overflow_names_the_y_column_of_a_group(self, capsys, tmp_path):
        path = write(tmp_path, "wide.csv", self.WIDE_RANGE.replace("x,y", "y,x"))
        code, _, err = run_cli(capsys, "estimate", path, "--x", "x", "--y", "x", "y",
                               "--strategy", "uniform-width")
        assert code == 2
        assert json.loads(err)["message"] == (
            "sample column 'y[1]': uniform-width bin edges overflow a float"
        )

    @pytest.mark.parametrize("strategy", ["quantile", "categorical"])
    def test_wide_columns_whose_edges_compute_still_bin(self, capsys, tmp_path, strategy):
        path = write(tmp_path, "wide.csv", self.WIDE_RANGE)
        code, out, err = run_cli(capsys, "estimate", path, "--x", "x", "--y", "y",
                                 "--strategy", strategy)
        assert code == 0 and err == ""
        assert json.loads(out)["bins"] == [4, 4]


class TestGaussian:
    def test_scalar_closed_form(self, capsys, tmp_path):
        path = write(tmp_path, "c.csv", "1,0.5\n0.5,1\n")
        code, out, _ = run_cli(capsys, "gaussian", path, "--dim-x", "1")
        assert code == 0
        report = json.loads(out)
        assert report["R"] == 0.5
        assert report["D"] == 0.25
        assert report["lambda_max"] == 0.25

    def test_block_diagonal_is_independent(self, capsys, tmp_path):
        path = write(tmp_path, "c.csv", "1,0\n0,1\n")
        _, out, _ = run_cli(capsys, "gaussian", path, "--dim-x", "1")
        report = json.loads(out)
        assert report["R"] == 0.0 and report["D"] == 0.0

    def test_noise_curve_is_sorted_and_even(self, capsys, tmp_path):
        path = write(tmp_path, "c.csv", "1,0.5\n0.5,1\n")
        code, out, _ = run_cli(
            capsys, "gaussian", path, "--dim-x", "1", "--lambdas", "1", "0", "-1"
        )
        assert code == 0
        curve = json.loads(out)["noise_curve"]
        assert curve["lambda"] == [-1.0, 0.0, 1.0]
        assert curve["R"][0] == curve["R"][2]
        assert curve["R"][1] == 0.5
        assert_allclose(curve["R"][0], 0.5 / np.sqrt(2.0), atol=1e-15)

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_lambda_is_rejected(self, capsys, tmp_path, bad):
        path = write(tmp_path, "c.csv", "1,0.5\n0.5,1\n")
        code, out, err = run_cli(
            capsys, "gaussian", path, "--dim-x", "1", "--lambdas", "0", bad
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "NotPositiveDefinite"

    def test_noise_curve_needs_scalar_blocks(self, capsys, tmp_path):
        path = write(tmp_path, "c.csv", "1,0.3,0.1\n0.3,1,0.2\n0.1,0.2,1\n")
        code, _, err = run_cli(
            capsys, "gaussian", path, "--dim-x", "2", "--lambdas", "1"
        )
        assert code == 2
        assert json.loads(err)["error"] == "NotScalar"

    def test_indefinite_block_is_rejected(self, capsys, tmp_path):
        path = write(tmp_path, "c.csv", "1,0\n0,-1\n")
        code, _, err = run_cli(capsys, "gaussian", path, "--dim-x", "1")
        assert code == 2
        assert json.loads(err)["error"] == "NotPositiveDefinite"

    def test_dim_x_out_of_range(self, capsys, tmp_path):
        path = write(tmp_path, "c.csv", "1,0.5\n0.5,1\n")
        code, _, err = run_cli(capsys, "gaussian", path, "--dim-x", "5")
        assert code == 2
        assert json.loads(err)["error"] == "InvalidBlock"


class TestTransforms:
    def test_leading_pair_of_the_fixture(self, capsys, tmp_path):
        path = write(tmp_path, "j.csv", FIXTURE_CSV)
        code, out, _ = run_cli(capsys, "transforms", path)
        assert code == 0
        pairs = json.loads(out)["pairs"]
        assert len(pairs) == 1
        pair = pairs[0]
        assert_allclose(pair["rho"], 0.6, atol=1e-9)
        phi = np.array(pair["phi"])
        psi = np.array(pair["psi"])
        assert_allclose(phi * np.sign(phi[0]), [1.0, -1.0], atol=1e-8)
        assert_allclose(psi * np.sign(psi[0]), [1.0, -1.0], atol=1e-8)
        assert pair["converged"] is True
        assert pair["degenerate"] is False
        assert pair["sweeps"] >= 1

    def test_second_pair_of_a_two_atom_joint_is_degenerate(self, capsys, tmp_path):
        path = write(tmp_path, "j.csv", FIXTURE_CSV)
        _, out, _ = run_cli(capsys, "transforms", path, "-k", "2")
        pairs = json.loads(out)["pairs"]
        assert len(pairs) == 2
        assert pairs[1]["degenerate"] is True
        assert pairs[1]["rho"] == 0.0

    def test_independent_joint_reports_degenerate_pair(self, capsys, tmp_path):
        path = write(tmp_path, "j.csv", INDEPENDENT_CSV)
        code, out, _ = run_cli(capsys, "transforms", path)
        assert code == 0
        pair = json.loads(out)["pairs"][0]
        assert pair["degenerate"] is True
        assert pair["rho"] == 0.0

    def test_exhausted_sweep_budget_is_a_numerical_failure(self, capsys, tmp_path):
        # The iterated block spans every mean-zero function of a table with
        # at most 9 rows, which then converges in one sweep; a 16 x 16 table
        # needs several.
        j = random_joint(np.random.default_rng(0), 16, 16)
        path = write_table(tmp_path, "j.csv", j.probs)
        code, out, err = run_cli(capsys, "transforms", path, "--max-iter", "1")
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "NonConvergence"

    @pytest.mark.parametrize(
        "text, max_iter", [(FIXTURE_CSV, "-1"), (INDEPENDENT_CSV, "0")],
        ids=["fixture", "independent"],
    )
    def test_sweep_budget_below_one_is_an_invalid_argument(
        self, capsys, tmp_path, text, max_iter
    ):
        path = write(tmp_path, "j.csv", text)
        code, out, err = run_cli(capsys, "transforms", path, "--max-iter", max_iter)
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "InvalidArgument"
        assert error["message"] == f"max_iter must be >= 1, got {max_iter}"

    @pytest.mark.parametrize(
        "text", ["0.3,0,0\n0,0.3,0\n0,0,0.4\n", "1e-300,0\n0,1\n"],
        ids=["diagonal", "tiny-atom"],
    )
    def test_rho_is_at_most_one(self, capsys, tmp_path, text):
        # Perfectly dependent tables: the correlation sum rounds past 1.
        path = write(tmp_path, "j.csv", text)
        _, out, _ = run_cli(capsys, "transforms", path)
        _, spectrum, _ = run_cli(capsys, "compute", path)
        assert json.loads(out)["pairs"][0]["rho"] == json.loads(spectrum)["sigma"][0] == 1.0

    def test_rho_matches_the_spectrum_on_every_fixture(self, capsys, tmp_path):
        for name, text in (("fixture", FIXTURE_CSV), ("weak", WEAK_CSV)):
            path = write(tmp_path, f"{name}.csv", text)
            _, out, _ = run_cli(capsys, "transforms", path)
            sigma = singular_spectrum(make_joint(np.loadtxt(path, delimiter=",", ndmin=2))).sigma
            assert abs(json.loads(out)["pairs"][0]["rho"] - sigma[0]) <= 1e-12, name


class TestOracle:
    def test_default_report_is_schema_v1_with_an_empty_stderr(self, capsys, tmp_path):
        path = write(tmp_path, "j.csv", FIXTURE_CSV)
        code, out, err = run_cli(capsys, "oracle", path)
        assert code == 0 and err == ""
        assert set(json.loads(out)) == {"schema", "m", "oracle", "spectral"}

    def test_oracle_and_spectral_agree_on_the_fixture(self, capsys, tmp_path):
        path = write(tmp_path, "j.csv", FIXTURE_CSV)
        code, out, _ = run_cli(capsys, "oracle", path)
        assert code == 0
        report = json.loads(out)
        assert report["m"] == 0
        assert_allclose(report["oracle"], 0.36, atol=1e-6)
        assert report["spectral"] == 0.36
        assert abs(report["oracle"] - report["spectral"]) <= 1e-6

    def test_order_beyond_the_alphabet_is_zero(self, capsys, tmp_path):
        path = write(tmp_path, "j.csv", FIXTURE_CSV)
        _, out, _ = run_cli(capsys, "oracle", path, "-m", "1")
        report = json.loads(out)
        assert report["oracle"] == 0.0
        assert report["spectral"] == 0.0


class TestArguments:
    """Options are read by their handler, and usage errors are error objects."""

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["compute", "transforms", "oracle"])
    def test_invalid_tolerance_is_an_invalid_argument(self, capsys, tmp_path, command, tol):
        path = write(tmp_path, "j.csv", INDEPENDENT_CSV)
        code, out, err = run_cli(capsys, command, path, f"--tol={tol}")
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "InvalidArgument"
        assert "tol must be finite and >= 0" in error["message"]

    def test_every_option_is_read_by_its_handler(self):
        parser = cli._build_parser()
        (subparsers,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        assert set(subparsers.choices) == {
            "compute", "estimate", "gaussian", "transforms", "oracle"
        }
        for name, sub in subparsers.choices.items():
            source = inspect.getsource(sub.get_default("handler"))
            dests = [
                a.dest for a in sub._actions
                if not isinstance(a, argparse._HelpAction) and a.dest != "format"
            ]
            unread = [d for d in dests if not re.search(rf"\bargs\.{d}\b", source)]
            assert unread == [], name

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compute", "{path}", "--max-order", "abc"],
             "depscale compute: argument --max-order: invalid int value: 'abc'"),
            (["compute", "{path}", "--seed", "1"],
             "depscale: unrecognized arguments: --seed 1"),
            (["estimate", "{path}", "--x", "x", "--y", "y", "--seed", "0"],
             "depscale: unrecognized arguments: --seed 0"),
            (["gaussian", "{path}", "--dim-x", "1", "--tol", "1e-3"],
             "depscale: unrecognized arguments: --tol 1e-3"),
            (["compute", "{path}", "--format", "xml"],
             "depscale compute: argument --format: invalid choice: 'xml'"),
            (["compute"], "depscale compute: the following arguments are required: joint"),
            ([], "depscale: the following arguments are required: command"),
        ],
        ids=["bad-int", "compute-seed", "estimate-seed", "gaussian-tol", "bad-choice",
             "missing-path", "no-subcommand"],
    )
    def test_usage_errors_are_structured(self, capsys, tmp_path, argv, message):
        path = write(tmp_path, "j.csv", FIXTURE_CSV)
        code, out, err = run_cli(capsys, *[a.format(path=path) for a in argv])
        assert code == 2 and out == ""
        error = json.loads(err)
        assert (error["schema"], error["error"]) == ("v1", "InvalidArgument")
        # Exact up to the wording of the choices, which varies across Pythons.
        assert error["message"].startswith(message)

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["compute", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: depscale compute")
        assert "--seed" not in out and "--tol" in out
