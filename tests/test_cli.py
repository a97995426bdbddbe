"""End-to-end command-line checks: reports, formats, and error objects.

Most assertions go through ``main(argv)`` in process, so stdout/stderr and
exit codes are exercised exactly as a shell user would see them; the last
two classes start ``python -m depscale.cli`` itself, to hold the process
entry to ``main`` and each start to the modules its subcommand runs.
"""

import argparse
import ast
import csv
import importlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import hadamard_joint, random_finite_rank, random_independent, random_joint
from depscale import dependence_scale, make_joint, singular_spectrum
from depscale import cli, spectral
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
    """Run ``argv`` on the normalized ``table``; see :func:`run_checked`."""
    probs = np.array(table, dtype=float)
    if probs.sum() > 0:
        probs /= probs.sum()
    path = write_table(tmp_path_factory.mktemp("extreme"), "j.csv", probs)
    return run_checked(argv[0], path, *argv[1:])


def run_checked(cmd, path, *args):
    """Run ``cmd`` on ``path`` with every warning recorded.

    Asserts that no warning escaped, that the exit code is 0, 2 or 3, and
    that a failure is exactly one JSON error object; returns the report, or
    None on a failure.
    """
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([cmd, str(path), *args])
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


class TestTransformsProperties:
    """Whatever the table, ``transforms`` gives its pairs or one error."""

    @settings(max_examples=100, deadline=None)
    @given(table=_extreme_tables(), k=st.integers(1, 3))
    def test_pairs_or_one_structured_error(self, tmp_path_factory, table, k):
        report = run_on_table(tmp_path_factory, table, "transforms", "-k", str(k))
        if report is None:
            return
        assert len(report["pairs"]) == k
        assert all(0 <= p["rho"] <= 1 for p in report["pairs"])


@st.composite
def _covariances(draw):
    """A covariance CSV of 2 to 4 variables and its size: the Gram matrix of
    rows scaled by 10**e (e in -150..150), so that blocks are singular or
    nearly so, sometimes with one cell overwritten by a value that breaks
    symmetry or definiteness or is not finite."""
    n = draw(st.integers(2, 4))
    unit = st.floats(-1, 1, allow_subnormal=False)
    rows = np.array(draw(st.lists(st.lists(unit, min_size=n, max_size=n),
                                  min_size=n, max_size=n)))
    scales = draw(st.lists(st.integers(-150, 150), min_size=n, max_size=n))
    rows *= 10.0 ** np.array(scales, dtype=float)[:, None]
    cells = [[repr(float(v)) for v in row] for row in rows @ rows.T]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        cells[i][j] = draw(st.sampled_from(["nan", "inf", "-1", "0", "1e308"]))
    return "\n".join(",".join(row) for row in cells) + "\n", n


class TestGaussianProperties:
    """Whatever the covariance and options, ``gaussian`` gives a report in
    [0, 1] or one structured error."""

    @settings(max_examples=150, deadline=None)
    @given(cov=_covariances(), dim_x=st.integers(0, 4),
           lambdas=st.none() | st.lists(
               st.sampled_from(["0", "1", "-2", "1e-300", "1e200", "nan"]),
               min_size=1, max_size=3),
           var_z=st.sampled_from(["1", "0", "1e-300", "1e300"]))
    # A block whose computed eigenvalues have rounding error far above 1e-12.
    @example(cov=("1,1e8,0,1\n1e8,3e16,1e8,1e8\n0,1e8,1,0\n1,1e8,0,1\n", 4), dim_x=3,
             lambdas=None, var_z="1")
    # Entries near the float maximum, and an infinite variance.
    @example(cov=("1e308,0,0\n0,1,0\n0,0,1\n", 3), dim_x=1, lambdas=None, var_z="1")
    @example(cov=("1,0,0\n0,inf,0\n0,0,1\n", 3), dim_x=1, lambdas=None, var_z="1")
    # An off-diagonal far above its variances, which overflows when scaled.
    @example(cov=("1.0,1.0,1e308\n1.0,1.0,0.125\n0.125,0.125,0.015625\n", 3), dim_x=1,
             lambdas=None, var_z="1")
    def test_report_or_one_structured_error(self, tmp_path_factory, cov, dim_x,
                                            lambdas, var_z):
        text, n = cov
        path = tmp_path_factory.mktemp("cov") / "c.csv"
        path.write_text(text)
        args = ["--dim-x", str(dim_x), "--var-z", var_z]
        report = run_checked("gaussian", path, *args, *(["--lambdas", *lambdas]
                                                       if lambdas else []))
        if report is None:
            return
        assert 1 <= dim_x < n
        assert 0 <= report["R"] <= 1 and 0 <= report["D"] == report["lambda_max"] <= 1
        if lambdas:
            assert all(0 <= r <= 1 for r in report["noise_curve"]["R"])


def _gaussian_outcome(path, dim_x):
    """Exit code, stdout and stderr of ``gaussian`` on ``path``, with no
    warning escaped."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(["gaussian", str(path), "--dim-x", str(dim_x)])
    assert caught == []
    return code, out.getvalue(), err.getvalue()


def _cov_text(cov):
    return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in cov)


@st.composite
def _power_of_two_scalings(draw):
    """A covariance of 2 to 4 variables (the Gram matrix of rows scaled by
    10**e, e in -3..3, sometimes with one cell overwritten so that it breaks
    symmetry or definiteness), a split point, and exponents k in -500..500 by
    which to scale each variable by 2**k."""
    n = draw(st.integers(2, 4))
    unit = st.floats(-1, 1, allow_subnormal=False)
    rows = np.array(draw(st.lists(st.lists(unit, min_size=n, max_size=n),
                                  min_size=n, max_size=n)))
    rows *= 10.0 ** np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))[:, None]
    cov = rows @ rows.T
    if draw(st.booleans()):
        cov[draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))] = draw(st.floats(-2, 2))
    k = draw(st.lists(st.integers(-500, 500), min_size=n, max_size=n))
    return cov, draw(st.integers(1, n - 1)), k


class TestGaussianScaleFree:
    """Maximal correlation does not see the units of a variable: scaling each
    by its own 2**k, which every float holds exactly, leaves the report and
    every verdict byte-identical, scalar and block."""

    @settings(max_examples=200, deadline=None)
    @given(case=_power_of_two_scalings())
    # Rejected on the old absolute eigenvalue floor of 1e-12.
    @example(case=(np.array([[1e-200, 5e-201], [5e-201, 1e-200]]), 1, [400, -100]))
    # Mirror entries 2.4e-15 apart relative: "not symmetric" on the old
    # absolute 1e-10 test.
    @example(case=(np.array([[4e12, 1e12, 5e11], [1000000000000.0024, 3e12, 2e11],
                             [5e11, 2e11, 2e12]]), 1, [-300, 2, 500]))
    def test_report_is_byte_identical(self, tmp_path_factory, case):
        cov, dim_x, k = case
        shift = np.add.outer(k, k)
        with np.errstate(over="ignore", under="ignore"):
            scaled = np.ldexp(cov, shift)
            assume(np.array_equal(np.ldexp(scaled, -shift), cov))
        folder = tmp_path_factory.mktemp("scaled")
        (folder / "a.csv").write_text(_cov_text(cov))
        (folder / "b.csv").write_text(_cov_text(scaled))
        assert _gaussian_outcome(folder / "a.csv", dim_x) == \
            _gaussian_outcome(folder / "b.csv", dim_x)


@st.composite
def _quirky_samples(draw):
    """A small samples CSV with the quirks real exports carry: a BOM, CRLF
    line ends, blank lines, an NA or empty cell, a categorical column and
    trailing commas.  Returns the text and its rows of cells."""
    n = draw(st.integers(1, 12))
    numeric = st.one_of(st.integers(-3, 3).map(str), st.floats(-1e3, 1e3).map(repr))
    kinds = draw(st.lists(st.booleans(), min_size=2, max_size=3))  # True: categorical
    cols = [draw(st.lists(st.sampled_from("abc") if cat else numeric, min_size=n, max_size=n))
            for cat in kinds]
    rows = [list(r) for r in zip(*cols)]
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, len(cols) - 1))] = \
            draw(st.sampled_from(["NA", ""]))
    if draw(st.booleans()):
        rows.insert(0, [f"c{i}" for i in range(len(cols))])
    comma = draw(st.sampled_from(["none", "all", "one"]))
    for row in rows[: {"none": 0, "all": len(rows), "one": 1}[comma]]:
        row.append("")
    lines = [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  "])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + newline.join(lines) + newline, rows


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _distinct(cells):
    """How many atoms the categorical strategy makes of a column's cells."""
    try:
        return len({float(c) for c in cells})
    except ValueError:
        return len({c.strip() for c in cells})


class TestEstimateProperties:
    """Whatever the quirks of a samples file, ``estimate`` gives a
    consistent report or one structured error."""

    @settings(max_examples=150, deadline=None)
    @given(sample=_quirky_samples(), bins=st.integers(2, 4),
           strategy=st.sampled_from(["quantile", "uniform-width", "categorical"]))
    @example(sample=("0,0\n" * 7 + "0,1\n1,0\n1,1\n",
                     [["0", "0"]] * 7 + [["0", "1"], ["1", "0"], ["1", "1"]]),
             bins=2, strategy="quantile")
    def test_report_or_one_structured_error(self, tmp_path_factory, sample, bins,
                                            strategy):
        text, rows = sample
        path = tmp_path_factory.mktemp("quirks") / "s.csv"
        path.write_bytes(text.encode())
        report = run_checked("estimate", path, "--x", "0", "--y", "1",
                             "--bins", str(bins), "--strategy", strategy)
        if report is None:
            return
        # A first row with a non-numeric cell is a header, and a header
        # naming a column "0" or "1" is selected by name.
        names = [c.strip() for c in rows[0]]
        header = not all(_is_number(c) for c in names)
        body = rows[1:] if header else rows
        assert report["n"] == len(body)
        n_x, n_y = report["bins"]
        if strategy == "categorical":
            x, y = (names.index(k) if header and k in names else int(k) for k in "01")
            assert [n_x, n_y] == [_distinct([r[x] for r in body]),
                                  _distinct([r[y] for r in body])]
        assert len(report["sigma"]) == min(n_x, n_y) - 1
        # D[0] is the rounded product R * R.  R ** 2 calls libm's pow, which
        # can round a near tie the other way (the @example: R = 3/8 - 2**-54).
        assert report["D"][0] == report["R"] * report["R"]


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


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
class TestPipedInput:
    """A pipe gives the report of the same bytes on disk, by either parse path."""

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["estimate", "--x", "0", "--y", "1"], "x,y\na,2\nb,4\na,2\nb,5\n"),
            (["estimate", "--x", "0", "--y", "1"], "x,y\n1,2\n3,4\n1,2\n3,5\n"),
            (["compute"], ",u,v\na,0.4,0.1\nb,0.1,0.4\n"),
            (["gaussian", "--dim-x", "1"], '1,"0.5"\n0.5,1\n'),
        ],
        ids=["categorical-column", "numeric", "label-column", "quoted-cell"],
    )
    def test_pipe_and_file_give_the_same_report(self, capsys, tmp_path, argv, text):
        cmd, *options = argv
        on_disk = run_cli(capsys, cmd, write(tmp_path, "t.csv", text), *options)
        r, w = os.pipe()
        os.write(w, text.encode())
        os.close(w)
        try:
            piped = run_cli(capsys, cmd, f"/dev/fd/{r}", *options)
        finally:
            os.close(r)
        assert on_disk[0] == 0 and piped == on_disk


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

    def test_a_joint_over_the_cell_cap_is_a_structured_error(self, capsys, tmp_path):
        # 5,000 distinct strings per column would make a 5000 x 5000 table.
        text = "x,y\n" + "".join(f"a{i},b{i}\n" for i in range(5000))
        code, out, err = run_cli(capsys, "estimate", write(tmp_path, "s.csv", text),
                                 "--x", "x", "--y", "y")
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "schema": "v1", "error": "InvalidDistribution",
            "message": "a plug-in joint of 5000 x 5000 atoms is over the 16777216-cell cap",
        }

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

    def test_scalar_csv_prints_plain_floats(self, capsys, tmp_path):
        path = write(tmp_path, "c.csv", "1,0.5\n0.5,1\n")
        code, out, _ = run_cli(capsys, "gaussian", path, "--dim-x", "1", "--format", "csv")
        assert code == 0
        assert out.splitlines() == [
            "field,index,value", "schema,,v1", "R,,0.5", "D,,0.25", "lambda_max,,0.25"]

    def test_block_report_whitens_each_block_once(self, capsys, tmp_path, monkeypatch):
        """The README's 3x3 block: R, D and lambda_max come from the joint's
        one eigendecomposition of each diagonal block."""
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        path = write(tmp_path, "block.csv", "1,0.5,0.3\n0.5,1,0.4\n0.3,0.4,1\n")
        code, out, _ = run_cli(capsys, "gaussian", path, "--dim-x", "2")
        assert code == 0
        assert json.loads(out) == {"schema": "v1", "R": 0.4163331998932266,
                                   "D": 0.17333333333333337,
                                   "lambda_max": 0.17333333333333337}
        assert calls == [(2, 2), (1, 1)]

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

    def test_a_tiny_scale_is_not_a_singular_block(self, capsys, tmp_path):
        # Equilibrated, this is the correlation matrix of rho = 0.5.
        path = write(tmp_path, "c.csv", "1e-200,5e-201\n5e-201,1e-200\n")
        code, out, _ = run_cli(capsys, "gaussian", path, "--dim-x", "1")
        assert code == 0
        assert json.loads(out) == {"schema": "v1", "R": 0.5, "D": 0.25, "lambda_max": 0.25}

    def test_mirror_entries_are_compared_at_their_scale(self, capsys, tmp_path):
        # The two copies of v12[0, 0] differ by 2.4e-15 of their size.
        path = write(tmp_path, "c.csv", "4000000000000.0,1000000000000.0,500000000000.0\n"
                     "1000000000000.0024,3000000000000.0,200000000000.0\n"
                     "500000000000.0,200000000000.0,2000000000000.0\n")
        code, out, _ = run_cli(capsys, "gaussian", path, "--dim-x", "1")
        assert code == 0
        cov = np.array([[4e12, 1e12, 5e11], [1e12, 3e12, 2e11], [5e11, 2e11, 2e12]])
        c = cov / np.sqrt(np.outer(np.diag(cov), np.diag(cov)))
        want = c[0, 1:] @ np.linalg.solve(c[1:, 1:], c[1:, 0])
        assert json.loads(out)["lambda_max"] == pytest.approx(want, rel=1e-14)

    def test_an_entry_far_beyond_its_variances_is_one_error(self, capsys, tmp_path):
        path = write(tmp_path, "c.csv", "1.0,1.0,1e308\n1.0,1.0,0.125\n0.125,0.125,0.015625\n")
        code, out, err = run_cli(capsys, "gaussian", path, "--dim-x", "1")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "NotPositiveDefinite"


class TestTransforms:
    def test_one_zero_rule_with_compute(self, capsys, tmp_path):
        # sigma = (0.5, 1e-11, 1e-13): at the default tol 1e-10 both small
        # values are zero to compute and to transforms alike.
        j = hadamard_joint(np.random.default_rng(0), 4, np.array([0.5, 1e-11, 1e-13]))
        path = write_table(tmp_path, "j.csv", j.probs)
        _, out, _ = run_cli(capsys, "compute", path)
        assert json.loads(out)["order"] == 1
        code, out, _ = run_cli(capsys, "transforms", path, "-k", "3")
        assert code == 0
        assert [p["degenerate"] for p in json.loads(out)["pairs"]] == [False, True, True]

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

    @pytest.mark.parametrize(
        "command, library_call, option",
        [("oracle", "gram_det_oracle", "--restarts"),
         ("compute", "singular_spectrum", "--max-order")],
    )
    def test_an_argument_too_large_to_allocate_is_an_invalid_argument(
        self, capsys, tmp_path, monkeypatch, command, library_call, option
    ):
        # The real call would ask numpy for about 745 GiB, which memory
        # overcommit can grant lazily; so the library call is made to fail.
        message = "Unable to allocate 745. GiB for an array with shape (100000000000,)"

        def too_large(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, library_call, too_large)
        path = write(tmp_path, "j.csv", FIXTURE_CSV)
        code, out, err = run_cli(capsys, command, path, option, "100000000000")
        assert code == 2 and out == ""
        assert json.loads(err) == {"schema": "v1", "error": "InvalidArgument", "message": message}

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["compute", "--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: depscale compute")
        assert "--seed" not in out and "--tol" in out


# ---------------------------------------------------------------------------
# the process: ``python -m depscale.cli`` and the console script

SRC = str(Path(cli.__file__).resolve().parents[1])


def child_env():
    """This environment with the package importable and stdout buffered as
    by default."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_process(*argv, **kwargs):
    """``python -m depscale.cli ARGV`` in a fresh interpreter, output
    captured unless ``stdout`` is given."""
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, "-m", "depscale.cli", *argv], env=child_env(),
                          stderr=subprocess.PIPE, timeout=120, **kwargs)


def run_main(capsys, argv):
    """``main(argv)`` in process: exit code, stdout, stderr; ``--help`` included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def readme_files(tmp_path):
    """The README's inputs, and one for each error exit, by placeholder name."""
    return {
        "joint": write(tmp_path, "fixture.csv", FIXTURE_CSV),
        "samples": write_samples(tmp_path),
        "cov": write(tmp_path, "cov.csv", "1,0.5\n0.5,1\n"),
        "unnormalized": write(tmp_path, "not_normalized.csv", "0.3,0.1\n0.1,0.3\n"),
        "slow": write_table(tmp_path, "slow.csv",
                            random_joint(np.random.default_rng(0), 16, 16).probs),
    }


#: 10,000 noise scales: a report of about 370 KB, more than a pipe buffer.
MANY_LAMBDAS = [repr(float(v)) for v in np.linspace(-5.0, 5.0, 10_000)]


class TestProcessEntry:
    """``python -m depscale.cli`` gives what ``main`` gives in process, and a
    report it cannot write is exit 1 with no traceback."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "{joint}"],
            ["estimate", "{samples}", "--x", "x", "--y", "y"],
            ["gaussian", "{cov}", "--dim-x", "1", "--lambdas", "0", "0.5", "1"],
            ["transforms", "{joint}"],
            ["oracle", "{joint}"],
        ],
        ids=["compute", "estimate", "gaussian", "transforms", "oracle"],
    )
    def test_every_subcommand(self, capsys, readme_files, argv, fmt):
        argv = [a.format(**readme_files) for a in argv] + ["--format", fmt]
        proc = run_process(*argv)
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == \
            run_main(capsys, argv) and proc.returncode == 0

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["compute", "{unnormalized}"], 2),
            (["transforms", "{slow}", "--max-iter", "1"], 3),
            (["compute", "--help"], 0),
        ],
        ids=["exit-2", "exit-3", "help"],
    )
    def test_exits(self, capsys, readme_files, argv, code):
        argv = [a.format(**readme_files) for a in argv]
        proc = run_process(*argv)
        expected = run_main(capsys, argv)
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == expected
        assert expected[0] == code
        assert bool(expected[1]) == (code == 0)

    def test_a_report_longer_than_a_pipe_buffer_arrives_whole(self, capsys, readme_files):
        argv = ["gaussian", readme_files["cov"], "--dim-x", "1", "--lambdas", *MANY_LAMBDAS]
        proc = run_process(*argv)
        assert len(proc.stdout) > 300_000
        assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == \
            run_main(capsys, argv)

    @pytest.mark.parametrize(
        "argv",
        [["compute", "{joint}"], ["gaussian", "{cov}", "--dim-x", "1", "--lambdas", "*"]],
        ids=["buffered-report", "long-report"],
    )
    def test_a_pipe_with_no_reader_is_exit_1_and_silent(self, readme_files, argv):
        argv = [a.format(**readme_files) for a in argv]
        if argv[-1] == "*":
            argv[-1:] = MANY_LAMBDAS
        r, w = os.pipe()
        os.close(r)
        try:
            proc = run_process(*argv, stdout=w)
        finally:
            os.close(w)
        assert (proc.returncode, proc.stderr) == (1, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_a_full_device_is_an_output_error(self, readme_files):
        with open("/dev/full", "wb") as full:
            proc = run_process("compute", readme_files["joint"], stdout=full)
        assert proc.returncode == 1
        error = json.loads(proc.stderr)
        assert (error["schema"], error["error"]) == ("v1", "Output")
        assert "No space left on device" in error["message"]

    def test_the_console_script_is_the_process_entry(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(SRC).parent / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["depscale"]
        module, attr = target.split(":")
        tree = ast.parse(Path(cli.__file__).read_text())
        (guard,) = [node for node in tree.body if isinstance(node, ast.If)
                    and ast.unparse(node.test) == "__name__ == '__main__'"]
        (called,) = [node.func.id for node in ast.walk(guard) if isinstance(node, ast.Call)]
        assert getattr(importlib.import_module(module), attr) is getattr(cli, called)


def output_of(code, **env):
    """The stdout of ``code`` in a fresh interpreter whose environment sets
    ``OPENBLAS_THREAD_TIMEOUT`` only as ``env`` does."""
    base = {k: v for k, v in child_env().items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    proc = subprocess.run([sys.executable, "-c", code], env=dict(base, **env),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def loaded_after(code):
    """The ``depscale.*`` submodules a fresh interpreter holds after ``code``."""
    probe = code + (
        "\nimport sys"
        "\nprint(sorted(m[9:] for m in sys.modules if m.startswith('depscale.')))"
    )
    return set(ast.literal_eval(output_of(probe).splitlines()[-1]))


START = {"cli", "errors", "io", "joints"}


class TestImportScope:
    """A start imports only the modules its subcommand runs."""

    def test_the_package_loads_no_submodule(self):
        assert loaded_after("import depscale") == set()

    def test_the_cli_loads_only_its_input_modules(self):
        assert loaded_after("import depscale.cli") == START

    @pytest.mark.parametrize(
        "argv, extra",
        [
            (["compute", "{joint}"], {"spectral"}),
            (["oracle", "{joint}"], {"spectral"}),
            (["estimate", "{samples}", "--x", "x", "--y", "y"], {"estimate", "spectral"}),
            (["transforms", "{joint}"], {"ace"}),
            (["gaussian", "{cov}", "--dim-x", "1", "--lambdas", "1"], {"gaussian"}),
        ],
        ids=["compute", "oracle", "estimate", "transforms", "gaussian"],
    )
    def test_each_subcommand_loads_only_its_own_modules(self, readme_files, argv, extra):
        """...and not ``logging``, which a DEBUG record needs only once a
        caller has imported it, nor ``numpy.ma``, which ``np.quantile`` loads."""
        argv = [a.format(**readme_files) for a in argv]
        code = (
            "import sys\n"
            "from contextlib import redirect_stdout\n"
            "from io import StringIO\n"
            "from depscale.cli import main\n"
            "with redirect_stdout(StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
            "assert 'logging' not in sys.modules, 'the start imported logging'\n"
            "assert 'numpy.ma' not in sys.modules, 'the start imported numpy.ma'"
        )
        assert loaded_after(code) == START | extra

    def test_star_import_and_dir_list_every_public_name(self):
        code = (
            "import depscale\n"
            "from depscale import *\n"
            "names = depscale.__all__\n"
            "assert len(names) == 48, len(names)\n"
            "assert [n for n in names if n not in globals()] == []\n"
            "assert [n for n in names if n not in dir(depscale)] == []"
        )
        assert loaded_after(code) == {
            "ace", "errors", "estimate", "gaussian", "io", "joints", "spectral", "structure"}


class TestBlasIdleSpin:
    """The CLI's own process lets OpenBLAS's idle worker sleep after about
    2 ms; a value the user set, or a numpy loaded before, is left alone."""

    @pytest.mark.parametrize(
        "code, env, want",
        [
            ("import depscale.cli", {}, "22"),
            ("import depscale.cli", {"OPENBLAS_THREAD_TIMEOUT": "28"}, "28"),
            ("import numpy\nimport depscale.cli", {}, "None"),
        ],
        ids=["set", "user-value-kept", "numpy-loaded-first"],
    )
    def test_the_timeout_is_set_before_numpy_loads(self, code, env, want):
        read = "\nimport os\nprint(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))"
        assert output_of(code + read, **env).split() == [want]

    def test_the_idle_worker_stops_spinning(self):
        if spectral._openblas() is None:
            pytest.skip("numpy carries no OpenBLAS of its own")
        # OpenBLAS's own timeout spins the worker about 0.1 s after the
        # import and again after the product: about 0.2 s of CPU in all.
        code = (
            "import time\n"
            "import depscale.cli\n"
            "import numpy as np\n"
            "a = np.random.default_rng(0).random((600, 600))\n"
            "a @ a\n"
            "time.sleep(0.3)\n"
            "print(time.process_time() - time.thread_time())"
        )
        assert float(output_of(code)) < 0.06
