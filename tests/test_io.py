"""CSV loaders for joint tables, covariance blocks, and sample columns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import depscale.io
from depscale import DepscaleError, FormatError, InvalidBlockError
from depscale.io import (
    load_covariance_csv,
    load_joint_csv,
    load_samples_csv,
    select_column,
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadJointCsv:
    def test_bare_numeric_grid(self, tmp_path):
        path = write(tmp_path, "j.csv", "0.4,0.1\n0.1,0.4\n")
        j = load_joint_csv(path)
        assert_allclose(j.probs, [[0.4, 0.1], [0.1, 0.4]])
        assert j.labels_x is None and j.labels_y is None

    def test_header_row_of_y_labels(self, tmp_path):
        path = write(tmp_path, "j.csv", "u,v\n0.4,0.1\n0.1,0.4\n")
        j = load_joint_csv(path)
        assert j.labels_y == ("u", "v")
        assert j.labels_x is None

    def test_header_and_row_labels(self, tmp_path):
        path = write(tmp_path, "j.csv", ",u,v\na,0.4,0.1\nb,0.1,0.4\n")
        j = load_joint_csv(path)
        assert j.labels_x == ("a", "b")
        assert j.labels_y == ("u", "v")
        assert_allclose(j.probs, [[0.4, 0.1], [0.1, 0.4]])

    def test_ragged_rows_rejected(self, tmp_path):
        path = write(tmp_path, "j.csv", "0.4,0.1\n0.1\n")
        with pytest.raises(FormatError, match="ragged"):
            load_joint_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "j.csv", "")
        with pytest.raises(FormatError, match="empty"):
            load_joint_csv(path)

    def test_non_numeric_body_rejected(self, tmp_path):
        path = write(tmp_path, "j.csv", "u,v\n0.4,oops\n0.1,0.4\n")
        with pytest.raises(FormatError):
            load_joint_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            load_joint_csv(tmp_path / "absent.csv")


class TestLoadCovarianceCsv:
    def test_two_by_two_split(self, tmp_path):
        path = write(tmp_path, "c.csv", "1,0.5\n0.5,1\n")
        g = load_covariance_csv(path, 1)
        assert_allclose(g.v11, [[1.0]])
        assert_allclose(g.v12, [[0.5]])
        assert_allclose(g.v22, [[1.0]])

    def test_larger_block_split(self, tmp_path):
        path = write(
            tmp_path,
            "c.csv",
            "2,0.3,0.1\n0.3,1,0.2\n0.1,0.2,1\n",
        )
        g = load_covariance_csv(path, 2)
        assert g.v11.shape == (2, 2)
        assert g.v12.shape == (2, 1)
        assert g.v22.shape == (1, 1)

    def test_non_square_rejected(self, tmp_path):
        path = write(tmp_path, "c.csv", "1,0.5,0\n0.5,1,0\n")
        with pytest.raises(FormatError, match="square"):
            load_covariance_csv(path, 1)

    @pytest.mark.parametrize("dim_x", [0, 2, -1])
    def test_dim_x_must_leave_room_for_y(self, tmp_path, dim_x):
        path = write(tmp_path, "c.csv", "1,0.5\n0.5,1\n")
        with pytest.raises(InvalidBlockError):
            load_covariance_csv(path, dim_x)


class TestLoadSamplesCsv:
    def test_header_detected_by_non_numeric_first_row(self, tmp_path):
        path = write(tmp_path, "s.csv", "x,y\n1,2\n3,4\n")
        names, cols = load_samples_csv(path)
        assert names == ["x", "y"]
        assert cols[0].dtype == np.float64
        assert cols[0].tolist() == [1.0, 3.0]

    def test_headerless_numeric_file(self, tmp_path):
        path = write(tmp_path, "s.csv", "1,2\n3,4\n")
        names, cols = load_samples_csv(path)
        assert names is None
        assert cols[1].tolist() == [2.0, 4.0]

    def test_non_numeric_column_kept_as_objects(self, tmp_path):
        path = write(tmp_path, "s.csv", "x,tag\n1,a\n2,b\n")
        _, cols = load_samples_csv(path)
        assert cols[0].dtype == np.float64
        assert cols[1].dtype == object
        assert cols[1].tolist() == ["a", "b"]

    def test_ragged_rejected(self, tmp_path):
        path = write(tmp_path, "s.csv", "x,y\n1,2\n3\n")
        with pytest.raises(FormatError):
            load_samples_csv(path)


class TestSelectColumn:
    def setup_method(self):
        self.names = ["alpha", "beta"]
        self.cols = [np.array([1.0, 2.0]), np.array([3.0, 4.0])]

    def test_by_name(self):
        col = select_column(self.names, self.cols, "beta", "y")
        assert col.tolist() == [3.0, 4.0]

    def test_by_position(self):
        col = select_column(self.names, self.cols, "0", "x")
        assert col.tolist() == [1.0, 2.0]

    def test_position_works_without_header(self):
        col = select_column(None, self.cols, "1", "y")
        assert col.tolist() == [3.0, 4.0]

    def test_missing_column_lists_available_names(self):
        with pytest.raises(FormatError, match="alpha"):
            select_column(self.names, self.cols, "gamma", "x")

    def test_index_out_of_range(self):
        with pytest.raises(FormatError, match="out of range"):
            select_column(self.names, self.cols, "5", "x")


class TestByteOrderMark:
    """A UTF-8 BOM is encoding, not content: it never reaches a cell."""

    def test_joint(self, tmp_path):
        path = write(tmp_path, "j.csv", "﻿0.4,0.1\n0.1,0.4\n")
        j = load_joint_csv(path)
        assert_allclose(j.probs, [[0.4, 0.1], [0.1, 0.4]])
        assert j.labels_x is None and j.labels_y is None

    def test_covariance(self, tmp_path):
        path = write(tmp_path, "c.csv", "﻿1,0.5\n0.5,1\n")
        g = load_covariance_csv(path, 1)
        assert_allclose(g.v12, [[0.5]])

    def test_samples_header_name(self, tmp_path):
        path = write(tmp_path, "s.csv", "﻿x,y\n1,2\n3,4\n")
        names, cols = load_samples_csv(path)
        assert names == ["x", "y"]
        assert cols[0].tolist() == [1.0, 3.0]

    def test_samples_on_the_per_cell_path(self, tmp_path):
        path = write(tmp_path, "s.csv", "﻿x,tag\n1,a\n3,b\n")
        names, cols = load_samples_csv(path)
        assert names == ["x", "tag"]
        assert cols[1].tolist() == ["a", "b"]

    @pytest.mark.parametrize(
        "load, args",
        [(load_joint_csv, ()), (load_covariance_csv, (1,)), (load_samples_csv, ())],
    )
    def test_non_utf8_bytes_are_a_format_error(self, tmp_path, load, args):
        path = tmp_path / "l.csv"
        path.write_bytes("caf\u00e9,y\n1,2\n3,4\n".encode("latin-1"))
        with pytest.raises(FormatError, match="is not UTF-8 text"):
            load(path, *args)


class TestHeaderWithoutRows:
    """Caught before numpy sees an empty body, so no numpy warning leaks."""

    @pytest.mark.parametrize("text", ["u,v\n", "u,v\n\n  \n"])
    def test_joint(self, tmp_path, text):
        with pytest.raises(FormatError, match="has a header but no data rows"):
            load_joint_csv(write(tmp_path, "j.csv", text))

    def test_samples(self, tmp_path):
        with pytest.raises(FormatError, match="has a header but no data rows"):
            load_samples_csv(write(tmp_path, "s.csv", "x,y\n"))


def _per_cell(load, *args):
    """``load`` with the one-pass grid parse switched off: the per-cell path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(depscale.io, "_read_grid", lambda path, is_header: None)
        return load(*args)


def _outcome(load, *args):
    """What a loader returns, flattened to comparable bytes, or its error."""
    try:
        result = load(*args)
    except FormatError as exc:
        return "FormatError", str(exc)
    if isinstance(result, tuple):  # samples: (names, columns)
        names, cols = result
        return names, [(c.dtype.str, c.tobytes() if c.dtype != object else c.tolist())
                       for c in cols]
    if hasattr(result, "probs"):
        return result.probs.tobytes(), result.labels_x, result.labels_y
    return result.v11.tobytes(), result.v12.tobytes(), result.v22.tobytes()


_FORMATS = {"repr": repr, "%.6f": "%.6f".__mod__, "%.25e": "%.25e".__mod__}


class TestOnePassParse:
    """The one-pass numeric parse gives exactly what the per-cell path gives."""

    @settings(max_examples=60, deadline=None)
    @given(
        grid=st.integers(2, 5).flatmap(
            lambda w: st.lists(
                st.lists(st.floats(-1e6, 1e6, allow_subnormal=True), min_size=w, max_size=w),
                min_size=2, max_size=12,
            )
        ),
        fmt=st.sampled_from(sorted(_FORMATS)),
        header=st.booleans(),
        newline=st.sampled_from(["\n", "\r\n"]),
    )
    def test_numeric_grids_are_bit_identical(self, tmp_path_factory, grid, fmt, header,
                                             newline):
        lines = [",".join(map(_FORMATS[fmt], row)) for row in grid]
        if header:
            lines.insert(0, ",".join(f"c{i}" for i in range(len(grid[0]))))
        path = tmp_path_factory.mktemp("grid") / "g.csv"
        path.write_bytes((newline.join(lines) + newline).encode())
        assert depscale.io._read_grid(path, depscale.io._samples_header) is not None
        assert _outcome(load_samples_csv, path) == _outcome(
            _per_cell, load_samples_csv, path
        )
        # Mass and sign do not matter here: both paths must fail alike too.
        for load, args in ((load_joint_csv, (path,)), (load_covariance_csv, (path, 1))):
            try:
                want = _outcome(_per_cell, load, *args)
            except DepscaleError as exc:
                with pytest.raises(type(exc)) as got:
                    _outcome(load, *args)
                assert str(got.value) == str(exc)
            else:
                assert _outcome(load, *args) == want

    # Each body holds a spelling numpy rejects or a shape it cannot take in
    # one pass; the loader must give what the per-cell path gives.
    FALLBACKS = {
        "underscore digits": ("x,y\n1_000,2\n3,4\n", [1000.0, 3.0]),
        "quoted numbers": ('x,y\n"1.5",2\n3,4\n', [1.5, 3.0]),
        "non-ASCII digits": ("x,y\n١٢,2\n3,4\n", [12.0, 3.0]),
        "whitespace-only line": ("x,y\n1,2\n   \n3,4\n", [1.0, 3.0]),
        "empty-cell row": ("x,y\n1,2\n,\n3,4\n", [1.0, 3.0]),
        "categorical column": ("x,y\na,2\nb,4\n", ["a", "b"]),
        "single data row": ("1,2\n", [1.0]),
    }

    @pytest.mark.parametrize("name", sorted(FALLBACKS))
    def test_fallback_spellings(self, tmp_path, name):
        text, first_column = self.FALLBACKS[name]
        path = write(tmp_path, "s.csv", text)
        assert depscale.io._read_grid(path, depscale.io._samples_header) is None
        assert _outcome(load_samples_csv, path) == _outcome(_per_cell, load_samples_csv, path)
        assert load_samples_csv(path)[1][0].tolist() == first_column

    @pytest.mark.parametrize(
        "text",
        [
            "0.4,0.1\n0.1\n",  # ragged
            "u,v\n0.4,oops\n0.1,0.4\n",  # non-numeric body
            "u,v\n0.4,0.1,\n0.1,0.4,\n",  # trailing comma: ragged against the header
            "0.4,0.1\n0.1,0_4\n",  # spelled with an underscore: numeric
            ",u,v\na,0.4,0.1\nb,0.1,0.4\n",  # label column
        ],
    )
    def test_fallback_joints_match_the_per_cell_path(self, tmp_path, text):
        path = write(tmp_path, "j.csv", text)
        try:
            want = _outcome(_per_cell, load_joint_csv, path)
        except DepscaleError as exc:
            with pytest.raises(type(exc)) as got:
                load_joint_csv(path)
            assert str(got.value) == str(exc)
        else:
            assert _outcome(load_joint_csv, path) == want

    def test_covariance_with_a_word_keeps_its_message(self, tmp_path):
        path = write(tmp_path, "c.csv", "1,0.5\n0.5,one\n")
        with pytest.raises(FormatError, match="covariance CSV must be purely numeric"):
            load_covariance_csv(path, 1)
