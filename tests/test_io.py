"""CSV loaders for joint tables, covariance blocks, and sample columns."""

import ast
import codecs
import csv
import errno
import logging
import os
import re
import tempfile
import threading
from io import TextIOWrapper
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import depscale.io
from conftest import TESTS, os_threads, output_of
from depscale import (
    DepscaleError,
    FormatError,
    GaussianJoint,
    InvalidBlockError,
    NotPositiveDefiniteError,
    make_joint,
)
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

    def test_header_row_of_y_labels(self, tmp_path):
        path = write(tmp_path, "j.csv", "u,v\n0.4,0.1\n0.1,0.4\n")
        j = load_joint_csv(path)
        assert_allclose(j.probs, [[0.4, 0.1], [0.1, 0.4]])

    def test_header_and_row_labels(self, tmp_path):
        path = write(tmp_path, "j.csv", ",u,v\na,0.4,0.1\nb,0.1,0.4\n")
        j = load_joint_csv(path)
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

    # A pipe cannot be reopened or rewound: the grid is read in one pass.
    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize(
        "text", ["0.4,0.1\n0.1,0.4\n", "u,v\n0.4,0.1\n\n0.1,0.4\n", "\ufeff0.4,0.1\n0.1,0.4\n"]
    )
    def test_reads_a_pipe(self, text):
        r, w = os.pipe()
        os.write(w, text.encode())
        os.close(w)
        try:
            j = load_joint_csv(f"/dev/fd/{r}")
        finally:
            os.close(r)
        assert_allclose(j.probs, [[0.4, 0.1], [0.1, 0.4]])


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

    # The cross block sits above the diagonal; its mirror below must match.
    @pytest.mark.parametrize(
        "text, dim_x",
        [("1,0.5\n-0.9,1\n", 1), ("1,0.5,0.2\n0.5,1,0.1\n0.3,0.1,1\n", 2)],
    )
    def test_asymmetric_matrix_rejected(self, tmp_path, text, dim_x):
        with pytest.raises(NotPositiveDefiniteError, match="not symmetric") as got:
            load_covariance_csv(write(tmp_path, "c.csv", text), dim_x)
        assert (got.value.code, got.value.exit_code) == ("NotPositiveDefinite", 2)

    def test_rounding_asymmetry_within_1e_10_accepted(self, tmp_path):
        g = load_covariance_csv(write(tmp_path, "c.csv", "1,0.5\n0.50000000001,1\n"), 1)
        assert g.v12.tolist() == [[0.5]]


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
        mp.setattr(depscale.io, "_read_grid", lambda *args: None)
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
        return result.probs.tobytes()
    return result.v11.tobytes(), result.v12.tobytes(), result.v22.tobytes()


def _debug_messages(call, *args):
    """What ``call(*args)`` returns, and the messages of the DEBUG records it
    writes on the ``depscale`` logger; in pytest or out of it."""
    messages = []
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    log = logging.getLogger("depscale")
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.DEBUG)
    try:
        return call(*args), messages
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def _how(messages):
    """The parse path a load's DEBUG record names, or None when the load
    failed before any record."""
    how = [re.match(r"read .*: (.*), \d+ x \d+ cells", m)[1] for m in messages]
    assert len(how) <= 1
    return (how or [None])[0]


def _path_taken(load, *args):
    """``load``'s outcome and the parse path its DEBUG record names."""
    outcome, messages = _debug_messages(_outcome, load, *args)
    return outcome, _how(messages)


_FORMATS = {"repr": repr, "%.6f": "%.6f".__mod__, "%.25e": "%.25e".__mod__}


_GRIDS = dict(
    grid=st.integers(2, 5).flatmap(
        lambda w: st.lists(
            st.lists(st.floats(-1e6, 1e6, allow_subnormal=True), min_size=w, max_size=w),
            min_size=2, max_size=12,
        )
    ),
    fmt=st.sampled_from(sorted(_FORMATS)),
    header=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n"]),
    bom=st.booleans(),
    # (line index, separator): an empty or whitespace-only line inserted
    # before that line, after the header or between rows
    gaps=st.lists(st.tuples(st.integers(1, 13), st.sampled_from(["", "  ", "\t"])),
                  max_size=3),
)


def _assert_bit_identical(path, grid, fmt, header, newline, bom, gaps):
    """All three loaders give the per-cell path's bytes, or its error, for
    the grid written to ``path``; the grid pass takes the file unless a
    whitespace-only line follows its first data row.  The path taken."""
    lines = [",".join(map(_FORMATS[fmt], row)) for row in grid]
    if header:
        lines.insert(0, ",".join(f"c{i}" for i in range(len(grid[0]))))
    gaps = sorted(((min(at, len(lines) - 1), gap) for at, gap in gaps), reverse=True)
    for at, gap in gaps:
        lines.insert(at, gap)
    path.write_bytes(("\ufeff" * bom + newline.join(lines) + newline).encode())
    got, how = _path_taken(load_samples_csv, path)
    first_row = int(header)  # its index in lines
    if any(gap and at > first_row for at, gap in gaps):
        assert how == "per cell"
    else:
        assert how in ("one pass", "two processes")
    assert got == _outcome(_per_cell, load_samples_csv, path)
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
    return how


def _force_split(mp):
    """Split every body with a row on each side of its middle, on any host
    whose process has one OS thread: this thread runs on CPU 1 of the two
    usable CPUs 0 and 1, so the parse child goes to CPU 0."""
    mp.setattr(depscale.io, "_SPLIT_BYTES", 0)
    mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    stat_field = depscale.joints._stat_field
    mp.setattr(depscale.joints, "_stat_field",
               lambda path, field: 1 if field == 39 else stat_field(path, field))


def _in_child(call):
    """The value of ``call``, an expression over this module, evaluated in a
    fresh interpreter at one OpenBLAS thread: a process of one OS thread,
    the only kind that forks to parse.  The value must be a literal."""
    code = (f"import sys\nsys.path.insert(0, {TESTS!r})\n"
            f"import test_io\nprint(repr(test_io.{call}))")
    return ast.literal_eval(output_of(code, OPENBLAS_NUM_THREADS="1").splitlines()[-1])


def _split_loads(loads):
    """For each (loader name, path, fork refused) of ``loads``, with every
    body split (:func:`_force_split`): the outcome, the DEBUG messages, the
    pid of each fork asked for (None if refused) and the placements asked
    for.  Run by :func:`_in_child`."""
    results = []
    for name, path, refused in loads:
        forks, asked = [], []
        fork = os.fork

        def counted():
            forks.append(None)  # a fork asked for
            if refused:
                raise OSError("fork refused")
            forks[-1] = fork()  # the child's pid, as this process sees it
            return forks[-1]

        with pytest.MonkeyPatch.context() as mp:
            _force_split(mp)
            mp.setattr(os, "fork", counted)
            mp.setattr(os, "sched_setaffinity",
                       lambda pid, cpus: asked.append((pid, sorted(cpus))), raising=False)
            outcome, messages = _debug_messages(_outcome, getattr(depscale.io, name), path)
        results.append((outcome, messages, forks, asked))
    return results


_GRID_SETTINGS = settings(max_examples=60, deadline=None)


def _split_grid_paths():
    """The parse paths of ``_assert_bit_identical`` over generated grids with
    every body split; run by :func:`_in_child`."""
    paths = set()

    @_GRID_SETTINGS
    @given(**_GRIDS)
    def split_grids(grid, fmt, header, newline, bom, gaps):
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            _force_split(mp)
            paths.add(_assert_bit_identical(Path(tmp) / "g.csv", grid, fmt, header,
                                            newline, bom, gaps))

    split_grids()
    return sorted(paths, key=str)


class TestOnePassParse:
    """The one-pass numeric parse gives exactly what the per-cell path gives."""

    @_GRID_SETTINGS
    @given(**_GRIDS)
    def test_numeric_grids_are_bit_identical(self, tmp_path_factory, grid, fmt,
                                             header, newline, bom, gaps):
        path = tmp_path_factory.mktemp("grid") / "g.csv"
        _assert_bit_identical(path, grid, fmt, header, newline, bom, gaps)

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="the split reads /proc")
    def test_split_grids_are_bit_identical(self):
        assert "two processes" in _in_child("_split_grid_paths()")

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
        "blank-celled first row": (",\n1,2\n3,4\n", [1.0, 3.0]),
    }

    @pytest.mark.parametrize("name", sorted(FALLBACKS))
    def test_fallback_spellings(self, tmp_path, name):
        text, first_column = self.FALLBACKS[name]
        path = write(tmp_path, "s.csv", text)
        got, how = _path_taken(load_samples_csv, path)
        assert how == "per cell"
        assert got == _outcome(_per_cell, load_samples_csv, path)
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


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="the split reads /proc")
class TestTwoProcessParse:
    """A body split across a forked child gives the per-cell path's outcome.
    Every split load runs in one child of one OS thread (:func:`_in_child`)."""

    ROWS = "".join(f"{i / 1e3!r},{(7 * i) % 10}\n" for i in range(40))

    # name: text, the path taken, forks made
    CASES = {
        "header and rows": ("x,y\n" + ROWS, "two processes", 1),
        "numeric first row after a BOM": ("﻿" + ROWS, "two processes", 1),
        "CRLF line ends": (("x,y\n" + ROWS).replace("\n", "\r\n"), "two processes", 1),
        "bare CR line ends": (("x,y\n" + ROWS).replace("\n", "\r"), "two processes", 1),
        "bad cell in the second half": ("x,y\n" + ROWS + "0.5,oops\n", "per cell", 1),
        "ragged second half": ("x,y\n" + ROWS + "0.5,1,2\n", None, 1),
        "body of one long line": (
            ",".join(f"c{i}" for i in range(300)) + "\n" + ",".join(["0.5"] * 300) + "\n",
            "one pass", 0,
        ),
        "trailing blank lines": ("x,y\n1,2\n3,4\n" + "\n" * 40 + "\r\n" * 40, "one pass", 0),
    }

    @pytest.fixture(scope="class")
    def split(self, tmp_path_factory):
        """Case name: (path, outcome, parse path, forks, placements asked
        for), with every body split; besides CASES, a joint with a bad cell
        and a load whose fork is refused."""
        loads = {name: ("load_samples_csv", text, False)
                 for name, (text, _, _) in self.CASES.items()}
        loads["joint with a bad cell"] = ("load_joint_csv", self.ROWS + "0.5,oops\n", False)
        loads["fork refused"] = ("load_samples_csv", "x,y\n" + self.ROWS, True)
        tmp, paths = tmp_path_factory.mktemp("split"), {}
        for i, (name, (_, text, _)) in enumerate(loads.items()):
            paths[name] = tmp / f"{i}.csv"
            paths[name].write_bytes(text.encode())
        args = [(load, str(paths[name]), refused) for name, (load, _, refused) in loads.items()]
        results = _in_child(f"_split_loads({args!r})")
        return {name: (paths[name], got, _how(messages), forks, asked)
                for name, (got, messages, forks, asked) in zip(loads, results)}

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_outcome_matches_the_per_cell_path(self, split, name):
        _, path_taken, n_forks = self.CASES[name]
        path, got, how, forks, _ = split[name]
        assert (how, len(forks)) == (path_taken, n_forks)
        assert got == _outcome(_per_cell, load_samples_csv, path)

    def test_bad_cell_keeps_the_joint_error(self, split):
        path, got, how, forks, _ = split["joint with a bad cell"]
        assert (how, len(forks)) == ("per cell", 1)
        assert got == (
            "FormatError",
            f"{path}: non-numeric cell in table body "
            "(could not convert string to float: 'oops')",
        )

    def test_child_leaves_the_parent_cpu(self, split):
        """The parent asks, for its child's pid, every usable CPU but its own."""
        _, _, how, forks, asked = split["header and rows"]
        assert (how, len(forks)) == ("two processes", 1)
        assert asked == [(forks[0], [0])]

    @pytest.mark.skipif(not os.path.exists("/proc/thread-self/stat"),
                        reason="reads Linux's /proc")
    def test_current_cpu_is_a_usable_cpu(self):
        """The placement rule's CPU read names a CPU this thread may run on."""
        assert depscale.joints._stat_field("/proc/thread-self/stat", 39) in os.sched_getaffinity(0)

    def test_failed_fork_parses_in_one_pass(self, split):
        path, got, how, forks, _ = split["fork refused"]
        assert (how, forks) == ("one pass", [None])
        assert got == _outcome(_per_cell, load_samples_csv, path)

    def test_failed_pipe_parses_in_one_pass(self, tmp_path):
        path = write(tmp_path, "s.csv", "x,y\n" + self.ROWS)
        got, how, pipes = _in_child(f"_load_with_a_failed_pipe({str(path)!r})")
        assert (how, pipes) == ("one pass", 1)
        assert got == _outcome(_per_cell, load_samples_csv, path)


def _load_with_a_failed_pipe(path):
    """The outcome and parse path of a split load whose pipe is refused, as
    when the process is out of file descriptors, and the pipes asked for;
    run by :func:`_in_child`."""
    pipes = []

    def refused():
        pipes.append(None)
        raise OSError(errno.EMFILE, "Too many open files")

    with pytest.MonkeyPatch.context() as mp:
        _force_split(mp)
        mp.setattr(os, "pipe", refused)
        return (*_path_taken(load_samples_csv, path), len(pipes))


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="the rule reads /proc")
class TestForkRule:
    """The parse forks only from a process of one OS thread."""

    ROWS = TestTwoProcessParse.ROWS

    def test_a_threaded_process_parses_in_one_pass(self, tmp_path, monkeypatch):
        # pytest's process holds OpenBLAS's threads, on a host of two CPUs.
        if os_threads() == 1:
            pytest.skip("this process has one OS thread")
        _force_split(monkeypatch)
        forks = []

        def recorded():
            forks.append(None)
            raise OSError("no fork was to be asked for")

        monkeypatch.setattr(os, "fork", recorded)
        path = write(tmp_path, "s.csv", "x,y\n" + self.ROWS)
        got, how = _path_taken(load_samples_csv, path)
        assert (how, forks) == ("one pass", [])
        assert got == _outcome(_per_cell, load_samples_csv, path)

    def test_a_thread_started_in_a_one_thread_child_stops_the_split(self, tmp_path):
        path = write(tmp_path, "s.csv", "x,y\n" + self.ROWS)
        paths = _in_child(f"_paths_before_and_with_a_thread({str(path)!r})")
        assert paths == ["two processes", "one pass"]


def _paths_before_and_with_a_thread(path):
    """The parse paths of a split load, then of one while another thread
    runs; run by :func:`_in_child`."""
    with pytest.MonkeyPatch.context() as mp:
        _force_split(mp)
        before = _path_taken(load_samples_csv, path)[1]
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait, args=(60,))
        thread.start()
        try:
            return [before, _path_taken(load_samples_csv, path)[1]]
        finally:
            stop.set()
            thread.join(60)


class TestLineEnds:
    """LF, CRLF and bare CR line ends give one outcome by the same path."""

    @pytest.mark.parametrize(
        "load, text, how",
        [
            (load_joint_csv, "u,v\n0.4,0.1\n\n0.1,0.4\n", "one pass"),
            (load_joint_csv, "\ufeff0.4,0.1\n  \n0.1,0.4\n", "per cell"),
            (load_samples_csv, "x,y\n1,2\n3,4\n5,6\n", "one pass"),
            (load_samples_csv, "x,y\na,2\nb,4\n", "per cell"),
        ],
        ids=["joint-header", "joint-bom-blank-line", "samples", "samples-categorical"],
    )
    def test_same_outcome_and_path(self, tmp_path, load, text, how):
        outcomes = []
        for newline in ("\n", "\r\n", "\r"):
            path = tmp_path / "t.csv"
            path.write_bytes(text.replace("\n", newline).encode())
            got, taken = _path_taken(load, path)
            assert taken == how, repr(newline)
            outcomes.append(got)
        assert outcomes[0] == outcomes[1] == outcomes[2]


class TestReadLog:
    """One DEBUG record per load on the ``depscale`` logger, silent by default."""

    @pytest.mark.parametrize(
        "text, how, cells",
        [
            ("x,y\n1,2\n3,4\n", "one pass", "3 x 2"),
            ("x,tag\n1,a\n3,b\n", "per cell", "3 x 2"),
        ],
    )
    def test_one_record_names_the_path(self, tmp_path, caplog, text, how, cells):
        path = write(tmp_path, "s.csv", text)
        with caplog.at_level(logging.DEBUG, logger="depscale"):
            load_samples_csv(path)
        (record,) = caplog.records
        assert record.name == "depscale" and record.levelno == logging.DEBUG
        assert record.getMessage() == f"read {path}: {how}, {cells} cells, {len(text)} bytes"

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"), reason="the split reads /proc")
    def test_two_processes(self, tmp_path):
        path = write(tmp_path, "j.csv", "0.4,0.1\n0.1,0.4\n")
        loads = [("load_joint_csv", str(path), False)]
        ((_, messages, _, _),) = _in_child(f"_split_loads({loads!r})")
        assert messages == [f"read {path}: two processes, 2 x 2 cells, 16 bytes"]

    def test_silent_by_default(self, tmp_path, caplog):
        load_samples_csv(write(tmp_path, "s.csv", "x,y\n1,2\n3,4\n"))
        assert caplog.records == []


# The per-cell reader and the three loaders' per-cell branches as they were
# before the loaders shared one reader, kept verbatim (a file is opened by
# path, and no DEBUG record is written) as the reference the reader must
# match, cell for cell and error for error.


def _reference_rows(path):
    """Every non-blank row as stripped cells: the per-cell path."""
    try:
        with TextIOWrapper(open(path, "rb"), encoding="utf-8-sig", newline="") as fh:
            rows = [row for row in csv.reader(fh) if _reference_nonblank(row)]
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc
    if not rows:
        raise FormatError(f"{path} is empty")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise FormatError(f"{path} is ragged: rows have differing cell counts")
    return [[c.strip() for c in r] for r in rows]


def _reference_nonblank(row):
    return any(c.strip() for c in row)


def _reference_is_number(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _reference_joint_header(row):
    return any(not _reference_is_number(c) for c in row[1:]) or (
        len(row) == 1 and not _reference_is_number(row[0])
    )


def _reference_samples_header(row):
    return any(not _reference_is_number(c) for c in row)


def _reference_matrix(path, what):
    """A joint's or covariance's cells, less a header row and label column."""
    rows = _reference_rows(path)
    body = rows[1:] if _reference_joint_header(rows[0]) else rows
    if not body:
        raise FormatError(f"{path} has a header but no data rows")
    if any(not _reference_is_number(r[0]) for r in body):
        body = [r[1:] for r in body]
    try:
        return np.array([[float(c) for c in r] for r in body])
    except ValueError as exc:
        raise FormatError(f"{path}: {what} ({exc})") from exc


def _reference_joint(path):
    return make_joint(_reference_matrix(path, "non-numeric cell in table body"))


def _reference_covariance(path, dim_x):
    full = _reference_matrix(path, "covariance CSV must be purely numeric")
    if full.shape[0] != full.shape[1]:
        raise FormatError(
            f"{path}: covariance matrix must be square, got {full.shape}"
        )
    if not 1 <= dim_x < full.shape[0]:
        raise InvalidBlockError(
            f"dim-x must lie in [1, {full.shape[0] - 1}], got {dim_x}"
        )
    m = dim_x
    return GaussianJoint(
        v11=full[:m, :m], v12=full[:m, m:], v22=full[m:, m:]
    )


def _reference_samples(path):
    rows = _reference_rows(path)
    if len(rows[0]) < 2:
        raise FormatError(f"{path}: need at least 2 columns (X and Y)")
    header = _reference_samples_header(rows[0])
    names = rows[0] if header else None
    body = rows[1:] if header else rows
    if not body:
        raise FormatError(f"{path} has a header but no data rows")
    columns = []
    for idx in range(len(rows[0])):
        cells = [r[idx] for r in body]
        if all(_reference_is_number(c) for c in cells):
            columns.append(np.array([float(c) for c in cells]))
        else:
            columns.append(np.array(cells, dtype=object))
    return names, columns


#: Padding that ``str.strip`` removes: ASCII blanks, the separators
#: \x1c-\x1f (which ``float()`` does not strip), NBSP and an em space.
_PADS = ["", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\xa0", " "]


@st.composite
def _spelled(draw, value):
    """``value`` (an int) as one of the spellings a CSV export may carry."""
    text = draw(st.sampled_from([
        str(value), f"{value}.0", f"{value}e0", f"+{value}",
        "0_" + "_".join(str(value)),
        "".join(chr(0x660 + int(d)) for d in str(value)),  # Arabic-Indic digits
    ]))
    text = draw(st.sampled_from(_PADS)) + text + draw(st.sampled_from(_PADS))
    return f'"{text}"' if draw(st.integers(0, 5)) == 0 else text


@st.composite
def _quirky_csv(draw):
    """A small CSV file's bytes, a grid of cells with the quirks real files
    carry: odd number spellings and padding, words, empty and quoted cells
    (with a comma or a line end inside), a header row, a label column,
    blank, whitespace-only and ``,,`` rows, a ragged row, a BOM, a byte that
    is not UTF-8, and LF, CRLF or bare CR line ends, mixed or not.  Values
    are symmetric in the row and column index, and the diagonal dominates,
    so a square all-number grid is a valid covariance matrix."""
    n_rows = draw(st.integers(1, 4))
    width = draw(st.sampled_from([n_rows, n_rows, 1, 2, 3]))
    values = draw(st.lists(st.integers(0, 12), min_size=15, max_size=15))
    odd = st.sampled_from(["a", "NA", "", "  ", '"1,5"', '"a\nb"', '"x\r\ny"', "nan", "-inf"])
    rows = []
    for i in range(n_rows):
        rows.append([
            draw(odd) if draw(st.sampled_from(range(12))) == 11
            else draw(_spelled(values[min(i, j) * 3 + max(i, j)] + 40 * (i == j)))
            for j in range(width)
        ])
    if draw(st.sampled_from("no yes")) == "y":
        rows.insert(0, [f"c{j}" for j in range(width)])
    if draw(st.sampled_from("no yes")) == "y":
        rows = [[f"r{i}", *row] for i, row in enumerate(rows)]
    for _ in range(draw(st.integers(0, 2))):
        w = len(rows[0])
        extra = draw(st.sampled_from([[], ["  "], [""] * w, [" "] * w, ["1"] * (w + 1)]))
        rows.insert(draw(st.integers(0, len(rows))), extra)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=3))
    text = "".join(",".join(row) + ends[i % len(ends)] for i, row in enumerate(rows))
    data = draw(st.sampled_from([b"", codecs.BOM_UTF8])) + text.encode()
    if draw(st.sampled_from(range(12))) == 11:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xe9" + data[at:]
    return data


def _error_or_outcome(load, *args):
    """``_outcome``, or the class and code of a container's error."""
    try:
        return _outcome(load, *args)
    except DepscaleError as exc:
        return type(exc), exc.code


class _Unchecked:
    """Stands in for ``make_joint``, so that a table's cells are compared even
    when its mass is not 1."""

    def __init__(self, probs):
        self.probs = np.asarray(probs)


class TestAgainstThePerCellReference:
    """Every loader gives the reference's bytes, or its error (a reading
    error's message too)."""

    @settings(max_examples=300, deadline=None)
    @given(data=_quirky_csv(), dim_x=st.integers(1, 2))
    @example(data=b"1,2\r2,5\r", dim_x=1)
    @example(data=b"1,2,3\n4,5,a\n6,b,7\n", dim_x=1)  # the row-major first bad cell is named
    @example(data=b'x,y\n"1,5",\xc2\xa02\x1c\n3,\xd9\xa1\xd9\xa2\n', dim_x=1)
    # Blankness is decided before widths count: a blank row wider than the
    # data is skipped, not ragged; so is a row of padding only; and a file of
    # blank rows only is empty.
    @example(data=b"x,y\n1,a\n,,,\n2,b\n", dim_x=1)
    @example(data="x,y\n1,a\n\x1c,\xa0\n2,b\n".encode(), dim_x=1)
    @example(data=b" \n,,\n\t\n", dim_x=1)
    def test_same_bytes_or_error(self, tmp_path_factory, data, dim_x):
        path = tmp_path_factory.mktemp("quirk") / "q.csv"
        path.write_bytes(data)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(depscale.io, "make_joint", _Unchecked)
            mp.setitem(globals(), "make_joint", _Unchecked)
            for load, reference, args in (
                (load_joint_csv, _reference_joint, ()),
                (load_covariance_csv, _reference_covariance, (dim_x,)),
                (load_samples_csv, _reference_samples, ()),
            ):
                got = _error_or_outcome(load, path, *args)
                want = _error_or_outcome(reference, path, *args)
                if got != want and got == (NotPositiveDefiniteError, "NotPositiveDefinite"):
                    # The one intended change: the reference never read the
                    # cells below the diagonal (a nan cell breaks symmetry).
                    full = _reference_matrix(path, "")
                    assert not np.allclose(full, full.T, atol=1e-10, rtol=0, equal_nan=True)
                else:
                    assert got == want, load.__name__

    def test_a_cell_over_the_csv_field_limit_is_a_format_error(self, tmp_path):
        path = write(tmp_path, "s.csv", "x,y\n" + "a" * (csv.field_size_limit() + 1) + ",1\n")
        with pytest.raises(FormatError, match="field larger than field limit"):
            load_samples_csv(path)


class TestPerCellAtScale:
    """The per-cell path on a labelled file of about 20,000 rows gives the
    reference's names, dtypes, float bytes and object cells."""

    def test_labelled_file_matches_the_reference(self, tmp_path):
        pads = ["", "\x1c", "\xa0", " \x1c", "\xa0\t"]
        blanks = ["", "  ", "\t", ",,,", " , ,\xa0,"]
        lines = ["n,label,padded"]
        values = np.random.default_rng(3).standard_normal(17_500).round(6).tolist()
        for i, v in enumerate(values):
            if i % 7 == 3:  # every kind of blank row in turn
                lines.append(blanks[i % len(blanks)])
            label = ["low, cold", "mid", "high, hot"][(v > -0.5) + (v >= 0.5)]
            padded = f"{pads[i % len(pads)]}{i / 4!r}{pads[(i + 2) % len(pads)]}"
            lines.append(f'{v!r},"{label}",{padded}')
        path = tmp_path / "labelled.csv"
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        got, how = _path_taken(load_samples_csv, path)
        assert how == "per cell"
        f8 = np.dtype(float).str
        assert [dtype for dtype, _ in got[1]] == [f8, "|O", f8]
        assert got == _outcome(_reference_samples, path)


_LINES = st.lists(
    st.tuples(st.sampled_from([b"", b" ", b"1,2", b"x,y"]),
              st.sampled_from([b"\n", b"\r\n", b"\r"])).map(b"".join),
    max_size=8,
).map(b"".join)


class TestLineWalker:
    """The numeric pass walks lines where ``bytes.splitlines`` splits them."""

    @given(data=_LINES, tail=st.sampled_from([b"", b"5,6"]), at=st.integers(0, 100))
    def test_lines_are_splitlines(self, data, tail, at):
        data += tail
        at = min(at, len(data))
        got = [data[a:b] for a, b in depscale.io._lines(data, at)]
        assert got == data[at:].splitlines(keepends=True)

    @given(data=_LINES, tail=st.sampled_from([b"", b"5,6"]), start=st.integers(0, 100))
    # The byte before the middle is the LF of a CRLF, then its CR.
    @example(data=b"1,2\r\n3,4\r\n", tail=b"", start=0)
    @example(data=b"1,2\r\n3\r\n", tail=b"", start=0)
    def test_split_point_is_a_line_start_after_the_middle(self, data, tail, start):
        data += tail
        start = min(start, len(data))
        ends = np.cumsum([len(line) for line in data.splitlines(keepends=True)])
        before_middle = (start + len(data) - 1) // 2
        after = [e for e in ends if e > before_middle]
        has_row = bool(after) and data[after[0]:].strip() != b""
        with pytest.MonkeyPatch.context() as mp:
            _force_split(mp)
            mid = depscale.io._split_point(data, start)
        assert mid == (after[0] if has_row else None)
