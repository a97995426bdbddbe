"""CSV ingestion for joint tables, covariance blocks, and sample files.

One reader, :func:`_read_table`, is behind all three loaders.  It reads the
file's bytes once.  A plain numeric grid is parsed in place by
``np.loadtxt`` from its first data row on, and ``csv`` reads only the line
that may be a header (:func:`_read_grid`); any other file becomes an object
grid of the stripped ``csv`` cells (:func:`_read_cells`).  Each loader keeps
only its layout rule and casts whole columns with ``astype(float)``, which
calls ``float()`` on every cell, so both ways give the same values and errors.
Anything that does not match the documented layout raises
:class:`~depscale.errors.FormatError` (or the semantic error from the
container it feeds) — no silent coercion.
"""

from __future__ import annotations

import codecs
import csv
import os
import re
from io import BytesIO, TextIOWrapper
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

from .errors import FormatError, InvalidBlockError
from .joints import (DiscreteJoint, GaussianJoint, _debug_logger, _equilibrate, _place_worker,
                     make_joint)

#: A numeric body of at least this many bytes is parsed in two halves at
#: once, one of them in a forked child, when more than one CPU is usable.
#: The fork, the pipe and the join cost a few milliseconds; on a 2-vCPU x86
#: VM the split broke even at 0.4-1.7 MB of body, depending on the cell
#: format, and 2 MB keeps a margin (CHANGES.md has the measurements).
_SPLIT_BYTES = 2_000_000

#: A line end as ``bytes.splitlines`` and the per-cell ``csv`` pass see one.
_LINE_END = re.compile(rb"\r\n|\r|\n")


def _read_table(
    path: str | Path, is_header: Callable[[list[str]], bool]
) -> tuple[list[str] | None, np.ndarray]:
    """Column names (or None) and body of the CSV file at ``path``, whose
    first non-blank row names the columns when ``is_header`` says so.

    The body is :func:`_read_grid`'s float grid or else :func:`_read_cells`'s
    object grid, and has no rows when the file is a header alone.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    names, body, how = _read_grid(data, is_header) or _read_cells(path, data, is_header)
    log = _debug_logger()
    if log is not None:
        log.debug("read %s: %s, %d x %d cells, %d bytes", path, how,
                  len(body) + (names is not None), body.shape[1], len(data))
    return names, body


def _read_cells(
    path: str | Path, data: bytes, is_header: Callable[[list[str]], bool]
) -> tuple[list[str] | None, np.ndarray, str]:
    """The per-cell pass: every ``csv`` row of ``data`` with a cell not blank,
    each cell stripped once; the first row is names when ``is_header`` says so."""
    cells, widths = [], set()  # the kept rows' cells, end to end, and their widths
    try:
        with TextIOWrapper(BytesIO(data), encoding="utf-8-sig", newline="") as fh:
            for row in ([c.strip() for c in raw] for raw in csv.reader(fh)):
                if any(row):  # a row of blank cells is skipped, whatever its width
                    cells += row
                    widths.add(len(row))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise FormatError(f"{path}: {exc}") from exc
    if not cells:
        raise FormatError(f"{path} is empty")
    if len(widths) > 1:
        raise FormatError(f"{path} is ragged: rows have differing cell counts")
    width = widths.pop()
    header = is_header(cells[:width])
    grid = np.array(cells, dtype=object).reshape(-1, width)
    return (cells[:width] if header else None), grid[int(header):], "per cell"


def _read_grid(
    data: bytes, is_header: Callable[[list[str]], bool]
) -> tuple[list[str] | None, np.ndarray, str] | None:
    """Header (or None), float body and parse path of a plain numeric grid.

    ``csv`` reads only the first non-blank line, for ``is_header``, and
    ``np.loadtxt`` parses from there, or from the next non-blank line after
    a header, to the end.  None when loadtxt fails (on a whitespace-only
    line, say) or comes back at another width, when the first line's cells
    are all blank, or when no row follows it (loadtxt warns on a header
    alone): :func:`_read_cells` then gives such files its result or error.
    """
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    try:
        row = _next_row(data, start)
        after = _next_row(data, row[1]) if row else None
        if after is None:
            return None
        first = [c.strip() for c in next(csv.reader([data[row[0]:row[1]].decode()]))]
        if not any(first):  # all cells blank, as in ",,"
            return None
        header = is_header(first)
        body, how = _parse_body(data, after[0] if header else row[0])
    except (OSError, ValueError, csv.Error):
        return None
    if body.shape[1] != len(first):
        return None
    return (first if header else None), body, how


def _lines(data: bytes, pos: int) -> Iterator[tuple[int, int]]:
    """(start, end) of each line of ``data`` from byte ``pos`` on, each ending
    at LF, CRLF or a bare CR, as ``bytes.splitlines(keepends=True)`` splits."""
    for match in _LINE_END.finditer(data, pos):
        yield pos, match.end()
        pos = match.end()
    if pos < len(data):
        yield pos, len(data)


def _next_row(data: bytes, pos: int) -> tuple[int, int] | None:
    """(start, end) of the first non-blank line of ``data`` from byte
    ``pos`` on, or None."""
    for a, b in _lines(data, pos):
        if data[a:b].decode().strip():
            return a, b
    return None


def _split_point(data: bytes, start: int) -> int | None:
    """The first line start after the middle of the body from byte ``start``
    on, with a row after it; None when the body is small, one CPU is usable
    or the platform cannot fork."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    if len(data) - start < _SPLIT_BYTES or cpus < 2 or not hasattr(os, "fork"):
        return None
    before_middle = (start + len(data) - 1) // 2  # the byte before the middle
    mid = next(_lines(data, before_middle))[1]
    return mid if _next_row(data, mid) is not None else None


def _loadtxt(data: bytes, start: int) -> np.ndarray:
    """One ``np.loadtxt`` pass over the bytes of ``data`` from ``start`` on."""
    buffer = BytesIO(data)  # shares the bytes; no copy
    buffer.seek(start)
    with TextIOWrapper(buffer, encoding="utf-8", newline="") as text:
        return np.loadtxt(text, delimiter=",", comments=None, ndmin=2, dtype=float)


def _parse_body(data: bytes, start: int) -> tuple[np.ndarray, str]:
    """The grid of ``data`` from byte ``start`` to the end, and how it was
    parsed.  A non-blank row begins at ``start`` and another follows the
    split point, so neither half of a split is empty.

    Given a split point ``mid``, a forked child parses the bytes ``[start,
    mid)`` while this process parses the rest, and sends its shape and
    float64 bytes down a pipe.  Both halves go through the same parser, so
    the values are those of one pass.  A failed child (an error, a short
    read, a nonzero exit) raises ValueError; a failed fork parses in one pass.
    This process places the child by :func:`~depscale.joints._place_worker`.
    """
    mid = _split_point(data, start)
    if mid is None:
        return _loadtxt(data, start), "one pass"
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return _loadtxt(data, start), "one pass"
    if pid == 0:  # the child only parses and sends; it never returns
        code = 1
        try:
            os.close(r)  # so that its write fails once the parent closes r
            rows = _loadtxt(data[:mid], start)  # the copy is the child's alone
            with open(w, "wb") as out:
                out.write(np.array(rows.shape, dtype=np.int64).tobytes())
                out.write(rows)
            code = 0
        finally:
            os._exit(code)
    _place_worker(pid)
    os.close(w)
    try:
        with open(r, "rb") as src:
            tail = _loadtxt(data, mid)
            shape = np.frombuffer(src.read(16), dtype=np.int64)
            rows = np.empty(shape) if shape.size == 2 else None
            received = rows is not None and src.readinto(rows) == rows.nbytes
    finally:
        status = os.waitpid(pid, 0)[1]
    if status or not received:
        raise ValueError("the child's half of the grid was not received")
    return np.concatenate([rows, tail]), "two processes"


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _matrix_header(row: list[str]) -> bool:
    return any(not _is_number(c) for c in row[1:] or row)


def _samples_header(row: list[str]) -> bool:
    return any(not _is_number(c) for c in row)


def load_joint_csv(path: str | Path) -> DiscreteJoint:
    """Read a joint pmf table: rows are X atoms, columns are Y atoms.

    An optional header row and/or leading label column are detected by their
    non-numeric cells and skipped: an atom is its row or column index.  Every
    remaining cell must parse as a number; validation and renormalization
    happen in :func:`depscale.joints.make_joint`.
    """
    return make_joint(_matrix_body(path, "non-numeric cell in table body"))


def _matrix_body(path: str | Path, what: str) -> np.ndarray:
    """The float body of a joint or covariance file, less an optional header
    row and label column; a cell ``float()`` rejects is a FormatError naming ``what``."""
    _, body = _read_table(path, _matrix_header)
    if not len(body):
        raise FormatError(f"{path} has a header but no data rows")
    try:
        body[:, 0].astype(float)
    except ValueError:  # a label column
        body = body[:, 1:]
    try:
        return body.astype(float, copy=False)
    except ValueError as exc:
        raise FormatError(f"{path}: {what} ({exc})") from exc


def load_covariance_csv(path: str | Path, dim_x: int) -> GaussianJoint:
    """Read a full (m+n) x (m+n) covariance matrix and split it at ``dim_x``.

    The matrix must be symmetric, by the test :class:`GaussianJoint` applies
    to its diagonal blocks: the cross block is read above the diagonal.
    """
    full = _matrix_body(path, "covariance CSV must be purely numeric")
    if full.shape[0] != full.shape[1]:
        raise FormatError(f"{path}: covariance matrix must be square, got {full.shape}")
    if not 1 <= dim_x < full.shape[0]:
        raise InvalidBlockError(f"dim-x must lie in [1, {full.shape[0] - 1}], got {dim_x}")
    _equilibrate(full, "the covariance matrix")  # the mirror check
    m = dim_x
    return GaussianJoint(v11=full[:m, :m], v12=full[:m, m:], v22=full[m:, m:])


def load_samples_csv(path: str | Path) -> tuple[list[str] | None, list[np.ndarray]]:
    """Read a samples CSV: one observation per row, one variable per column.

    Returns (column names or None, list of column arrays); numeric columns
    come back as float arrays, anything else as object arrays of strings.
    A header row is detected by non-numeric cells.
    """
    names, body = _read_table(path, _samples_header)
    if body.shape[1] < 2:
        raise FormatError(f"{path}: need at least 2 columns (X and Y)")
    if not len(body):
        raise FormatError(f"{path} has a header but no data rows")
    columns: list[np.ndarray] = []
    for cells in body.T:
        try:
            columns.append(cells.astype(float))
        except ValueError:
            columns.append(cells.copy())
    return names, columns


def select_column(
    names: list[str] | None, columns: list[np.ndarray], key: str, what: str
) -> np.ndarray:
    """Pick a column by header name or 0-based index string."""
    if names is not None and key in names:
        return columns[names.index(key)]
    try:
        idx = int(key)
    except ValueError:
        raise FormatError(
            f"{what} column {key!r} not found"
            + (f" among {names}" if names is not None else " (file has no header)")
        ) from None
    if not 0 <= idx < len(columns):
        raise FormatError(
            f"{what} column index {idx} out of range for {len(columns)} columns"
        )
    return columns[idx]

