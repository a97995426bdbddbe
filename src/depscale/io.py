"""CSV ingestion for joint tables, covariance blocks, and sample files.

Three small, strict readers.  Anything that does not match the documented
layout raises :class:`~depscale.errors.FormatError` (or the semantic error
from the container it feeds) — no silent coercion.
"""

from __future__ import annotations

import codecs
import csv
import os
from io import BytesIO, TextIOWrapper
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Callable, Iterator, Sequence

import numpy as np

from .errors import FormatError, InvalidBlockError
from .joints import DiscreteJoint, GaussianJoint, _debug_logger, make_joint

#: A numeric body of at least this many bytes is parsed in two halves at
#: once, one of them in a forked child, when more than one CPU is usable.
#: The fork, the pipe and the join cost a few milliseconds; on a 2-vCPU x86
#: VM the split broke even at 0.4-1.7 MB of body, depending on the cell
#: format, and 2 MB keeps a margin (CHANGES.md has the measurements).
_SPLIT_BYTES = 2_000_000


def _source(path: str | Path) -> bytes | None:
    """The bytes behind ``path`` when it is a stream that cannot seek (a
    pipe), else None: a pipe can be read only once, and the per-cell path
    must read the bytes the numeric pass read."""
    try:
        with open(path, "rb") as fh:
            return None if fh.seekable() else fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _open_binary(path: str | Path, data: bytes | None) -> BinaryIO:
    """``path`` opened for reading, or the bytes :func:`_source` kept of it."""
    return open(path, "rb") if data is None else BytesIO(data)


def _read_rows(path: str | Path, data: bytes | None = None) -> list[list[str]]:
    """Every non-blank row as stripped cells: the per-cell path."""
    try:
        with TextIOWrapper(_open_binary(path, data), encoding="utf-8-sig",
                           newline="") as fh:
            rows = [row for row in csv.reader(fh) if _nonblank(row)]
            size = fh.buffer.seek(0, os.SEEK_END)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc
    if not rows:
        raise FormatError(f"{path} is empty")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise FormatError(f"{path} is ragged: rows have differing cell counts")
    _log_read(path, "per cell", len(rows), width, size)
    return [[c.strip() for c in r] for r in rows]


def _read_grid(
    path: str | Path, is_header: Callable[[list[str]], bool], data: bytes | None = None
) -> tuple[list[str] | None, np.ndarray] | None:
    """Header (or None) and numeric body of a plain grid, parsed by ``np.loadtxt``.

    The first non-blank row goes through ``csv``; ``is_header`` decides
    whether it names the columns, and otherwise it must be numeric and is
    the body's first row.  ``data`` is what :func:`_source` kept of a pipe.
    Returns None when the body's parse fails or comes back at another width,
    when the first row is neither header nor numbers, or when no row follows
    it: the per-cell path (:func:`_read_rows`) then reads the same bytes, so
    such files get exactly its result or its error.
    """
    try:
        with _open_binary(path, data) as fh:
            size = fh.seek(0, os.SEEK_END)
            fh.seek(0)
            start = len(codecs.BOM_UTF8) if fh.read(3) == codecs.BOM_UTF8 else 0
            fh.seek(start)
            record: list[bytes] = []  # the raw lines of the row csv is reading

            def lines():
                for line in _lines(fh):
                    record.append(line)
                    yield line.decode()

            for first in csv.reader(lines()):
                if _nonblank(first):
                    break
                start += sum(map(len, record))
                record.clear()
            else:
                return None
            fh.seek(start + sum(map(len, record)))
            first = [c.strip() for c in first]
            header = is_header(first)
            if not header and not all(_is_number(c) for c in first):
                return None
            # A row must follow: loadtxt warns on an input with no rows.
            skipped, row = _next_row(fh)
            if row is None:
                return None
            if header:
                start += sum(map(len, record)) + skipped
            head = [row] if header else [*record, row]
            body, how = _parse_body(fh, head, start, _split_point(fh, start, size))
    except (OSError, ValueError, csv.Error):
        return None
    if body.shape[1] != len(first):
        return None
    _log_read(path, how, body.shape[0] + header, body.shape[1], size)
    return (first if header else None), body


def _lines(fh: BinaryIO) -> Iterator[bytes]:
    """The lines of the binary file ``fh`` from where it stands, each ending
    at LF, CRLF or a bare CR, as the per-cell path's ``csv`` reads them."""
    for line in fh:
        yield from line.splitlines(keepends=True)


def _next_row(fh: BinaryIO) -> tuple[int, bytes | None]:
    """The next non-blank line of the binary file ``fh`` (None at the end),
    after how many bytes of blank lines; ``fh`` is left just past it."""
    here = fh.tell()
    skipped = 0
    for line in _lines(fh):
        if line.decode().strip():
            fh.seek(here + skipped + len(line))
            return skipped, line
        skipped += len(line)
    return skipped, None


def _split_point(fh: BinaryIO, start: int, size: int) -> int | None:
    """The first line start after the middle of the body from byte ``start``
    to ``size``, with a row after it; None when the body is small, one CPU
    is usable or the platform cannot fork.  Leaves ``fh`` where it was."""
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    if size - start < _SPLIT_BYTES or cpus < 2 or not hasattr(os, "fork"):
        return None
    here = fh.tell()
    before_middle = (start + size - 1) // 2  # the byte before the middle, or start
    fh.seek(before_middle)
    mid = before_middle + len(next(_lines(fh), b""))
    fh.seek(mid)
    has_row = _next_row(fh)[1] is not None
    fh.seek(here)
    return mid if has_row else None


def _loadtxt(fh: BinaryIO, head: Sequence[bytes] = ()) -> np.ndarray:
    """One ``np.loadtxt`` pass over the lines ``head`` and then the rest of
    the binary stream ``fh``, which it closes."""
    with TextIOWrapper(fh, encoding="utf-8", newline="") as text:
        return np.loadtxt(
            chain(map(bytes.decode, head), text),
            delimiter=",", comments=None, ndmin=2, dtype=float,
        )


def _parse_body(
    fh: BinaryIO, head: list[bytes], start: int, mid: int | None
) -> tuple[np.ndarray, str]:
    """The grid whose first lines ``head`` were read from ``fh`` from byte
    ``start`` on, and how it was parsed.

    With no ``mid``, one pass over ``head`` and the rest of ``fh``.
    Otherwise the bytes ``[start, mid)`` are read, and a forked child parses
    them while this process parses the rest; the child sends its shape and
    float64 bytes down a pipe.  Both halves go through the same parser, so
    the values are those of one pass.  A failed child (an error, a short
    read, a nonzero exit) raises ValueError; a failed fork falls back to one
    pass.
    """
    if mid is None:
        return _loadtxt(fh, head), "one pass"
    fh.seek(start)
    half = fh.read(mid - start)  # the child's half, read before the fork
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        fh.seek(start)
        return _loadtxt(fh), "one pass"
    if pid == 0:  # the child only parses and sends; it never returns
        code = 1
        try:
            os.close(r)  # so that its write fails once the parent closes r
            rows = _loadtxt(BytesIO(half))
            with open(w, "wb") as out:
                out.write(np.array(rows.shape, dtype=np.int64).tobytes())
                out.write(rows)
            code = 0
        finally:
            os._exit(code)
    del half
    os.close(w)
    try:
        with open(r, "rb") as src:
            tail = _loadtxt(fh)  # from mid, where the read above stopped
            shape = np.frombuffer(src.read(16), dtype=np.int64)
            rows = np.empty(shape) if shape.size == 2 else None
            received = rows is not None and src.readinto(rows) == rows.nbytes
    finally:
        status = os.waitpid(pid, 0)[1]
    if status or not received:
        raise ValueError("the child's half of the grid was not received")
    return np.concatenate([rows, tail]), "two processes"


def _log_read(path: str | Path, how: str, rows: int, cols: int, size: int) -> None:
    log = _debug_logger()
    if log is not None:
        log.debug("read %s: %s, %d x %d cells, %d bytes", path, how, rows, cols, size)


def _nonblank(row: list[str]) -> bool:
    return any(c.strip() for c in row)


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _joint_header(row: list[str]) -> bool:
    return any(not _is_number(c) for c in row[1:]) or (
        len(row) == 1 and not _is_number(row[0])
    )


def _samples_header(row: list[str]) -> bool:
    return any(not _is_number(c) for c in row)


def _no_header(row: list[str]) -> bool:
    return False


def load_joint_csv(path: str | Path) -> DiscreteJoint:
    """Read a joint pmf table: rows are X atoms, columns are Y atoms.

    An optional header row and/or leading label column are detected by their
    non-numeric cells and skipped: an atom is its row or column index.  Every
    remaining cell must parse as a number; validation and renormalization
    happen in :func:`depscale.joints.make_joint`.
    """
    data = _source(path)
    grid = _read_grid(path, _joint_header, data)
    if grid is not None:
        return make_joint(grid[1])
    rows = _read_rows(path, data)
    body = rows[1:] if _joint_header(rows[0]) else rows
    if not body:
        raise FormatError(f"{path} has a header but no data rows")
    if any(not _is_number(r[0]) for r in body):
        body = [r[1:] for r in body]
    try:
        probs = np.array([[float(c) for c in r] for r in body])
    except ValueError as exc:
        raise FormatError(f"{path}: non-numeric cell in table body ({exc})") from exc
    return make_joint(probs)


def load_covariance_csv(path: str | Path, dim_x: int) -> GaussianJoint:
    """Read a full (m+n) x (m+n) covariance matrix and split it at ``dim_x``."""
    data = _source(path)
    grid = _read_grid(path, _no_header, data)
    if grid is not None:
        full = grid[1]
    else:
        rows = _read_rows(path, data)
        try:
            full = np.array([[float(c) for c in r] for r in rows])
        except ValueError as exc:
            raise FormatError(
                f"{path}: covariance CSV must be purely numeric ({exc})"
            ) from exc
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


def load_samples_csv(
    path: str | Path,
) -> tuple[list[str] | None, list[np.ndarray]]:
    """Read a samples CSV: one observation per row, one variable per column.

    Returns (column names or None, list of column arrays); numeric columns
    come back as float arrays, anything else as object arrays of strings.
    A header row is detected by non-numeric cells.
    """
    data = _source(path)
    grid = _read_grid(path, _samples_header, data)
    if grid is not None and grid[1].shape[1] >= 2:
        names, body = grid
        return names, list(body.T.copy())
    rows = _read_rows(path, data)
    if len(rows[0]) < 2:
        raise FormatError(f"{path}: need at least 2 columns (X and Y)")
    header = _samples_header(rows[0])
    names = rows[0] if header else None
    body = rows[1:] if header else rows
    if not body:
        raise FormatError(f"{path} has a header but no data rows")
    columns: list[np.ndarray] = []
    for idx in range(len(rows[0])):
        cells = [r[idx] for r in body]
        if all(_is_number(c) for c in cells):
            columns.append(np.array([float(c) for c in cells]))
        else:
            columns.append(np.array(cells, dtype=object))
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

