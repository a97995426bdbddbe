"""CSV ingestion for joint tables, covariance blocks, and sample files.

Three small, strict readers.  Anything that does not match the documented
layout raises :class:`~depscale.errors.FormatError` (or the semantic error
from the container it feeds) — no silent coercion.
"""

from __future__ import annotations

import csv
from itertools import chain
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import FormatError, InvalidBlockError
from .joints import DiscreteJoint, GaussianJoint, make_joint


def _read_rows(path: str | Path) -> list[list[str]]:
    """Every non-blank row as stripped cells: the per-cell path."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [row for row in csv.reader(fh) if _nonblank(row)]
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


def _read_grid(
    path: str | Path, is_header: Callable[[list[str]], bool]
) -> tuple[list[str] | None, np.ndarray] | None:
    """Header (or None) and numeric body of a plain grid, parsed in one numpy pass.

    The first non-blank row goes through ``csv``; ``is_header`` decides
    whether it names the columns, and otherwise it must be numeric.  The
    rest is one ``np.loadtxt`` call.  Returns None when that parse fails or
    comes back at another width, when the first row is neither header nor
    numbers, or when no row follows it: the per-cell path (:func:`_read_rows`)
    then reads the file, so such files get exactly its result or its error.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            first = next((row for row in csv.reader(fh) if _nonblank(row)), None)
            if first is None:
                return None
            first = [c.strip() for c in first]
            header = is_header(first)
            if not header and not all(_is_number(c) for c in first):
                return None
            # Peek past blank lines: loadtxt warns on an input with no rows.
            line = next((ln for ln in fh if ln.strip()), None)
            if line is None:
                return None
            body = np.loadtxt(
                chain([line], fh), delimiter=",", comments=None, ndmin=2, dtype=float
            )
    except (OSError, ValueError):
        return None
    if body.shape[1] != len(first):
        return None
    if header:
        return first, body
    return None, np.concatenate([np.array([[float(c) for c in first]]), body])


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
    grid = _read_grid(path, _joint_header)
    if grid is not None:
        return make_joint(grid[1])
    rows = _read_rows(path)
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
    grid = _read_grid(path, _no_header)
    if grid is not None:
        full = grid[1]
    else:
        rows = _read_rows(path)
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
    grid = _read_grid(path, _samples_header)
    if grid is not None and grid[1].shape[1] >= 2:
        names, body = grid
        return names, list(body.T.copy())
    rows = _read_rows(path)
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

