"""CSV loading and writing for the command line tools.

Files are plain comma-separated numeric tables in UTF-8; a leading
byte-order mark is skipped.  A first line
that fails to parse as numbers is taken to be a header with variable
names.  Well-formed files are parsed by numpy's C reader; any file it
rejects, or whose result would be refused, is re-read by the Python
parser, which decides the result.  An error about a row names its
one-based line: a non-numeric cell, a ragged row, a non-finite value or
bytes that are not UTF-8.
"""

from __future__ import annotations

import csv
import re
import warnings

import numpy as np


class DatasetError(ValueError):
    pass


# Undecodable bytes, as the "surrogateescape" error handler maps them.
_UNDECODABLE = re.compile("[\udc80-\udcff]")


def _try_floats(cells: list[str]) -> list[float] | None:
    try:
        return [float(c) for c in cells]
    except ValueError:
        return None


def load_csv(path) -> tuple[np.ndarray, list[str] | None]:
    """Returns (rows, names); names is None when the file has no header."""
    try:
        loaded = _load_numpy(path)
    except (ValueError, csv.Error):  # UnicodeDecodeError is a ValueError
        loaded = None
    return loaded if loaded is not None else _load_reference(path)


def _load_numpy(path) -> tuple[np.ndarray, list[str] | None] | None:
    """Parses with ``np.loadtxt``; None where only the reference may decide.

    Every cell numpy accepts, Python's ``float`` accepts with the same bits,
    and a file numpy splits into rows holds no quote, so an accepted file
    has the same rows as the reference reads.  The header is the reference's
    own first record, and only one line long: numpy skips one line, and a
    quoted header cell may run over several.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        first = [c.strip() for c in next(reader, [])]
        if reader.line_num > 1:
            return None
        names = first if any(first) and _try_floats(first) is None else None
        fh.seek(0)
        with warnings.catch_warnings():
            # A header-only file: the reference reports it.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2,
                              skiprows=int(names is not None))
    if data.size == 0 or not np.isfinite(data).all():
        return None
    if names is not None and len(names) != data.shape[1]:
        return None
    return data, names


def _load_reference(path) -> tuple[np.ndarray, list[str] | None]:
    """The Python parser: defines the result and raises every error."""
    rows: list[list[float]] = []
    linenos: list[int] = []
    names: list[str] | None = None
    lineno = 0
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        width = None
        try:
            for lineno, cells in enumerate(reader, start=1):
                cells = [c.strip() for c in cells]
                if any(map(_UNDECODABLE.search, cells)):
                    raise DatasetError(f"{path}: line {lineno}: not valid UTF-8")
                if not cells or all(c == "" for c in cells):
                    continue
                parsed = _try_floats(cells)
                if parsed is None:
                    if lineno == 1:
                        names = cells
                        continue
                    raise DatasetError(f"{path}: line {lineno}: not numeric: {cells}")
                if width is None:
                    width = len(parsed)
                elif len(parsed) != width:
                    raise DatasetError(
                        f"{path}: line {lineno}: expected {width} columns, got {len(parsed)}")
                rows.append(parsed)
                linenos.append(lineno)
        except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
            raise DatasetError(f"{path}: line {lineno + 1}: {exc}") from None
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise DatasetError(f"{path}: line {linenos[int(np.argmin(finite))]}: "
                           "contains non-finite values")
    if names is not None and len(names) != data.shape[1]:
        raise DatasetError(f"{path}: header has {len(names)} names for "
                           f"{data.shape[1]} columns")
    return data, names


def save_csv(path, rows: np.ndarray, names: list[str] | None = None) -> None:
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        if names is not None:
            if len(names) != rows.shape[1]:
                raise DatasetError("header length does not match column count")
            writer.writerow(names)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])
