"""Deterministic text formatting and atomic writing of emitted data files.

Every float cell is rendered as :func:`fmt` renders it.  Long CSV tables
and JSON tables format each column's distinct values once; short CSV tables
format every cell in one ``%`` call.  Files appear whole or not at
all (:func:`atomic_write`).
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

import numpy as np

from .errors import NumericalInvariantError

#: CSV rows formatted and written together: one call per row costs
#: interpreter time, one for the whole table holds a second copy of its
#: text.  A longer table formats each column's distinct values once
#: (:func:`write_table`).
_BLOCK_ROWS = 1024
#: The one rendering of a float cell.
_CELL = "%.12g"


def fmt(x: float) -> str:
    """Fixed 12-significant-digit float rendering ('.' decimal separator).

    Negative zero renders as ``0``, the same as positive zero.
    """
    x = float(x)
    return _CELL % (0.0 if x == 0.0 else x)


@contextmanager
def atomic_write(path: str):
    """Write to a temp file in the target directory, rename on success.

    No partial output file is left behind if the body raises.  The temp
    file ``.tmp-<random hex>~`` is created exclusively with mode ``0o666``,
    which the kernel reduces by the umask, so the file gets the mode
    ``open`` would give it.  The text is written as UTF-8 with Unix line ends.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as sorted, two-space-indented JSON plus a newline.

    A NaN or infinite float is not JSON: it raises
    :class:`NumericalInvariantError` and leaves no file behind.
    """
    try:
        with atomic_write(path) as f:
            json.dump(payload, f, sort_keys=True, indent=2, allow_nan=False)
            f.write("\n")
    except ValueError as exc:
        raise NumericalInvariantError(f"{path}: {exc}") from exc


def _column_text(column: np.ndarray) -> tuple[list[str], np.ndarray]:
    """:func:`fmt`'s text of each distinct value of a 1-D column, and each cell's index into it.

    The column must hold no ``-0.0``.  ``np.unique`` gets a 1-D array: the
    shape of its ``return_inverse`` for 2-D input changed in numpy 2.
    """
    values, inverse = np.unique(column, return_inverse=True)
    return [_CELL % x for x in values.tolist()], inverse


def write_table(path: str, kind: str, columns: list[str], rows) -> None:
    """Write a numeric table as CSV (``kind="csv"``) or JSON (``kind="json"``).

    Every cell is rendered as :func:`fmt` renders it: CSV cells as its text,
    JSON cells as the float it denotes, under ``{"columns": [...], "rows":
    [[...], ...]}``.  A NaN or infinite cell raises
    :class:`NumericalInvariantError` before any file is opened.

    A CSV table of at most ``_BLOCK_ROWS`` rows is formatted by one ``%``
    call.  A longer one, and every JSON table, has each column's distinct
    values formatted once (the region and heatmap grids repeat most of
    theirs): CSV rows are then joined from those strings, a block of
    ``_BLOCK_ROWS`` rows at a time, each block's cells looked up only as it
    is written, and JSON cells take the float of their value's string.
    Both CSV routes give the same bytes.
    """
    # + 0.0 maps -0 to 0, so "%.12g" renders every cell as fmt does
    table = np.asarray(rows, dtype=float) + 0.0
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        i, j = bad[0]
        raise NumericalInvariantError(
            f"{path}: non-finite value {table[i, j]} in row {i}, column {columns[j]!r}"
        )
    if kind == "json":
        cells = [np.array([float(x) for x in text])[inverse]
                 for text, inverse in map(_column_text, table.T)]
        write_json(path, {"columns": columns, "rows": np.transpose(cells).tolist()})
        return
    with atomic_write(path) as f:
        f.write(",".join(columns) + "\n")
        if len(table) <= _BLOCK_ROWS:
            line = ",".join([_CELL] * len(columns)) + "\n"
            f.write((line * len(table)) % tuple(table.ravel().tolist()))
            return
        texts = [(np.array(text, dtype=object), inverse)
                 for text, inverse in map(_column_text, table.T)]
        for start in range(0, len(table), _BLOCK_ROWS):
            rows = zip(*(text[inverse[start:start + _BLOCK_ROWS]].tolist()
                         for text, inverse in texts))
            f.write("\n".join(map(",".join, rows)) + "\n")
