"""Deterministic text formatting and atomic writing of emitted data files."""

from __future__ import annotations

import json
import os
from contextlib import contextmanager

import numpy as np

from .errors import NumericalInvariantError

#: CSV rows formatted per ``%`` call: one call per row costs interpreter
#: time, one for the whole table holds a second copy of its text.
_BLOCK_ROWS = 1024


def fmt(x: float) -> str:
    """Fixed 12-significant-digit float rendering ('.' decimal separator).

    Negative zero renders as ``0``, the same as positive zero.
    """
    x = float(x)
    return f"{0.0 if x == 0.0 else x:.12g}"


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


def write_table(path: str, kind: str, columns: list[str], rows) -> None:
    """Write a numeric table as CSV (``kind="csv"``) or JSON (``kind="json"``).

    Every cell is rendered as :func:`fmt` renders it: CSV cells as its text,
    JSON cells as the float it denotes, under ``{"columns": [...], "rows":
    [[...], ...]}``.  A NaN or infinite cell raises
    :class:`NumericalInvariantError` before any file is opened.
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
        write_json(path, {"columns": columns,
                          "rows": [[float(fmt(x)) for x in row] for row in table]})
        return
    line = ",".join(["%.12g"] * len(columns)) + "\n"
    with atomic_write(path) as f:
        f.write(",".join(columns) + "\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start:start + _BLOCK_ROWS]
            f.write((line * len(block)) % tuple(block.ravel().tolist()))
