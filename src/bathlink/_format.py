"""Deterministic text formatting and atomic writing of emitted data files."""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager


def fmt(x: float) -> str:
    """Fixed 12-significant-digit float rendering ('.' decimal separator).

    Negative zero renders as ``0``, the same as positive zero.
    """
    x = float(x)
    return f"{0.0 if x == 0.0 else x:.12g}"


@contextmanager
def atomic_write(path: str):
    """Write to a temp file in the target directory, rename on success.

    No partial output file is left behind if the body raises.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as sorted, two-space-indented JSON plus a newline."""
    with atomic_write(path) as f:
        json.dump(payload, f, sort_keys=True, indent=2)
        f.write("\n")


def write_table(path: str, kind: str, columns: list[str], rows) -> None:
    """Write a numeric table as CSV (``kind="csv"``) or JSON (``kind="json"``).

    Every cell goes through :func:`fmt`: CSV cells are its text, JSON cells
    the float it denotes, under ``{"columns": [...], "rows": [[...], ...]}``.
    """
    if kind == "json":
        write_json(path, {"columns": columns,
                          "rows": [[float(fmt(x)) for x in row] for row in rows]})
        return
    with atomic_write(path) as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(fmt(x) for x in row) + "\n")
