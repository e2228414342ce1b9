"""Deterministic text formatting for emitted data files."""

from __future__ import annotations

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
