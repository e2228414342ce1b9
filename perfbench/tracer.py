"""In-process tracing of bathlink's layers, from outside the package.

Each traced function is replaced, in every ``bathlink`` module that holds a
reference to it, by a wrapper that records a span (name, start, end, parent)
and counts.  Callers inside the package look these names up as module
globals at call time (``bathlink.cli.discord``,
``bathlink.correlations.conditional_entropy_grid``, ...), so rebinding the
module attributes reaches every call site without changing the package.
``Tracer.restore`` puts the originals back.
"""

from __future__ import annotations

import contextlib
import importlib
import logging
import os
import sys
import time
from collections import Counter

import numpy as np

# span name -> the (module, attribute) pairs it wraps
LAYERS = {
    "cli.main": [("bathlink.cli", "main")],
    "correlations.discord": [("bathlink.correlations", "discord")],
    "correlations.negativity": [("bathlink.correlations", "negativity")],
    "correlations.mutual_information": [("bathlink.correlations", "mutual_information")],
    "kernels.conditional_entropy_grid": [("bathlink._kernels", "conditional_entropy_grid")],
    "model.build_liouvillian": [("bathlink.model", "build_liouvillian")],
    "dynamics.evolve": [("bathlink.dynamics", "evolve_exact"), ("bathlink.dynamics", "evolve_rk")],
    "dynamics.validate_density_matrix": [("bathlink.dynamics", "validate_density_matrix")],
    "witness.is_entangling": [("bathlink.witness", "is_entangling")],
    "witness.region_scan": [("bathlink.witness", "region_scan")],
    "format.atomic_write": [("bathlink._format", "atomic_write")],
}

KERNEL = "kernels.conditional_entropy_grid"
WRITER = "format.atomic_write"
FALLBACK_LOGGER = "bathlink.correlations"


class _FallbackCounter(logging.Handler):
    """Counts the grid-optimum fallback warnings that ``discord`` logs."""

    def __init__(self, counts: Counter):
        super().__init__(level=logging.WARNING)
        self.counts = counts

    def emit(self, record: logging.LogRecord) -> None:
        self.counts["correlations.discord.fallbacks"] += 1


class Tracer:
    """Spans and counts of one traced run; use as a context manager."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._covered: list[float] = []  # time covered by each span's children
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._handler = _FallbackCounter(self.counts)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._covered.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        if span[3] >= 0:
            self._covered[span[3]] += end - span[1]

    def _wrap(self, name: str, func):
        if name == WRITER:
            return self._wrap_writer(func)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(idx)
                if name == KERNEL:
                    self.counts[KERNEL + ".points"] += np.size(args[1]) * np.size(args[2])

        return traced

    def _wrap_writer(self, func):
        @contextlib.contextmanager
        def traced(path, *args, **kwargs):
            idx = self._open(WRITER)
            try:
                with func(path, *args, **kwargs) as handle:
                    yield handle
            finally:
                self._close(idx)
            self.counts[WRITER + ".bytes"] += os.path.getsize(path)

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "bathlink" or n.startswith("bathlink."))]
        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                func = getattr(importlib.import_module(module_name), attr)
                wrapper = self._wrap(name, func)
                for module in modules:
                    for key in [k for k, v in vars(module).items() if v is func]:
                        self._saved.append((module, key, func))
                        setattr(module, key, wrapper)
        logging.getLogger(FALLBACK_LOGGER).addHandler(self._handler)

    def restore(self) -> None:
        logging.getLogger(FALLBACK_LOGGER).removeHandler(self._handler)
        for module, key, func in reversed(self._saved):
            setattr(module, key, func)
        self._saved.clear()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the time its child spans cover.
        """
        totals = {name: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0} for name in LAYERS}
        for (name, start, end, _), covered in zip(self.spans, self._covered):
            entry = totals[name]
            entry["calls"] += 1
            entry["inclusive_s"] += end - start
            entry["self_s"] += end - start - covered
        return totals

    def dump(self) -> dict:
        """Spans as compact rows, times in seconds from the first span."""
        names = list(LAYERS)
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [[names.index(n), round(s - t0, 9), round(e - t0, 9), p]
                      for n, s, e, p in self.spans],
            "counts": dict(self.counts),
        }
