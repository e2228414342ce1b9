"""The benchmark harness's two names, kept until it reads :mod:`bathlink.correlations`.

``conditional_entropy_grid`` is re-exported, the same object, so a tracer
that rebinds it by identity still reaches the call in the discord search.
No package module imports this one.
"""

from .correlations import conditional_entropy_grid

__all__ = ["active_backend", "conditional_entropy_grid"]


def active_backend() -> str:
    """Name of the kernel implementation (there is one: vectorized numpy)."""
    return "numpy"
