"""Dense complex matrix kernel for small (2x2 / 4x4 / 16x16) quantum problems.

Conventions used throughout the package:

* Pair basis ``|Q> (x) |HO>`` with flat index ``2*q + h`` over
  ``(|00>, |01>, |10>, |11>)``; ``|0>`` is the ground state of each part.
* ``sigma_+ = |1><0|``, ``sigma_- = |0><1|``, ``sigma_z = |1><1| - |0><0|``,
  so the excited level of ``(omega/2) sigma_z`` sits at ``+omega/2``.
* Vectorization is column-stacking: ``vec(A X B) = (B^T kron A) vec(X)``.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm as _expm

ID2 = np.eye(2, dtype=complex)
SIGMA_P = np.array([[0, 0], [1, 0]], dtype=complex)
SIGMA_M = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_Z = np.array([[-1, 0], [0, 1]], dtype=complex)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the left factor acts on the first (Q) index."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part ``(A + A^dagger)/2``."""
    a = np.asarray(a, dtype=complex)
    return (a + a.conj().T) / 2


def partial_transpose_second(rho: np.ndarray) -> np.ndarray:
    """Transpose the HO (second) index of 4x4 pair operators (last two axes).

    The four 2x2 blocks indexed by the Q part are each transposed in place,
    which preserves Hermiticity and the trace and is an involution.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"partial transpose expects 4x4 matrices, got {rho.shape}")
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    return np.ascontiguousarray(r.swapaxes(-3, -1)).reshape(rho.shape)


def partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """Reduce 4x4 pair states (last two axes) to one 2x2 factor.

    ``keep="first"`` sums over the HO index and returns the Q state;
    ``keep="second"`` sums over the Q index and returns the HO state.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"partial trace expects 4x4 matrices, got {rho.shape}")
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    if keep == "first":
        return np.einsum("...qhph->...qp", r)
    if keep == "second":
        return np.einsum("...qhqk->...hk", r)
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")


def matrix_exp(a: np.ndarray, t: float = 1.0) -> np.ndarray:
    """``exp(t A)`` for a square matrix (scaling-and-squaring)."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix_exp expects a square matrix, got {a.shape}")
    if t == 0.0:
        return np.eye(a.shape[0], dtype=complex)
    return _expm(t * a)


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(a, dtype=complex), compute_uv=False).sum())


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(x, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, n: int = 4) -> np.ndarray:
    """Inverse of :func:`vec` for an n x n matrix."""
    return np.asarray(v, dtype=complex).reshape(n, n, order="F")


def matrix_to_dict(a: np.ndarray) -> dict:
    """JSON-ready form: ``{rows, cols, entries: [[re, im], ...]}`` row-major."""
    a = np.asarray(a, dtype=complex)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in a.reshape(-1)],
    }
