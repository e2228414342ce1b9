"""Dense complex matrix kernel for small (2x2 / 4x4 / 16x16) quantum problems.

Conventions used throughout the package:

* Pair basis ``|Q> (x) |HO>`` with flat index ``2*q + h`` over
  ``(|00>, |01>, |10>, |11>)``; ``|0>`` is the ground state of each part.
* ``sigma_+ = |1><0|``, ``sigma_- = |0><1|``, ``sigma_z = |1><1| - |0><0|``,
  so the excited level of ``(omega/2) sigma_z`` sits at ``+omega/2``.
* Vectorization is column-stacking: ``vec(A X B) = (B^T kron A) vec(X)``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalInvariantError

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


#: Pade degrees m < 13 of the exponential and the bound theta_m on
#: ``max(||A^j||^(1/j))`` up to which r_m(A) is exact to unit roundoff
#: (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009), Table 3.1).
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068}
_THETA_13 = 4.25
#: Coefficients b_0 ... b_m of the Pade numerator p_m(x); q_m(x) = p_m(-x).
_PADE_B = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}
_UNIT_ROUNDOFF = 2.0**-53


def _norm1(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=0).max())


def _ell(a: np.ndarray, m: int) -> float:
    """Extra squarings that keep the degree-m truncation error at unit roundoff.

    ``ell(A, m)`` of Al-Mohy & Higham (2009), from the exact 1-norm of
    ``|A|^(2m+1)``; infinite where that norm overflows.
    """
    norm = _norm1(a)
    if norm == 0.0:
        return 0
    absa = np.abs(a)
    v = np.ones(a.shape[0])
    for _ in range(2 * m + 1):
        v = v @ absa
    # |c_(2m+1)| = (m!)^2 / ((2m)! (2m+1)!), the leading backward-error coefficient
    alpha = float(v.max()) / (norm * math.comb(2 * m, m) * math.factorial(2 * m + 1))
    if alpha <= _UNIT_ROUNDOFF:
        return 0
    value = math.log2(alpha / _UNIT_ROUNDOFF) / (2 * m)
    return math.ceil(value) if math.isfinite(value) else math.inf


def _pade_structure(a: np.ndarray) -> tuple[int, float, list]:
    """Pade degree m, squarings s and the powers ``[B, B^2, B^4, B^6, B^8]`` of ``B = 2^-s A``.

    ``s`` is 0 unless m = 13, and infinite where the norms of A's powers
    overflow.  ``B^8`` is computed only when m >= 7 is considered (else None).
    """
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    d4, d6 = _norm1(a4) ** 0.25, _norm1(a6) ** (1 / 6)
    for m in (3, 5):
        if max(d4, d6) <= _THETA[m] and _ell(a, m) == 0:
            return m, 0, [a, a2, a4, a6, None]
    a8 = a6 @ a2
    d8 = _norm1(a8) ** 0.125
    for m in (7, 9):
        if max(d6, d8) <= _THETA[m] and _ell(a, m) == 0:
            return m, 0, [a, a2, a4, a6, a8]
    d10 = _norm1(a6 @ a4) ** 0.1
    eta = min(max(d6, d8), max(d8, d10))
    powers = [a, a2, a4, a6, a8]
    if not math.isfinite(eta):
        return 13, math.inf, powers
    s = max(math.ceil(math.log2(eta / _THETA_13)), 0) if eta > 0 else 0
    s += _ell(a * 2.0**-s, 13)
    return 13, s, [x * 2.0 ** -(k * s) for k, x in zip((1, 2, 4, 6, 8), powers)]


def _pade_exp(a: np.ndarray) -> np.ndarray:
    """``exp(A)``: ``r_m(2^-s A)`` squared s times; NaN where the scaling overflows."""
    m, s, (a, a2, a4, a6, a8) = _pade_structure(a)
    if not math.isfinite(s):
        return np.full_like(a, np.nan)
    b = _PADE_B[m]
    diag = np.diag_indices(a.shape[0])
    if m == 3:
        u = a @ a2 + b[1] * a
        v = b[2] * a2
    elif m == 13:
        u = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
        v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2
    else:
        # the even polynomials in A^2 ... A^(m-1), highest power first
        even = (a2, a4, a6, a8)
        top = range((m - 1) // 2 - 1, -1, -1)
        u = sum(b[2 * j + 3] * even[j] for j in top)
        v = sum(b[2 * j + 2] * even[j] for j in top)
    if m != 3:
        u[diag] += b[1]
        u = a @ u
    v[diag] += b[0]
    # r_m(A) = (V - U)^-1 (V + U) = I + 2 (V - U)^-1 U
    r = 2.0 * np.linalg.solve(v - u, u)
    r[diag] += 1.0
    for _ in range(s):
        r = r @ r
    return r


def matrix_exp(a: np.ndarray, t: float = 1.0) -> np.ndarray:
    """``exp(t A)`` for a square matrix (scaling and squaring, Pade degree 3 to 13).

    The degree and the number of squarings follow Al-Mohy & Higham, SIAM J.
    Matrix Anal. Appl. 31, 970 (2009), with exact 1-norms of ``A^4 ... A^10``.
    A result that is not finite raises :class:`NumericalInvariantError`.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix_exp expects a square matrix, got {a.shape}")
    if t == 0.0:
        return np.eye(a.shape[0], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _pade_exp(t * a)
    if not np.isfinite(out).all():
        raise NumericalInvariantError(f"exp(t A) is not finite at t={t:g}")
    return out


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values of a square matrix.

    The singular values of ``A`` are the positive eigenvalues of the
    Hermitian ``[[0, A], [A^dagger, 0]]`` (its spectrum is ``+-sigma``), so
    this is half the sum of that matrix's eigenvalue magnitudes.
    """
    a = np.asarray(a, dtype=complex)
    zero = np.zeros_like(a)
    return float(np.abs(np.linalg.eigvalsh(np.block([[zero, a], [a.conj().T, zero]]))).sum() / 2.0)


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization of an n x n matrix, or of each matrix of a stack."""
    x = np.asarray(x, dtype=complex)
    return x.swapaxes(-1, -2).reshape(x.shape[:-2] + (-1,))


def unvec(v: np.ndarray, n: int = 4) -> np.ndarray:
    """Inverse of :func:`vec` for an n x n matrix, or for each row of an (N, n*n) stack."""
    v = np.asarray(v, dtype=complex)
    return v.reshape(*v.shape[:-1], n, n).swapaxes(-1, -2)


def matrix_to_dict(a: np.ndarray) -> dict:
    """JSON-ready form: ``{rows, cols, entries: [[re, im], ...]}`` row-major."""
    a = np.asarray(a, dtype=complex)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in a.reshape(-1)],
    }
