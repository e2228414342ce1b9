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

from .errors import ConfigError, NumericalInvariantError

ID2 = np.eye(2)
SIGMA_P = np.array([[0.0, 0.0], [1.0, 0.0]])
SIGMA_M = np.array([[0.0, 1.0], [0.0, 0.0]])
#: Excitation numbers n of the pair basis; entry (i, j) has coherence order ``n_i - n_j``.
_EXCITATIONS = np.array([0, 1, 1, 2])
_COHERENCE_ORDER = np.subtract.outer(_EXCITATIONS, _EXCITATIONS)


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part ``A/2 + A^dagger/2`` of each matrix of ``(..., n, n)``; real if ``a`` is."""
    a = _as_inexact(a)
    return a / 2 + a.conj().swapaxes(-1, -2) / 2


def _as_inexact(a: np.ndarray) -> np.ndarray:
    """``a`` as a float64 array if it is real, complex128 if it is complex."""
    a = np.asarray(a)
    return a.astype(np.result_type(a, float), copy=False)


def _states(rho: np.ndarray) -> tuple[np.ndarray, bool, np.ndarray]:
    """``(stack, single, finite)`` of one ``(4, 4)`` state or an ``(N, 4, 4)`` stack.

    ``stack`` is ``rho`` as ``(N, 4, 4)``, float64 if it is real and
    complex128 if it is complex; ``single`` says whether one state was given;
    ``finite`` says, per state, whether every entry is finite.  Any other
    shape raises :class:`ConfigError`.
    """
    rho = _as_inexact(rho)
    if rho.shape[-2:] != (4, 4) or rho.ndim not in (2, 3):
        raise ConfigError(f"expected a (4, 4) state or an (N, 4, 4) stack, got {rho.shape}")
    stack = rho.reshape(-1, 4, 4)
    return stack, rho.ndim == 2, np.isfinite(stack).all(axis=(1, 2))


def _positive_definite(h: np.ndarray, margin: float | np.ndarray) -> np.ndarray:
    """Whether each ``h - margin * 1`` of an (N, 4, 4) Hermitian stack has all LDL^H pivots > 0.

    ``margin`` is a scalar or one value per matrix.  The factorization reads
    the lower triangle and the real diagonal and runs without pivoting, one
    (N,) column of entries at a time.  By Sylvester's law of inertia positive
    pivots mean ``lambda_min(h) > margin``; rounding moves that bound by a
    backward error of order ``5 * 2^-53`` times the largest diagonal entry.
    A zero, negative or non-finite pivot certifies nothing.
    """
    lower = [[h[:, i, j] for j in range(i)] for i in range(4)]
    pivots = [h[:, i, i].real - margin for i in range(4)]
    positive = np.ones(len(h), dtype=bool)
    with np.errstate(all="ignore"):
        for k in range(4):
            positive &= pivots[k] > 0.0
            # the Schur complement: a_ij -= a_ik conj(a_jk) / d_k for i >= j > k
            scaled = {j: lower[j][k].conj() / pivots[k] for j in range(k + 1, 4)}
            for i in range(k + 1, 4):
                pivots[i] = pivots[i] - (lower[i][k] * scaled[i]).real
                for j in range(k + 1, i):
                    lower[i][j] = lower[i][j] - lower[i][k] * scaled[j]
    return positive


def partial_transpose_second(rho: np.ndarray) -> np.ndarray:
    """Transpose the HO (second) index of 4x4 pair operators (last two axes).

    The four 2x2 blocks indexed by the Q part are each transposed in place,
    which preserves Hermiticity and the trace and is an involution.  Real
    input gives a real result.
    """
    rho = _as_inexact(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"partial transpose expects 4x4 matrices, got {rho.shape}")
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    return np.ascontiguousarray(r.swapaxes(-3, -1)).reshape(rho.shape)


def partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """Reduce 4x4 pair states (last two axes) to one 2x2 factor.

    ``keep="first"`` sums over the HO index and returns the Q state;
    ``keep="second"`` sums over the Q index and returns the HO state.  Real
    input gives a real result.
    """
    rho = _as_inexact(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"partial trace expects 4x4 matrices, got {rho.shape}")
    r = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    if keep == "first":
        return np.einsum("...qhph->...qp", r)
    if keep == "second":
        return np.einsum("...qhqk->...hk", r)
    raise ValueError(f"keep must be 'first' or 'second', got {keep!r}")


#: The degree-13 Pade approximant r_13(A) is exact to unit roundoff while ``||A^j||^(1/j)``
#: <= theta_13 (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009), Table 3.1).
_THETA_13 = 4.25
#: Coefficients b_0 ... b_13 of the Pade numerator p_13(x); q_13(x) = p_13(-x).
_PADE_B = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_UNIT_ROUNDOFF = 2.0**-53


def _norm1(a: np.ndarray) -> np.ndarray:
    """The 1-norm of each matrix of a stack ``(K, n, n)``."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


@np.errstate(all="ignore")
def _pade_exp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``r_13(2^-s A)`` and the s squarings to ``exp(A)`` of each matrix of ``(..., n, n)``.

    Each matrix has its own ``s``, of shape ``a.shape[:-2]``, from array
    arithmetic on the stack's norms: the count from the exact 1-norms of
    ``A^6``, ``A^8`` and ``A^10``, plus ``ell(A, 13)`` of Al-Mohy & Higham
    (2009), the extra squarings that keep the degree-13 truncation error at
    unit roundoff, from those of ``2^-s A`` and ``|2^-s A|^27``.  The
    products, the Pade step and the solve run over the whole stack.  A matrix
    whose count is not finite (NaN or inf) gives NaN and 0 squarings.
    """
    shape = a.shape
    a = a.reshape((-1,) + shape[-2:])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    # fmax and fmin skip the NaN norm of a product that overflowed where another is finite
    d8 = _norm1(a6 @ a2) ** 0.125
    eta = np.fmin(np.fmax(_norm1(a6) ** (1 / 6), d8), np.fmax(d8, _norm1(a6 @ a4) ** 0.1))
    start = np.maximum(np.ceil(np.log2(eta / _THETA_13)), 0.0)
    scaled = a * np.exp2(-start)[:, None, None]
    norm = _norm1(scaled)
    # |c_27| = (13!)^2 / (26! 27!), the leading backward-error coefficient
    alpha = _norm1(np.linalg.matrix_power(np.abs(scaled), 27)) / (
        norm * float(math.comb(26, 13)) * float(math.factorial(27)))
    ell = np.maximum(np.ceil(np.log2(alpha / _UNIT_ROUNDOFF) / 26), 0.0)
    s = start + np.where(norm == 0.0, 0.0, ell)  # a zero matrix's alpha is 0/0
    failed = ~np.isfinite(s)
    s = np.where(failed, 0.0, s)
    a, a2, a4, a6 = (x * np.exp2(-k * s)[:, None, None]
                     for k, x in zip((1, 2, 4, 6), (a, a2, a4, a6)))
    if failed.any():  # guarded: the first indexed store maps 64 kB more of numpy's code
        for x in (a, a2, a4, a6):
            x[failed] = 0.0
    b = _PADE_B
    diag = (..., *np.diag_indices(shape[-1]))
    u = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2
    u[diag] += b[1]
    u = a @ u
    v[diag] += b[0]
    # r_13(A) = (V - U)^-1 (V + U) = I + 2 (V - U)^-1 U
    r = 2.0 * np.linalg.solve(v - u, u)
    r[diag] += 1.0
    if failed.any():
        r[failed] = np.nan
    return r.reshape(shape), s.astype(int).reshape(shape[:-2])


def matrix_exp(a: np.ndarray, t: float = 1.0) -> np.ndarray:
    """``exp(t A)`` for a square matrix or each matrix of a stack ``(..., n, n)``.

    Scaling and squaring at Pade degree 13.  The number of squarings of each
    matrix follows Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970
    (2009), with exact 1-norms of ``A^6``, ``A^8`` and ``A^10``; a stack is
    squared up to its largest count, each step only the matrices that still
    need it, so each result equals that of the matrix on its own.  A real
    ``A`` gives a real result.  A result that is not finite raises
    :class:`NumericalInvariantError`.
    """
    a = _as_inexact(a)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ValueError(f"matrix_exp expects square matrices, got {a.shape}")
    if t == 0.0:
        return np.broadcast_to(np.eye(a.shape[-1], dtype=a.dtype), a.shape).copy()
    with np.errstate(over="ignore", invalid="ignore"):
        out, s = _pade_exp((t * a).reshape((-1,) + a.shape[-2:]))
        for step in range(s.max(initial=0)):
            need = s > step
            square = out[need]
            out[need] = square @ square
    if not np.isfinite(out).all():
        raise NumericalInvariantError(f"exp(t A) is not finite at t={t:g}")
    return out.reshape(a.shape)


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
    x = _as_inexact(x)
    return x.swapaxes(-1, -2).reshape(x.shape[:-2] + (-1,))


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`vec`: each length-``n*n`` vector on the last axis as an n x n matrix."""
    v = _as_inexact(v)
    n = math.isqrt(v.shape[-1])
    return v.reshape(*v.shape[:-1], n, n).swapaxes(-1, -2)


def matrix_to_dict(a: np.ndarray) -> dict:
    """JSON-ready form: ``{rows, cols, entries: [[re, im], ...]}`` row-major."""
    a = np.asarray(a, dtype=complex)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in a.reshape(-1)],
    }
