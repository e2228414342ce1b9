"""Batched kernel for the discord measurement search.

Discord minimizes, over Bloch axes ``n`` of the HO side, the entropy of Q
left after measuring HO with the projectors ``(1 +- n.sigma)/2``.  The two
unnormalized conditional Q states are

    M_+- = Tr_HO[(1 (x) (1 +- n.sigma)/2) rho] = (rho_Q +- n.T)/2,
    T_j = Tr_HO[(1 (x) sigma_j) rho],

which are linear in ``n``.  So each state needs only ``rho_Q`` and the three
``T_j`` (:func:`measurement_operators`), and a whole stack of states and a
whole set of axes go through one array program.  The eigenvalues of each
2x2 ``M`` come from its trace ``p`` and determinant: the larger one is
``(p + sqrt(p^2 - 4 det))/2`` and the smaller one ``det`` divided by the
larger, which keeps nearly pure conditional states accurate.  The measured
conditional entropy ``sum_+- p_+- S(M_+- / p_+-)`` is in bits, and outcomes
with probability below 1e-12 contribute zero.

X-shaped states reduce further: :func:`x_state_terms` gives five numbers per
state and the best azimuth in closed form, and :func:`x_state_entropy`
evaluates the entropy along polar angles alone.  Both kernels take each 2x2
entropy from trace and determinant in :func:`_neg_weighted_entropy`, the one
home of the outcome floor.
"""

from __future__ import annotations

import numpy as np

_P_FLOOR = 1e-12
#: State-axis pairs per grid-scan block: the scan's temporaries stay near
#: 1 MB whatever the length of the stack or the size of the grid.
_BLOCK_PAIRS = 6144

#: The signs of the two measurement outcomes, on a leading axis.
_SIGNS = np.array([1.0, -1.0])[:, None, None]

_PAULI = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)


def active_backend() -> str:
    """Name of the kernel implementation (there is one: vectorized numpy)."""
    return "numpy"


def measurement_operators(states: np.ndarray) -> np.ndarray:
    """``rho_Q, T_x, T_y, T_z`` of each state as (N, 4, 4) real entries.

    Row ``a`` holds ``(O00, O11, Re O01, Im O01)`` of ``O = Tr_HO[(1 (x)
    sigma_a) rho]`` with ``sigma_0 = 1``, so ``O_0 = rho_Q``.
    """
    r = np.asarray(states).reshape(-1, 2, 2, 2, 2)
    ops = np.einsum("akh,nqhpk->naqp", _PAULI, r)
    return np.stack(
        [ops[..., 0, 0].real, ops[..., 1, 1].real, ops[..., 0, 1].real, ops[..., 0, 1].imag],
        axis=-1,
    )


def bloch_axes(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Unit vectors ``(sin t cos p, sin t sin p, cos t)`` stacked on a last axis."""
    s = np.sin(thetas)
    return np.stack([s * np.cos(phis), s * np.sin(phis), np.cos(thetas)], axis=-1)


def conditional_entropy(ops: np.ndarray, axes: np.ndarray) -> np.ndarray:
    """Measured conditional entropy (bits) of each state along each axis.

    ``ops`` is the (N, 4, 4) output of :func:`measurement_operators`;
    ``axes`` holds unit vectors, either (K, 3) shared by every state or
    (N, K, 3) per state.  Returns (N, K).
    """
    total = 0.0
    for sign in (1.0, -1.0):
        m = (ops[:, None, 0, :] + sign * (axes @ ops[:, 1:, :])) / 2.0
        p = m[..., 0] + m[..., 1]
        det = m[..., 0] * m[..., 1] - m[..., 2] ** 2 - m[..., 3] ** 2
        total = total - _neg_weighted_entropy(p, det)
    return total


def _neg_weighted_entropy(p: np.ndarray, det: np.ndarray) -> np.ndarray:
    """``-p S(M/p)`` (bits) of 2x2 Hermitian ``M`` from its trace ``p`` and determinant.

    The larger eigenvalue is ``(p + sqrt(p^2 - 4 det))/2`` and the smaller one
    ``det`` divided by it; an ``M`` with ``p <= _P_FLOOR`` gives zero.
    """
    big = (p + np.sqrt(np.maximum(p * p - 4.0 * det, 0.0))) / 2.0
    live = p > _P_FLOOR
    safe_p = np.where(live, p, 1.0)
    hi = np.clip(big / safe_p, 0.0, 1.0)
    lo = np.clip(det / np.where(live, big, 1.0) / safe_p, 0.0, 1.0)
    terms = sum(np.where(f > 0.0, f * np.log2(np.where(f > 0.0, f, 1.0)), 0.0) for f in (hi, lo))
    return np.where(live, p * terms, 0.0)


def x_state_terms(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(coefficients, best azimuth)`` of X-shaped states for :func:`x_state_entropy`.

    An X state has no coherence-order +-1 entries, so ``rho_Q`` and ``T_z``
    are diagonal and ``T_x``, ``T_y`` hold only ``rho_03`` and ``rho_12``.
    Along the axis at Bloch angles ``(theta, phi)`` the off-diagonal entry of
    ``M_+-`` is ``+-sin(theta) (rho_03 e^{i phi} + rho_12 e^{-i phi})/2``, whose
    modulus, and so the information gained, is largest at ``phi = (arg rho_12
    - arg rho_03)/2`` (0 when either entry is 0: then every ``phi`` is
    optimal).  Row ``k`` of the coefficients is ``(rho_Q00, rho_Q11, T_z00,
    T_z11, (|rho_03| + |rho_12|)^2 / 4)``.
    """
    states = np.asarray(states)
    diag = states[:, [0, 1, 2, 3], [0, 1, 2, 3]].real
    rho03, rho12 = states[:, 0, 3], states[:, 1, 2]
    coherent = (rho03 != 0.0) & (rho12 != 0.0)
    phi = np.where(coherent, (np.angle(rho12) - np.angle(rho03)) / 2.0, 0.0)
    coefficients = np.stack([diag[:, 0] + diag[:, 1], diag[:, 2] + diag[:, 3],
                             diag[:, 0] - diag[:, 1], diag[:, 2] - diag[:, 3],
                             (np.abs(rho03) + np.abs(rho12)) ** 2 / 4.0], axis=-1)
    return coefficients, np.mod(phi, 2.0 * np.pi)


def x_state_entropy(coefficients: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Measured conditional entropy (bits) of X states at each polar angle and the best azimuth.

    ``coefficients`` is the (N, 5) output of :func:`x_state_terms`;
    ``thetas`` is (K,) shared by every state or (N, K) per state.  Returns
    (N, K).  With ``x = cos(theta)`` the measured states are ``M_+- =
    diag(rho_Q00 +- x T_z00, rho_Q11 +- x T_z11)/2`` plus the off-diagonal
    entry of squared modulus ``sin(theta)^2 (|rho_03| + |rho_12|)^2 / 4``.
    """
    x = _SIGNS * np.cos(thetas)
    a = (coefficients[:, 0:1] + x * coefficients[:, 2:3]) / 2.0
    b = (coefficients[:, 1:2] + x * coefficients[:, 3:4]) / 2.0
    plus, minus = _neg_weighted_entropy(a + b, a * b - np.sin(thetas) ** 2 * coefficients[:, 4:])
    return -plus - minus


def conditional_entropy_grid(
    states: np.ndarray, thetas: np.ndarray, phis: np.ndarray
) -> np.ndarray:
    """Measured conditional entropy of an (N, 4, 4) stack over a Bloch-angle grid.

    Returns an (N, n_theta, n_phi) array in bits, computed a block of states
    at a time, with ``_BLOCK_PAIRS`` state-axis pairs per block.
    """
    states = np.asarray(states)
    th, ph = np.meshgrid(np.asarray(thetas, dtype=float), np.asarray(phis, dtype=float),
                         indexing="ij")
    axes = bloch_axes(th.ravel(), ph.ravel())
    out = np.empty((states.shape[0], th.size))
    chunk = max(1, _BLOCK_PAIRS // th.size)
    for start in range(0, states.shape[0], chunk):
        block = states[start:start + chunk]
        out[start:start + chunk] = conditional_entropy(measurement_operators(block), axes)
    return out.reshape(states.shape[0], *th.shape)
