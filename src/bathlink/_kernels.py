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
"""

from __future__ import annotations

import numpy as np

_P_FLOOR = 1e-12
#: State-axis pairs per grid-scan block: the scan's temporaries stay near
#: 1 MB whatever the length of the stack or the size of the grid.
_BLOCK_PAIRS = 6144

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
    r = np.asarray(states, dtype=complex).reshape(-1, 2, 2, 2, 2)
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
        big = (p + np.sqrt(np.maximum(p * p - 4.0 * det, 0.0))) / 2.0
        live = p > _P_FLOOR
        safe_p = np.where(live, p, 1.0)
        hi = np.clip(big / safe_p, 0.0, 1.0)
        lo = np.clip(det / np.where(live, big, 1.0) / safe_p, 0.0, 1.0)
        terms = sum(np.where(f > 0.0, f * np.log2(np.where(f > 0.0, f, 1.0)), 0.0) for f in (hi, lo))
        total = total - np.where(live, p * terms, 0.0)
    return total


def conditional_entropy_grid(
    states: np.ndarray, thetas: np.ndarray, phis: np.ndarray
) -> np.ndarray:
    """Measured conditional entropy of an (N, 4, 4) stack over a Bloch-angle grid.

    Returns an (N, n_theta, n_phi) array in bits, computed a block of states
    at a time, with ``_BLOCK_PAIRS`` state-axis pairs per block.
    """
    states = np.asarray(states, dtype=complex)
    th, ph = np.meshgrid(np.asarray(thetas, dtype=float), np.asarray(phis, dtype=float),
                         indexing="ij")
    axes = bloch_axes(th.ravel(), ph.ravel())
    out = np.empty((states.shape[0], th.size))
    chunk = max(1, _BLOCK_PAIRS // th.size)
    for start in range(0, states.shape[0], chunk):
        block = states[start:start + chunk]
        out[start:start + chunk] = conditional_entropy(measurement_operators(block), axes)
    return out.reshape(states.shape[0], *th.shape)
