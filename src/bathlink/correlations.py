"""Correlation measures of the 4x4 pair state, in bits.

Every measure takes one state ``(4, 4)`` or a stack ``(N, 4, 4)`` and works
on the whole stack in array code.

Negativity is computed from the eigenvalues of the partial transpose taken
on the HO side, with the trace-norm form kept as a live internal
cross-check.  Discord minimizes the measured conditional entropy over
projective measurements of the HO part: a hemisphere grid of Bloch angles
(``n`` and ``-n`` define the same measurement) scanned by
:func:`bathlink._kernels.conditional_entropy_grid`, then a fixed number of
pattern-search steps run for all states together.  A step moves only to a
strictly lower value, so the result never loses to the grid optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import (
    bloch_axes,
    conditional_entropy,
    conditional_entropy_grid,
    measurement_operators,
)
from .errors import ConfigError, NumericalInvariantError
from .matops import partial_trace, partial_transpose_second

#: Hemisphere grid: theta in [0, pi/2] in steps of pi/64 (pole and equator
#: included), phi in [0, 2*pi) in steps of pi/32.
GRID_THETAS = np.linspace(0.0, math.pi / 2.0, 33)
GRID_PHIS = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
#: Pattern-search steps; each halves the step size unless it moves.
REFINE_STEPS = 80
_MOVES = np.array([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)],
                  dtype=float)


def _stack(rho: np.ndarray) -> tuple[np.ndarray, bool]:
    """``(states as (N, 4, 4), whether one state was given)``."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4) or rho.ndim not in (2, 3):
        raise ValueError(f"expected a (4, 4) state or an (N, 4, 4) stack, got {rho.shape}")
    return (rho[None], True) if rho.ndim == 2 else (rho, False)


def _entropies(rho: np.ndarray) -> np.ndarray:
    """Von Neumann entropies (bits) of the matrices on the last two axes."""
    eigs = np.linalg.eigvalsh((rho + rho.conj().swapaxes(-1, -2)) / 2)
    eigs = np.clip(eigs, 0.0, None)
    terms = np.where(eigs > 0.0, eigs * np.log2(np.where(eigs > 0.0, eigs, 1.0)), 0.0)
    return np.maximum(-terms.sum(axis=-1), 0.0)


def negativity(rho: np.ndarray) -> float | np.ndarray:
    """Absolute sum of negative partial-transpose eigenvalues.

    Equals ``(||rho^T_HO||_1 - 1)/2``; both forms are evaluated and must
    agree to 1e-10.  Zero exactly for states with positive partial transpose.
    A float for one state, an (N,) array for a stack.
    """
    states, single = _stack(rho)
    pt = partial_transpose_second(states)
    eigs = np.linalg.eigvalsh((pt + pt.conj().swapaxes(-1, -2)) / 2)
    from_eigs = ((np.abs(eigs) - eigs) / 2.0).sum(axis=-1)
    singular = np.linalg.svd(pt, compute_uv=False).sum(axis=-1)
    from_norm = (singular - np.trace(states, axis1=-2, axis2=-1).real) / 2.0
    gap = np.abs(from_eigs - from_norm)
    if gap.max() >= 1e-10:
        k = int(np.argmax(gap))
        raise NumericalInvariantError(
            f"negativity routes disagree: {from_eigs[k]:.3e} vs {from_norm[k]:.3e}"
        )
    return float(from_eigs[0]) if single else from_eigs


def _checked_entropies(rho: np.ndarray, trace_tol: float = 1e-6) -> np.ndarray:
    """:func:`_entropies` after checking that every trace is 1 within ``trace_tol``."""
    tr = np.trace(rho, axis1=-2, axis2=-1).real.ravel()
    worst = tr[np.argmax(np.abs(tr - 1.0))]
    if abs(worst - 1.0) > trace_tol:
        raise ConfigError(f"entropy input has trace {worst:.9g}, expected 1")
    return _entropies(rho)


def von_neumann_entropy(rho: np.ndarray, trace_tol: float = 1e-6) -> float:
    """``-Tr(rho log2 rho)`` with eigenvalues below zero clipped to zero."""
    return float(_checked_entropies(np.asarray(rho, dtype=complex), trace_tol))


def mutual_information(rho: np.ndarray) -> float | np.ndarray:
    """``S(rho_Q) + S(rho_HO) - S(rho)`` total correlations (bits).

    A float for one state, an (N,) array for a stack.
    """
    states, single = _stack(rho)
    total = (
        _checked_entropies(partial_trace(states, "first"))
        + _checked_entropies(partial_trace(states, "second"))
        - _checked_entropies(states)
    )
    return float(total[0]) if single else total


@dataclass(frozen=True)
class MeasurementAngles:
    """Bloch angles of the measured axis on the HO side (radians)."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ConfigError(f"theta must lie in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ConfigError(f"phi must lie in [0, 2*pi), got {self.phi}")


@dataclass(frozen=True)
class CorrelationSample:
    """All correlation measures of one state (entropies in bits).

    ``mutual_info = classical_corr + discord`` holds by construction.
    """

    negativity: float
    mutual_info: float
    discord: float
    classical_corr: float
    optimal_angles: MeasurementAngles


def _hemisphere_angles(theta: np.ndarray, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angles of the same measurement with theta in [0, pi/2] and phi in [0, 2*pi)."""
    n = bloch_axes(theta, phi)
    n = np.where(n[:, 2:] < 0.0, -n, n)  # -n is the same measurement
    theta = np.arctan2(np.hypot(n[:, 0], n[:, 1]), n[:, 2])
    phi = np.mod(np.arctan2(n[:, 1], n[:, 0]), 2.0 * math.pi)
    return theta, np.where(phi < 2.0 * math.pi, phi, 0.0)


def _minimize_conditional_entropy(states: np.ndarray):
    """Least measured conditional entropy of each state and its Bloch angles.

    Scans the hemisphere grid, then runs ``REFINE_STEPS`` steps of a compass
    search around each state's best point: evaluate the eight neighbours at
    the current step sizes, move to the best one if it is strictly lower,
    otherwise halve the steps.
    """
    n = states.shape[0]
    rows = np.arange(n)
    grid = conditional_entropy_grid(states, GRID_THETAS, GRID_PHIS).reshape(n, -1)
    k = np.argmin(grid, axis=1)
    best = grid[rows, k]
    theta = GRID_THETAS[k // GRID_PHIS.size]
    phi = GRID_PHIS[k % GRID_PHIS.size]
    step = np.tile([GRID_THETAS[1] / 2.0, GRID_PHIS[1] / 2.0], (n, 1))
    ops = measurement_operators(states)
    for _ in range(REFINE_STEPS):
        cand_theta = theta[:, None] + step[:, None, 0] * _MOVES[:, 0]
        cand_phi = phi[:, None] + step[:, None, 1] * _MOVES[:, 1]
        values = conditional_entropy(ops, bloch_axes(cand_theta, cand_phi))
        j = np.argmin(values, axis=1)
        moved = values[rows, j] < best
        best = np.where(moved, values[rows, j], best)
        theta = np.where(moved, cand_theta[rows, j], theta)
        phi = np.where(moved, cand_phi[rows, j], phi)
        step = np.where(moved[:, None], step, step / 2.0)
    return best, *_hemisphere_angles(theta, phi)


def discord(rho: np.ndarray) -> CorrelationSample | list[CorrelationSample]:
    """Quantum discord with respect to projective measurements on HO.

    The classical correlation ``J = S(rho_Q) - min S(rho_Q|{measurement})``
    is maximized over measurement axes (hemisphere grid, then pattern
    search); discord is ``I - J``.  One state gives a
    :class:`CorrelationSample`; an (N, 4, 4) stack gives a list of N.
    """
    states, single = _stack(rho)
    s_q = _checked_entropies(partial_trace(states, "first"))
    total = mutual_information(states)
    best, theta, phi = _minimize_conditional_entropy(states)
    classical = s_q - best
    samples = [
        CorrelationSample(
            negativity=float(neg),
            mutual_info=float(mi),
            discord=float(mi - j),
            classical_corr=float(j),
            optimal_angles=MeasurementAngles(float(th), float(ph)),
        )
        for neg, mi, j, th, ph in zip(negativity(states), total, classical, theta, phi)
    ]
    return samples[0] if single else samples
