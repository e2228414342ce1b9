"""Correlation measures of the 4x4 pair state, in bits.

Every measure takes one state ``(4, 4)`` or a stack ``(N, 4, 4)`` and works
on the whole stack in array code.  :func:`discord` returns every measure at
once as one :class:`Correlations` record of columns: a float per field for
one state, an (N,) array per field for a stack.

Negativity is computed from the eigenvalues of the partial transpose taken
on the HO side.  Every call checks those eigenvalues as a whole spectrum:
their first three power sums and their product must match the traces of the
first three powers and the determinant of the partial transpose (Newton's
identities), within ``SPECTRUM_TOL`` relative to the largest eigenvalue
magnitude.

Discord minimizes the measured conditional entropy over projective
measurements of the HO part, that is over Bloch axes ``n`` (``n`` and ``-n``
define the same measurement).  The search has two stages, each run for the
whole stack at once:

* a coarse hemisphere scan of 9 x 16 Bloch angles (121 distinct axes) by
  :func:`bathlink._kernels.conditional_entropy_grid`;
* from each state's best scan point and from the best other local minimum
  of the scan, a safeguarded Newton iteration in tangent-plane coordinates
  around the current axis, from a 9-point finite-difference stencil and a
  5-point step-length search (13 evaluations per iteration).  Each search
  stops as soon as an iteration gains no more than one unit in the last
  place.

A search moves only to a strictly lower value, so the result never loses to
the scan optimum or to any stencil point.  On average a state costs about
170 evaluations (X-shaped trajectory states) to 290 (generic ones, and the
flat valleys at eta = 1): the 144 scan points and 2 to 11 iterations over
its two searches.

A search still gaining after ``NEWTON_STEPS`` iterations keeps its best
point and is reported by a WARNING on this module's logger.  That happens
where the minimum lies on a ring along which the entropy varies by less than
about 1e-9, below what the stencil resolves; the best point is then within
about that variation of the minimum.
"""

from __future__ import annotations

import logging
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

#: Largest trace deviation an entropy input may have.
ENTROPY_TRACE_TOL = 1e-6
#: Coarse scan: theta in [0, pi/2] in steps of pi/16 (pole and equator
#: included), phi in [0, 2*pi) in steps of pi/8.
SCAN_THETAS = np.linspace(0.0, math.pi / 2.0, 9)
SCAN_PHIS = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
#: Scan points that repeat another one's measurement: the pole's copies and
#: the second half of the equator (``-n`` is ``n``).  They seed nothing.
_SCAN_REPEATS = np.zeros((SCAN_THETAS.size, SCAN_PHIS.size), dtype=bool)
_SCAN_REPEATS[0, 1:] = True
_SCAN_REPEATS[-1, SCAN_PHIS.size // 2:] = True


def _scan_neighbours() -> np.ndarray:
    """Flat indices of the 3 x 3 grid block around each scan point, as measurements.

    Past the pole the axis continues at ``phi + pi``; past the equator it
    continues as ``-n``, at ``pi - theta`` and ``phi + pi``.  Indices are
    those of the first copy of a repeated measurement.
    """
    nt, nphi = SCAN_THETAS.size, SCAN_PHIS.size
    half = nphi // 2

    def index(i: int, j: int) -> int:
        if i < 0:
            i, j = -i, j + half
        elif i >= nt:
            i, j = 2 * (nt - 1) - i, j + half
        j %= nphi
        if i == 0:
            j = 0
        elif i == nt - 1 and j >= half:
            j -= half
        return i * nphi + j

    return np.array([[index(i + di, j + dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
                     for i in range(nt) for j in range(nphi)])


_SCAN_NEIGHBOURS = _scan_neighbours()
#: Newton iterations a search may take before it is reported unconverged.
NEWTON_STEPS = 12
#: Spacing of the 9-point finite-difference stencil (tangent-plane units).
_STENCIL_H = 1e-4
_STENCIL = _STENCIL_H * np.array(
    [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)], dtype=float
)
#: Multiples of the Newton step tried by the step-length search.
_STEP_SCALES = np.array([16.0, 4.0, 1.0, 0.25, 0.0625])
#: Longest Newton step before scaling (tangent-plane units).
_MAX_STEP = 0.5
#: Hessian eigenvalues are used by magnitude, so every step descends, and
#: raised to at least this (bits per squared tangent unit): near the rounding
#: noise of second differences at ``_STENCIL_H``.
_CURVATURE_FLOOR = 1e-9
#: A search has converged once an iteration gains no more than this: one
#: unit in the last place of an entropy of 1 bit.
_GAIN_TOL = 2.0**-52

log = logging.getLogger(__name__)


def _stack(rho: np.ndarray) -> tuple[np.ndarray, bool]:
    """``(states as (N, 4, 4), whether one state was given)``."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4) or rho.ndim not in (2, 3):
        raise ValueError(f"expected a (4, 4) state or an (N, 4, 4) stack, got {rho.shape}")
    return (rho[None], True) if rho.ndim == 2 else (rho, False)


def negativity(rho: np.ndarray) -> float | np.ndarray:
    """Absolute sum of negative partial-transpose eigenvalues.

    Equals ``(||rho^T_HO||_1 - tr rho)/2``.  The eigenvalues come from
    ``eigvalsh`` of the Hermitian part of the partial transpose, and
    :func:`_check_spectrum` holds them to the partial transpose itself within
    ``SPECTRUM_TOL``.  Zero exactly for states with positive partial
    transpose.  A float for one state, an (N,) array for a stack.
    """
    states, single = _stack(rho)
    pt = partial_transpose_second(states)
    eigs = np.linalg.eigvalsh((pt + pt.conj().swapaxes(-1, -2)) / 2)
    _check_spectrum(states, pt, eigs)
    value = ((np.abs(eigs) - eigs) / 2.0).sum(axis=-1)
    return float(value[0]) if single else value


#: Largest gap between a power sum (or the product) of the computed
#: eigenvalues and the trace of that power (or the determinant) of the
#: partial transpose, relative to the power of the largest eigenvalue
#: magnitude.  The gaps measured on random mixed and pure states and on the
#: region and heatmap states stay below 5e-15.
SPECTRUM_TOL = 1e-12
_IDENTITIES = (("sum of eigenvalues", "tr(rho)"), ("sum of squares", "tr(pt^2)"),
               ("sum of cubes", "tr(pt^3)"), ("product of eigenvalues", "det(pt)"))


def _check_spectrum(states: np.ndarray, pt: np.ndarray, eigs: np.ndarray) -> None:
    """Raise unless each row of ``eigs`` is the spectrum of the partial transpose ``pt``.

    ``sum lambda^k`` (k = 1, 2, 3) and ``prod lambda`` must match ``tr(pt^k)``
    and ``det(pt)`` within ``SPECTRUM_TOL * s^k``, ``s`` the largest
    ``|lambda|``; ``tr(pt)`` is taken as ``tr(rho)`` of ``states``, which
    the partial transpose keeps.  By Newton's identities these four numbers
    fix the characteristic polynomial, so every eigenvalue is checked.  The
    traces are compared as complex numbers, so a ``pt`` that is not
    Hermitian fails at first order in its anti-Hermitian part.  A two-qubit
    partial transpose has at most one negative eigenvalue (Sanpera, Tarrach
    & Vidal, PRA 58, 826 (1998)), so a second one below
    ``-SPECTRUM_TOL * s`` fails too.  A non-finite gap fails.
    """
    pt2 = pt @ pt
    traces = np.stack([np.einsum("nii->n", states), np.einsum("nii->n", pt2),
                       np.einsum("nij,nji->n", pt2, pt), np.linalg.det(pt)], axis=-1)
    squares = eigs * eigs
    sums = np.stack([eigs.sum(axis=-1), squares.sum(axis=-1), (squares * eigs).sum(axis=-1),
                     eigs.prod(axis=-1)], axis=-1)
    scale = np.maximum(eigs[:, -1], -eigs[:, 0])[:, None] ** np.arange(1, 5)
    bad = ~(np.abs(traces - sums) <= SPECTRUM_TOL * scale)
    if bad.any():
        k, j = np.argwhere(bad)[0]
        ours, theirs = _IDENTITIES[j]
        raise NumericalInvariantError(
            f"negativity: state {k}: {ours} {sums[k, j]:.15g} does not match "
            f"{theirs} {complex(traces[k, j]):.15g}"
        )
    second = eigs[:, 1] < -SPECTRUM_TOL * scale[:, 0]
    if second.any():
        k = int(np.argmax(second))
        raise NumericalInvariantError(
            f"negativity: state {k}: two negative partial-transpose eigenvalues "
            f"{eigs[k, 0]:.3e} and {eigs[k, 1]:.3e}"
        )


def _checked_entropies(rho: np.ndarray) -> np.ndarray:
    """Von Neumann entropies (bits) of the matrices on the last two axes.

    Every trace must be 1 within ``ENTROPY_TRACE_TOL``; eigenvalues of the
    Hermitian part below zero are clipped to zero.
    """
    tr = np.trace(rho, axis1=-2, axis2=-1).real.ravel()
    worst = tr[np.argmax(np.abs(tr - 1.0))]
    if abs(worst - 1.0) > ENTROPY_TRACE_TOL:
        raise ConfigError(f"entropy input has trace {worst:.9g}, expected 1")
    eigs = np.linalg.eigvalsh((rho + rho.conj().swapaxes(-1, -2)) / 2)
    eigs = np.clip(eigs, 0.0, None)
    terms = np.where(eigs > 0.0, eigs * np.log2(np.where(eigs > 0.0, eigs, 1.0)), 0.0)
    return np.maximum(-terms.sum(axis=-1), 0.0)


def _entropies(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(S(rho_Q), S(rho_Q) + S(rho_HO) - S(rho))`` of an (N, 4, 4) stack, in bits."""
    s_q = _checked_entropies(partial_trace(states, "first"))
    s_ho = _checked_entropies(partial_trace(states, "second"))
    return s_q, s_q + s_ho - _checked_entropies(states)


def mutual_information(rho: np.ndarray) -> float | np.ndarray:
    """``S(rho_Q) + S(rho_HO) - S(rho)`` total correlations (bits).

    A float for one state, an (N,) array for a stack.
    """
    states, single = _stack(rho)
    total = _entropies(states)[1]
    return float(total[0]) if single else total


@dataclass(frozen=True)
class Correlations:
    """Every correlation measure of a state or a stack (entropies in bits).

    Each field is a float for one state and an (N,) array for a stack.
    ``mutual_info = classical_corr + discord`` holds by construction;
    ``theta`` in [0, pi/2] and ``phi`` in [0, 2 pi) are the Bloch angles of
    the optimal measured axis on the HO side (radians).
    """

    negativity: float | np.ndarray
    mutual_info: float | np.ndarray
    discord: float | np.ndarray
    classical_corr: float | np.ndarray
    theta: float | np.ndarray
    phi: float | np.ndarray


def _tangent_basis(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two unit vectors that complete each (P, 3) unit axis to an orthonormal frame."""
    ref = np.where(np.abs(axis[:, 2:]) < 0.9, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
    e1 = np.cross(axis, ref)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    return e1, np.cross(axis, e1)


def _newton_step(ops, axis, value):
    """One safeguarded Newton iteration of each search; returns its best point.

    Around each axis ``n`` the sphere is charted by tangent-plane coordinates
    ``(u, v) -> (n + u e1 + v e2)/|...|``, which are regular everywhere (the
    angles are not, at the pole).  A 9-point stencil gives the gradient and
    Hessian there; the step uses the Hessian's eigenvalues by magnitude with
    a floor, so it descends at saddles and in flat valleys alike, and five
    multiples of it are tried.  Returns the lowest of the eight stencil
    points and five trial points with its value and tangent-plane distance.
    """
    e1, e2 = _tangent_basis(axis)

    def chart(uv):
        m = axis[:, None] + uv[..., :1] * e1[:, None] + uv[..., 1:] * e2[:, None]
        return m / np.linalg.norm(m, axis=-1, keepdims=True)

    stencil = np.broadcast_to(_STENCIL, (axis.shape[0], *_STENCIL.shape))
    near_axes = chart(stencil)
    near = conditional_entropy(ops, near_axes)
    h = _STENCIL_H
    grad = np.stack([near[:, 0] - near[:, 1], near[:, 2] - near[:, 3]], axis=-1) / (2.0 * h)
    uu = (near[:, 0] - 2.0 * value + near[:, 1]) / h**2
    vv = (near[:, 2] - 2.0 * value + near[:, 3]) / h**2
    uv = (near[:, 4] - near[:, 5] - near[:, 6] + near[:, 7]) / (4.0 * h * h)
    curv, vecs = np.linalg.eigh(np.stack([np.stack([uu, uv], -1), np.stack([uv, vv], -1)], -2))
    curv = np.maximum(np.abs(curv), _CURVATURE_FLOOR)
    step = -np.einsum("pij,pj->pi", vecs, np.einsum("pij,pi->pj", vecs, grad) / curv)
    length = np.linalg.norm(step, axis=1)
    step *= (_MAX_STEP / np.maximum(length, _MAX_STEP))[:, None]
    trials = step[:, None] * _STEP_SCALES[:, None]
    trial_axes = chart(trials)
    values = np.concatenate([near, conditional_entropy(ops, trial_axes)], axis=1)
    rows = np.arange(axis.shape[0])
    j = np.argmin(values, axis=1)
    moves = np.concatenate([stencil, trials], axis=1)[rows, j]
    return (np.concatenate([near_axes, trial_axes], axis=1)[rows, j], values[rows, j],
            np.linalg.norm(moves, axis=1))


def _minimize_conditional_entropy(states: np.ndarray):
    """Least measured conditional entropy of each state and its Bloch angles.

    Scans the coarse hemisphere grid, then runs a Newton search
    (:func:`_newton_step`) from each state's best scan point and from the
    best other local minimum of the scan.  A search moves only to a strictly
    lower value and stops once an iteration gains no more than
    ``_GAIN_TOL``; each search runs on its own, so a state's result does not
    depend on the rest of the stack.  Searches still gaining after
    ``NEWTON_STEPS`` iterations keep their best point and are logged as one
    WARNING with their count and largest final move.
    """
    n = states.shape[0]
    rows = np.arange(n)
    grid = conditional_entropy_grid(states, SCAN_THETAS, SCAN_PHIS).reshape(n, -1)
    grid = np.where(_SCAN_REPEATS.ravel(), np.inf, grid)
    first = np.argmin(grid, axis=1)
    others = np.where(np.arange(grid.shape[1]) == first[:, None], np.inf, grid)
    dips = others <= grid[:, _SCAN_NEIGHBOURS].min(axis=-1)
    second = np.where(dips.any(axis=1), np.argmin(np.where(dips, others, np.inf), axis=1),
                      np.argmin(others, axis=1))
    seeds = np.stack([first, second], axis=1)  # the next-best point if no other dip
    n_seeds = seeds.shape[1]
    axis = bloch_axes(SCAN_THETAS[seeds // SCAN_PHIS.size], SCAN_PHIS[seeds % SCAN_PHIS.size])
    axis = axis.reshape(-1, 3)
    value = grid[rows[:, None], seeds].ravel()
    ops = np.repeat(measurement_operators(states), n_seeds, axis=0)
    live = np.arange(value.size)
    moved_by = np.zeros(value.size)
    for _ in range(NEWTON_STEPS):
        if live.size == 0:
            break
        new_axis, new_value, dist = _newton_step(ops[live], axis[live], value[live])
        gain = value[live] - new_value
        better = gain > 0.0
        axis[live[better]] = new_axis[better]
        value[live[better]] = new_value[better]
        moved_by[live] = np.where(better, dist, 0.0)
        live = live[gain > _GAIN_TOL]
    if live.size:
        log.warning(
            "discord: %d of %d states reached %d Newton iterations unconverged "
            "(worst final step %.3g)",
            np.unique(live // n_seeds).size, n, NEWTON_STEPS, moved_by[live].max(),
        )
    value = value.reshape(n, n_seeds)
    k = np.argmin(value, axis=1)
    best_axis = axis.reshape(n, n_seeds, 3)[rows, k]
    # -n is the same measurement: report the axis on the upper hemisphere
    best_axis = np.where(best_axis[:, 2:] < 0.0, -best_axis, best_axis)
    theta = np.arctan2(np.hypot(best_axis[:, 0], best_axis[:, 1]), best_axis[:, 2])
    phi = np.mod(np.arctan2(best_axis[:, 1], best_axis[:, 0]), 2.0 * math.pi)
    return value[rows, k], theta, np.where(phi < 2.0 * math.pi, phi, 0.0)


def discord(rho: np.ndarray) -> Correlations:
    """Quantum discord with respect to projective measurements on HO.

    The classical correlation ``J = S(rho_Q) - min S(rho_Q|{measurement})``
    is maximized over measurement axes: a coarse hemisphere scan, then
    Newton searches from the best scan point and the best other local
    minimum of the scan, about 170-290 entropy evaluations per state (see
    the module docstring).  It meets the Nelder-Mead oracle of the tests
    within 1e-15 on the trajectory states, including the flat valleys at
    ``eta = 1``.  Discord is ``I - J``.  Returns one :class:`Correlations`
    record: floats for one state, (N,) arrays for an (N, 4, 4) stack.  Each
    state's result does not depend on the rest of the stack.
    """
    states, single = _stack(rho)
    s_q, total = _entropies(states)
    best, theta, phi = _minimize_conditional_entropy(states)
    classical = s_q - best
    fields = {"negativity": negativity(states), "mutual_info": total,
              "discord": total - classical, "classical_corr": classical,
              "theta": theta, "phi": phi}
    if single:
        fields = {name: float(column[0]) for name, column in fields.items()}
    return Correlations(**fields)
