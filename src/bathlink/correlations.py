"""Correlation measures of the 4x4 pair state, in bits.

Every measure takes one state ``(4, 4)`` or a stack ``(N, 4, 4)``, as
:func:`bathlink.matops._states` requires, and works on the whole stack in
array code; a state with an entry that is not finite raises
:class:`NumericalInvariantError`, and an empty stack gives empty columns.
:func:`discord` returns every measure at once as one :class:`Correlations`
record of columns: a float per field for one state, an (N,) array per field
for a stack.

Negativity is computed from the eigenvalues of the partial transpose taken
on the HO side.  A state whose partial transpose a vectorized LDL^T
factorization proves positive definite, by a margin of ``SPECTRUM_TOL``
relative to its trace, has negativity 0.0 without an eigensolver call; a
stack is split that way only where at least half of it is certified.  Every
call checks each state's spectrum as a whole: its first three power sums
and its product (from the eigenvalues, or for a certified state from the
traces of the powers and the determinant of the Hermitian part) must match
the traces of the first three powers and the determinant of the partial
transpose (Newton's identities), within ``SPECTRUM_TOL`` relative to the
largest eigenvalue magnitude.

Discord minimizes the measured conditional entropy over projective
measurements of the HO part, that is over Bloch axes ``n`` (``n`` and ``-n``
define the same measurement).  Each state takes one of two routes, each run
for its whole part of the stack at once.  Both scan, then search from the
state's best scan point and from the best other local minimum of the scan;
where the scan has no other local minimum, the general route searches from
the next-best point and the X route makes no second search.

* X-shaped states, whose eight coherence-order +-1 entries are all exactly
  0.0 (every state of a trajectory from ``|0>_Q |1>_HO`` is one), have their
  best azimuth ``phi`` in closed form, so only the polar angle is searched:
  a scan of 33 values of ``theta`` in ``[0, pi/2]``, which include the 9 of
  the general scan, then a safeguarded Newton iteration in ``theta`` from a
  3-point stencil and a 5-point step-length search (7 evaluations per
  iteration).  The optimum may lie inside the interval (Yurischev, Quantum
  Inf. Process. 14, 3399 (2015)), so neither end is assumed.
* Every other state: a coarse hemisphere scan of 9 x 16 Bloch angles (121
  distinct axes) by :func:`bathlink._kernels.conditional_entropy_grid`, then
  a safeguarded Newton iteration in tangent-plane coordinates around the
  current axis, from a 9-point finite-difference stencil and a 5-point
  step-length search (13 evaluations per iteration).

A search moves only to a strictly lower value, so the result never loses to
the scan optimum or to any stencil point, and it stops as soon as an
iteration gains no more than one unit in the last place.  On the test
agreement sets a state costs about 40 evaluations on the X route (the
canonical trajectory, Bell-diagonal states) and 250-260 on the general one
(random, RK4 and adversarial states).

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
    x_state_entropy,
    x_state_terms,
)
from .errors import ConfigError, NumericalInvariantError
from .matops import (_COHERENCE_ORDER, _positive_definite, _states, partial_trace,
                     partial_transpose_second)

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
#: The polar-angle stencil of the X-state route.
_THETA_STENCIL = np.array([_STENCIL_H, -_STENCIL_H])
#: X-state scan: theta in [0, pi/2] in steps of pi/64, which includes
#: ``SCAN_THETAS``, with the neighbours of each point mirrored at both ends.
_X_SCAN_THETAS = np.linspace(0.0, math.pi / 2.0, 4 * (SCAN_THETAS.size - 1) + 1)
_X_INDEX = np.arange(_X_SCAN_THETAS.size)
_X_SCAN_NEIGHBOURS = np.stack([np.abs(_X_INDEX - 1), _X_INDEX,
                               np.minimum(_X_INDEX + 1, 2 * _X_INDEX[-1] - _X_INDEX - 1)], axis=-1)
#: Entries of coherence order +-1; a state with all eight exactly 0.0 is X-shaped.
_ORDER_ONE = np.abs(_COHERENCE_ORDER) == 1

log = logging.getLogger(__name__)


def _require_finite(finite: np.ndarray, single: bool) -> None:
    """Raise on the first state whose ``finite`` flag, from :func:`bathlink.matops._states`,
    is False, naming it as :func:`bathlink.dynamics.validate_density_matrix` does."""
    if not finite.all():
        k = int(np.argmin(finite))
        raise NumericalInvariantError(f"state{'' if single else f' {k}'}: entries are not finite")


def negativity(rho: np.ndarray) -> float | np.ndarray:
    """Absolute sum of negative partial-transpose eigenvalues.

    Equals ``(||rho^T_HO||_1 - tr rho)/2``, and is zero exactly for states
    with positive partial transpose.  The eigenvalues come from ``eigvalsh``
    of ``h``, the Hermitian part of the partial transpose, except on states
    that :func:`_certified` proves to have ``lambda_min(h) > SPECTRUM_TOL
    |tr rho|``: their value is 0.0, which is also what ``eigvalsh`` gives
    them, since that margin is far above its error.  :func:`_check_spectrum`
    holds every state's spectrum to the partial transpose itself.  A float
    for one state, an (N,) array for a stack.
    """
    states, single, finite = _states(rho)
    _require_finite(finite, single)
    pt = partial_transpose_second(states)
    h = pt + pt.conj().swapaxes(-1, -2)
    h /= 2
    traces = _traces(states, pt)
    certified = _certified(h, traces)
    if certified is None:
        solved = slice(None)
        eigs = np.linalg.eigvalsh(h)
        sums, scale = _power_sums(eigs)
    else:
        solved = np.flatnonzero(~certified)
        sums, scale = np.empty((len(states), 4)), np.empty(len(states))
        sums[certified], scale[certified] = _trace_sums(h[certified])
        eigs = np.linalg.eigvalsh(h[solved]) if solved.size else np.empty((0, 4))
        sums[solved], scale[solved] = _power_sums(eigs)
    _check_spectrum(traces, sums, scale)
    _check_one_negative(eigs, scale[solved], np.arange(len(states))[solved])
    value = np.zeros(len(states))
    value[solved] = ((np.abs(eigs) - eigs) / 2.0).sum(axis=-1)
    return float(value[0]) if single else value


def _certified(h: np.ndarray, traces: np.ndarray) -> np.ndarray | None:
    """The states whose ``h - SPECTRUM_TOL |tr rho| 1`` the state check's LDL^T factorization,
    :func:`bathlink.matops._positive_definite`, proves positive definite, as a mask; None
    where fewer than half of the stack are.  Its rounding, of order ``5 * 2^-53 |tr rho|``,
    is far below that margin.

    Solving part of a stack costs more than solving all of it unless that
    part is at most about half.  ``traces`` are :func:`_traces`; a state
    with ``det(pt) <= 0`` has an eigenvalue ``<= 0`` (up to rounding) and
    cannot be certified, so where those are more than half the stack the
    factorization is not run.
    """
    if 2 * np.count_nonzero(traces[:, 3].real > 0.0) < len(h):
        return None
    certified = _positive_definite(h, SPECTRUM_TOL * np.abs(traces[:, 0]))
    return certified if 2 * np.count_nonzero(certified) >= len(h) else None


#: Largest gap between a power sum (or the product) of the computed
#: eigenvalues and the trace of that power (or the determinant) of the
#: partial transpose, relative to the power of the largest eigenvalue
#: magnitude.  The gaps measured on random mixed and pure states and on the
#: region and heatmap states stay below 5e-15.  Relative to ``|tr rho|``, it
#: is also the margin by which :func:`_certified` proves a spectrum positive.
SPECTRUM_TOL = 1e-12
_IDENTITIES = (("sum of eigenvalues", "tr(rho)"), ("sum of squares", "tr(pt^2)"),
               ("sum of cubes", "tr(pt^3)"), ("product of eigenvalues", "det(pt)"))


#: Column pairs ``(j, k)`` of the 2x2 minors, and the Laplace sign of each
#: product of a rows (0, 1) minor with the rows (2, 3) minor on the other two
#: columns, which sits at the reversed position.
_MINOR_J = np.array([0, 0, 0, 1, 1, 2])
_MINOR_K = np.array([1, 2, 3, 2, 3, 3])
_LAPLACE_SIGNS = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])


def _det4(a: np.ndarray) -> np.ndarray:
    """Determinants of an (N, 4, 4) stack by Laplace expansion along rows (0, 1)."""
    top = a[:, 0, _MINOR_J] * a[:, 1, _MINOR_K] - a[:, 0, _MINOR_K] * a[:, 1, _MINOR_J]
    bottom = a[:, 2, _MINOR_J] * a[:, 3, _MINOR_K] - a[:, 2, _MINOR_K] * a[:, 3, _MINOR_J]
    return (top * bottom[:, ::-1]) @ _LAPLACE_SIGNS


def _power_sums(eigs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(sums, s)``: the first three power sums and the product of each row of
    ``eigs`` as (N, 4), and each row's largest ``|lambda|``."""
    squares = eigs * eigs
    sums = np.stack([eigs.sum(axis=-1), squares.sum(axis=-1), (squares * eigs).sum(axis=-1),
                     eigs.prod(axis=-1)], axis=-1)
    return sums, np.maximum(eigs[:, -1], -eigs[:, 0])


def _trace_sums(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_power_sums` of the spectrum of each Hermitian ``h``, without its eigenvalues.

    The power sums are ``tr(h^k)`` and the product is ``det(h)``; ``s`` is
    ``sqrt(tr(h^2))/2``, which is at most the largest ``|lambda|`` of a 4x4
    matrix, so no bound it scales is wider than the eigenvalue route's.
    """
    sums = _traces(h, h).real
    return sums, np.sqrt(sums[:, 1]) / 2.0


def _traces(states: np.ndarray, pt: np.ndarray) -> np.ndarray:
    """``tr(pt^k)`` (k = 1, 2, 3) and ``det(pt)`` of each matrix of ``pt``, as (N, 4).

    ``tr(pt)`` is taken as ``tr(rho)`` of ``states``, which the partial
    transpose keeps; :func:`_trace_sums` passes ``h`` as both.
    """
    pt2 = pt @ pt
    return np.stack([np.einsum("nii->n", states), np.einsum("nii->n", pt2),
                     np.einsum("nij,nji->n", pt2, pt), _det4(pt)], axis=-1)


def _check_spectrum(traces: np.ndarray, sums: np.ndarray, scale: np.ndarray) -> None:
    """Raise unless each row of ``sums`` is that of the spectrum of the partial transpose.

    ``sums`` holds ``sum lambda^k`` (k = 1, 2, 3) and ``prod lambda`` of the
    spectrum of the partial transpose's Hermitian part, from
    :func:`_power_sums` or :func:`_trace_sums`.  They must match ``traces``,
    the ``tr(pt^k)`` and ``det(pt)`` of :func:`_traces`, within
    ``SPECTRUM_TOL * s^k``, ``s`` the ``scale`` of the row.  By Newton's
    identities these four numbers fix the characteristic polynomial, so
    every eigenvalue is checked.  The traces are compared as complex
    numbers, so a ``pt`` that is not Hermitian fails at first order in its
    anti-Hermitian part.  A non-finite gap fails.
    """
    bad = ~(np.abs(traces - sums) <= SPECTRUM_TOL * scale[:, None] ** np.arange(1, 5))
    if bad.any():
        k, j = np.argwhere(bad)[0]
        ours, theirs = _IDENTITIES[j]
        raise NumericalInvariantError(
            f"negativity: state {k}: {ours} {sums[k, j]:.15g} does not match "
            f"{theirs} {complex(traces[k, j]):.15g}"
        )


def _check_one_negative(eigs: np.ndarray, scale: np.ndarray, index: np.ndarray) -> None:
    """Raise if a row of ``eigs``, the partial-transpose spectrum of state ``index[row]``,
    has two eigenvalues below ``-SPECTRUM_TOL * scale``.

    A two-qubit partial transpose has at most one negative eigenvalue
    (Sanpera, Tarrach & Vidal, PRA 58, 826 (1998)).
    """
    second = eigs[:, 1] < -SPECTRUM_TOL * scale
    if second.any():
        k = int(np.argmax(second))
        raise NumericalInvariantError(
            f"negativity: state {index[k]}: two negative partial-transpose eigenvalues "
            f"{eigs[k, 0]:.3e} and {eigs[k, 1]:.3e}"
        )


def _entropy_bits(rho: np.ndarray) -> np.ndarray:
    """Von Neumann entropies (bits) of the matrices on the last two axes.

    Eigenvalues of the Hermitian part below zero are clipped to zero.
    """
    eigs = np.linalg.eigvalsh((rho + rho.conj().swapaxes(-1, -2)) / 2)
    eigs = np.clip(eigs, 0.0, None)
    terms = np.where(eigs > 0.0, eigs * np.log2(np.where(eigs > 0.0, eigs, 1.0)), 0.0)
    return np.maximum(-terms.sum(axis=-1), 0.0)


def _entropies(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(S(rho_Q), S(rho_Q) + S(rho_HO) - S(rho))`` of an (N, 4, 4) stack, in bits.

    Every trace, which the partial traces keep, must be 1 within
    ``ENTROPY_TRACE_TOL``; one that is not finite fails.
    """
    tr = np.trace(states, axis1=1, axis2=2).real
    deviation = np.abs(tr - 1.0)
    if not (deviation <= ENTROPY_TRACE_TOL).all():
        raise ConfigError(f"entropy input has trace {tr[np.argmax(deviation)]:.9g}, expected 1")
    s_q = _entropy_bits(partial_trace(states, "first"))
    s_ho = _entropy_bits(partial_trace(states, "second"))
    return s_q, s_q + s_ho - _entropy_bits(states)


def mutual_information(rho: np.ndarray) -> float | np.ndarray:
    """``S(rho_Q) + S(rho_HO) - S(rho)`` total correlations (bits).

    A float for one state, an (N,) array for a stack.
    """
    states, single, finite = _states(rho)
    _require_finite(finite, single)
    total = _entropies(states)[1]
    return float(total[0]) if single else total


@dataclass(frozen=True, eq=False)
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


def _seeds(grid: np.ndarray, neighbours: np.ndarray):
    """``(best, second, found)``: each state's best scan point and best other local minimum.

    ``neighbours[i]`` lists the scan points around point ``i`` (itself
    included); a point no higher than all of them is a local minimum.  Where
    the scan has no other local minimum (``found`` is False), ``second`` is
    the next-best point.
    """
    first = np.argmin(grid, axis=1)
    others = np.where(np.arange(grid.shape[1]) == first[:, None], np.inf, grid)
    dips = others <= grid[:, neighbours].min(axis=-1)
    found = dips.any(axis=1)
    second = np.where(found, np.argmin(np.where(dips, others, np.inf), axis=1),
                      np.argmin(others, axis=1))
    return first, second, found


def _descend(step, point: np.ndarray, value: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Run every search from ``(point, value)`` in place; return the ones still gaining.

    ``step(live, point, value)`` makes one iteration of the searches indexed
    by ``live`` and returns its best point, value and move length.  A search
    moves only to a strictly lower value and stops once an iteration gains no
    more than ``_GAIN_TOL``, or after ``NEWTON_STEPS`` iterations.  Returns
    the indices of the searches still gaining then and their last move.
    """
    live = np.arange(value.size)
    moved_by = np.zeros(value.size)
    for _ in range(NEWTON_STEPS):
        if live.size == 0:
            break
        new_point, new_value, dist = step(live, point[live], value[live])
        gain = value[live] - new_value
        better = gain > 0.0
        point[live[better]] = new_point[better]
        value[live[better]] = new_value[better]
        moved_by[live] = np.where(better, dist, 0.0)
        live = live[gain > _GAIN_TOL]
    return live, moved_by[live]


def _sphere_searches(states: np.ndarray):
    """The general route: ``(values, thetas, phis, unconverged, moves)``, two searches per state.

    Scans the coarse hemisphere grid, then runs a Newton search
    (:func:`_newton_step`) from each state's best scan point and from the
    best other local minimum of the scan, or its next-best point.  Values
    and angles are (N, 2), one column per search; ``unconverged`` holds the
    state of each search still gaining, and ``moves`` its last move.
    """
    n = states.shape[0]
    grid = conditional_entropy_grid(states, SCAN_THETAS, SCAN_PHIS).reshape(n, -1)
    grid = np.where(_SCAN_REPEATS.ravel(), np.inf, grid)
    seeds = np.stack(_seeds(grid, _SCAN_NEIGHBOURS)[:2], axis=1)
    axis = bloch_axes(SCAN_THETAS[seeds // SCAN_PHIS.size], SCAN_PHIS[seeds % SCAN_PHIS.size])
    axis = axis.reshape(-1, 3)
    value = grid[np.arange(n)[:, None], seeds].ravel()
    ops = np.repeat(measurement_operators(states), seeds.shape[1], axis=0)
    live, moves = _descend(lambda live, a, v: _newton_step(ops[live], a, v), axis, value)
    # -n is the same measurement: report the axis on the upper hemisphere
    axis = np.where(axis[:, 2:] < 0.0, -axis, axis)
    theta = np.arctan2(np.hypot(axis[:, 0], axis[:, 1]), axis[:, 2])
    phi = np.mod(np.arctan2(axis[:, 1], axis[:, 0]), 2.0 * math.pi)
    phi = np.where(phi < 2.0 * math.pi, phi, 0.0)
    return (value.reshape(n, -1), theta.reshape(n, -1), phi.reshape(n, -1),
            live // seeds.shape[1], moves)


def _theta_step(coefficients, theta, value):
    """One safeguarded Newton iteration in the polar angle of X states; returns its best point.

    The entropy is even in ``theta`` about 0 and about ``pi/2`` (``n`` and
    ``-n`` are one measurement), so a 3-point stencil and the trial points
    need no boundary rule: a point outside ``[0, pi/2]`` is folded back onto
    its mirror image, which has the same value.  The step uses the second
    difference by magnitude with a floor, and five multiples of it are tried.
    Returns the lowest of the two stencil points and five trial points with
    its value and move length.
    """
    h = _STENCIL_H
    near = x_state_entropy(coefficients, theta[:, None] + _THETA_STENCIL)
    grad = (near[:, 0] - near[:, 1]) / (2.0 * h)
    curv = np.maximum(np.abs(near[:, 0] - 2.0 * value + near[:, 1]) / h**2, _CURVATURE_FLOOR)
    step = np.clip(-grad / curv, -_MAX_STEP, _MAX_STEP)
    trials = step[:, None] * _STEP_SCALES
    values = np.concatenate([near, x_state_entropy(coefficients, theta[:, None] + trials)], axis=1)
    rows = np.arange(theta.size)
    j = np.argmin(values, axis=1)
    moves = np.concatenate([np.broadcast_to(_THETA_STENCIL, near.shape), trials], axis=1)[rows, j]
    folded = np.mod(theta + moves, math.pi)
    return np.minimum(folded, math.pi - folded), values[rows, j], np.abs(moves)


def _x_searches(states: np.ndarray):
    """The X-state route: ``(values, thetas, phis, unconverged, moves)``, as the general one.

    ``phi`` is in closed form (:func:`bathlink._kernels.x_state_terms`), so
    only ``theta`` in ``[0, pi/2]`` is searched: a scan at ``_X_SCAN_THETAS``,
    then a Newton search (:func:`_theta_step`) from each state's best scan
    point, and a second one where the scan has another local minimum.  On a
    1-D scan every basin wider than a scan step shows as a local minimum, so
    the next-best point, the best point's neighbour, would seed nothing new;
    a missing second search has value ``inf``.
    """
    n = states.shape[0]
    coefficients, phi = x_state_terms(states)
    grid = x_state_entropy(coefficients, _X_SCAN_THETAS)
    first, second, found = _seeds(grid, _X_SCAN_NEIGHBOURS)
    state = np.concatenate([np.arange(n), np.flatnonzero(found)])
    seed = np.concatenate([first, second[found]])
    theta, value = _X_SCAN_THETAS[seed], grid[state, seed]
    live, moves = _descend(lambda live, t, v: _theta_step(coefficients[state[live]], t, v),
                           theta, value)
    column = (np.arange(state.size) >= n).astype(int)
    values, thetas = np.full((n, 2), np.inf), np.zeros((n, 2))
    values[state, column], thetas[state, column] = value, theta
    return values, thetas, np.broadcast_to(phi[:, None], (n, 2)), state[live], moves


def _is_x_shaped(states: np.ndarray) -> np.ndarray:
    """Whether each state's eight coherence-order +-1 entries are all exactly 0.0."""
    return ~(states[:, _ORDER_ONE] != 0.0).any(axis=1)


def _minimize_conditional_entropy(states: np.ndarray):
    """Least measured conditional entropy of each state and its Bloch angles.

    X-shaped states (every coherence-order +-1 entry exactly 0.0) go through
    :func:`_x_searches`, all others through :func:`_sphere_searches`; each
    runs up to two searches per state, and each search runs on its own, so a
    state's result does not depend on the rest of the stack.  Searches still
    gaining after ``NEWTON_STEPS`` iterations keep their best point and are
    logged as one WARNING with their count and largest final move.
    """
    n = states.shape[0]
    x_shaped = _is_x_shaped(states)
    value, theta, phi = np.empty((n, 2)), np.empty((n, 2)), np.empty((n, 2))
    stalled, moves = [np.empty(0, dtype=int)], [np.empty(0)]
    for search, idx in ((_x_searches, np.flatnonzero(x_shaped)),
                        (_sphere_searches, np.flatnonzero(~x_shaped))):
        if idx.size:
            value[idx], theta[idx], phi[idx], unconverged, moved = search(states[idx])
            stalled.append(idx[unconverged])
            moves.append(moved)
    stalled = np.concatenate(stalled)
    if stalled.size:
        log.warning(
            "discord: %d of %d states reached %d Newton iterations unconverged "
            "(worst final step %.3g)",
            np.count_nonzero(np.bincount(stalled)), n, NEWTON_STEPS, np.concatenate(moves).max(),
        )
    rows = np.arange(n)
    k = np.argmin(value, axis=1)
    return value[rows, k], theta[rows, k], phi[rows, k]


def discord(rho: np.ndarray) -> Correlations:
    """Quantum discord with respect to projective measurements on HO.

    The classical correlation ``J = S(rho_Q) - min S(rho_Q|{measurement})``
    is maximized over measurement axes: along the polar angle alone for
    X-shaped states, over the hemisphere for all others, each by a scan and
    then Newton searches from the best scan point and the best other local
    minimum of the scan (see the module docstring).  Against the
    Nelder-Mead oracle of the tests, the largest discord gaps measured on
    its agreement sets are 8.9e-16 (canonical trajectory), 5.6e-16
    (Bell-diagonal) and 1.1e-15 (adversarial X states) on the X route, and
    4.4e-16 (random), 7.9e-15 (RK4 trajectory; 1.6e-14 in ``J``) and
    1.2e-15 (adversarial, with the flat valleys at ``eta = 1``) on the
    general route.  Discord is ``I - J``.  Returns one :class:`Correlations`
    record: floats for one state, (N,) arrays for an (N, 4, 4) stack.  Each
    state's result does not depend on the rest of the stack.
    """
    states, single, finite = _states(rho)
    _require_finite(finite, single)
    s_q, total = _entropies(states)
    best, theta, phi = _minimize_conditional_entropy(states)
    classical = s_q - best
    fields = {"negativity": negativity(states), "mutual_info": total,
              "discord": total - classical, "classical_corr": classical,
              "theta": theta, "phi": phi}
    if single:
        fields = {name: float(column[0]) for name, column in fields.items()}
    return Correlations(**fields)
