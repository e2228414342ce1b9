"""Time evolution of the pair state under the common-bath generator.

Two independent propagation routes are provided: classical fixed-step RK4
(:func:`evolve_rk`) and the exact exponential of the vectorized generator
(:func:`evolve_exact`).  The generator is a constant matrix, so the
exponential route is exact up to ``expm`` accuracy and the integrator's job
is independent verification.  Both step their states through one sampling
loop, one 16x16 map per interval, and every trajectory is checked as a stack
of density matrices by :func:`validate_density_matrix`, which also returns
the traces that the tables print; it proves positivity with the LDL^T
factorization that also certifies negativity, and a trajectory's least
eigenvalues are computed only when read (:attr:`Trajectory.min_eig`).

Both routes step the states in the frame rotating at omega, with the real
dissipator ``D`` of ``S = D - i omega diag(k)``: a state from real
amplitudes stays real there.  That frame differs from the lab frame by the
local unitary ``exp(-i omega t n_Q) (x) exp(-i omega t n_HO)``, which keeps
the trace, the spectrum, the negativity and the entropies, so the measures
are taken of the frame states and the lab-frame states are formed only when
read (:attr:`Trajectory.states`).
"""

from __future__ import annotations

import itertools
import logging
import math
from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._format import write_table
from .errors import ConfigError, NumericalInvariantError, StabilityError
from .matops import (_COHERENCE_ORDER, _as_inexact, _positive_definite, _states, matrix_exp,
                     unvec, vec)
from .model import Liouvillian, _block_spectrum

log = logging.getLogger(__name__)

#: Default number of uniform sampling intervals for stored trajectories.
DEFAULT_SAMPLES = 400

TRACE_TOL = 1e-9
HERM_TOL = 1e-10
PSD_TOL = -1e-8


@np.errstate(over="ignore", invalid="ignore")
def validate_density_matrix(
    rho: np.ndarray, context: str = "state", times: np.ndarray | None = None
) -> np.ndarray:
    """Check finite entries, unit trace, Hermiticity, and positivity; return the traces.

    The tolerances are ``TRACE_TOL``, ``HERM_TOL`` and ``PSD_TOL``.  ``rho``
    is one state ``(4, 4)`` or a stack ``(N, 4, 4)``, as
    :func:`bathlink.matops._states` requires; a state with a non-finite
    entry fails as such.  The first failing state of a stack is
    named by its time in ``times`` when given, else by its index.  A valid
    ``rho`` gives the real part of each trace, of shape ``()`` or ``(N,)``.

    Positivity, ``lambda_min > PSD_TOL``, is proved by the vectorized LDL^T
    factorization of :func:`bathlink.matops._positive_definite`: all pivots
    of ``rho - PSD_TOL * 1`` positive mean that matrix is positive definite.
    Only when a pivot is not do the eigenvalues decide, from one stacked
    ``eigvalsh`` call, and name the first state at or below ``PSD_TOL``.
    Both read the lower triangle and the real diagonal of ``rho`` as stored,
    so they test the stored matrix, not its Hermitian part; the two spectra
    differ by at most ``sqrt(3) * HERM_TOL`` (Weyl's inequality) once
    Hermiticity holds, far inside ``PSD_TOL``.
    """
    stack, single, finite = _states(rho)
    stack = stack if finite.all() else np.where(finite[:, None, None], stack, np.eye(4) / 4)
    tr = np.trace(stack, axis1=1, axis2=2)
    tr_dev = np.abs(tr.real - 1.0) + np.abs(tr.imag)
    herm_dev = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
    bad = ~finite | (tr_dev >= TRACE_TOL) | (herm_dev >= HERM_TOL)
    if bad.any() or not _positive_definite(stack, PSD_TOL).all():
        min_eig = np.linalg.eigvalsh(stack).min(axis=1)
        bad |= min_eig <= PSD_TOL
    if not bad.any():
        return tr.real.reshape(() if single else -1)
    k = int(np.argmax(bad))
    if not single:
        context = f"{context} at t={times[k]:g}" if times is not None else f"{context} {k}"
    if not finite[k]:
        raise NumericalInvariantError(f"{context}: entries are not finite")
    if tr_dev[k] >= TRACE_TOL:
        raise NumericalInvariantError(f"{context}: trace deviates by {tr_dev[k]:.3e}")
    if herm_dev[k] >= HERM_TOL:
        raise NumericalInvariantError(f"{context}: Hermiticity deviation {herm_dev[k]:.3e}")
    raise NumericalInvariantError(f"{context}: negative eigenvalue {min_eig[k]:.3e}")


def _check_amplitudes(p: float | np.ndarray, q: float | np.ndarray) -> None:
    """Raise :class:`ConfigError` unless every amplitude ``p``, ``q`` lies in [-1, 1]."""
    if not (np.all(np.abs(p) <= 1.0) and np.all(np.abs(q) <= 1.0)):
        raise ConfigError(f"p, q must lie in [-1, 1], got ({p}, {q})")


def product_state(p: float | np.ndarray, q: float | np.ndarray) -> np.ndarray:
    """Pure product state from real amplitudes p, q in [-1, 1].

    ``|phi> = (p|0> + sqrt(1-p^2)|1>)_Q (x) (q|0> + sqrt(1-q^2)|1>)_HO``,
    so ``(p=1, q=0)`` is ``|0>_Q |1>_HO`` and ``(p=0, q=1)`` is ``|1>_Q |0>_HO``.
    ``p`` and ``q`` may be arrays that broadcast against each other; the
    result then is a stack ``shape + (4, 4)``.  The states are real.
    """
    _check_amplitudes(p, q)
    p, q = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
    a = np.stack([p, np.sqrt(1.0 - p * p)], axis=-1)
    b = np.stack([q, np.sqrt(1.0 - q * q)], axis=-1)
    psi = (a[..., :, None] * b[..., None, :]).reshape(p.shape + (4,))
    return psi[..., :, None] * psi[..., None, :]


def _time_grid(times: np.ndarray) -> np.ndarray:
    """``times`` as a float array; :class:`ConfigError` unless it is 1-D, non-empty and
    finite, starts at 0 and increases strictly."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ConfigError("times must be a non-empty 1-D sequence")
    if not np.isfinite(times).all():
        raise ConfigError(f"times must be finite, got {times[~np.isfinite(times)][0]}")
    if times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ConfigError("times must start at 0 and increase strictly")
    return times


def _initial_state(rho0: np.ndarray) -> np.ndarray:
    """``rho0`` as one checked ``(4, 4)`` state, float64 if real, complex128 if complex."""
    stack, single, _ = _states(rho0)
    if not single:
        raise ConfigError(f"initial state must be one (4, 4) state, got {stack.shape}")
    validate_density_matrix(stack[0], context="initial state")
    return stack[0]


@dataclass(frozen=True, init=False, eq=False)
class Trajectory:
    """Time-ordered states of one propagation.

    ``times`` is finite and strictly increasing with ``times[0] = 0``.  ``frame_states``
    are the states as propagated, in the frame rotating at ``frame_omega``
    (the generator's omega for both propagators, else 0, the lab frame):
    every one satisfies the density-matrix invariants as stored, and
    ``trace`` holds the real part of each trace that
    :func:`validate_density_matrix` tested.  :attr:`min_eig` is computed
    when first read.  :attr:`states` and :attr:`final_state` are the
    lab-frame states, ``rho_ij = exp(-i frame_omega t k_ij) frame_rho_ij``
    with ``k_ij`` the coherence order of entry (i, j), formed when read.
    """

    times: np.ndarray
    frame_states: np.ndarray = field(repr=False)
    frame_omega: float
    trace: np.ndarray = field(repr=False)

    def __init__(self, times: np.ndarray, states: np.ndarray, frame_omega: float = 0.0):
        times = _time_grid(times)
        states = _as_inexact(states)
        if states.shape != (times.size, 4, 4):
            raise NumericalInvariantError(
                f"inconsistent trajectory shapes {times.shape} / {states.shape}"
            )
        trace = validate_density_matrix(states, times=times)
        for name, value in (("times", times), ("frame_states", states),
                            ("frame_omega", float(frame_omega)), ("trace", trace)):
            object.__setattr__(self, name, value)

    @cached_property
    def min_eig(self) -> np.ndarray:
        """The least eigenvalue of each state as stored, ``(N,)``.

        Taken of the frame states, whose spectra are those of the lab-frame
        states: the frame's local unitary keeps the spectrum.
        """
        return np.linalg.eigvalsh(self.frame_states).min(axis=1)

    def __len__(self) -> int:
        return int(self.times.size)

    def _lab(self, times: np.ndarray, states: np.ndarray) -> np.ndarray:
        if self.frame_omega == 0.0:
            return states
        # k is an integer in -2..2, so (omega t) k rounds only in omega t
        phase = (self.frame_omega * times)[..., None, None] * _COHERENCE_ORDER
        return np.exp(-1j * phase) * states

    @property
    def states(self) -> np.ndarray:
        """The lab-frame states, ``(N, 4, 4)``."""
        return self._lab(self.times, self.frame_states)

    @property
    def final_state(self) -> np.ndarray:
        return self._lab(self.times[-1], self.frame_states[-1])


def _sample(
    maps: Iterable[np.ndarray], rho0: np.ndarray, count: int, batch: tuple[int, ...]
) -> np.ndarray:
    """``rho0`` and its images after each of ``count`` intervals, one map per interval.

    ``maps`` yields the ``count`` maps in order, each ``batch + (16, 16)``:
    ``batch`` is ``()`` for one trajectory or ``(K,)`` for K stepped
    together.  The result is ``(count + 1,) + batch + (4, 4)``, filled with
    one (batched) matrix-vector product per interval, in the dtype of
    ``rho0``, which must hold the maps' products.
    """
    v = np.empty((count + 1,) + batch + (16, 1), dtype=rho0.dtype)
    v[0] = vec(rho0)[..., None]
    for k, step in enumerate(maps):
        np.matmul(step, v[k], out=v[k + 1])
    return unvec(v[..., 0])


def evolve_rk(
    liouvillian: Liouvillian,
    rho0: np.ndarray,
    t_max: float,
    steps: int,
    samples: int = DEFAULT_SAMPLES,
) -> Trajectory:
    """Fixed-step 4th-order Runge-Kutta integration of the master equation.

    ``samples`` uniform intervals are stored (``samples + 1`` states
    including t = 0); the requested ``steps`` are rounded up to a multiple
    of ``samples`` so every stored time lands on a step boundary.  The
    states are stepped in the frame with the constant ``D``, as by
    :func:`evolve_exact`, so omega adds no truncation error, and one RK4
    step is exactly ``P(hD) = 1 + hD + (hD)^2/2 + (hD)^3/6 + (hD)^4/24``.
    The map between samples, ``P(hD)^substeps``, is built once by repeated
    squaring and applied with one matrix-vector product per sample.
    ``P(hD)`` preserves trace and Hermiticity like the exact map, so each
    sample is stored as integrated and checked as it is; a failing check
    (too few steps, or so many that rounding dominates) says so.

    Stability guard: ``h`` times ``D``'s spectral radius must be below 1.
    ``P(hD)`` is the only matrix stepped, so the radius of ``D``, taken from
    its coherence-order blocks without the ``-i omega k`` shift, is the one
    that bounds the step; it does not depend on omega, while
    ``liouvillian.spectral_radius``, ``S``'s, grows with it.
    """
    rho0 = _initial_state(rho0)
    if not 0.0 <= t_max < math.inf:
        raise ConfigError(f"t_max must be finite and >= 0, got {t_max}")
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    if t_max == 0.0:
        return Trajectory(np.zeros(1), rho0[None, :, :], liouvillian.params.omega)
    substeps = max(1, -(-steps // samples))
    try:
        h = t_max / (samples * substeps)
    except OverflowError:  # a step count beyond the float range
        h = 0.0
    if h == 0.0:
        raise ConfigError(
            f"steps is too large for t_max={t_max:g}: the step size underflows to zero"
        )
    radius = float(np.abs(_block_spectrum(liouvillian.dissipator[None], np.zeros(1))).max())
    if h * radius >= 1.0:
        raise StabilityError(
            f"step size {h:.3e} times spectral radius {radius:.3e} is >= 1; increase steps"
        )
    a = h * liouvillian.dissipator
    eye = np.eye(16)
    with np.errstate(over="ignore", invalid="ignore"):
        taylor = eye + a @ (eye + (a / 2) @ (eye + (a / 3) @ (eye + a / 4)))
        step = np.linalg.matrix_power(taylor, substeps)
    log.debug("evolve_rk: %d samples x %d substeps, h=%.3e", samples, substeps, h)
    with _noting("the step count is too small, or so large that rounding dominates"):
        return Trajectory(np.linspace(0.0, t_max, samples + 1),
                          _sample(itertools.repeat(step, samples), rho0, samples, ()),
                          liouvillian.params.omega)


@contextmanager
def _noting(note: str):
    """Re-raise a numerical failure with ``note`` appended to its message."""
    try:
        yield
    except NumericalInvariantError as exc:
        raise type(exc)(f"{exc}; {note}") from exc


def _maps(generators: list[Liouvillian], dt: float) -> np.ndarray:
    """``exp(dt D)`` of each generator's real dissipator, as one ``(K, 16, 16)`` stack.

    One stacked :func:`matrix_exp`; when it fails, the maps are retaken one
    by one so that the error names the first generator whose map fails.
    """
    try:
        return matrix_exp(np.array([g.dissipator for g in generators]).reshape(-1, 16, 16), dt)
    except NumericalInvariantError:
        for liouvillian in generators:
            with _noting(f"generator at {liouvillian.params.label()}"):
                matrix_exp(liouvillian.dissipator, dt)
        raise


def evolve_exact(
    liouvillian: Liouvillian | Sequence[Liouvillian], rho0: np.ndarray, times: np.ndarray
) -> Trajectory | list[Trajectory]:
    """Exact trajectory at the given times (finite, ascending, starting at 0).

    The states are stepped in the frame through the sampling loop, one real
    map ``exp(dt_k D)`` per interval, and checked there.  A uniform grid
    takes a single ``expm`` and applies it on every interval; an irregular
    grid takes each interval's exponential when it reaches it, so one map
    per generator is held at a time.  ``liouvillian`` may also be a sequence
    of generators: all of them are stepped together, one batched product per
    interval, and one trajectory per generator is returned.  An error in
    mapping or checking a generator's trajectory ends with that generator's
    parameters.
    """
    single = isinstance(liouvillian, Liouvillian)
    generators = [liouvillian] if single else list(liouvillian)
    rho0 = _initial_state(rho0)
    times = _time_grid(times)
    dts = np.diff(times)
    if dts.size and np.allclose(dts, dts[0], rtol=1e-12, atol=0.0):
        maps = itertools.repeat(_maps(generators, float(dts[0])), dts.size)
    else:
        maps = (_maps(generators, float(dt)) for dt in dts)
    stack = _sample(maps, rho0, dts.size, (len(generators),))
    trajectories = []
    for k, generator in enumerate(generators):
        with _noting(f"generator at {generator.params.label()}"):
            trajectories.append(Trajectory(times, stack[:, k], generator.params.omega))
    return trajectories[0] if single else trajectories


def trajectory_to_csv(traj: Trajectory, path: str) -> None:
    """Write ``t,re_rho_00,im_rho_00,...,im_rho_33,trace,min_eig`` rows.

    The 16 complex entries appear row-major as interleaved re/im columns;
    ``trace`` is the value the state check tested and ``min_eig`` the least
    eigenvalue of each state (:attr:`Trajectory.min_eig`).
    """
    columns = ["t"]
    for i in range(4):
        for j in range(4):
            columns += [f"re_rho_{i}{j}", f"im_rho_{i}{j}"]
    columns += ["trace", "min_eig"]
    entries = traj.states.reshape(-1, 16)
    table = np.column_stack([
        traj.times,
        np.stack([entries.real, entries.imag], axis=-1).reshape(-1, 32),
        traj.trace,
        traj.min_eig,
    ])
    write_table(path, "csv", columns, table)
