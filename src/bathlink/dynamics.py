"""Time evolution of the pair state under the common-bath generator.

Two independent propagation routes are provided: classical fixed-step RK4
(:func:`evolve_rk`) and the exact exponential of the vectorized generator
(:func:`evolve_exact`).  The generator is a constant matrix, so the
exponential route is exact up to ``expm`` accuracy and the integrator's job
is independent verification.  Both step their states through one sampling
loop, one 16x16 map per interval, and every trajectory is checked as a stack
of density matrices by :func:`validate_density_matrix`, which also returns
the trace and least eigenvalue that the tables print.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ._format import write_table
from .errors import ConfigError, NumericalInvariantError, StabilityError
from .matops import matrix_exp, unvec, vec
from .model import Liouvillian

log = logging.getLogger(__name__)

#: Default number of uniform sampling intervals for stored trajectories.
DEFAULT_SAMPLES = 400

TRACE_TOL = 1e-9
HERM_TOL = 1e-10
PSD_TOL = -1e-8


def validate_density_matrix(
    rho: np.ndarray, context: str = "state", times: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Check finite entries, unit trace, Hermiticity, and positivity; return what was tested.

    The tolerances are ``TRACE_TOL``, ``HERM_TOL`` and ``PSD_TOL``.  ``rho``
    is one state ``(4, 4)`` or a stack ``(N, 4, 4)``, checked with one
    stacked eigensolver call; a state with a non-finite entry fails as such.
    The first failing state of a stack is named by its time in ``times``
    when given, else by its index.  A valid ``rho`` gives the real part of
    each trace and each least eigenvalue, of shape ``()`` or ``(N,)``.

    The eigenvalues are those of ``rho`` as stored (``eigvalsh`` reads its
    lower triangle), not of its Hermitian part.  Both differ by at most
    ``sqrt(3) * HERM_TOL`` (Weyl's inequality) once Hermiticity holds, far
    inside ``PSD_TOL``.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (4, 4) or rho.ndim not in (2, 3):
        raise NumericalInvariantError(f"{context}: expected 4x4, got {rho.shape}")
    stack = rho.reshape(-1, 4, 4)
    finite = np.isfinite(stack).all(axis=(1, 2))
    stack = stack if finite.all() else np.where(finite[:, None, None], stack, np.eye(4) / 4)
    tr = np.trace(stack, axis1=1, axis2=2)
    tr_dev = np.abs(tr.real - 1.0) + np.abs(tr.imag)
    herm_dev = np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2))
    min_eig = np.linalg.eigvalsh(stack).min(axis=1)
    bad = ~finite | (tr_dev >= TRACE_TOL) | (herm_dev >= HERM_TOL) | (min_eig <= PSD_TOL)
    if not bad.any():
        return tr.real.reshape(rho.shape[:-2]), min_eig.reshape(rho.shape[:-2])
    k = int(np.argmax(bad))
    if rho.ndim == 3:
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
    result then is a stack ``shape + (4, 4)``.
    """
    _check_amplitudes(p, q)
    p, q = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
    a = np.stack([p, np.sqrt(1.0 - p * p)], axis=-1).astype(complex)
    b = np.stack([q, np.sqrt(1.0 - q * q)], axis=-1).astype(complex)
    psi = (a[..., :, None] * b[..., None, :]).reshape(p.shape + (4,))
    return psi[..., :, None] * psi[..., None, :].conj()


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered states of one propagation.

    ``times`` is strictly increasing with ``times[0] = 0``; every stored
    state satisfies the density-matrix invariants as stored, and ``trace``
    (real part) and ``min_eig`` hold what :func:`validate_density_matrix`
    measured of each.
    """

    times: np.ndarray
    states: np.ndarray
    trace: np.ndarray = field(init=False, repr=False)
    min_eig: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=complex)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        if times.ndim != 1 or states.shape != (times.size, 4, 4):
            raise NumericalInvariantError(
                f"inconsistent trajectory shapes {times.shape} / {states.shape}"
            )
        if times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise NumericalInvariantError("times must start at 0 and increase strictly")
        trace, min_eig = validate_density_matrix(states, times=times)
        object.__setattr__(self, "trace", trace)
        object.__setattr__(self, "min_eig", min_eig)

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _sample(
    maps: Iterable[np.ndarray], rho0: np.ndarray, count: int, batch: tuple[int, ...]
) -> np.ndarray:
    """``rho0`` and its images after each of ``count`` intervals, one map per interval.

    ``maps`` yields the ``count`` maps in order, each ``batch + (16, 16)``:
    ``batch`` is ``()`` for one trajectory or ``(K,)`` for K stepped
    together.  The result is ``(count + 1,) + batch + (4, 4)``, filled with
    one (batched) matrix-vector product per interval.
    """
    v = np.empty((count + 1,) + batch + (16, 1), dtype=complex)
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
    of ``samples`` so every stored time lands on a step boundary.  The step
    size must satisfy ``h * spectral_radius < 1`` (stability guard).

    The generator is constant, so one classical RK4 step is exactly the
    degree-4 Taylor polynomial ``P(hS) = 1 + hS + (hS)^2/2 + (hS)^3/6 +
    (hS)^4/24`` (its stability function).  The map between samples,
    ``P(hS)^substeps``, is built once by repeated squaring and applied with
    one matrix-vector product per sample.  ``P(hS)`` preserves trace and
    Hermiticity like the exact map, so each sample is stored as integrated
    and checked as it is; a failing check (too few steps, or so many that
    rounding dominates) says so.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    validate_density_matrix(rho0, context="initial state")
    if not 0.0 <= t_max < math.inf:
        raise ConfigError(f"t_max must be finite and >= 0, got {t_max}")
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    if t_max == 0.0:
        return Trajectory(times=np.zeros(1), states=rho0[None, :, :])
    substeps = max(1, -(-steps // samples))
    try:
        h = t_max / (samples * substeps)
    except OverflowError:  # a step count beyond the float range
        h = 0.0
    if h == 0.0:
        raise ConfigError(
            f"steps is too large for t_max={t_max:g}: the step size underflows to zero"
        )
    if h * liouvillian.spectral_radius >= 1.0:
        raise StabilityError(
            f"step size {h:.3e} times spectral radius "
            f"{liouvillian.spectral_radius:.3e} is >= 1; increase steps"
        )
    a = h * liouvillian.superop
    eye = np.eye(16)
    with np.errstate(over="ignore", invalid="ignore"):
        taylor = eye + a @ (eye + (a / 2) @ (eye + (a / 3) @ (eye + a / 4)))
        step = np.linalg.matrix_power(taylor, substeps)
    log.debug("evolve_rk: %d samples x %d substeps, h=%.3e", samples, substeps, h)
    with _noting("the step count is too small, or so large that rounding dominates"):
        return Trajectory(np.linspace(0.0, t_max, samples + 1),
                          _sample(itertools.repeat(step, samples), rho0, samples, ()))


@contextmanager
def _noting(note: str):
    """Re-raise a numerical failure with ``note`` appended to its message."""
    try:
        yield
    except NumericalInvariantError as exc:
        raise type(exc)(f"{exc}; {note}") from exc


def _maps(generators: list[Liouvillian], dt: float) -> np.ndarray:
    """``exp(dt S)`` of each generator, as one ``(K, 16, 16)`` stack."""
    maps = np.empty((len(generators), 16, 16), dtype=complex)
    for k, liouvillian in enumerate(generators):
        with _noting(f"generator at {liouvillian.params.label()}"):
            maps[k] = matrix_exp(liouvillian.superop, dt)
    return maps


def evolve_exact(
    liouvillian: Liouvillian | Sequence[Liouvillian], rho0: np.ndarray, times: np.ndarray
) -> Trajectory | list[Trajectory]:
    """Exact trajectory at the given times (finite, ascending, starting at 0).

    The states are stepped through the sampling loop, one map
    ``exp(dt_k S)`` per interval.  A uniform grid takes a single ``expm``
    and applies it on every interval; an irregular grid takes each
    interval's exponential when it reaches it, so one map per generator is
    held at a time.  ``liouvillian`` may also be a sequence of generators:
    all of them are stepped together, one batched product per interval,
    and one trajectory per generator is returned.  An error in mapping or
    checking a generator's trajectory ends with that generator's parameters.
    """
    single = isinstance(liouvillian, Liouvillian)
    generators = [liouvillian] if single else list(liouvillian)
    rho0 = np.asarray(rho0, dtype=complex)
    validate_density_matrix(rho0, context="initial state")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ConfigError("times must be a non-empty 1-D sequence")
    if not np.isfinite(times).all():
        raise ConfigError(f"times must be finite, got {times[~np.isfinite(times)][0]}")
    if times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ConfigError("times must start at 0 and increase strictly")
    dts = np.diff(times)
    if dts.size and np.allclose(dts, dts[0], rtol=1e-12, atol=0.0):
        maps = itertools.repeat(_maps(generators, float(dts[0])), dts.size)
    else:
        maps = (_maps(generators, float(dt)) for dt in dts)
    stack = _sample(maps, rho0, dts.size, (len(generators),))
    trajectories = []
    for k, generator in enumerate(generators):
        with _noting(f"generator at {generator.params.label()}"):
            trajectories.append(Trajectory(times=times, states=stack[:, k]))
    return trajectories[0] if single else trajectories


def trajectory_to_csv(traj: Trajectory, path: str) -> None:
    """Write ``t,re_rho_00,im_rho_00,...,im_rho_33,trace,min_eig`` rows.

    The 16 complex entries appear row-major as interleaved re/im columns;
    ``trace`` and ``min_eig`` are the values the state check tested.
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
