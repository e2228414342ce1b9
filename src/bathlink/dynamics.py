"""Time evolution of the pair state under the common-bath generator.

Two independent propagation routes are provided: classical fixed-step RK4
(:func:`evolve_rk`) and the exact exponential of the vectorized generator
(:func:`evolve_exact`).  The generator is a constant matrix, so the
exponential route is exact up to ``expm`` accuracy and the integrator's job
is independent verification.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from ._format import write_table
from .errors import ConfigError, NumericalInvariantError, StabilityError
from .matops import matrix_exp, unvec, vec
from .model import Liouvillian, ModelParams

log = logging.getLogger(__name__)

#: Default number of uniform sampling intervals for stored trajectories.
DEFAULT_SAMPLES = 400

TRACE_TOL = 1e-9
HERM_TOL = 1e-10
PSD_TOL = -1e-8


def validate_density_matrix(
    rho: np.ndarray,
    trace_tol: float = TRACE_TOL,
    herm_tol: float = HERM_TOL,
    psd_tol: float = PSD_TOL,
    context: str = "state",
    times: np.ndarray | None = None,
) -> None:
    """Check unit trace, Hermiticity, and positivity; raise with a diagnostic.

    ``rho`` is one state ``(4, 4)`` or a stack ``(N, 4, 4)``, checked with
    one stacked eigensolver call.  The first failing state of a stack is
    named by its time in ``times`` when given, else by its index.
    """
    rho = np.asarray(rho)
    if rho.shape[-2:] != (4, 4) or rho.ndim not in (2, 3):
        raise NumericalInvariantError(f"{context}: expected 4x4, got {rho.shape}")
    stack = rho.reshape(-1, 4, 4)
    adjoint = stack.conj().swapaxes(1, 2)
    tr = np.trace(stack, axis1=1, axis2=2)
    tr_dev = np.abs(tr.real - 1.0) + np.abs(tr.imag)
    herm_dev = np.abs(stack - adjoint).max(axis=(1, 2))
    min_eig = np.linalg.eigvalsh((stack + adjoint) / 2).min(axis=1)
    bad = (tr_dev >= trace_tol) | (herm_dev >= herm_tol) | (min_eig <= psd_tol)
    if not bad.any():
        return
    k = int(np.argmax(bad))
    if rho.ndim == 3:
        context = f"{context} at t={times[k]:g}" if times is not None else f"{context} {k}"
    if tr_dev[k] >= trace_tol:
        raise NumericalInvariantError(f"{context}: trace deviates by {tr_dev[k]:.3e}")
    if herm_dev[k] >= herm_tol:
        raise NumericalInvariantError(f"{context}: Hermiticity deviation {herm_dev[k]:.3e}")
    raise NumericalInvariantError(f"{context}: negative eigenvalue {min_eig[k]:.3e}")


def product_state(p: float, q: float) -> np.ndarray:
    """Pure product state from real amplitudes p, q in [-1, 1].

    ``|phi> = (p|0> + sqrt(1-p^2)|1>)_Q (x) (q|0> + sqrt(1-q^2)|1>)_HO``,
    so ``(p=1, q=0)`` is ``|0>_Q |1>_HO`` and ``(p=0, q=1)`` is ``|1>_Q |0>_HO``.
    """
    if not -1.0 <= p <= 1.0:
        raise ConfigError(f"p must lie in [-1, 1], got {p}")
    if not -1.0 <= q <= 1.0:
        raise ConfigError(f"q must lie in [-1, 1], got {q}")
    a = np.array([p, math.sqrt(1.0 - p * p)], dtype=complex)
    b = np.array([q, math.sqrt(1.0 - q * q)], dtype=complex)
    psi = np.kron(a, b)
    return np.outer(psi, psi.conj())


@dataclass(frozen=True)
class Trajectory:
    """Time-ordered states with the parameters that produced them.

    ``times`` is strictly increasing with ``times[0] = 0``; every stored
    state satisfies the density-matrix invariants.  The two ``max_*``
    fields record the largest Hermitization / trace renormalization applied
    while storing RK samples (identically zero for exact propagation).
    """

    times: np.ndarray
    states: np.ndarray
    params: ModelParams
    initial_spec: str
    max_hermiticity_correction: float = 0.0
    max_trace_correction: float = 0.0

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
        validate_density_matrix(states, times=times)

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


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
    one matrix-vector product per sample.  Each stored state is
    re-Hermitized and trace-renormalized, with the largest corrections
    recorded on the returned trajectory; a trace drift of ``TRACE_TOL`` or
    more (too few steps, or so many that rounding dominates) raises.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    validate_density_matrix(rho0, context="initial state")
    if t_max < 0:
        raise ConfigError(f"t_max must be >= 0, got {t_max}")
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    if samples < 1:
        raise ConfigError(f"samples must be >= 1, got {samples}")
    if t_max == 0.0:
        return Trajectory(
            times=np.zeros(1),
            states=rho0[None, :, :],
            params=liouvillian.params,
            initial_spec="as supplied",
        )
    substeps = max(1, math.ceil(steps / samples))
    h = t_max / (samples * substeps)
    if h * liouvillian.spectral_radius >= 1.0:
        raise StabilityError(
            f"step size {h:.3e} times spectral radius "
            f"{liouvillian.spectral_radius:.3e} is >= 1; increase steps"
        )
    times = np.linspace(0.0, t_max, samples + 1)
    states = np.empty((samples + 1, 4, 4), dtype=complex)
    states[0] = rho0
    a = h * liouvillian.superop
    eye = np.eye(16)
    taylor = eye + a @ (eye + (a / 2) @ (eye + (a / 3) @ (eye + a / 4)))
    step = np.linalg.matrix_power(taylor, substeps)
    v = vec(rho0)
    max_herm = 0.0
    max_tr = 0.0
    for k in range(1, samples + 1):
        rho = unvec(step @ v)
        herm_corr = float(np.abs(rho - rho.conj().T).max()) / 2.0
        rho = (rho + rho.conj().T) / 2.0
        tr = float(np.trace(rho).real)
        tr_corr = abs(tr - 1.0)
        if not tr_corr < TRACE_TOL:  # also catches a NaN trace
            raise NumericalInvariantError(
                f"trace drifted by {tr_corr:.3e} at t={times[k]:g}; "
                "the step count is too small, or so large that rounding dominates"
            )
        rho = rho / tr
        max_herm = max(max_herm, herm_corr)
        max_tr = max(max_tr, tr_corr)
        states[k] = rho
        v = vec(rho)
    log.debug(
        "evolve_rk: %d samples x %d substeps, h=%.3e, max corrections herm=%.3e trace=%.3e",
        samples, substeps, h, max_herm, max_tr,
    )
    return Trajectory(
        times=times,
        states=states,
        params=liouvillian.params,
        initial_spec="as supplied",
        max_hermiticity_correction=max_herm,
        max_trace_correction=max_tr,
    )


def propagate(liouvillian: Liouvillian, rho: np.ndarray, t: float) -> np.ndarray:
    """Exact propagation ``unvec(exp(t S) vec(rho))`` for any real t.

    No state validation is performed; negative times (useful for derivative
    cross-checks) may leave the physical state space.
    """
    if t == 0.0:
        return np.asarray(rho, dtype=complex).copy()
    return unvec(matrix_exp(liouvillian.superop, t) @ vec(rho))


def evolve_exact(
    liouvillian: Liouvillian, rho0: np.ndarray, times: np.ndarray
) -> Trajectory:
    """Exact trajectory at the given times (ascending, starting at 0).

    A uniform grid costs a single ``expm`` followed by repeated
    application; otherwise one exponential per sample time is taken.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    validate_density_matrix(rho0, context="initial state")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1:
        raise ConfigError("times must be a non-empty 1-D sequence")
    if times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ConfigError("times must start at 0 and increase strictly")
    states = np.empty((times.size, 4, 4), dtype=complex)
    states[0] = rho0
    if times.size > 1:
        dts = np.diff(times)
        uniform = np.allclose(dts, dts[0], rtol=1e-12, atol=0.0)
        if uniform:
            step = matrix_exp(liouvillian.superop, float(dts[0]))
            v = vec(rho0)
            for k in range(1, times.size):
                v = step @ v
                states[k] = unvec(v)
        else:
            for k in range(1, times.size):
                states[k] = propagate(liouvillian, rho0, float(times[k]))
    return Trajectory(
        times=times,
        states=states,
        params=liouvillian.params,
        initial_spec="as supplied",
    )


def trajectory_to_csv(traj: Trajectory, path: str) -> None:
    """Write ``t,re_rho_00,im_rho_00,...,im_rho_33,trace,min_eig`` rows.

    The 16 complex entries appear row-major as interleaved re/im columns.
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
        np.trace(traj.states, axis1=1, axis2=2).real,
        np.linalg.eigvalsh(traj.states).min(axis=1),
    ])
    write_table(path, "csv", columns, table)
