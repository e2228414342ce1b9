"""Physical parameters and the GKSL generator of the common-bath pair model.

The system is a qubit (Q) and a harmonic oscillator truncated to its first
excitation (HO), both at frequency ``omega``, damped only through a shared
thermal bath.  Tracing out the bath leaves a Markovian master equation

    d rho / dt = -i [H, rho] + L_Q[rho] + L_HO[rho] + L_QHO[rho],

with ``H = (omega/2) sigma_z (x) 1 + omega 1 (x) sigma_+ sigma_-`` and a
dissipator whose coefficient (Kossakowski) matrix is rank two: the bath
couples only to the collective operators ``sigma_-^Q + eta sigma_-^HO`` and
``sigma_+^Q + eta sigma_+^HO``.  H has the level ``omega (n - 1/2)`` at
``n`` excitations, so ``-i [H, .]`` is ``-i omega diag(k)`` over the
coherence order ``k`` of each vec entry, and :func:`build_liouvillian`
writes it that way.  Rates per unit dimensionless time (zeta*t):

    gamma_1 = zeta e^(1/T) / (e^(1/T) - 1)      (emission)
    gamma_2 = zeta / (e^(1/T) - 1)              (absorption)

so ``gamma_1 - gamma_2 = zeta`` and ``gamma_1/gamma_2 = e^(1/T)``.  The
temperature T is dimensionless (measured in units of the system frequency);
it enters only through ``exp(1/T)``.

A consequence of the rank-two (fully collective) dissipator worth knowing:
at ``eta = 1`` the antisymmetric single-excitation state
``(|01> - |10>)/sqrt(2)`` is annihilated by both collective operators and is
an eigenstate of H, so it is decoherence-free.  Its population is conserved,
the generator's kernel is then two-dimensional, and the diagonal steady
state below is not the unique fixed point.  :func:`steady_state_numeric`
reports the kernel dimension instead of assuming uniqueness.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegenerateSteadyStateError, NumericalInvariantError
from .matops import _COHERENCE_ORDER, ID2, SIGMA_M, SIGMA_P, hermitize, unvec, vec

# Lifted single-site operators in the pair basis (real).
SP_Q = np.kron(SIGMA_P, ID2)
SM_Q = np.kron(SIGMA_M, ID2)
SP_HO = np.kron(ID2, SIGMA_P)
SM_HO = np.kron(ID2, SIGMA_M)

_EYE4 = np.eye(4)
#: ``vec(1)^dag``: the row that takes the trace of ``unvec(S x)``.
_TRACE_ROW = vec(np.eye(4)).conj()

_RATE_CONSISTENCY_TOL = 1e-9
#: Spontaneous emission constant ``zeta`` (the time unit) when none is given.
DEFAULT_ZETA = 1.0
#: Generator eigenvalues below this times the largest entry modulus of the
#: generator count toward the kernel dimension: rounding level, so the count
#: does not depend on the scale of the rates.
NULL_RTOL = 64 * np.finfo(float).eps

#: Coherence order of vec index ``i + 4 j`` (entry (i, j), see ``matops``).
#: Collective raising and lowering conserve it (weak U(1) symmetry; Buca &
#: Prosen, NJP 14, 073007 (2012)), so the generator is block diagonal in it.
_ORDER = _COHERENCE_ORDER.ravel(order="F")
_CROSS_ORDER = _ORDER[:, None] != _ORDER[None, :]
#: ``-i [H, .]`` per unit omega: ``H = omega (n - 1/2)`` rotates each vec
#: entry at its coherence order, so the commutator is ``-i diag(k)``.
_ROTATION = np.diag([-1j * k for k in _ORDER.tolist()])
#: vec indices of ``D``'s diagonal blocks: order 0 (6x6), orders +1 and -1
#: (4x4 each, stacked) and the scalars of orders +2 and -2.
_BLOCK_0 = np.flatnonzero(_ORDER == 0)
_BLOCKS_1 = np.stack([np.flatnonzero(_ORDER == 1), np.flatnonzero(_ORDER == -1)])
_BLOCKS_2 = np.flatnonzero(np.abs(_ORDER) == 2)
#: ``-i k`` per unit omega for the eigenvalues in block order.
_BLOCK_SHIFT = -1j * _ORDER[np.concatenate([_BLOCK_0, _BLOCKS_1.ravel(), _BLOCKS_2])]


def rates_from_temperature(zeta: float, temperature: float) -> tuple[float, float]:
    """Thermal emission/absorption rates (gamma1, gamma2) from (zeta, T).

    ``gamma1 - gamma2 = zeta`` holds exactly up to rounding, and
    ``gamma1/gamma2 = exp(1/T)`` (detailed balance).  Where ``e^(1/T)``
    overflows (1/T above about 709.78) ``gamma2 = zeta e^(-1/T)``, the same
    value to double precision, which underflows to 0 as T -> 0.
    """
    if zeta <= 0:
        raise ConfigError(f"zeta must be > 0, got {zeta}")
    if not 0 < temperature < math.inf:
        raise ConfigError(f"temperature must be finite and > 0, got {temperature}")
    try:
        gamma2 = zeta / math.expm1(1.0 / temperature)  # e^(1/T) - 1
    except OverflowError:
        gamma2 = zeta * math.exp(-1.0 / temperature)
    gamma1 = gamma2 + zeta
    return gamma1, gamma2


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the generator.

    Either construct from explicit rates (:meth:`from_rates`) or from a bath
    temperature (:meth:`from_temperature`).  When ``temperature`` is present
    the stored rates must be consistent with it; supplying an inconsistent
    combination is a configuration error.
    """

    omega: float
    zeta: float
    gamma1: float
    gamma2: float
    eta: float
    temperature: float | None = None

    def __post_init__(self):
        # every field becomes a Python float, on which the checks below overflow
        # to inf where numpy scalars would warn
        for name in ("omega", "zeta", "gamma1", "gamma2", "eta", "temperature"):
            value = getattr(self, name)
            if name == "temperature" and value is None:
                continue
            if not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        for name in ("omega", "zeta", "gamma1", "gamma2", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.omega <= 0:
            raise ConfigError(f"omega must be > 0, got {self.omega}")
        if self.zeta <= 0:
            raise ConfigError(f"zeta must be > 0, got {self.zeta}")
        if self.gamma1 < 0 or self.gamma2 < 0:
            raise ConfigError(
                f"rates must be >= 0, got gamma1={self.gamma1}, gamma2={self.gamma2}"
            )
        if self.eta < 0:
            raise ConfigError(f"eta must be >= 0, got {self.eta}")
        # the Kossakowski entries 2 gamma, 2 eta gamma and 2 eta^2 gamma;
        # eta * eta overflows to inf where eta**2 would raise OverflowError
        entries = [2 * f * rate for f in (1.0, self.eta, self.eta * self.eta)
                   for rate in (self.gamma1, self.gamma2)]
        if not all(map(math.isfinite, entries)):
            raise ConfigError(
                f"the Kossakowski matrix is not finite at eta={self.eta}, "
                f"gamma1={self.gamma1}, gamma2={self.gamma2}"
            )
        if self.temperature is not None:
            g1, g2 = rates_from_temperature(self.zeta, self.temperature)
            if abs(g1 - self.gamma1) > _RATE_CONSISTENCY_TOL or abs(g2 - self.gamma2) > _RATE_CONSISTENCY_TOL:
                raise ConfigError(
                    "gamma1/gamma2 are inconsistent with temperature "
                    f"(expected {g1:.12g}, {g2:.12g})"
                )

    @classmethod
    def from_rates(
        cls, gamma1: float, gamma2: float, eta: float, omega: float, zeta: float = DEFAULT_ZETA
    ) -> "ModelParams":
        return cls(omega=omega, zeta=zeta, gamma1=gamma1, gamma2=gamma2, eta=eta)

    @classmethod
    def from_temperature(
        cls, zeta: float, temperature: float, eta: float, omega: float
    ) -> "ModelParams":
        g1, g2 = rates_from_temperature(zeta, temperature)
        return cls(
            omega=omega, zeta=zeta, gamma1=g1, gamma2=g2, eta=eta, temperature=temperature
        )

    def to_dict(self) -> dict:
        d = {
            "omega": self.omega,
            "zeta": self.zeta,
            "gamma1": self.gamma1,
            "gamma2": self.gamma2,
            "eta": self.eta,
        }
        if self.temperature is not None:
            d["temperature"] = self.temperature
        return d

    def label(self) -> str:
        """The parameters as ``key=value`` pairs, the form in which errors name a point."""
        return ", ".join(f"{key}={value:g}" for key, value in self.to_dict().items())


def kossakowski_matrix(params: ModelParams) -> np.ndarray:
    """Dissipator coefficient matrix over (G1, G2, G3, G4).

    Hermitian and positive semidefinite with eigenvalues
    ``{2 gamma1 (1 + eta^2), 2 gamma2 (1 + eta^2), 0, 0}``; the two nonzero
    eigenvectors are the collective lowering/raising combinations.
    """
    g1, g2, eta = params.gamma1, params.gamma2, params.eta
    return np.array(
        [
            [2 * g2, 0, 0, 2 * eta * g2],
            [0, 2 * g1, 2 * eta * g1, 0],
            [0, 2 * eta * g1, 2 * eta**2 * g1, 0],
            [2 * eta * g2, 0, 0, 2 * eta**2 * g2],
        ],
        dtype=complex,
    )


@dataclass(frozen=True, eq=False)
class Liouvillian:
    """The full generator, both as a callable form and a 16x16 matrix.

    ``superop`` uses column-stacking vectorization, so
    ``unvec(superop @ vec(rho))`` equals the master-equation right-hand side.
    ``eigenvalues`` are the 16 generator eigenvalues (real parts <= 0) in
    the order of ``D``'s coherence-order blocks: 6 of order 0, 4 each of
    orders +1 and -1, then one each of orders +2 and -2;
    ``spectral_radius`` is ``max |eigenvalue|``, which grows with omega.
    ``dissipator`` is the real ``D`` of ``S = D - i omega diag(k)``, ``k``
    the coherence order of each vec entry: the generator in the frame
    rotating at ``omega``, where ``exp(t S) = diag(exp(-i omega t k)) exp(t D)``.
    """

    params: ModelParams
    superop: np.ndarray
    eigenvalues: np.ndarray = field(repr=False)
    spectral_radius: float
    dissipator: np.ndarray = field(repr=False)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return unvec(self.superop @ vec(rho))


def _bkron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of 4x4 stacks, broadcast over the leading axes.

    Each entry is the one product ``a_ij b_kl`` that ``np.kron`` forms, so
    each ``(16, 16)`` slice equals ``np.kron`` of the matching pair bitwise.
    """
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (16, 16))


def _lift_dissipator(rate: np.ndarray, jump: np.ndarray) -> np.ndarray:
    """``rate D[J]`` as 16x16 superoperators over ``(K, 1, 1)`` rates and real ``(K, 4, 4)`` jumps.

    ``D[J] rho = J rho J^T - {J^T J, rho}/2``; under column stacking
    ``D[J] = J kron J - (1 kron J^T J)/2 - ((J^T J)^T kron 1)/2``.
    ``rate J^T J`` is read off the scaled jump term as its partial trace:
    those are the sums the trace row takes, so the trace row cancels up to
    their rounding at any rate.
    """
    jump_term = rate * _bkron(jump, jump)
    jdj = np.einsum("nkkjl->njl", jump_term.reshape(-1, 4, 4, 4, 4))
    return jump_term - 0.5 * _bkron(_EYE4, jdj) - 0.5 * _bkron(jdj.swapaxes(1, 2), _EYE4)


def _block_spectrum(dissipator: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """The 16 eigenvalues of each ``S = D - i omega diag(k)`` from ``D``'s blocks.

    Each block of ``D`` holds one coherence order ``k``, on which ``S`` is
    that block shifted by ``-i omega k``.  One stacked ``eigvals`` takes the
    6x6 order-0 blocks and one the order +1 and -1 4x4 blocks together; the
    order +-2 blocks are their diagonal entries.  Valid only for a ``D``
    that couples no two orders.
    """
    order_0 = np.linalg.eigvals(dissipator[:, _BLOCK_0[:, None], _BLOCK_0])
    order_1 = np.linalg.eigvals(dissipator[:, _BLOCKS_1[:, :, None], _BLOCKS_1[:, None, :]])
    order_2 = dissipator[:, _BLOCKS_2, _BLOCKS_2]
    spectrum = np.concatenate([order_0, order_1.reshape(-1, 8), order_2], axis=1)
    return spectrum + omega.reshape(-1, 1) * _BLOCK_SHIFT


def build_liouvillian(
    params: ModelParams | Sequence[ModelParams],
) -> Liouvillian | list[Liouvillian]:
    """Assemble the 16x16 superoperator ``S = D - i omega diag(k)``.

    ``D = 2 gamma1 D[J_down] + 2 gamma2 D[J_up]`` is the real dissipator of
    the collective jumps ``J_down = sigma_-^Q + eta sigma_-^HO`` and ``J_up
    = sigma_+^Q + eta sigma_+^HO`` (the rank-two Kossakowski matrix written
    through its two nonzero eigenvectors), and ``-i omega diag(k)`` is
    ``-i [H, .]`` (module docstring).  ``D``, the generator in the frame
    rotating at omega, is kept as ``dissipator``.  ``S`` must be finite,
    ``D`` must couple no two different coherence orders (those entries
    exactly 0.0), and ``S`` must annihilate the trace and have no eigenvalue
    with a positive real part, the last two within rounding: 1e-12 and
    1e-10 times ``max(1, max|S|)``.  The eigenvalues come from ``D``'s
    coherence-order blocks (:func:`_block_spectrum`), so they are solved
    only once the leak check has passed.

    ``params`` is one point, which gives one :class:`Liouvillian`, or a
    sequence of points, which gives a list of them.  Either way all points
    go through one broadcast lift and the same stacked block ``eigvals``
    calls; the error of a failing generator names its parameters.
    """
    points = [params] if isinstance(params, ModelParams) else list(params)
    omega, gamma1, gamma2, eta = (
        np.array([getattr(p, name) for p in points], dtype=float).reshape(-1, 1, 1)
        for name in ("omega", "gamma1", "gamma2", "eta")
    )
    with np.errstate(over="ignore", invalid="ignore"):
        dissipator = (_lift_dissipator(2.0 * gamma1, SM_Q + eta * SM_HO)
                      + _lift_dissipator(2.0 * gamma2, SP_Q + eta * SP_HO))
        s = dissipator + omega * _ROTATION
    finite = np.isfinite(s).all(axis=(1, 2))
    if not finite.all():
        raise NumericalInvariantError(
            f"generator is not finite at {points[int(np.argmin(finite))].label()}"
        )
    leak = np.abs(dissipator[:, _CROSS_ORDER]).max(axis=1)
    # both residuals are rounding of entries as large as max|S|
    scale = np.maximum(1.0, np.abs(s).max(axis=(1, 2)))
    worst = np.abs(_TRACE_ROW @ s).max(axis=1)
    bad = (leak != 0.0) | (worst >= 1e-12 * scale)
    if bad.any():
        k = int(np.argmax(bad))
        at = points[k].label()
        if leak[k] != 0.0:
            raise NumericalInvariantError(
                f"generator couples different coherence orders (max entry {leak[k]:.3e}) at {at}"
            )
        raise NumericalInvariantError(
            f"generator does not annihilate the trace (max {worst[k]:.3e}, "
            f"max|S| {scale[k]:.3e}) at {at}"
        )
    eigvals = _block_spectrum(dissipator, omega)
    max_re = eigvals.real.max(axis=1)
    bad = max_re > 1e-10 * scale
    if bad.any():
        k = int(np.argmax(bad))
        raise NumericalInvariantError(
            f"generator eigenvalue with positive real part {max_re[k]:.3e} at {points[k].label()}"
        )
    built = [
        Liouvillian(params=p, superop=s[k], eigenvalues=eigvals[k],
                    spectral_radius=float(np.abs(eigvals[k]).max()), dissipator=dissipator[k])
        for k, p in enumerate(points)
    ]
    return built[0] if isinstance(params, ModelParams) else built


def steady_state_analytic(params: ModelParams) -> np.ndarray:
    """Diagonal thermal fixed point ``diag(r^2, r, r, 1) / (1+r)^2``, r = gamma1/gamma2.

    Requires ``gamma2 > 0``; at gamma2 = 0 the ratio diverges and the
    zero-temperature kernel needs the degenerate analysis instead.
    """
    if params.gamma2 <= 0:
        raise ConfigError(
            "gamma2 = 0 has no thermal-ratio steady state (gamma1/gamma2 "
            "diverges); the numeric steady state (steady_state_numeric, or "
            "--mode numeric) shows the degenerate kernel"
        )
    r = params.gamma1 / params.gamma2
    if not math.isfinite(r * r):
        raise NumericalInvariantError(
            f"thermal ratio gamma1/gamma2 = {r:.3e} is too large: its square overflows"
        )
    return np.diag([r**2, r, r, 1.0]).astype(complex) / (1.0 + r) ** 2


@dataclass(frozen=True, eq=False)
class SteadyStateResult:
    """Kernel eigenvector promoted to a state, plus kernel diagnostics."""

    state: np.ndarray
    null_space_dim: int
    eigenvalue: complex
    residual_max: float


def steady_state_numeric(
    liouvillian: Liouvillian, require_unique: bool = True
) -> SteadyStateResult:
    """Steady state from the eigenvector of the eigenvalue nearest zero.

    ``null_space_dim`` counts generator eigenvalues with ``|lambda|`` below
    ``NULL_RTOL`` times the largest ``|S_ij|`` of the generator ``S``.
    When it differs from one the steady manifold is degenerate and the
    returned state is an arbitrary element of it; with ``require_unique``
    (the default) that situation raises instead of silently picking one.
    """
    w, v = np.linalg.eig(liouvillian.superop)
    order = np.argsort(np.abs(w))
    null_tol = NULL_RTOL * np.abs(liouvillian.superop).max()
    dim = int(np.sum(np.abs(w) < null_tol))
    if require_unique and dim != 1:
        raise DegenerateSteadyStateError(
            f"steady manifold has dimension {dim} (eigenvalues within {null_tol:.3g} "
            "of zero); pass require_unique=False to inspect it"
        )
    candidate = unvec(v[:, order[0]])
    candidate = hermitize(candidate)
    tr = np.trace(candidate).real
    if abs(tr) < 1e-14:
        raise DegenerateSteadyStateError(
            "kernel eigenvector is traceless; the steady manifold is degenerate"
        )
    state = candidate / tr
    residual = float(np.abs(liouvillian.apply(state)).max())
    return SteadyStateResult(
        state=state,
        null_space_dim=dim,
        eigenvalue=complex(w[order[0]]),
        residual_max=residual,
    )
