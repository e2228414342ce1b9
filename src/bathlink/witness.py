"""Short-time entanglement-generation witness and the (p, q) region scan.

For a separable initial state ``rho(0)`` and a direction ``|psi>``, define
``Xi(t) = <psi| rho^T_HO(t) |psi>``.  If ``Xi(0) = 0`` and the initial rate
``d Xi/dt (0)`` is negative, the partial transpose acquires a negative
eigenvalue immediately, i.e. the dynamics entangles the state as t -> 0+.

For the product state built from amplitudes (p, q) and the orthogonal
direction family parameterized by real coefficients (alpha, beta,
vartheta), the rate is the closed quadratic form

    A alpha^2 + B alpha beta + C beta^2,
    A = 2 (gamma2 p^4 + (p^2-1)^2 gamma1),
    C = 2 eta^2 (gamma2 q^4 + (q^2-1)^2 gamma1),
    B = -2 eta (gamma1+gamma2) (p^2 (2 q^2 - 1) - q^2),

independent of vartheta (and of omega).  Since A, C >= 0 always, a real
(alpha, beta) making the form negative exists exactly when the discriminant
``B^2 - 4AC`` is positive, so region membership is decided in closed form.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass

import numpy as np

from ._format import fmt
from .correlations import negativity
from .dynamics import _check_amplitudes, _sample, product_state
from .errors import ConfigError, NumericalInvariantError
from .matops import matrix_exp, partial_transpose_second
from .model import ModelParams, build_liouvillian


def witness_vector(
    p: float, q: float, alpha: float, beta: float, vartheta: float = 0.0
) -> np.ndarray:
    """Unnormalized direction orthogonal to the (p, q) product state.

    Built from the local states orthogonal to each factor, so the overlap
    with the product state vanishes for every (alpha, beta, vartheta),
    giving ``Xi(0) = 0`` by construction.  An amplitude outside [-1, 1] or a
    coefficient that is not finite raises :class:`ConfigError`.
    """
    _check_amplitudes(p, q)
    _check_finite(alpha=alpha, beta=beta, vartheta=vartheta)
    sp = math.sqrt(1.0 - p * p)
    sq = math.sqrt(1.0 - q * q)
    a = np.array([p, sp], dtype=complex)
    b = np.array([q, sq], dtype=complex)
    a_perp = np.array([sp, -p], dtype=complex)
    b_perp = np.array([sq, -q], dtype=complex)
    return (
        alpha * np.kron(a_perp, b)
        + beta * np.kron(a, b_perp)
        + vartheta * np.kron(a_perp, b_perp)
    )


def dxi0_quadratic(kappa1: float, kappa3: float, params: ModelParams) -> float:
    """Initial rate of Xi from ``|0>_Q |1>_HO`` along ``kappa1|00> + kappa2|10> + kappa3|11>``.

    ``2 gamma1 kappa1^2 eta^2 - 2 (gamma1+gamma2) kappa1 kappa3 eta
    + 2 gamma2 kappa3^2`` (the kappa2 component never contributes).  For the
    unnormalized direction; normalizing rescales the value but not its sign.
    As a quadratic in kappa1 it has two real roots unless gamma1 = gamma2,
    and both roots share the sign of ``kappa3/eta``: opposite-sign
    (kappa1, kappa3) therefore can never make the rate negative.  This is
    :func:`dxi0_general` at ``(p, q) = (1, 0)`` with ``(alpha, beta) =
    (-kappa3, kappa1)``.
    """
    _check_finite(kappa1=kappa1, kappa3=kappa3)
    return dxi0_general(1.0, 0.0, -kappa3, kappa1, params)


def quadratic_roots(kappa3: float, params: ModelParams) -> tuple[float, float]:
    """Roots in kappa1 of the rate quadratic: the rate is negative strictly between them."""
    _check_finite(kappa3=kappa3)
    g1, g2, eta = params.gamma1, params.gamma2, params.eta
    if eta == 0 or g1 == 0:
        raise ConfigError("root interval requires eta > 0 and gamma1 > 0")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        roots = (np.float64(kappa3) * g2 / (np.float64(g1) * eta), np.float64(kappa3) / eta)
    if not np.isfinite(roots).all():
        raise NumericalInvariantError(
            f"kappa1 root interval is not finite at kappa3={fmt(kappa3)}, {params.label()}"
        )
    return float(min(roots)), float(max(roots))


def _unit_exponent(largest: float) -> int:
    """The power of two that brings ``largest`` (> 0) into [0.5, 1): an exact rescale."""
    return -math.frexp(largest)[1]


def _check_finite(**coefficients: float) -> None:
    for name, value in coefficients.items():
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")


def quadratic_coefficients(
    p: float, q: float, params: ModelParams
) -> tuple[float, float, float]:
    """Coefficients (A, B, C) of the rate form in (alpha, beta) for the (p, q) state.

    ``p`` and ``q`` may be arrays that broadcast against each other.  Every
    power is formed by multiplication, which rounds alike for scalars and
    arrays and for ``p`` and ``-p``, so the form is exactly even in each.  A
    coefficient that is not finite (it overflows at very large rates) raises
    :class:`NumericalInvariantError`.
    """
    g1, g2, eta = params.gamma1, params.gamma2, params.eta
    with np.errstate(over="ignore", invalid="ignore"):
        p2, q2 = p * p, q * q
        a = 2.0 * (g2 * (p2 * p2) + (p2 - 1.0) * (p2 - 1.0) * g1)
        c = 2.0 * (eta * eta) * (g2 * (q2 * q2) + (q2 - 1.0) * (q2 - 1.0) * g1)
        b = -2.0 * eta * (g1 + g2) * (p2 * (2.0 * q2 - 1.0) - q2)
    if not all(np.isfinite(x).all() for x in (a, b, c)):
        raise NumericalInvariantError(
            f"rate form coefficients A, B, C are not finite at {params.label()}"
        )
    return a, b, c


def dxi0_general(
    p: float, q: float, alpha: float, beta: float, params: ModelParams
) -> float:
    """Initial rate of Xi from the (p, q) product state along ``witness_vector``.

    Independent of vartheta and of omega; see the module docstring for the
    closed form.  It is summed at (alpha, beta) times the power of two that
    brings the larger into [0.5, 1) and scaled back (exact at ordinary sizes),
    so a negative rate that underflows keeps its sign as -0.0; a rate past
    the float range raises :class:`NumericalInvariantError`, and an amplitude
    outside [-1, 1] or a coefficient that is not finite :class:`ConfigError`.
    """
    _check_amplitudes(p, q)
    _check_finite(alpha=alpha, beta=beta)
    return _form_rate(quadratic_coefficients(p, q, params), alpha, beta)


def _form_rate(form: tuple[float, float, float], alpha: float, beta: float) -> float:
    """The rate form ``(A, B, C)`` at (alpha, beta), as :func:`dxi0_general` reports it."""
    a, b, c = form
    e = _unit_exponent(max(abs(alpha), abs(beta)))
    alpha, beta = math.ldexp(alpha, e), math.ldexp(beta, e)
    try:
        rate = math.ldexp(a * alpha**2 + b * alpha * beta + c * beta**2, -2 * e)
    except OverflowError:  # the scaled-back rate is past the float range
        rate = math.inf
    if not math.isfinite(rate):
        raise NumericalInvariantError("initial rate of Xi is not finite: the rate form overflows")
    return rate


def is_entangling(p: float, q: float, params: ModelParams) -> tuple[bool, float]:
    """Whether the (p, q) product state entangles as t -> 0+, and the discriminant.

    Returns ``(excess > 0, excess)`` with ``excess = B^2 - 4AC``; the
    boundary ``excess = 0`` is classified non-entangling (the rate condition
    is a strict inequality).  ``p`` and ``q`` may be arrays that broadcast
    against each other; the verdict and the excess then are arrays too.
    An excess that is not finite (``B^2`` overflows at rates near 1e150, long
    before the form does) raises :class:`NumericalInvariantError`.
    """
    _check_amplitudes(p, q)
    a, b, c = quadratic_coefficients(p, q, params)
    with np.errstate(over="ignore", invalid="ignore"):
        excess = b * b - 4.0 * a * c
    if not np.all(np.isfinite(excess)):
        raise NumericalInvariantError(
            f"entangling excess B^2 - 4AC is not finite at {params.label()}"
        )
    return excess > 0.0, excess


@dataclass(frozen=True)
class WitnessReport:
    """Evaluation of the witness for one direction: value, rate, verdict."""

    xi0: float
    dxi0: float
    entangling: bool
    direction: str

    def to_dict(self) -> dict:
        return asdict(self)


def _report(rho0: np.ndarray, psi: np.ndarray, rate: float, direction: str) -> WitnessReport:
    """``Xi(0) = <psi| rho0^T_HO |psi>`` along ``psi / |psi|``, with ``rate`` and the verdict.

    The norm is taken after an exact power-of-two rescale of ``psi``, so it
    neither overflows nor underflows; the verdict reads the sign bit of
    ``rate``, which an underflow keeps.  A zero direction is a configuration
    error.  The imaginary part of ``Xi(0)`` vanishes by Hermiticity and is
    asserted below 1e-10.
    """
    largest = float(np.abs(psi).max())
    if largest == 0.0:
        raise ConfigError(f"witness direction vanishes at {direction}")
    exponent = _unit_exponent(largest)
    psi = np.ldexp(psi.real, exponent) + 1j * np.ldexp(psi.imag, exponent)
    psi = psi / np.linalg.norm(psi)
    value = complex(psi.conj() @ partial_transpose_second(rho0) @ psi)
    if abs(value.imag) >= 1e-10:
        raise NumericalInvariantError(
            f"quadratic form has imaginary part {value.imag:.3e}; input not Hermitian?"
        )
    xi0 = value.real
    return WitnessReport(xi0=xi0, dxi0=rate, direction=direction,
                         entangling=bool(abs(xi0) < 1e-12 and math.copysign(1.0, rate) < 0.0))


def report_for_kappas(
    kappa1: float, kappa3: float, params: ModelParams, kappa2: float = 0.0
) -> WitnessReport:
    """Witness report for the ``|0>_Q |1>_HO`` start along the kappa direction.

    ``kappa1|00> + kappa2|10> + kappa3|11>`` is :func:`witness_vector` at
    ``(p, q) = (1, 0)`` with ``(alpha, beta, vartheta) = (-kappa3, kappa1, -kappa2)``.
    """
    _check_finite(kappa1=kappa1, kappa2=kappa2, kappa3=kappa3)
    return _report(product_state(1.0, 0.0), witness_vector(1.0, 0.0, -kappa3, kappa1, -kappa2),
                   dxi0_quadratic(kappa1, kappa3, params),
                   f"kappa1={fmt(kappa1)}, kappa2={fmt(kappa2)}, kappa3={fmt(kappa3)}")


def report_for_product_state(
    p: float,
    q: float,
    params: ModelParams,
    alpha: float | None = None,
    beta: float | None = None,
) -> WitnessReport:
    """Witness report for the (p, q) product state.

    With explicit (alpha, beta) the rate of that direction is reported;
    otherwise the most negative rate over unit coefficient vectors (the
    smallest eigenvalue of the quadratic form) and its optimal direction.
    """
    if (alpha is None) != (beta is None):
        raise ConfigError("alpha and beta must be supplied together")
    _check_amplitudes(p, q)
    form = quadratic_coefficients(p, q, params)
    if alpha is None:
        a, b, c = form
        eigvals, eigvecs = np.linalg.eigh(np.array([[a, b / 2.0], [b / 2.0, c]]))
        alpha, beta = (float(x) for x in eigvecs[:, 0])
        rate = float(eigvals[0])
    else:
        _check_finite(alpha=alpha, beta=beta)
        rate = _form_rate(form, alpha, beta)
    return _report(product_state(p, q), witness_vector(p, q, alpha, beta), rate,
                   f"p={fmt(p)}, q={fmt(q)}, alpha={fmt(alpha)}, beta={fmt(beta)}")


@dataclass(frozen=True, eq=False)
class RegionScan:
    """Verdicts over a uniform (p, q) grid, plus dynamical spot checks.

    ``entangling`` and ``excess`` are (n, n) arrays indexed [p, q];
    ``confirm_negativity`` (same shape) holds the short-time negativity when
    requested.  ``spot_checks`` records the randomly chosen entangling
    points whose short-time evolution was verified to produce entanglement.
    """

    p_values: np.ndarray
    q_values: np.ndarray
    entangling: np.ndarray
    excess: np.ndarray
    spot_checks: list[dict]
    confirm_tau: float
    confirm_negativity: np.ndarray | None = None

    def table(self) -> tuple[list[str], np.ndarray]:
        """Columns ``p,q,entangling,excess[,negativity]`` and one row per point, p-major."""
        columns = ["p", "q", "entangling", "excess"]
        cells = [self.entangling.astype(float), self.excess]
        if self.confirm_negativity is not None:
            columns.append("negativity")
            cells.append(self.confirm_negativity)
        p, q = np.meshgrid(self.p_values, self.q_values, indexing="ij")
        return columns, np.stack([p, q, *cells], axis=-1).reshape(-1, len(columns))

    def to_dict(self) -> dict:
        """JSON-ready form: the axes, every array as nested lists, the spot checks."""
        d = {
            "p_values": [float(x) for x in self.p_values],
            "q_values": [float(x) for x in self.q_values],
            "entangling": self.entangling.astype(int).tolist(),
            "excess": self.excess.tolist(),
            "spot_checks": self.spot_checks,
            "confirm_tau": self.confirm_tau,
        }
        if self.confirm_negativity is not None:
            d["confirm_negativity"] = self.confirm_negativity.tolist()
        return d


#: Confirmation states per stacked negativity call; keeps the stacks small.
_CONFIRM_BLOCK = 512
#: Defaults of :func:`region_scan`: random entangling points checked
#: dynamically, the seed that picks them, and the confirmation time.
DEFAULT_SPOT_CHECKS = 10
DEFAULT_SEED = 0
DEFAULT_CONFIRM_TAU = 1e-4


def _symmetric_axis(n: int) -> np.ndarray:
    axis = np.linspace(-1.0, 1.0, n)
    # force exact sign symmetry so the fourfold verdict symmetry is bitwise
    return (axis - axis[::-1]) / 2.0


def _short_time_negativities(
    step: list[np.ndarray], p: np.ndarray, q: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Fill ``out`` with the negativity after ``step = [exp(tau D)]`` from (p, q) product states.

    The states are built, propagated and measured ``_CONFIRM_BLOCK`` at a
    time, as real stacks, through :func:`product_state` and the sampling
    loop, in the frame rotating at omega, whose local unitary keeps the
    negativity.  Returns ``out``, which must have the size of ``p`` and ``q``.
    """
    for start in range(0, p.size, _CONFIRM_BLOCK):
        rho0 = product_state(p[start:start + _CONFIRM_BLOCK], q[start:start + _CONFIRM_BLOCK])
        out[start:start + len(rho0)] = negativity(_sample(step, rho0, 1, rho0.shape[:1])[1])
    return out


def _pick(count: int, take: int, seed: int) -> list[int]:
    """``take`` distinct indices of ``range(count)``, in the order drawn.

    A partial Fisher-Yates shuffle that draws only ``random.Random(seed).random()``,
    the stream Python keeps the same across versions.  ``moved`` holds the
    entries of the shuffled ``range(count)`` that differ from their index.
    """
    rng = random.Random(seed)
    moved: dict[int, int] = {}
    picks = []
    for k in range(take):
        j = k + int(rng.random() * (count - k))
        picks.append(moved.get(j, j))
        moved[j] = moved.get(k, k)
    return picks


def region_scan(
    params: ModelParams,
    n: int,
    spot_checks: int = DEFAULT_SPOT_CHECKS,
    seed: int = DEFAULT_SEED,
    confirm_dynamics: bool = False,
    confirm_tau: float = DEFAULT_CONFIRM_TAU,
) -> RegionScan:
    """Classify every point of a uniform n x n grid over [-1, 1]^2.

    The verdicts come from one array call of :func:`is_entangling`.  For
    ``spot_checks`` entangling grid points, picked by ``random.Random(seed)``,
    the state is evolved to ``confirm_tau`` and must show strictly positive
    negativity; a contradiction raises.  With ``confirm_dynamics`` the short-time
    negativity is computed for every grid point and returned as a column:
    only the first half of the p-major grid is evolved, and each point of the
    other half takes the value of its mirror (-p, -q), which the parity
    ``sigma_z (x) sigma_z`` of the generator makes bitwise equal.  The spot
    checks are always evolved directly, so they also check the mirror.
    ``confirm_tau`` must be finite and > 0: backward propagation leaves the
    state space; ``spot_checks`` and ``seed`` must be >= 0.
    """
    if n < 2:
        raise ConfigError(f"grid resolution must be >= 2, got {n}")
    if spot_checks < 0:
        raise ConfigError(f"spot checks must be >= 0, got {spot_checks}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if not 0.0 < confirm_tau < math.inf:
        raise ConfigError(f"confirmation time tau must be finite and > 0, got {confirm_tau}")
    axis = _symmetric_axis(n)
    entangling, excess = is_entangling(axis[:, None], axis[None, :], params)

    liou = build_liouvillian(params)
    flagged = np.argwhere(entangling)
    i, j = flagged[_pick(flagged.shape[0], min(spot_checks, flagged.shape[0]), seed)].T
    # exp(tau D), built once for the spot checks and the confirmation column
    step = [matrix_exp(liou.dissipator, confirm_tau)] if i.size or confirm_dynamics else []
    checks: list[dict] = []
    direct = _short_time_negativities(step, axis[i], axis[j], np.empty(i.size))
    for p, q, neg in zip(axis[i], axis[j], direct):
        if neg <= 0.0:
            raise NumericalInvariantError(
                f"point ({p:g}, {q:g}) is flagged entangling but shows no "
                f"negativity at t={confirm_tau:g}"
            )
        checks.append({"p": float(p), "q": float(q), "negativity": float(neg)})

    confirm = None
    if confirm_dynamics:
        p, q = np.meshgrid(axis, axis, indexing="ij")
        flat = np.empty(n * n)
        half = (n * n + 1) // 2
        _short_time_negativities(step, p.ravel()[:half], q.ravel()[:half], flat[:half])
        # point k is (-p, -q) of n^2-1-k: the exact parity flip Z(x)Z keeps the negativity
        flat[half:] = flat[n * n - half - 1::-1]
        confirm = flat.reshape(n, n)

    return RegionScan(
        p_values=axis,
        q_values=axis,
        entangling=entangling,
        excess=excess,
        spot_checks=checks,
        confirm_negativity=confirm,
        confirm_tau=confirm_tau,
    )
