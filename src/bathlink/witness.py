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
from dataclasses import dataclass

import numpy as np

from ._format import fmt
from .correlations import negativity
from .dynamics import product_state
from .errors import ConfigError, NumericalInvariantError
from .matops import matrix_exp, partial_transpose_second
from .model import Liouvillian, ModelParams, apply_liouvillian, build_liouvillian


#: Largest deviation of ``|psi|`` from 1 that :func:`xi` accepts.
PSI_NORM_TOL = 1e-12


def xi(rho: np.ndarray, psi: np.ndarray) -> float:
    """``<psi| rho^T_HO |psi>`` for a unit-norm direction (within ``PSI_NORM_TOL``).

    The imaginary part vanishes by Hermiticity and is asserted below 1e-10.
    """
    psi = np.asarray(psi, dtype=complex)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) >= PSI_NORM_TOL:
        raise ConfigError(f"psi must be normalized within {PSI_NORM_TOL:g}, |psi| = {norm:.12g}")
    value = complex(psi.conj() @ partial_transpose_second(rho) @ psi)
    if abs(value.imag) >= 1e-10:
        raise NumericalInvariantError(
            f"quadratic form has imaginary part {value.imag:.3e}; input not Hermitian?"
        )
    return value.real


def kappa_vector(kappa1: float, kappa2: float, kappa3: float) -> np.ndarray:
    """Unnormalized direction ``kappa1|00> + kappa2|10> + kappa3|11>``."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = kappa1
    psi[2] = kappa2
    psi[3] = kappa3
    return psi


def witness_vector(
    p: float, q: float, alpha: float, beta: float, vartheta: float = 0.0
) -> np.ndarray:
    """Unnormalized direction orthogonal to the (p, q) product state.

    Built from the local states orthogonal to each factor, so the overlap
    with the product state vanishes for every (alpha, beta, vartheta),
    giving ``Xi(0) = 0`` by construction.
    """
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
    return dxi0_general(1.0, 0.0, -kappa3, kappa1, params)


def quadratic_roots(kappa3: float, params: ModelParams) -> tuple[float, float]:
    """Roots in kappa1 of the rate quadratic: the rate is negative strictly between them."""
    g1, g2, eta = params.gamma1, params.gamma2, params.eta
    if eta == 0 or g1 == 0:
        raise ConfigError("root interval requires eta > 0 and gamma1 > 0")
    roots = sorted((kappa3 * g2 / (g1 * eta), kappa3 / eta))
    return roots[0], roots[1]


def _check_amplitudes(p, q) -> None:
    if not (np.all(np.abs(p) <= 1.0) and np.all(np.abs(q) <= 1.0)):
        raise ConfigError(f"p, q must lie in [-1, 1], got ({p}, {q})")


def quadratic_coefficients(
    p: float, q: float, params: ModelParams
) -> tuple[float, float, float]:
    """Coefficients (A, B, C) of the rate form in (alpha, beta) for the (p, q) state.

    ``p`` and ``q`` may be arrays that broadcast against each other.
    """
    g1, g2, eta = params.gamma1, params.gamma2, params.eta
    a = 2.0 * (g2 * p**4 + (p**2 - 1.0) ** 2 * g1)
    c = 2.0 * eta**2 * (g2 * q**4 + (q**2 - 1.0) ** 2 * g1)
    b = -2.0 * eta * (g1 + g2) * (p**2 * (2.0 * q**2 - 1.0) - q**2)
    return a, b, c


def dxi0_general(
    p: float, q: float, alpha: float, beta: float, params: ModelParams
) -> float:
    """Initial rate of Xi from the (p, q) product state along ``witness_vector``.

    Independent of vartheta and of omega; see the module docstring for the
    closed form.
    """
    _check_amplitudes(p, q)
    a, b, c = quadratic_coefficients(p, q, params)
    return a * alpha**2 + b * alpha * beta + c * beta**2


def dxi0_from_generator(
    params: ModelParams, rho0: np.ndarray, psi: np.ndarray
) -> float:
    """Exact rate ``<psi| (L[rho0])^T_HO |psi>`` straight from the generator.

    Cross-checks the closed forms without finite differencing; ``psi`` is
    used as given (not normalized).
    """
    psi = np.asarray(psi, dtype=complex)
    m = partial_transpose_second(apply_liouvillian(params, rho0))
    return float((psi.conj() @ m @ psi).real)


def is_entangling(p: float, q: float, params: ModelParams) -> tuple[bool, float]:
    """Whether the (p, q) product state entangles as t -> 0+, and the discriminant.

    Returns ``(excess > 0, excess)`` with ``excess = B^2 - 4AC``; the
    boundary ``excess = 0`` is classified non-entangling (the rate condition
    is a strict inequality).  ``p`` and ``q`` may be arrays that broadcast
    against each other; the verdict and the excess then are arrays too.
    An excess that is not finite (the form overflows at very large rates)
    raises :class:`NumericalInvariantError`.
    """
    _check_amplitudes(p, q)
    with np.errstate(over="ignore", invalid="ignore"):
        a, b, c = quadratic_coefficients(p, q, params)
        excess = b * b - 4.0 * a * c
    if not np.all(np.isfinite(excess)):
        raise NumericalInvariantError(
            "entangling excess B^2 - 4AC is not finite at "
            f"gamma1={params.gamma1:g}, gamma2={params.gamma2:g}, eta={params.eta:g}"
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
        return {
            "xi0": self.xi0,
            "dxi0": self.dxi0,
            "entangling": self.entangling,
            "direction": self.direction,
        }


def report_for_kappas(
    kappa1: float, kappa3: float, params: ModelParams, kappa2: float = 0.0
) -> WitnessReport:
    """Witness report for the ``|0>_Q |1>_HO`` start along the kappa direction."""
    psi = kappa_vector(kappa1, kappa2, kappa3)
    norm = float(np.linalg.norm(psi))
    if norm == 0.0:
        raise ConfigError("kappa coefficients must not all vanish")
    xi0 = xi(product_state(1.0, 0.0), psi / norm)
    rate = dxi0_quadratic(kappa1, kappa3, params)
    return WitnessReport(
        xi0=xi0,
        dxi0=rate,
        entangling=bool(abs(xi0) < 1e-12 and rate < 0.0),
        direction=f"kappa1={fmt(kappa1)}, kappa2={fmt(kappa2)}, kappa3={fmt(kappa3)}",
    )


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
    a, b, c = quadratic_coefficients(p, q, params)
    if alpha is None:
        form = np.array([[a, b / 2.0], [b / 2.0, c]])
        eigvals, eigvecs = np.linalg.eigh(form)
        alpha, beta = (float(x) for x in eigvecs[:, 0])
        rate = float(eigvals[0])
    else:
        rate = a * alpha**2 + b * alpha * beta + c * beta**2
    psi = witness_vector(p, q, alpha, beta)
    norm = float(np.linalg.norm(psi))
    if norm == 0.0:
        raise ConfigError("witness direction vanishes for these coefficients")
    xi0 = xi(product_state(p, q), psi / norm)
    return WitnessReport(
        xi0=xi0,
        dxi0=rate,
        entangling=bool(abs(xi0) < 1e-12 and rate < 0.0),
        direction=f"p={fmt(p)}, q={fmt(q)}, alpha={fmt(alpha)}, beta={fmt(beta)}",
    )


@dataclass(frozen=True)
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
    confirm_negativity: np.ndarray | None = None
    confirm_tau: float = 1e-4

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


def _symmetric_axis(n: int) -> np.ndarray:
    axis = np.linspace(-1.0, 1.0, n)
    # force exact sign symmetry so the fourfold verdict symmetry is bitwise
    return (axis - axis[::-1]) / 2.0


def _short_time_negativities(
    liouvillian: Liouvillian, p: np.ndarray, q: np.ndarray, tau: float
) -> np.ndarray:
    """Negativity at time tau from the product states of the (p, q) arrays (one expm).

    The states are built, propagated and measured ``_CONFIRM_BLOCK`` at a
    time, as stacks.
    """
    propagator = matrix_exp(liouvillian.superop, tau)
    out = np.empty(p.size)
    for start in range(0, p.size, _CONFIRM_BLOCK):
        bp, bq = p[start:start + _CONFIRM_BLOCK], q[start:start + _CONFIRM_BLOCK]
        sp, sq = np.sqrt(1.0 - bp * bp), np.sqrt(1.0 - bq * bq)
        psi = np.stack([bp * bq, bp * sq, sp * bq, sp * sq], axis=-1)
        # |psi><psi| is real and symmetric, so its row-major flattening is its vec
        v = (psi[:, :, None] * psi[:, None, :]).reshape(-1, 16).astype(complex)
        rhos = np.matmul(propagator, v[..., None]).reshape(-1, 4, 4).swapaxes(1, 2)
        out[start:start + bp.size] = negativity((rhos + rhos.conj().swapaxes(1, 2)) / 2)
    return out


def region_scan(
    params: ModelParams,
    n: int,
    spot_checks: int = 10,
    seed: int = 0,
    confirm_dynamics: bool = False,
    confirm_tau: float = 1e-4,
) -> RegionScan:
    """Classify every point of a uniform n x n grid over [-1, 1]^2.

    The verdicts come from one array call of :func:`is_entangling`.  For
    ``spot_checks`` randomly chosen entangling grid points the state is
    evolved to ``confirm_tau`` and must show strictly positive negativity;
    a contradiction raises.  With ``confirm_dynamics`` the short-time
    negativity is computed for every grid point and returned as a column.
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
    checks: list[dict] = []
    flagged = np.argwhere(entangling)
    if spot_checks > 0 and flagged.size > 0:
        rng = np.random.default_rng(seed)
        take = min(spot_checks, flagged.shape[0])
        i, j = flagged[rng.choice(flagged.shape[0], size=take, replace=False)].T
        negs = _short_time_negativities(liou, axis[i], axis[j], confirm_tau)
        for p, q, neg in zip(axis[i], axis[j], negs):
            if neg <= 0.0:
                raise NumericalInvariantError(
                    f"point ({p:g}, {q:g}) is flagged entangling but shows no "
                    f"negativity at t={confirm_tau:g}"
                )
            checks.append({"p": float(p), "q": float(q), "negativity": float(neg)})

    confirm = None
    if confirm_dynamics:
        p, q = np.meshgrid(axis, axis, indexing="ij")
        confirm = _short_time_negativities(liou, p.ravel(), q.ravel(), confirm_tau).reshape(n, n)

    return RegionScan(
        p_values=axis,
        q_values=axis,
        entangling=entangling,
        excess=excess,
        spot_checks=checks,
        confirm_negativity=confirm,
        confirm_tau=confirm_tau,
    )
