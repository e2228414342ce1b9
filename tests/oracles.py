"""Independent oracles used to freeze expected values in the tests.

Everything here is deliberately written against raw numpy/scipy so the
quantities being tested are derived along a different route than the code
under test.

* The exact propagator (:func:`propagate`) is ``scipy.linalg.expm``, not
  the package's ``matrix_exp``.
* Three generator oracles: :func:`master_equation_rhs` writes the master
  equation term by term (the local qubit and oscillator channels and the
  bath-induced cross terms), :func:`kossakowski_liouvillian` lifts the
  Kossakowski matrix entry by entry, and :func:`per_value_liouvillian`
  builds one point at a time with ``np.kron``.
* The RK4 oracle runs the k1-k4 stages one step at a time.
* Entropies, conditional entropies and discord come from eigensolvers, a
  full-sphere angle grid and Nelder-Mead.
* Negativity comes from the trace norm of the partial transpose, by SVD
  (:func:`negativity_trace_norm`), not from its eigenvalues.

The only package code used is the error type and
``matops.partial_transpose_second``.
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize

from bathlink.errors import NumericalInvariantError
from bathlink.matops import partial_transpose_second

DEFAULT_TOL = 1e-9

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def max_abs_diff(a, b):
    """Largest entrywise absolute difference."""
    return float(np.abs(np.asarray(a) - np.asarray(b)).max())


def is_close(a, b, tol=DEFAULT_TOL):
    """Entrywise equality under an explicit absolute tolerance."""
    return max_abs_diff(a, b) < tol


def hermitian_deviation(a):
    """``max |A - A^dagger|``, zero for exactly Hermitian input."""
    a = np.asarray(a)
    return float(np.abs(a - a.conj().T).max())


@dataclass(frozen=True)
class HermitianEigenDecomposition:
    """Ascending eigenvalues and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self):
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def hermitian_eigen(a, herm_tol=1e-9):
    """Eigendecomposition of a matrix that is Hermitian within ``herm_tol``, else raise."""
    a = np.asarray(a, dtype=complex)
    dev = hermitian_deviation(a)
    if dev >= herm_tol:
        raise NumericalInvariantError(
            f"input is not Hermitian within {herm_tol:g} (deviation {dev:.3e})"
        )
    w, v = np.linalg.eigh(a)
    return HermitianEigenDecomposition(eigenvalues=w, eigenvectors=v)


def matrix_from_dict(d):
    """Inverse of ``bathlink.matops.matrix_to_dict``."""
    rows, cols = int(d["rows"]), int(d["cols"])
    entries = d["entries"]
    if len(entries) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
    flat = np.array([complex(re, im) for re, im in entries])
    return flat.reshape(rows, cols)


def matrix_to_json(a):
    """``{rows, cols, entries: [[re, im], ...]}`` row-major, as JSON text."""
    a = np.asarray(a, dtype=complex)
    return json.dumps({
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "entries": [[float(z.real), float(z.imag)] for z in a.reshape(-1)],
    })


def matrix_from_json(s):
    return matrix_from_dict(json.loads(s))


def random_hermitian(rng, n=4, scale=1.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (a + a.conj().T) / 2


def random_density(rng, n=4):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng, n=2):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


BELL = {
    "phi+": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "phi-": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
    "psi+": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "psi-": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
}


def bell_state(kind="phi+"):
    v = BELL[kind]
    return np.outer(v, v.conj())


def bell_diagonal(probs):
    probs = np.asarray(probs, dtype=float)
    assert probs.shape == (4,) and abs(probs.sum() - 1.0) < 1e-12
    return sum(p * bell_state(k) for p, k in zip(probs, BELL))


def bell_diagonal_discord(rho):
    """Closed-form discord of a Bell-diagonal two-qubit state (bits).

    Uses the correlation-vector form: with c the largest |Tr rho (s_i x s_i)|,
    the optimal projective measurement lies along that axis and the classical
    correlation is sum_{s=+-} (1+s c)/2 log2(1+s c).
    """
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    cs = [np.trace(rho @ np.kron(s, s)).real for s in (SIGMA_X, SIGMA_Y, sz)]
    c = max(abs(x) for x in cs)
    eigs = np.linalg.eigvalsh(rho)
    eigs = eigs[eigs > 1e-15]
    mutual = 2.0 + float((eigs * np.log2(eigs)).sum())
    classical = sum(
        (1 + s * c) / 2 * np.log2(1 + s * c) for s in (+1, -1) if 1 + s * c > 1e-15
    )
    return mutual - classical


def negativity_trace_norm(rho):
    """Negativity by the trace norm: ``(sum of singular values of rho^T_HO - tr rho)/2``.

    One state or a stack.  The partial transpose is written by index here,
    ``<q h|rho^T_HO|q' h'> = <q h'|rho|q' h>``, and the singular values come
    from an SVD, so neither the package's partial transpose nor its
    eigensolver route is used.
    """
    rho = np.asarray(rho, dtype=complex)
    blocks = rho.reshape(rho.shape[:-2] + (2, 2, 2, 2))
    pt = np.einsum("...qhpk->...qkph", blocks).reshape(rho.shape)
    singular = np.linalg.svd(pt, compute_uv=False).sum(axis=-1)
    return (singular - np.trace(rho, axis1=-2, axis2=-1).real) / 2.0


def entropy_bits(rho):
    """Von Neumann entropies (bits) of Hermitian matrices on the last two axes."""
    eigs = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    logs = np.log2(np.where(eigs > 0.0, eigs, 1.0))
    return -(eigs * logs).sum(axis=-1)


def _projectors(theta, phi):
    """Both outcome projectors of each axis, stacked as (..., 2, 2, 2)."""
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    c, s, e = np.cos(theta / 2), np.sin(theta / 2), np.exp(1j * phi)
    kets = np.stack([np.stack([c + 0j, s * e], axis=-1), np.stack([s + 0j, -c * e], axis=-1)],
                    axis=-2)
    return kets[..., :, None] * kets[..., None, :].conj()


def measurement_projectors(theta, phi):
    """The two rank-1 projectors of the measured HO axis (they sum to identity)."""
    proj = _projectors(theta, phi)
    return proj[..., 0, :, :], proj[..., 1, :, :]


def _conditional_entropies(rho, theta, phi):
    """``sum_i p_i S(rho_Q | outcome i)`` for every axis in the (theta, phi) arrays.

    Each outcome's Q state ``Tr_HO[(1 (x) P_i) rho]`` is contracted from the
    projector entries, and its entropy comes from an eigensolver.  Outcomes
    with probability below 1e-12 contribute zero.
    """
    # rows (h, k), columns (q, p): Tr_HO[(1 (x) P) rho][q, p] = sum_hk P[k, h] rho[qh, pk]
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2).transpose(1, 3, 0, 2).reshape(4, 4)
    proj = _projectors(theta, phi)
    m = (proj.swapaxes(-1, -2).reshape(proj.shape[:-2] + (4,)) @ r).reshape(proj.shape)
    p = (m[..., 0, 0] + m[..., 1, 1]).real
    live = p > 1e-12
    cond = m / np.where(live, p, 1.0)[..., None, None]
    return np.where(live, p * entropy_bits(cond), 0.0).sum(axis=-1)


def conditional_entropy(rho, theta, phi):
    """Measured conditional entropy (bits) along the HO axis at Bloch angles (theta, phi)."""
    return float(_conditional_entropies(rho, theta, phi))


def _grid_minima(grid, th, ph):
    """Flat indices of up to two distinct local minima of a full-sphere grid.

    A point is a local minimum when no point of its 3 x 3 block (phi wraps
    around, theta stops at the poles) is lower.  Only minima within 1e-3
    bits of the grid minimum count, lowest first; a minimum whose
    measurement axis lies within one theta step of a kept one's, ``n`` and
    ``-n`` being the same measurement, is merged into it.
    """
    padded = np.pad(grid, ((1, 1), (0, 0)), mode="edge")
    lowest = np.ones(grid.shape, dtype=bool)
    for di in (0, 1, 2):
        for dj in (-1, 0, 1):
            lowest &= grid <= np.roll(padded[di:di + grid.shape[0]], dj, axis=1)
    flat = np.flatnonzero(lowest & (grid <= grid.min() + 1e-3))
    flat = flat[np.argsort(grid.flat[flat], kind="stable")]
    axes = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=-1)
    axes = axes.reshape(-1, 3)
    same = np.cos(th[1, 0] - th[0, 0])
    kept = []
    for k in flat:
        if all(abs(axes[k] @ axes[m]) < same for m in kept):
            kept.append(k)
        if len(kept) == 2:
            break
    return kept


def reference_discord(rho):
    """``(discord, classical_corr)`` by a full-sphere angle grid plus Nelder-Mead.

    The classical correlation ``S(rho_Q) - min S(rho_Q | measurement)`` is
    maximized over a 64x64 grid of Bloch angles (theta in [0, pi]).  Up to
    two distinct local minima of the grid within 1e-3 bits of its minimum
    (:func:`_grid_minima`) are each refined with Nelder-Mead, so the lower
    of two near-equal minima is found even when its basin is the smaller
    one; the lowest of the refined values and the grid minimum is kept.
    """
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    s_q = float(entropy_bits(np.einsum("qhph->qp", r)))
    s_ho = float(entropy_bits(np.einsum("qhqk->hk", r)))
    mutual = s_q + s_ho - float(entropy_bits(np.asarray(rho, dtype=complex)))
    th, ph = np.meshgrid(np.linspace(0.0, np.pi, 64),
                         np.linspace(0.0, 2 * np.pi, 64, endpoint=False), indexing="ij")
    grid = _conditional_entropies(rho, th, ph)
    best = float(grid.min())
    for k in _grid_minima(grid, th, ph):
        res = minimize(
            lambda x: float(_conditional_entropies(rho, x[0], x[1])),
            x0=np.array([th.flat[k], ph.flat[k]]),
            method="Nelder-Mead",
            options={"xatol": 1e-8, "fatol": 1e-9, "maxiter": 600},
        )
        best = min(best, float(res.fun))
    classical = s_q - best
    return mutual - classical, classical


def eta1_asymptotic_state(gamma1, gamma2, rho0):
    """Long-time limit of ``rho0`` under the equal-coupling (eta = 1) generator.

    Both collective jumps annihilate ``|psi-> = (|01> - |10>)/sqrt(2)``, an
    eigenstate of H, so its population ``p- = <psi-|rho0|psi->`` is conserved
    while every coherence between it and the triplet decays.  The triplet
    ``{|00>, |psi+>, |11>}`` relaxes by detailed balance to the weights
    ``r^2 : r : 1`` with ``r = gamma1/gamma2``, which gives

        rho_inf = p- |psi-><psi-| + (1 - p-) sigma,
        sigma = (r^2 |00><00| + r |psi+><psi+| + |11><11|) / (r^2 + r + 1).
    """
    psi_minus = BELL["psi-"]
    dark = float((psi_minus.conj() @ rho0 @ psi_minus).real)
    r = gamma1 / gamma2
    sigma = (np.diag([r * r, 0.0, 0.0, 1.0]) + r * bell_state("psi+")) / (r * r + r + 1.0)
    return dark * bell_state("psi-") + (1.0 - dark) * sigma


def hamiltonian(params):
    """``(omega/2) sigma_z (x) 1 + omega 1 (x) sigma_+ sigma_-`` (4x4, diagonal).

    Reads only the attribute ``omega`` of ``params``.
    """
    sp = np.array([[0, 0], [1, 0]], dtype=complex)
    sz = np.diag([-1.0, 1.0]).astype(complex)
    eye2 = np.eye(2, dtype=complex)
    return 0.5 * params.omega * np.kron(sz, eye2) + params.omega * np.kron(eye2, sp @ sp.T)


def master_equation_rhs(params, rho):
    """Master-equation right-hand side for one 4x4 ``rho``, written term by term.

    ``-i [H, rho]`` plus, for each pair of jump operators ``(A, B)``, the
    term ``rate (2 A rho B^dag - {B^dag A, rho})``: the local qubit channel
    (``gamma1`` with ``sigma_-^Q``, ``gamma2`` with ``sigma_+^Q``), the
    local oscillator channel scaled by ``eta^2``, and the bath-induced cross
    terms scaled by ``eta`` in both orders ``(Q, HO)`` and ``(HO, Q)``.
    Reads only the attributes ``omega``, ``gamma1``, ``gamma2`` and ``eta``
    of ``params``.
    """
    sp = np.array([[0, 0], [1, 0]], dtype=complex)
    sm = sp.T.copy()
    eye2 = np.eye(2, dtype=complex)
    sm_q, sp_q = np.kron(sm, eye2), np.kron(sp, eye2)
    sm_ho, sp_ho = np.kron(eye2, sm), np.kron(eye2, sp)
    g1, g2, eta = params.gamma1, params.gamma2, params.eta
    h = hamiltonian(params)
    rho = np.asarray(rho, dtype=complex)

    def term(rate, a, b):
        bd_a = b.conj().T @ a
        return rate * (2.0 * (a @ rho @ b.conj().T) - (bd_a @ rho + rho @ bd_a))

    out = -1j * (h @ rho - rho @ h)
    out += term(g1, sm_q, sm_q) + term(g2, sp_q, sp_q)
    out += term(g1 * eta**2, sm_ho, sm_ho) + term(g2 * eta**2, sp_ho, sp_ho)
    for rate, a, b in ((g1 * eta, sm_q, sm_ho), (g2 * eta, sp_q, sp_ho)):
        out += term(rate, a, b) + term(rate, b, a)
    return out


def kossakowski_liouvillian(h, k):
    """16x16 generator lifted entry by entry from the Kossakowski form.

    ``-i [H, rho] + sum_ij K_ij (G_i rho G_j^dag - {G_j^dag G_i, rho}/2)``
    over the operator basis ``(sigma_+^Q, sigma_-^Q, sigma_-^HO,
    sigma_+^HO)``, each term lifted under column stacking to
    ``conj(G_j) kron G_i - (1 kron G_j^dag G_i)/2 - ((G_j^dag G_i)^T kron 1)/2``.
    """
    sp = np.array([[0, 0], [1, 0]], dtype=complex)
    sm = sp.T.copy()
    eye2, eye4 = np.eye(2, dtype=complex), np.eye(4, dtype=complex)
    basis = (np.kron(sp, eye2), np.kron(sm, eye2), np.kron(eye2, sm), np.kron(eye2, sp))
    s = -1j * (np.kron(eye4, h) - np.kron(h.T, eye4))
    for i in range(4):
        for j in range(4):
            if k[i, j] == 0:
                continue
            gi, gj = basis[i], basis[j]
            gjd_gi = gj.conj().T @ gi
            s = s + k[i, j] * (
                np.kron(gj.conj(), gi)
                - 0.5 * np.kron(eye4, gjd_gi)
                - 0.5 * np.kron(gjd_gi.T, eye4)
            )
    return s


def per_value_liouvillian(params):
    """16x16 generator of one parameter point, one ``np.kron`` at a time.

    The per-value collective-jump build: ``-i (1 kron H - H^T kron 1) +
    2 gamma1 D[J_down] + 2 gamma2 D[J_up]``, each ``rate D[J]`` lifted as
    ``rate conj(J) kron J`` minus the halved lifts of its partial trace
    ``rate J^dag J``.  The package builds every point of a sweep as one
    broadcast stack; each of its slices must equal this bitwise.
    """
    sp = np.array([[0, 0], [1, 0]], dtype=complex)
    sm = sp.T.copy()
    eye2, eye4 = np.eye(2, dtype=complex), np.eye(4, dtype=complex)
    h = hamiltonian(params)

    def lift(rate, jump):
        jump_term = rate * np.kron(jump.conj(), jump)
        jdj = np.einsum("kkjl->jl", jump_term.reshape(4, 4, 4, 4))
        return jump_term - 0.5 * np.kron(eye4, jdj) - 0.5 * np.kron(jdj.T, eye4)

    j_down = np.kron(sm, eye2) + params.eta * np.kron(eye2, sm)
    j_up = np.kron(sp, eye2) + params.eta * np.kron(eye2, sp)
    return (-1j * (np.kron(eye4, h) - np.kron(h.T, eye4))
            + lift(2.0 * params.gamma1, j_down) + lift(2.0 * params.gamma2, j_up))


def rk4_stage_states(superop, rho0, t_max, steps, samples):
    """``samples + 1`` states of the classical k1-k4 stage loop, step by step.

    The step count is rounded up to a multiple of ``samples`` and each
    stored state is Hermitized and trace-renormalized before the next
    segment starts from it.  ``evolve_rk`` stores its samples as integrated,
    uncorrected: ``P(hS)`` preserves trace and Hermiticity, so the two routes
    differ by rounding and by those corrections, which the tests bound.
    """
    substeps = -(-steps // samples)
    h = t_max / (samples * substeps)
    v = np.asarray(rho0, dtype=complex).reshape(-1, order="F")
    states = [np.asarray(rho0, dtype=complex)]
    for _ in range(samples):
        for _ in range(substeps):
            k1 = superop @ v
            k2 = superop @ (v + 0.5 * h * k1)
            k3 = superop @ (v + 0.5 * h * k2)
            k4 = superop @ (v + h * k3)
            v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = v.reshape(4, 4, order="F")
        rho = (rho + rho.conj().T) / 2.0
        rho = rho / np.trace(rho).real
        states.append(rho)
        v = rho.reshape(-1, order="F")
    return np.array(states)


def propagate(superop, rho, t):
    """``unvec(expm(t S) vec(rho))`` under column stacking, for any real t.

    No state check: negative times may leave the state space.
    """
    v = np.asarray(rho, dtype=complex).reshape(-1, order="F")
    return (expm(t * superop) @ v).reshape(4, 4, order="F")


def xi_value(superop, rho0, psi, t):
    """Xi(t) along the exact propagator, for arbitrary real t."""
    rho_t = propagate(superop, rho0, t)
    return float((psi.conj() @ partial_transpose_second(rho_t) @ psi).real)


def reference_region_scan(gamma1, gamma2, eta, prop, n):
    """``(entangling, excess, negativity)`` on the n x n (p, q) grid, one point at a time.

    The closed-form discriminant ``B^2 - 4AC`` of each point, and the
    negativity of its product state propagated by the 16x16 ``prop``
    (``exp(tau S)``), from the eigenvalues of the Hermitian part of the HO
    partial transpose.
    """
    axis = np.linspace(-1.0, 1.0, n)
    axis = (axis - axis[::-1]) / 2.0
    entangling = np.zeros((n, n), dtype=bool)
    excess = np.zeros((n, n))
    neg = np.zeros((n, n))
    for i, p in enumerate(axis):
        for j, q in enumerate(axis):
            a = 2.0 * (gamma2 * p**4 + (p**2 - 1.0) ** 2 * gamma1)
            c = 2.0 * eta**2 * (gamma2 * q**4 + (q**2 - 1.0) ** 2 * gamma1)
            b = -2.0 * eta * (gamma1 + gamma2) * (p**2 * (2.0 * q**2 - 1.0) - q**2)
            excess[i, j] = b * b - 4.0 * a * c
            entangling[i, j] = excess[i, j] > 0.0
            phi = np.kron([p, np.sqrt(1.0 - p * p)], [q, np.sqrt(1.0 - q * q)]).astype(complex)
            rho = (prop @ np.outer(phi, phi.conj()).reshape(-1, order="F")).reshape(4, 4, order="F")
            rho = (rho + rho.conj().T) / 2
            pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
            eigs = np.linalg.eigvalsh((pt + pt.conj().T) / 2)
            neg[i, j] = ((np.abs(eigs) - eigs) / 2.0).sum()
    return entangling, excess, neg


def fd_dxi0(superop, rho0, psi, h=1e-6):
    """Centered finite difference of Xi at t = 0 along the exact propagator."""
    return (xi_value(superop, rho0, psi, h) - xi_value(superop, rho0, psi, -h)) / (2 * h)


# ---------------------------------------------------------------------------
# Extended-precision evaluation of the initial Xi rate.  Double precision
# leaves ~2e-15 of rounding noise in quantities that cancel exactly, which
# would mask properties asserted at the 1e-15 level; 80-bit floats push the
# noise below 1e-18.  Written against the collective-jump form of the
# generator, a third derivation independent of both package code paths.

_CD = np.clongdouble


def _ld_operators():
    sp = np.array([[0, 0], [1, 0]], dtype=_CD)
    sm = np.array([[0, 1], [0, 0]], dtype=_CD)
    sz = np.array([[-1, 0], [0, 1]], dtype=_CD)
    eye = np.eye(2, dtype=_CD)
    return sp, sm, sz, eye


def longdouble_dxi0(gamma1, gamma2, eta, omega, p, q, alpha, beta, vartheta):
    """<psi| (L[rho0])^T_HO |psi> in extended precision, psi unnormalized."""
    sp, sm, sz, eye = _ld_operators()
    g1, g2, eta, omega = _CD(gamma1), _CD(gamma2), _CD(eta), _CD(omega)
    p, q = _CD(p), _CD(q)
    jm = np.kron(sm, eye) + eta * np.kron(eye, sm)
    jp = np.kron(sp, eye) + eta * np.kron(eye, sp)
    h = omega / 2 * np.kron(sz, eye) + omega * np.kron(eye, sp @ sm)

    a = np.array([p, np.sqrt(1 - p * p)], dtype=_CD)
    b = np.array([q, np.sqrt(1 - q * q)], dtype=_CD)
    a_perp = np.array([a[1], -p], dtype=_CD)
    b_perp = np.array([b[1], -q], dtype=_CD)
    phi = np.kron(a, b)
    rho = np.outer(phi, phi.conj())
    psi = (
        _CD(alpha) * np.kron(a_perp, b)
        + _CD(beta) * np.kron(a, b_perp)
        + _CD(vartheta) * np.kron(a_perp, b_perp)
    )

    rhs = -1j * (h @ rho - rho @ h)
    for rate, jump in ((2 * g1, jm), (2 * g2, jp)):
        jd = jump.conj().T
        jdj = jd @ jump
        rhs = rhs + rate * (jump @ rho @ jd - (jdj @ rho + rho @ jdj) / 2)
    pt = np.ascontiguousarray(rhs.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1)).reshape(4, 4)
    return float((psi.conj() @ pt @ psi).real)
