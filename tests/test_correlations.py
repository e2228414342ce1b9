import dataclasses
import itertools
import json
import logging
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from bathlink.correlations import (
    conditional_entropy_grid,
    discord,
    mutual_information,
    negativity,
)
from bathlink.dynamics import evolve_exact, evolve_rk, product_state
from bathlink.errors import ConfigError, NumericalInvariantError
from bathlink.matops import partial_trace, partial_transpose_second
from bathlink.model import ModelParams, build_liouvillian
from oracles import (
    bell_diagonal,
    bell_diagonal_discord,
    bell_state,
    conditional_entropy,
    entropy_bits,
    max_abs_diff,
    measurement_projectors,
    negativity_trace_norm,
    random_density,
    random_unitary,
    reference_discord,
)


def werner(w):
    return w * bell_state("phi+") + (1.0 - w) * np.eye(4) / 4.0


# -------------------------------------------------------------- negativity

def test_negativity_bell_state():
    assert abs(negativity(bell_state("phi+")) - 0.5) < 1e-12


def test_negativity_werner():
    assert abs(negativity(werner(0.6)) - 0.2) < 1e-12


@pytest.mark.parametrize("seed", range(8))
def test_negativity_vanishes_on_products(seed):
    rng = np.random.default_rng(seed)
    rho = np.kron(random_density(rng, 2), random_density(rng, 2))
    assert negativity(rho) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_negativity_local_unitary_invariance(seed):
    rng = np.random.default_rng(600 + seed)
    rho = werner(rng.uniform(0.4, 1.0))
    u = np.kron(random_unitary(rng), random_unitary(rng))
    rotated = u @ rho @ u.conj().T
    assert abs(negativity(rotated) - negativity(rho)) < 1e-9


def _random_states():
    """128 seeded states, 32 of each rank from 1 (pure) to 4."""
    rng = np.random.default_rng(1300)
    rank = np.repeat(np.arange(1, 5), 32)
    a = rng.normal(size=(128, 4, 4)) + 1j * rng.normal(size=(128, 4, 4))
    a *= np.arange(4) < rank[:, None, None]
    rho = a @ a.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]


def _bell_and_werner_states():
    return np.array([w * bell_state(kind) + (1.0 - w) * np.eye(4) / 4.0
                     for kind in ("phi+", "phi-", "psi+", "psi-")
                     for w in np.linspace(0.0, 1.0, 21)])


def _region_confirmation_states(monkeypatch):
    """The states ``region --eta 1 --n 121 --confirm-dynamics`` measures at tau = 1e-4."""
    import bathlink.witness as witness

    seen = []

    def record(states):
        seen.append(np.array(states))
        return negativity(states)

    monkeypatch.setattr(witness, "negativity", record)
    params = ModelParams.from_rates(1.01, 0.01, 1.0, 0.001)
    witness.region_scan(params, 121, spot_checks=0, confirm_dynamics=True, confirm_tau=1e-4)
    return np.concatenate(seen)


def _heatmap_states():
    """The negativity heatmap's trajectories: 41 eta values in [0, 1] x 251 times."""
    sweep = [ModelParams.from_rates(1.01, 0.01, eta, 0.001) for eta in np.linspace(0.0, 1.0, 41)]
    trajectories = evolve_exact(build_liouvillian(sweep), product_state(0.6, 0.3),
                                np.linspace(0.0, 6.0, 251))
    return np.concatenate([traj.states for traj in trajectories])


AGREEMENT_SETS = {
    "random": lambda monkeypatch: _random_states(),
    "bell_werner": lambda monkeypatch: _bell_and_werner_states(),
    "region_confirmation": _region_confirmation_states,
    "heatmap": lambda monkeypatch: _heatmap_states(),
}


@pytest.mark.parametrize("name", AGREEMENT_SETS)
def test_negativity_matches_trace_norm_oracle(name, monkeypatch):
    states = AGREEMENT_SETS[name](monkeypatch)
    assert max_abs_diff(negativity(states), negativity_trace_norm(states)) < 1e-10


@pytest.mark.parametrize("name", AGREEMENT_SETS)
def test_partial_transpose_determinant_is_negative_exactly_when_entangled(name, monkeypatch):
    # Augusiak, Demianowicz & Horodecki, PRA 77, 030301(R) (2008): det(pt) < 0
    # exactly when the least eigenvalue of pt is; least eigenvalues within
    # rounding of zero decide neither way and are left out
    states = AGREEMENT_SETS[name](monkeypatch)
    pt = partial_transpose_second(states)
    least = np.linalg.eigvalsh(pt)[:, 0]
    det = np.linalg.det(pt).real
    clear = np.abs(least) > 1e-12
    assert (least[clear] < 0.0).any()
    assert np.array_equal(det[clear] < 0.0, least[clear] < 0.0)


@pytest.mark.parametrize("rank", [1, 2, 4])
def test_minor_expansion_determinant_matches_lu(rank):
    from bathlink.correlations import _det4

    rng = np.random.default_rng(1500 + rank)
    a = rng.normal(size=(200, 4, rank)) + 1j * rng.normal(size=(200, 4, rank))
    rho = a @ a.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    for m in (rho, partial_transpose_second(rho)):
        s = np.abs(np.linalg.eigvalsh(m)).max(axis=-1)
        assert (np.abs(_det4(m) - np.linalg.det(m)) <= 1e-13 * s**4).all()


def test_negativity_rejects_a_matrix_that_is_not_4x4():
    with pytest.raises(ValueError, match=r"^expected a \(4, 4\) state or an \(N, 4, 4\) stack, "
                                         r"got \(3, 3\)$"):
        negativity(np.ones((3, 3)))


def test_spectrum_check_rejects_two_negative_eigenvalues(monkeypatch):
    # a Hermitian stand-in for the partial transpose, with the state's trace,
    # whose spectrum no two-qubit partial transpose can have
    import bathlink.correlations as corr

    fake = np.diag([-0.1, -0.1, 0.6, 0.6]).astype(complex)
    monkeypatch.setattr(corr, "partial_transpose_second", lambda states: fake[None])
    with pytest.raises(NumericalInvariantError, match="state 0: two negative"):
        corr.negativity(np.eye(4) / 4.0)


# The removed cross-check, kept here to compare against: the negativity from
# the eigenvalues had to match the trace-norm form of the same partial
# transpose to 1e-10.
def _svd_check_fails(rho, pt_of, eigvalsh):
    pt = pt_of(rho[None])
    eigs = eigvalsh((pt + pt.conj().swapaxes(-1, -2)) / 2)
    from_eigs = ((np.abs(eigs) - eigs) / 2.0).sum(axis=-1)
    from_norm = (np.linalg.svd(pt, compute_uv=False).sum(axis=-1) - np.trace(rho).real) / 2.0
    return bool(np.abs(from_eigs - from_norm).max() >= 1e-10)


_EIGVALSH = np.linalg.eigvalsh


def _perturbed_eigenvalue(k, size=1e-9):
    def eigvalsh(a):
        eigs = _EIGVALSH(a).copy()
        eigs[..., k] += size
        return eigs
    return eigvalsh


def _real_part_eigvalsh(a):
    # the Hermitian part formed without its conj: eigvalsh then sees Re(pt)
    return _EIGVALSH(a.real)


def _dropped_conj_pt(states):
    pt = partial_transpose_second(states).copy()
    pt[..., 1, 0] = pt[..., 0, 1]
    return pt


def _axes_pt(perm):
    def pt_of(states):
        states = np.asarray(states, dtype=complex)
        blocks = states.reshape(states.shape[:-2] + (2, 2, 2, 2))
        return np.ascontiguousarray(blocks.transpose(0, *perm)).reshape(states.shape)
    return pt_of


def test_spectrum_check_holds_eigenvalues_to_1e_12(monkeypatch):
    # psi- has partial-transpose spectrum (-1/2, 1/2, 1/2, 1/2), so s = 1/2 and the
    # eigenvalue sum is held to 5e-13; the sum of cubes, 3/4 of a shift, to 1.25e-13
    import bathlink.correlations as corr

    monkeypatch.setattr(np.linalg, "eigvalsh", _perturbed_eigenvalue(3, 1e-13))
    assert abs(corr.negativity(bell_state("psi-")) - 0.5) < 1e-15
    monkeypatch.setattr(np.linalg, "eigvalsh", _perturbed_eigenvalue(3, 1e-12))
    with pytest.raises(NumericalInvariantError, match="sum of eigenvalues 1.000000000001 does"):
        corr.negativity(bell_state("psi-"))


#: (name, partial transpose, eigensolver) of each mutated negativity route.
MUTATIONS = [
    ("least_eigenvalue_plus_1e-9", partial_transpose_second, _perturbed_eigenvalue(0)),
    ("largest_eigenvalue_plus_1e-9", partial_transpose_second, _perturbed_eigenvalue(3)),
    ("pt_entry_without_conj", _dropped_conj_pt, _EIGVALSH),
    ("hermitian_part_without_conj", partial_transpose_second, _real_part_eigvalsh),
] + [
    ("pt_axes_" + "".join("qhpk"[i - 1] for i in perm), _axes_pt(perm), _EIGVALSH)
    for perm in itertools.permutations((1, 2, 3, 4)) if perm != (1, 4, 3, 2)
]
#: Mutations the spectrum check must catch on every state with complex entries.
ALWAYS_CAUGHT = {"least_eigenvalue_plus_1e-9", "largest_eigenvalue_plus_1e-9",
                 "pt_entry_without_conj", "hermitian_part_without_conj"}
#: Of those, the mutations of the eigensolver, which no state that
#: ``matops._positive_definite`` certifies positive reaches.
EIGENSOLVER_MUTATIONS = {"least_eigenvalue_plus_1e-9", "largest_eigenvalue_plus_1e-9",
                         "hermitian_part_without_conj"}


@pytest.mark.parametrize("name, pt_of, eigvalsh", MUTATIONS, ids=[m[0] for m in MUTATIONS])
def test_spectrum_check_catches_every_mutation_the_svd_check_caught(
        name, pt_of, eigvalsh, monkeypatch):
    import bathlink.correlations as corr

    complex_states = _random_states()[::4]
    states = np.concatenate([complex_states, bell_state("psi-")[None]])
    svd_caught = [_svd_check_fails(rho, pt_of, eigvalsh) for rho in states]
    # the certified states: a least eigenvalue of the partial transpose clearly
    # above the certificate's margin, SPECTRUM_TOL |tr rho|
    least = _EIGVALSH(partial_transpose_second(complex_states))[:, 0]
    certified = least > 1e-11
    assert np.count_nonzero(certified) == 4
    calls = []

    def counted(a):
        calls.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(corr, "partial_transpose_second", pt_of)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    caught, solved, values = [], [], []
    for rho in states:
        calls.clear()
        try:
            values.append(corr.negativity(rho))
        except NumericalInvariantError as exc:
            assert re.match(r"negativity: state 0: (two negative|\w.* does not match)", str(exc))
            caught.append(True)
            values.append(None)
        else:
            caught.append(False)
        solved.append(sum(calls) > 0)
    assert all(c for c, s in zip(caught, svd_caught) if s)
    if name in ALWAYS_CAUGHT:  # on the real Bell state a dropped conj changes nothing
        for k in range(len(complex_states)):
            if name in EIGENSOLVER_MUTATIONS and certified[k]:
                # no eigensolver runs on a certified state, so none can be caught there
                assert not solved[k] and values[k] == 0.0
            else:
                assert caught[k]


def _eigensolver_negativity(states):
    """The negativity by ``eigvalsh`` on every state, formed as ``negativity`` forms it."""
    pt = partial_transpose_second(states)
    h = pt + pt.conj().swapaxes(-1, -2)
    h /= 2
    eigs = _EIGVALSH(h)
    return ((np.abs(eigs) - eigs) / 2.0).sum(axis=-1)


def _no_eigensolver(a):
    raise AssertionError("eigvalsh called")


@pytest.fixture
def solved(monkeypatch):
    """The number of states of each ``eigvalsh`` call the test makes."""
    rows = []

    def counted(a):
        rows.append(len(a))
        return _EIGVALSH(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return rows


@pytest.mark.parametrize("name", AGREEMENT_SETS)
def test_negativity_equals_the_eigensolver_on_every_state_bitwise(name, monkeypatch, solved):
    states = AGREEMENT_SETS[name](monkeypatch)
    solved.clear()
    assert np.array_equal(negativity(states), _eigensolver_negativity(states))
    if name == "region_confirmation":  # 61.5 % of these states are certified
        assert sum(solved) < 0.4 * len(states)


@pytest.mark.parametrize("name", AGREEMENT_SETS)
def test_trace_sums_match_the_spectrum_with_no_wider_bound(name, monkeypatch):
    # a certified state is checked through tr(h^k) and det(h); its scale
    # sqrt(tr h^2)/2 may not exceed the largest |lambda| the eigenvalues give
    from bathlink.correlations import _power_sums, _trace_sums

    states = AGREEMENT_SETS[name](monkeypatch)
    pt = partial_transpose_second(states)
    h = (pt + pt.conj().swapaxes(-1, -2)) / 2
    sums, scale = _trace_sums(h)
    eig_sums, eig_scale = _power_sums(_EIGVALSH(h))
    assert (scale <= eig_scale * (1.0 + 1e-15)).all()
    assert (np.abs(sums - eig_sums) <= 1e-14 * eig_scale[:, None] ** np.arange(1, 5)).all()


def test_a_certified_stack_runs_no_eigensolver(monkeypatch):
    # full-rank product states: positive partial transposes, well inside the margin
    rng = np.random.default_rng(1600)
    states = np.array([np.kron(random_density(rng, 2), random_density(rng, 2)) for _ in range(20)])
    expected = _eigensolver_negativity(states)
    monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigensolver)
    value = negativity(states)
    assert np.array_equal(value, expected) and not value.any()
    assert negativity(states[0]) == 0.0


@pytest.mark.parametrize("factor, certified", [(0.99, False), (1.01, True)])
def test_the_certificate_margin_edge(factor, certified, solved):
    # w psi- + (1 - w) 1/4 has least partial-transpose eigenvalue (1 - 3 w)/4,
    # here factor * SPECTRUM_TOL; a local unitary makes every entry complex
    from bathlink.correlations import SPECTRUM_TOL

    w = (1.0 - 4.0 * factor * SPECTRUM_TOL) / 3.0
    rng = np.random.default_rng(1700)
    u = np.kron(random_unitary(rng), random_unitary(rng))
    rho = u @ (w * bell_state("psi-") + (1.0 - w) * np.eye(4) / 4.0) @ u.conj().T
    least = _EIGVALSH(partial_transpose_second(rho[None]))[0, 0]
    assert abs(least / (factor * SPECTRUM_TOL) - 1.0) < 1e-3
    expected = _eigensolver_negativity(rho[None])[0]
    solved.clear()
    value = negativity(rho)
    assert value == 0.0 and expected == 0.0
    assert np.signbit(value) == np.signbit(expected)
    assert (sum(solved) == 0) == certified


def test_a_certified_state_with_a_non_hermitian_partial_transpose_raises(monkeypatch):
    import bathlink.correlations as corr

    states = _random_states()
    least = _EIGVALSH(partial_transpose_second(states))[:, 0]
    rho = states[np.argmax(least)]
    assert least.max() > 1e-3
    monkeypatch.setattr(np.linalg, "eigvalsh", _no_eigensolver)
    assert corr.negativity(rho) == 0.0
    monkeypatch.setattr(corr, "partial_transpose_second", _dropped_conj_pt)
    with pytest.raises(NumericalInvariantError,
                       match=r"^negativity: state 0: sum of squares \S+ does not match "
                             r"tr\(pt\^2\) \S+j$"):
        corr.negativity(rho)


# ----------------------------------------------------------------- entropy
# The reference entropy that the tests below compare against, pinned to
# closed forms; the package's own entropies meet it through mutual_information.

def test_entropy_pure_state():
    assert entropy_bits(bell_state("phi+")) < 1e-12


def test_entropy_maximally_mixed():
    assert abs(entropy_bits(np.eye(4) / 4) - 2.0) < 1e-12


def test_entropy_half_half():
    assert abs(entropy_bits(np.diag([0.5, 0.5, 0.0, 0.0])) - 1.0) < 1e-12


def test_entropy_rejects_bad_trace():
    with pytest.raises(ConfigError, match="entropy input has trace"):
        mutual_information(np.eye(4))


@pytest.mark.parametrize("seed", range(5))
def test_entropy_concavity(seed):
    rng = np.random.default_rng(700 + seed)
    r1, r2 = random_density(rng), random_density(rng)
    mixed = entropy_bits((r1 + r2) / 2)
    assert mixed >= 0.5 * entropy_bits(r1) + 0.5 * entropy_bits(r2) - 1e-9


# -------------------------------------------------------- mutual information

def test_mutual_information_product_state():
    assert abs(mutual_information(product_state(0.3, -0.7))) < 1e-12


def test_mutual_information_bell():
    assert abs(mutual_information(bell_state("phi+")) - 2.0) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_mutual_information_matches_oracle_entropies(seed):
    rng = np.random.default_rng(850 + seed)
    states = np.array([random_density(rng) for _ in range(8)] + [bell_state("psi-")])
    r = states.reshape(-1, 2, 2, 2, 2)  # marginals by einsum, not by partial_trace
    expected = (entropy_bits(np.einsum("nqhph->nqp", r)) + entropy_bits(np.einsum("nqhqk->nhk", r))
                - entropy_bits(states))
    assert max_abs_diff(mutual_information(states), expected) < 1e-12


def test_mutual_information_classical_correlation():
    rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    assert abs(mutual_information(rho) - 1.0) < 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_mutual_information_bounds(seed):
    rng = np.random.default_rng(800 + seed)
    rho = random_density(rng)
    mi = mutual_information(rho)
    s_a = entropy_bits(partial_trace(rho, "first"))
    s_b = entropy_bits(partial_trace(rho, "second"))
    assert mi >= -1e-9
    assert mi <= 2.0 * min(s_a, s_b) + 1e-9


# ----------------------------------------------------- conditional entropy

def test_measurement_projectors_complete_and_idempotent():
    for theta, phi in [(0.0, 0.0), (1.0, 2.0), (math.pi, 0.5), (2.2, 6.0)]:
        p0, p1 = measurement_projectors(theta, phi)
        assert max_abs_diff(p0 + p1, np.eye(2)) < 1e-14
        assert max_abs_diff(p0 @ p0, p0) < 1e-14
        assert max_abs_diff(p1 @ p1, p1) < 1e-14


def test_conditional_entropy_product_state_equals_marginal_entropy():
    # measuring the oscillator cannot inform about the qubit
    rho_q = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    rho = np.kron(rho_q, np.diag([0.4, 0.6]).astype(complex))
    expected = entropy_bits(rho_q)
    for theta, phi in [(0.0, 0.0), (0.7, 1.3), (2.5, 4.0)]:
        got = conditional_entropy(rho, theta, phi)
        assert abs(got - expected) < 1e-10


def test_conditional_entropy_bell_vanishes_for_every_axis():
    rho = bell_state("phi+")
    for theta in np.linspace(0.0, math.pi, 7):
        for phi in np.linspace(0.0, 2 * math.pi, 7, endpoint=False):
            assert conditional_entropy(rho, theta, phi) < 1e-10


def test_conditional_entropy_classical_state_computational_basis():
    rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    assert conditional_entropy(rho, 0.0, 0.0) < 1e-12


# ------------------------------------------------------------------ kernels

@pytest.mark.parametrize("seed", range(4))
def test_kernel_grid_matches_scalar_reference(seed):
    rng = np.random.default_rng(900 + seed)
    rho = random_density(rng)
    thetas = np.linspace(0.0, math.pi, 5)
    phis = np.linspace(0.0, 2 * math.pi, 5, endpoint=False)
    grid = conditional_entropy_grid(rho[None], thetas, phis)
    assert grid.shape == (1, 5, 5)
    for i, theta in enumerate(thetas):
        for j, phi in enumerate(phis):
            ref = conditional_entropy(rho, theta, phi)
            assert abs(grid[0, i, j] - ref) < 1e-10


# ------------------------------------------------------------------ discord

def test_discord_bell_state():
    sample = discord(bell_state("phi+"))
    assert abs(sample.discord - 1.0) < 1e-6
    assert abs(sample.mutual_info - 2.0) < 1e-9
    assert abs(sample.classical_corr - 1.0) < 1e-6


def test_discord_product_state():
    sample = discord(product_state(0.8, -0.2))
    assert abs(sample.discord) < 1e-6


def test_discord_classical_state():
    rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    sample = discord(rho)
    assert abs(sample.discord) < 1e-6
    assert abs(sample.classical_corr - 1.0) < 1e-6


@pytest.mark.parametrize("seed", range(6))
def test_discord_bell_diagonal_oracle(seed):
    rng = np.random.default_rng(1000 + seed)
    rho = bell_diagonal(rng.dirichlet(np.ones(4)))
    sample = discord(rho)
    assert abs(sample.discord - bell_diagonal_discord(rho)) < 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_discord_decomposition_and_bounds(seed):
    rng = np.random.default_rng(1100 + seed)
    rho = random_density(rng)
    sample = discord(rho)
    # additivity is exact by construction
    assert abs(sample.mutual_info - sample.classical_corr - sample.discord) < 1e-12
    assert sample.classical_corr >= -1e-7
    assert sample.classical_corr <= sample.mutual_info + 1e-7
    assert sample.discord >= -1e-7
    assert 0.0 <= sample.theta <= math.pi
    assert 0.0 <= sample.phi < 2 * math.pi


@pytest.mark.parametrize("seed", range(4))
def test_discord_refinement_never_loses_to_grid(seed):
    rng = np.random.default_rng(1200 + seed)
    rho = random_density(rng)
    _, reference = reference_discord(rho)
    # the search finds at least the classical correlation of the
    # 64x64 full-sphere grid refined by Nelder-Mead
    assert discord(rho).classical_corr >= reference - 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_discord_dominates_raw_grid_optimum(seed):
    import bathlink.correlations as corr

    rng = np.random.default_rng(1250 + seed)
    rho = random_density(rng)
    thetas = np.linspace(0.0, math.pi, 64)
    phis = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    grid_j = entropy_bits(partial_trace(rho, "first")) - float(
        conditional_entropy_grid(rho[None], thetas, phis).min()
    )
    sample = corr.discord(rho)
    assert sample.classical_corr >= grid_j - 1e-12


def _x_state(diagonal, z14, z23):
    """X-shaped state with the given diagonal and real coherences <00|rho|11>, <01|rho|10>."""
    rho = np.diag(diagonal).astype(complex)
    rho[0, 3] = rho[3, 0] = z14
    rho[1, 2] = rho[2, 1] = z23
    return rho


def _exact_trajectory(eta, p, q):
    params = ModelParams.from_rates(gamma1=1.01, gamma2=0.01, eta=eta, omega=0.001)
    return evolve_exact(build_liouvillian(params), product_state(p, q),
                        np.linspace(0.0, 6.0, 51)).states


def _adversarial_states():
    """States whose minimum a coarse or fixed-budget search misses.

    * At eta = 1 the optimum lies in a long, flat, curved valley (curvatures
      3e-5 and 7e-2), and at eta = 0.9 in a shallower one.
    * X-states inside the windows where the optimal axis is at neither
      theta = 0 nor pi/2 (theta* = 0.60, 0.67 and 0.62, with phi* = 0, 0 and
      pi/2; the window is 0.9e-3 to 2e-3 bits deep).
    * Two minima 2e-6 bits apart, at the pole and on the equator of an
      X-state, both moved off the scan grid by a rotation of the HO side; the
      lower one has the smaller basin, and the best two scan points lie in
      the other basin.  The same state under 40 seeded Haar rotations of the
      HO side puts the two minima anywhere on the sphere.
    """
    trajectories = [_exact_trajectory(1.0, 0.6, -0.4), _exact_trajectory(1.0, -0.8, 0.5),
                    _exact_trajectory(0.9, 0.2, 0.9)]
    windows = [
        _x_state([0.0005, 0.0111, 0.9409, 0.0475], -0.0034, -0.0756),
        _x_state([0.8099, 0.0653, 0.0086, 0.1162], -0.2498, -0.017),
        _x_state([0.0605, 0.8881, 0.0439, 0.0075], 0.0208, -0.137),
    ]
    # z23 puts the equator minimum 2e-6 bits above the pole
    two_minima = _x_state([0.2462, 0.5031, 0.2504, 0.0003], 0.00106, 0.2987235040823088)
    rx = np.array([[math.cos(0.25), -1j * math.sin(0.25)], [-1j * math.sin(0.25), math.cos(0.25)]])
    rz = np.diag([np.exp(-0.2j), np.exp(0.2j)])
    rng = np.random.default_rng(1600)
    rotations = [rz @ rx] + [random_unitary(rng) for _ in range(40)]
    unitaries = [np.kron(np.eye(2), r) for r in rotations]
    rotated = [u @ two_minima @ u.conj().T for u in unitaries]
    return np.concatenate([*trajectories, windows, rotated])


def _agreement_states(kind):
    if kind == "adversarial":
        return _adversarial_states()
    if kind == "random":
        rng = np.random.default_rng(1300)
        return np.array([random_density(rng) for _ in range(200)])
    if kind == "bell_diagonal":
        rng = np.random.default_rng(1400)
        return np.array([bell_diagonal(rng.dirichlet(np.ones(4))) for _ in range(50)])
    if kind == "canonical":
        params = ModelParams.from_rates(gamma1=1.01, gamma2=0.01, eta=1.0, omega=0.001)
        times = np.linspace(0.0, 6.0, 401)
        return evolve_exact(build_liouvillian(params), product_state(1.0, 0.0), times).states
    params = ModelParams.from_rates(gamma1=1.01, gamma2=0.01, eta=0.6, omega=0.001)
    traj = evolve_rk(build_liouvillian(params), product_state(0.6, -0.4), 5.0,
                     steps=5000, samples=50)
    return traj.states


AGREEMENT_KINDS = ["random", "bell_diagonal", "canonical", "rk4_generic", "adversarial"]


@pytest.mark.parametrize("kind", AGREEMENT_KINDS)
def test_discord_matches_reference(kind):
    states = _agreement_states(kind)
    result = discord(states)
    assert result.discord.shape == (len(states),)
    for k, rho in enumerate(states):
        ref_discord, ref_classical = reference_discord(rho)
        # about 3x the largest measured gap, 1.6e-14 (classical_corr, rk4_generic)
        assert abs(result.discord[k] - ref_discord) <= 5e-14
        assert abs(result.classical_corr[k] - ref_classical) <= 5e-14
        # the reported axis attains the reported optimum
        s_q = entropy_bits(partial_trace(rho, "first"))
        attained = conditional_entropy(rho, result.theta[k], result.phi[k])
        assert abs(s_q - attained - result.classical_corr[k]) <= 1e-9
        assert 0.0 <= result.theta[k] <= math.pi / 2


@pytest.mark.parametrize("kind", AGREEMENT_KINDS)
def test_discord_search_converges(kind, caplog):
    states = _agreement_states(kind)
    with caplog.at_level(logging.WARNING, logger="bathlink.correlations"):
        discord(states)
    assert caplog.records == []


def test_discord_logs_searches_left_unconverged(monkeypatch, caplog):
    import bathlink.correlations as corr

    monkeypatch.setattr(corr, "NEWTON_STEPS", 1)
    states = _exact_trajectory(1.0, 0.6, -0.4)[40:]
    with caplog.at_level(logging.WARNING, logger="bathlink.correlations"):
        result = discord(states)
    [record] = caplog.records
    assert record.levelno == logging.WARNING
    count = re.search(r"(\d+) of 11 states reached 1 Newton iterations unconverged",
                      record.getMessage())
    assert count and int(count.group(1)) >= 1
    # the result stands: no worse than the coarse scan's optimum
    for rho, classical in zip(states, result.classical_corr):
        scan = conditional_entropy_grid(rho[None], corr.SCAN_THETAS, corr.SCAN_PHIS).min()
        s_q = entropy_bits(partial_trace(rho, "first"))
        assert classical >= s_q - scan


def test_unconverged_warning_loads_no_numpy_ma():
    # np.unique imports numpy.ma, about 11 ms inside a CLI run that logs the WARNING
    code = ("import json, logging, sys\n"
            "import numpy as np\n"
            "import bathlink.correlations as corr\n"
            "from bathlink.dynamics import evolve_exact, product_state\n"
            "from bathlink.model import ModelParams, build_liouvillian\n"
            "params = ModelParams.from_rates(gamma1=1.01, gamma2=0.01, eta=1.0, omega=0.001)\n"
            "states = evolve_exact(build_liouvillian(params), product_state(0.6, -0.4),\n"
            "                      np.linspace(0.0, 6.0, 51)).states[40:]\n"
            "logging.basicConfig(format='%(levelname)s %(message)s')\n"
            "eager = 'numpy.ma' in sys.modules\n"
            "corr.NEWTON_STEPS = 1\n"
            "corr.discord(states)\n"
            "print(json.dumps([eager, 'numpy.ma' in sys.modules]))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, encoding="utf-8",
                            check=True)
    assert re.search(r"^WARNING discord: \d+ of 11 states reached 1 Newton iterations unconverged",
                     result.stderr, re.MULTILINE), result.stderr
    eager, loaded = json.loads(result.stdout)
    if eager:
        pytest.skip("this numpy imports numpy.ma together with numpy")
    assert not loaded


def test_stack_equals_one_call_per_state():
    rng = np.random.default_rng(1500)
    states = np.array([random_density(rng) for _ in range(9)] + [bell_state("psi-")])
    stacked = discord(states)
    singles = [discord(rho) for rho in states]
    for field in dataclasses.fields(stacked):
        column = getattr(stacked, field.name)
        values = [getattr(single, field.name) for single in singles]
        assert all(type(value) is float for value in values)
        assert column.tobytes() == np.array(values).tobytes(), field.name
    assert list(negativity(states)) == [negativity(rho) for rho in states]
    assert list(mutual_information(states)) == [mutual_information(rho) for rho in states]


# ----------------------------------------------------- tolerance edges

def test_entropy_trace_tolerance_edges():
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    mutual_information(rho * (1.0 + 1e-7))  # within ENTROPY_TRACE_TOL = 1e-6
    with pytest.raises(ConfigError, match="entropy input has trace 1.00001"):
        mutual_information(rho * (1.0 + 1e-5))


def _rare_outcome_state(q_state):
    """``(1 - eps) q_state (x) |0><0| + eps (1/2) (x) |1><1|`` with ``eps = 1e-10``.

    Classical on HO, so measuring HO along z is optimal; its |1> outcome has
    probability 1e-10, between the outcome floor 1e-12 and 1e-9, and leaves
    Q maximally mixed, so it adds 1e-10 bits to the conditional entropy.
    """
    eps = 1e-10
    return (np.kron((1.0 - eps) * q_state, np.diag([1.0, 0.0]))
            + np.kron(eps * np.eye(2) / 2.0, np.diag([0.0, 1.0]))).astype(complex)


@pytest.mark.parametrize("q_state", [np.diag([1.0, 0.0]), np.full((2, 2), 0.5)],
                         ids=["x_shaped", "general"])
def test_discord_counts_outcomes_just_above_the_probability_floor(q_state):
    rho = _rare_outcome_state(q_state)
    ref_discord, ref_classical = reference_discord(rho)
    result = discord(rho)
    assert abs(result.classical_corr - ref_classical) <= 1e-12
    assert abs(result.discord - ref_discord) <= 1e-12


# ------------------------------------------------------ X-state route

def _random_x_states(count):
    """X states with random diagonals and complex <00|rho|11>, <01|rho|10> inside the PSD bounds."""
    rng = np.random.default_rng(1700)
    diag = rng.dirichlet(np.ones(4), size=count)
    phases = np.exp(2j * math.pi * rng.uniform(size=(count, 2)))
    fractions = rng.uniform(size=(count, 2))
    rho = np.zeros((count, 4, 4), dtype=complex)
    rho[:, [0, 1, 2, 3], [0, 1, 2, 3]] = diag
    rho[:, 0, 3] = fractions[:, 0] * np.sqrt(diag[:, 0] * diag[:, 3]) * phases[:, 0]
    rho[:, 1, 2] = fractions[:, 1] * np.sqrt(diag[:, 1] * diag[:, 2]) * phases[:, 1]
    return rho + np.triu(rho, 1).conj().swapaxes(-1, -2)


def _x_route_states(kind):
    if kind == "werner":
        return np.array([werner(w) for w in np.linspace(0.0, 1.0, 11)])
    if kind == "bell_diagonal":
        rng = np.random.default_rng(1800)
        return np.array([bell_diagonal(rng.dirichlet(np.ones(4))) for _ in range(20)])
    if kind == "random_x":
        return _random_x_states(40)
    if kind == "two_minima":
        # minima at the pole and on the equator, 2e-6 bits apart
        return _x_state([0.2462, 0.5031, 0.2504, 0.0003], 0.00106, 0.2987235040823088)[None]
    # optimum at theta* = 0.60, 0.67 and 0.62: neither pole nor equator
    return np.array([_x_state([0.0005, 0.0111, 0.9409, 0.0475], -0.0034, -0.0756),
                     _x_state([0.8099, 0.0653, 0.0086, 0.1162], -0.2498, -0.017),
                     _x_state([0.0605, 0.8881, 0.0439, 0.0075], 0.0208, -0.137)])


X_ROUTE_KINDS = ["werner", "bell_diagonal", "random_x", "two_minima", "interior"]


@pytest.mark.parametrize("route", ["x_shaped", "general"])
@pytest.mark.parametrize("kind", X_ROUTE_KINDS)
def test_both_routes_meet_the_oracles_on_x_states(kind, route, monkeypatch, caplog):
    import bathlink.correlations as corr

    states = _x_route_states(kind)
    assert corr._is_x_shaped(states).all()
    if route == "general":
        monkeypatch.setattr(corr, "_is_x_shaped", lambda s: np.zeros(len(s), dtype=bool))
    with caplog.at_level(logging.WARNING, logger="bathlink.correlations"):
        result = discord(states)
    assert caplog.records == []
    thetas = np.linspace(0.0, math.pi, 64)
    phis = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    grid = conditional_entropy_grid(states, thetas, phis).min(axis=(1, 2))
    for k, rho in enumerate(states):
        if kind in ("werner", "bell_diagonal"):
            assert abs(result.discord[k] - bell_diagonal_discord(rho)) <= 1e-12
        ref_discord, ref_classical = reference_discord(rho)
        assert abs(result.discord[k] - ref_discord) <= 1e-12
        assert abs(result.classical_corr[k] - ref_classical) <= 1e-12
        s_q = entropy_bits(partial_trace(rho, "first"))
        assert result.classical_corr[k] >= s_q - grid[k] - 1e-12
        # the reported axis attains the reported optimum
        attained = conditional_entropy(rho, result.theta[k], result.phi[k])
        assert abs(s_q - attained - result.classical_corr[k]) <= 1e-12
        assert 0.0 <= result.theta[k] <= math.pi / 2
        assert 0.0 <= result.phi[k] < 2 * math.pi


def test_x_scan_includes_the_sphere_scan_thetas():
    import bathlink.correlations as corr

    # so on an X state the route never loses to the 9 x 16 scan
    assert np.isin(corr.SCAN_THETAS, corr._X_SCAN_THETAS).all()
    states = _random_x_states(40)
    scan = conditional_entropy_grid(states, corr.SCAN_THETAS, corr.SCAN_PHIS).min(axis=(1, 2))
    s_q = entropy_bits(np.array([partial_trace(rho, "first") for rho in states]))
    assert (discord(states).classical_corr >= s_q - scan - 1e-15).all()


def _grid_calls(monkeypatch):
    """Record the number of states each call of the sphere route's scan receives."""
    import bathlink.correlations as corr

    calls = []
    scan = corr.conditional_entropy_grid

    def record(states, thetas, phis):
        calls.append(len(states))
        return scan(states, thetas, phis)

    monkeypatch.setattr(corr, "conditional_entropy_grid", record)
    return calls


def test_only_exactly_x_shaped_states_take_the_x_route(monkeypatch):
    calls = _grid_calls(monkeypatch)
    x_states = _random_x_states(4)
    discord(x_states)
    assert calls == []
    nearly = x_states[0].copy()
    nearly[0, 1] = nearly[1, 0] = 1e-300
    rotation = np.kron(np.eye(2), random_unitary(np.random.default_rng(1900)))
    rotated = rotation @ x_states[1] @ rotation.conj().T
    result = discord(np.array([nearly, rotated, x_states[2]]))
    assert calls == [2]
    # the general route finds the same optimum: discord is invariant under
    # a unitary on the measured side
    x_result = discord(x_states)
    assert abs(result.discord[0] - x_result.discord[0]) <= 1e-12
    assert abs(result.discord[1] - x_result.discord[1]) <= 1e-12
    assert result.discord[2] == x_result.discord[2]


def test_both_routes_report_unconverged_searches_in_one_warning(monkeypatch, caplog):
    import bathlink.correlations as corr

    monkeypatch.setattr(corr, "NEWTON_STEPS", 1)
    states = np.concatenate([_x_route_states("interior"), _exact_trajectory(1.0, 0.6, -0.4)[40:]])
    assert corr._is_x_shaped(states).tolist() == [True] * 3 + [False] * 11
    calls = []
    for search in ("_x_searches", "_sphere_searches"):
        def record(part, search=getattr(corr, search)):
            found = search(part)
            calls.append(len(found[3]))  # searches still gaining
            return found
        monkeypatch.setattr(corr, search, record)
    with caplog.at_level(logging.WARNING, logger="bathlink.correlations"):
        discord(states)
    [record] = caplog.records
    assert all(calls) and len(calls) == 2
    count = re.search(r"(\d+) of 14 states reached 1 Newton iterations unconverged",
                      record.getMessage())
    assert count and int(count.group(1)) >= 2


def test_mixed_stack_equals_one_call_per_state():
    rng = np.random.default_rng(2000)
    states = np.concatenate([_random_x_states(5), [random_density(rng) for _ in range(5)]])
    states = states[rng.permutation(len(states))]
    stacked = discord(states)
    singles = [discord(rho) for rho in states]
    for field in dataclasses.fields(stacked):
        values = np.array([getattr(single, field.name) for single in singles])
        assert getattr(stacked, field.name).tobytes() == values.tobytes(), field.name
