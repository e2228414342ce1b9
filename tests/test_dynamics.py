import numpy as np
import pytest

import bathlink.dynamics as dynamics
from bathlink.correlations import discord, mutual_information, negativity
from bathlink.dynamics import (
    HERM_TOL,
    PSD_TOL,
    Trajectory,
    evolve_exact,
    evolve_rk,
    product_state,
    trajectory_to_csv,
    validate_density_matrix,
)
from bathlink.errors import ConfigError, NumericalInvariantError, StabilityError
from bathlink.matops import trace_norm
from bathlink.model import ModelParams, build_liouvillian, steady_state_analytic
from oracles import max_abs_diff, propagate, random_density, rk4_stage_states


def ket_projector(index):
    v = np.zeros(4, dtype=complex)
    v[index] = 1.0
    return np.outer(v, v.conj())


# ----------------------------------------------------------- product_state

def test_product_state_q_ground_ho_excited():
    assert max_abs_diff(product_state(1.0, 0.0), ket_projector(1)) == 0.0


def test_product_state_q_excited_ho_ground():
    assert max_abs_diff(product_state(0.0, 1.0), ket_projector(2)) == 0.0


def test_product_state_superposition():
    rho = product_state(1.0 / np.sqrt(2.0), 1.0)
    psi = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    assert max_abs_diff(rho, np.outer(psi, psi.conj())) < 1e-15


@pytest.mark.parametrize("seed", range(5))
def test_product_state_is_pure_and_uncorrelated(seed):
    rng = np.random.default_rng(seed)
    p, q = rng.uniform(-1.0, 1.0, size=2)
    rho = product_state(p, q)
    assert max_abs_diff(rho @ rho, rho) < 1e-14
    assert abs(np.trace(rho) - 1.0) < 1e-14
    assert mutual_information(rho) < 1e-12
    assert negativity(rho) < 1e-14


def test_product_state_broadcasts_like_each_scalar_call():
    p = np.array([-1.0, -0.3, 0.0, 0.6, 1.0])
    q = np.array([[0.8], [-0.5], [1.0]])
    stack = product_state(p, q)
    assert stack.shape == (3, 5, 4, 4)
    for (i, j), _ in np.ndenumerate(stack[..., 0, 0]):
        assert np.array_equal(stack[i, j], product_state(float(p[j]), float(q[i, 0])))


def test_product_state_range_check():
    with pytest.raises(ConfigError):
        product_state(1.2, 0.0)
    with pytest.raises(ConfigError):
        product_state(0.0, -1.01)
    with pytest.raises(ConfigError, match="p, q must lie"):
        product_state(np.array([0.5, np.nan]), 0.0)


# ---------------------------------------------------------------- evolve_rk

def test_evolve_rk_zero_time(canonical_liouvillian):
    traj = evolve_rk(canonical_liouvillian, product_state(1.0, 0.0), 0.0, steps=10)
    assert len(traj) == 1
    assert traj.times[0] == 0.0
    assert max_abs_diff(traj.states[0], product_state(1.0, 0.0)) == 0.0


@pytest.mark.parametrize("omega", [0.001, 5.0])
def test_evolve_rk_matches_exact_propagator(omega):
    # rk4 steps D in the frame, so omega adds no truncation error
    liou = build_liouvillian(ModelParams.from_rates(1.01, 0.01, 0.6, omega))
    rho0 = product_state(0.6, -0.4)
    traj = evolve_rk(liou, rho0, 1.0, steps=1000, samples=1)
    assert trace_norm(traj.final_state - propagate(liou.superop, rho0, 1.0)) <= 1e-12


def test_evolve_rk_fourth_order_convergence(canonical_liouvillian):
    rho0 = product_state(1.0, 0.0)
    exact = propagate(canonical_liouvillian.superop, rho0, 1.0)
    err = {}
    for steps in (100, 200):
        traj = evolve_rk(canonical_liouvillian, rho0, 1.0, steps=steps, samples=1)
        err[steps] = trace_norm(traj.final_state - exact)
    ratio = err[100] / err[200]
    assert 12.0 <= ratio <= 20.0, f"halving ratio {ratio:.2f}"


@pytest.mark.parametrize("eta,steps,samples", [(0.6, 5000, 50), (1.0, 999, 7), (0.3, 40, 40)])
def test_evolve_rk_matches_stage_oracle(eta, steps, samples):
    # the step-matrix power against the k1-k4 stage loop, which renormalizes each sample
    liou = build_liouvillian(ModelParams.from_rates(1.01, 0.01, eta, 0.001))
    rho0 = product_state(0.6, -0.4)
    traj = evolve_rk(liou, rho0, 5.0, steps=steps, samples=samples)
    ref = rk4_stage_states(liou.dissipator, rho0, 5.0, steps, samples)
    assert max_abs_diff(traj.frame_states, ref) <= 1e-12


def test_evolve_rk_stability_guard(canonical_liouvillian):
    with pytest.raises(StabilityError):
        evolve_rk(canonical_liouvillian, product_state(1.0, 0.0), 100.0, steps=1, samples=1)
    # the guard reads S's radius: h max|eig S| = 2.0, though h max|eig D| = 0.045
    liou = build_liouvillian(ModelParams.from_rates(1.01, 0.01, 1.0, 100.0))
    with pytest.raises(StabilityError):
        evolve_rk(liou, product_state(1.0, 0.0), 1.0, steps=100, samples=1)


def test_evolve_rk_invariants_of_the_stored_states(canonical_liouvillian):
    traj = evolve_rk(canonical_liouvillian, product_state(1.0, 0.0), 20.0,
                     steps=20000, samples=100)
    # construction already validated trace/Hermiticity/positivity of every state;
    # the states are stored as integrated, so these bound P(hD) itself
    assert len(traj) == 101
    assert np.abs(np.trace(traj.states, axis1=1, axis2=2) - 1.0).max() < 1e-9
    assert np.abs(traj.states - traj.states.conj().swapaxes(1, 2)).max() < 1e-12
    for rho in traj.states[::25]:
        assert np.linalg.eigvalsh(rho).min() > -1e-8


def test_evolve_rk_rejects_bad_arguments(canonical_liouvillian):
    rho0 = product_state(1.0, 0.0)
    with pytest.raises(ConfigError):
        evolve_rk(canonical_liouvillian, rho0, -1.0, steps=10)
    with pytest.raises(ConfigError):
        evolve_rk(canonical_liouvillian, rho0, 1.0, steps=0)
    with pytest.raises(NumericalInvariantError):
        evolve_rk(canonical_liouvillian, np.eye(4, dtype=complex), 1.0, steps=10)


def test_evolve_rk_rejects_zero_samples(canonical_liouvillian):
    with pytest.raises(ConfigError, match=r"^samples must be >= 1, got 0$"):
        evolve_rk(canonical_liouvillian, product_state(1.0, 0.0), 1.0, steps=10, samples=0)


@pytest.mark.parametrize("t_max", [float("nan"), float("inf")])
def test_evolve_rk_rejects_a_non_finite_t_max(canonical_liouvillian, t_max):
    with pytest.raises(ConfigError, match=f"t_max must be finite and >= 0, got {t_max}$"):
        evolve_rk(canonical_liouvillian, product_state(1.0, 0.0), t_max, steps=10)


# ------------------------------------------------------------- evolve_exact

def test_evolve_exact_starts_at_initial_state(canonical_liouvillian):
    rho0 = product_state(0.3, -0.4)
    traj = evolve_exact(canonical_liouvillian, rho0, np.array([0.0, 0.5, 1.0]))
    assert max_abs_diff(traj.states[0], rho0) == 0.0


def test_evolve_exact_semigroup_composition(canonical_liouvillian):
    # two hops of exp(1 S) against one exponential exp(2 S)
    rho0 = product_state(1.0, 0.0)
    one_hop = propagate(canonical_liouvillian.superop, rho0, 2.0)
    two_hops = evolve_exact(canonical_liouvillian, rho0, np.array([0.0, 1.0, 2.0])).final_state
    assert max_abs_diff(one_hop, two_hops) < 1e-12


def test_evolve_exact_uniform_and_irregular_grids_agree(canonical_liouvillian):
    rho0 = product_state(1.0, 0.0)
    uniform = evolve_exact(canonical_liouvillian, rho0, np.linspace(0.0, 2.0, 5))
    irregular = evolve_exact(canonical_liouvillian, rho0, np.array([0.0, 0.5, 1.0, 1.7, 2.0]))
    assert max_abs_diff(uniform.states[2], irregular.states[2]) < 1e-12
    assert max_abs_diff(uniform.states[4], irregular.states[4]) < 1e-12
    # 1.7 is no whole multiple of the first interval: stepping every interval
    # by exp(0.5 S) would land it at 1.5
    exact = propagate(canonical_liouvillian.superop, rho0, 1.7)
    assert max_abs_diff(irregular.states[3], exact) < 1e-12


def test_evolve_exact_takes_a_grid_as_uniform_to_1e_12(canonical_liouvillian):
    # intervals 1 and 1 + d: within rtol 1e-12 one map serves both and the
    # state lands d early, unseen; d = 1e-10 needs its own map, or lands 1.8e-12 off
    rho0 = product_state(1.0, 0.0)
    for d in (1e-13, 1e-10):
        times = np.array([0.0, 1.0, 2.0 + d])
        exact = propagate(canonical_liouvillian.superop, rho0, times[-1])
        assert max_abs_diff(evolve_exact(canonical_liouvillian, rho0, times).final_state,
                            exact) < 1e-13


def test_evolve_exact_steps_a_list_like_each_generator_alone():
    rho0 = product_state(0.6, 0.3)
    times = np.linspace(0.0, 6.0, 51)
    generators = build_liouvillian(
        [ModelParams.from_rates(1.01, 0.01, eta, 0.001) for eta in (0.0, 0.3, 0.6, 0.9, 1.0)]
    )
    stacked = evolve_exact(generators, rho0, times)
    assert len(stacked) == 5
    for liou, traj in zip(generators, stacked):
        alone = evolve_exact(liou, rho0, times)
        assert np.array_equal(traj.times, alone.times)
        assert np.array_equal(traj.states, alone.states)


def test_evolve_exact_steps_a_list_on_an_irregular_grid_like_each_generator_alone():
    rho0 = product_state(0.6, 0.3)
    times = np.concatenate([[0.0], np.sort(np.random.default_rng(3).uniform(0.0, 6.0, 40))])
    generators = build_liouvillian(
        [ModelParams.from_rates(1.01, 0.01, eta, 0.001) for eta in (0.0, 0.3, 0.6, 0.9, 1.0)]
    )
    stacked = evolve_exact(generators, rho0, times)
    assert len(stacked) == 5
    for liou, traj in zip(generators, stacked):
        alone = evolve_exact(liou, rho0, times)
        assert np.array_equal(traj.states, alone.states)


@pytest.mark.parametrize("horizon", [6.0, 2000.0])
def test_evolve_exact_steps_random_times_like_propagate(horizon):
    # each interval's own exp(dt S), composed, against one exponential per time
    liou = build_liouvillian(ModelParams.from_rates(1.01, 0.01, 0.6, 0.001))
    rho0 = product_state(0.6, -0.4)
    times = np.concatenate([[0.0], np.sort(np.random.default_rng(7).uniform(0.0, horizon, 400))])
    traj = evolve_exact(liou, rho0, times)
    direct = np.array([propagate(liou.superop, rho0, float(t)) for t in times])
    assert max_abs_diff(traj.states, direct) < 1e-12


def test_evolve_exact_names_the_generator_that_fails():
    generators = build_liouvillian(
        [ModelParams.from_rates(1.01, 0.01, eta, 0.001) for eta in (0.5, 1e7)]
    )
    with pytest.raises(NumericalInvariantError,
                       match=r"^state at t=0\.25: trace deviates by .*; generator at "
                             r"omega=0\.001, zeta=1, gamma1=1\.01, gamma2=0\.01, eta=1e\+07$"):
        evolve_exact(generators, product_state(0.6, 0.3), np.linspace(0.0, 1.0, 5))


def test_evolve_exact_requires_zero_start(canonical_liouvillian):
    with pytest.raises(ConfigError):
        evolve_exact(canonical_liouvillian, product_state(1.0, 0.0), np.array([0.5, 1.0]))


def test_evolve_exact_rejects_a_non_finite_time(canonical_liouvillian):
    with pytest.raises(ConfigError, match="times must be finite, got nan$"):
        evolve_exact(canonical_liouvillian, product_state(1.0, 0.0), [0.0, float("nan")])


def test_evolve_exact_rejects_an_empty_time_grid(canonical_liouvillian):
    with pytest.raises(ConfigError, match=r"^times must be a non-empty 1-D sequence$"):
        evolve_exact(canonical_liouvillian, product_state(1.0, 0.0), [])


def test_propagate_accepts_negative_times(canonical_liouvillian):
    # backward propagation may leave the state space but must invert forward
    rho0 = product_state(1.0, 0.0)
    fwd = evolve_exact(canonical_liouvillian, rho0, np.array([0.0, 0.3])).final_state
    back = propagate(canonical_liouvillian.superop, fwd, -0.3)
    assert max_abs_diff(back, rho0) < 1e-12


def test_long_time_limit_reaches_thermal_state():
    # generic coupling ratio: unique fixed point, but the subradiant mode is
    # slow (rate ~ 6e-3 here), so the approach needs a long horizon
    params = ModelParams.from_rates(1.01, 0.01, 0.5, 0.001)
    liou = build_liouvillian(params)
    rho_ss = steady_state_analytic(params)
    for p, q in [(1.0, 0.0), (0.0, 1.0), (0.5, -0.5), (1.0, 1.0)]:
        final = evolve_exact(liou, product_state(p, q), np.array([0.0, 2000.0])).final_state
        assert trace_norm(final - rho_ss) < 1e-3


def test_equal_coupling_conserves_antisymmetric_population(canonical_liouvillian):
    # eta = 1: the antisymmetric single-excitation state is decoherence-free,
    # so its population never changes and entanglement persists
    singlet = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    rho0 = product_state(1.0, 0.0)
    pop0 = float((singlet.conj() @ rho0 @ singlet).real)
    rho_t = evolve_exact(canonical_liouvillian, rho0, np.array([0.0, 30.0])).final_state
    pop_t = float((singlet.conj() @ rho_t @ singlet).real)
    assert abs(pop0 - 0.5) < 1e-12
    assert abs(pop_t - pop0) < 1e-9
    assert negativity(rho_t) > 0.1


# ------------------------------------------------------- the rotating frame

@pytest.mark.parametrize("omega", [0.7, 5.0])
def test_exact_states_are_the_lab_frame_states(omega):
    # stepped in the frame rotating at omega and read in the lab frame; at
    # these omegas the phase exp(-i omega t k) is far from 1, so a wrong sign
    # or a wrong coherence order would show
    liou = build_liouvillian(ModelParams.from_rates(1.3, 0.4, 0.8, omega))
    times = np.linspace(0.0, 6.0, 31)
    for rho0 in (product_state(0.6, -0.4), random_density(np.random.default_rng(11))):
        traj = evolve_exact(liou, rho0, times)
        direct = np.array([propagate(liou.superop, rho0, float(t)) for t in times])
        assert traj.frame_omega == omega
        assert max_abs_diff(traj.states, direct) < 1e-12
        assert max_abs_diff(traj.final_state, direct[-1]) < 1e-12


def test_exact_frame_states_of_a_real_start_are_real():
    liou = build_liouvillian(ModelParams.from_rates(1.01, 0.01, 0.6, 0.7))
    traj = evolve_exact(liou, product_state(0.6, 0.3), np.linspace(0.0, 6.0, 11))
    assert traj.frame_states.dtype == np.float64
    assert np.abs(traj.frame_states - traj.frame_states.swapaxes(1, 2)).max() < 1e-15
    assert traj.states.dtype == np.complex128


def test_rk4_steps_in_the_frame_and_a_given_trajectory_is_in_the_lab(canonical_liouvillian):
    traj = evolve_rk(canonical_liouvillian, product_state(0.6, 0.3), 1.0, steps=100, samples=4)
    assert traj.frame_omega == canonical_liouvillian.params.omega
    assert traj.frame_states.dtype == np.float64
    given_states = Trajectory(traj.times, traj.states)
    assert given_states.frame_omega == 0.0 and given_states.states is given_states.frame_states
    assert np.array_equal(given_states.states, traj.states)


def _omega_draws(count):
    """``count`` generic points: rates in [0.1, 2], eta in [0.2, 1.5], p and q in
    [-1, 1] and two omegas in [0.001, 3], from numpy seed 5."""
    rng = np.random.default_rng(5)
    return [pytest.param(*rng.uniform(0.1, 2.0, 2), rng.uniform(0.2, 1.5),
                         *rng.uniform(-1.0, 1.0, 2), *rng.uniform(0.001, 3.0, 2), id=f"draw{k}")
            for k in range(count)]


@pytest.mark.parametrize("gamma1, gamma2, eta, p, q, omega_a, omega_b", _omega_draws(20))
def test_lab_frame_measures_do_not_depend_on_omega(gamma1, gamma2, eta, p, q, omega_a, omega_b):
    # omega enters the lab-frame states only through a local unitary, which
    # keeps every measure; rk4 steps the frame states with D alone
    rho0 = product_state(p, q)
    times = np.linspace(0.0, 4.0, 42)
    measured = {"exact": [], "rk4": []}
    frame_states = []
    for omega in (omega_a, omega_b):
        liou = build_liouvillian(ModelParams.from_rates(gamma1, gamma2, eta, omega))
        # D's order -k block is its order k block transposed, so shifting both
        # by -i omega k cannot shrink the largest modulus: the guard on S's
        # radius keeps rk4 on D stable
        radius = np.abs(np.linalg.eigvals(liou.dissipator)).max()
        assert liou.spectral_radius >= radius * (1.0 - 1e-12)
        rk4 = evolve_rk(liou, rho0, 4.0, steps=16400, samples=41)
        frame_states.append(rk4.frame_states)
        for route, traj in (("exact", evolve_exact(liou, rho0, times)), ("rk4", rk4)):
            c = discord(traj.states)
            measured[route].append(np.stack([c.negativity, c.mutual_info, c.discord,
                                             c.classical_corr]))
    assert np.array_equal(*frame_states)
    for route, (first, second) in measured.items():
        assert np.abs(first - second).max() <= 2e-13, route


def _exact_measures(gamma1, gamma2, eta, omega, p, q, times):
    """Negativity, mutual information, discord and classical correlation of
    the exact trajectory from ``product_state(p, q)``, ``(4, len(times))``."""
    liou = build_liouvillian(ModelParams.from_rates(gamma1, gamma2, eta, omega))
    c = discord(evolve_exact(liou, product_state(p, q), times).states)
    return np.stack([c.negativity, c.mutual_info, c.discord, c.classical_corr])


@pytest.mark.parametrize("gamma1, gamma2, eta, p, q, omega, _", _omega_draws(20))
def test_measures_are_invariant_under_a_change_of_time_scale(gamma1, gamma2, eta, p, q, omega, _):
    # the generator is linear in the rates and omega: times c scales it by c,
    # so the states at t / c are those at t
    times = np.linspace(0.0, 4.0, 42)
    c = 7.3
    gap = np.abs(_exact_measures(gamma1, gamma2, eta, omega, p, q, times)
                 - _exact_measures(c * gamma1, c * gamma2, eta, c * omega, p, q, times / c))
    assert gap.max() <= 2e-13


@pytest.mark.parametrize("gamma1, gamma2, eta, p, q, omega, _", _omega_draws(20))
def test_negativity_and_mutual_information_are_symmetric_under_swapping_q_and_ho(
        gamma1, gamma2, eta, p, q, omega, _):
    # swapped, sigma_-^Q + eta sigma_-^HO is eta (sigma_-^Q + sigma_-^HO / eta),
    # and H is swap-symmetric; discord measures HO only, so it is left out
    times = np.linspace(0.0, 4.0, 42)
    direct = _exact_measures(gamma1, gamma2, eta, omega, p, q, times)
    swapped = _exact_measures(eta**2 * gamma1, eta**2 * gamma2, 1.0 / eta, omega, q, p, times)
    assert np.abs(direct[:2] - swapped[:2]).max() <= 2e-13


@pytest.mark.parametrize("gamma1, gamma2, eta, p, q, omega, _", _omega_draws(20))
def test_measures_are_even_under_the_parity_flip_of_p_and_q(gamma1, gamma2, eta, p, q, omega, _):
    # sigma_z (x) sigma_z maps product_state(p, q) to product_state(-p, -q) and
    # commutes with the generator, so it is a local unitary on the whole
    # trajectory; the region confirmation column fills (-p, -q) from (p, q) by it
    times = np.linspace(0.0, 4.0, 42)
    gap = np.abs(_exact_measures(gamma1, gamma2, eta, omega, p, q, times)
                 - _exact_measures(gamma1, gamma2, eta, omega, -p, -q, times))
    assert gap.max() <= 2e-13


# ------------------------------------------------------------- trajectories

def test_trajectory_validates_times():
    states = np.repeat(product_state(1.0, 0.0)[None], 2, axis=0)
    with pytest.raises(ConfigError, match=r"^times must start at 0 and increase strictly$"):
        Trajectory(times=np.array([0.1, 0.2]), states=states)
    with pytest.raises(ConfigError, match=r"^times must start at 0 and increase strictly$"):
        Trajectory(times=np.array([0.0, 0.0]), states=states)


def test_trajectory_rejects_states_that_do_not_match_its_times():
    states = np.repeat(product_state(1.0, 0.0)[None], 3, axis=0)
    with pytest.raises(NumericalInvariantError,
                       match=r"^inconsistent trajectory shapes \(2,\) / \(3, 4, 4\)$"):
        Trajectory(times=np.array([0.0, 0.1]), states=states)


def test_trajectory_names_the_time_of_a_bad_state():
    states = np.repeat(product_state(1.0, 0.0)[None], 4, axis=0)
    states[2] = np.diag([1.2, -0.2, 0.0, 0.0])  # unit trace, one negative eigenvalue
    with pytest.raises(NumericalInvariantError,
                       match=r"^state at t=0\.2: negative eigenvalue -2\.000e-01$"):
        Trajectory(times=np.array([0.0, 0.1, 0.2, 0.3]), states=states)


def test_validate_returns_the_trace_it_tested():
    states = np.stack([product_state(1.0, 0.0), np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)])
    trace = validate_density_matrix(states)
    assert trace.shape == (2,) and np.array_equal(trace, [1.0, 1.0])
    trace = validate_density_matrix(states[1])
    assert trace.shape == () and trace == 1.0


def _no_eigensolver(monkeypatch):
    def eigvalsh(a):
        raise AssertionError("eigvalsh was called")

    monkeypatch.setattr(dynamics.np.linalg, "eigvalsh", eigvalsh)


def test_validate_certifies_a_valid_stack_without_an_eigensolver(
        monkeypatch, canonical_liouvillian):
    # pure states have exact zero eigenvalues: without the margin PSD_TOL, or
    # with its sign flipped, the LDL^T certificate fails on them and eigvalsh is called
    _no_eigensolver(monkeypatch)
    traj = evolve_exact(canonical_liouvillian, product_state(0.6, 0.3), np.linspace(0.0, 6.0, 251))
    assert np.array_equal(validate_density_matrix(traj.frame_states), traj.trace)
    validate_density_matrix(product_state(np.linspace(-1.0, 1.0, 9), 0.3))
    validate_density_matrix(np.diag([1.0, 0.0, 0.0, 0.0]))


def _edge_state(least: float) -> np.ndarray:
    """A complex state of unit trace, exactly Hermitian, whose least eigenvalue is ``least``."""
    rng = np.random.default_rng(22)
    u, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    rho = u @ np.diag([0.6 - least, 0.3, 0.1, least]) @ u.conj().T
    return (rho + rho.conj().T) / 2


def test_validate_passes_just_above_psd_tol_and_raises_just_below(monkeypatch):
    times = np.array([0.0, 1.0])
    inside = np.stack([product_state(1.0, 0.0), _edge_state(0.99 * PSD_TOL)])
    outside = np.stack([product_state(1.0, 0.0), _edge_state(1.01 * PSD_TOL)])
    with monkeypatch.context() as patched:
        _no_eigensolver(patched)
        validate_density_matrix(inside[1])
        Trajectory(times, inside)
    with pytest.raises(NumericalInvariantError, match=r"^state: negative eigenvalue -1\.010e-08$"):
        validate_density_matrix(outside[1])
    with pytest.raises(NumericalInvariantError,
                       match=r"^state at t=1: negative eigenvalue -1\.010e-08$"):
        Trajectory(times, outside)


def _uncertified(monkeypatch):
    """Make the certificate prove nothing; return the stack size of each eigvalsh call."""
    rows = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a):
        rows.append(len(a))
        return eigvalsh(a)

    monkeypatch.setattr(dynamics, "_positive_definite", lambda h, margin: np.zeros(len(h), bool))
    monkeypatch.setattr(dynamics.np.linalg, "eigvalsh", counted)
    return rows


def test_validate_lets_the_eigenvalues_pass_what_the_certificate_does_not_prove(
        monkeypatch, canonical_liouvillian):
    traj = evolve_exact(canonical_liouvillian, product_state(0.6, 0.3), np.linspace(0.0, 6.0, 51))
    rows = _uncertified(monkeypatch)
    assert np.array_equal(validate_density_matrix(traj.frame_states), traj.trace)
    assert rows == [51]
    rows.clear()
    inside = _edge_state(0.99 * PSD_TOL)
    assert validate_density_matrix(inside) == np.trace(inside).real
    assert rows == [1]


def test_validate_names_a_state_below_psd_tol_when_the_certificate_proves_nothing(monkeypatch):
    _uncertified(monkeypatch)
    with pytest.raises(NumericalInvariantError, match=r"^state: negative eigenvalue -1\.010e-08$"):
        validate_density_matrix(_edge_state(1.01 * PSD_TOL))
    outside = np.stack([product_state(1.0, 0.0), _edge_state(1.01 * PSD_TOL)])
    with pytest.raises(NumericalInvariantError,
                       match=r"^state at t=1: negative eigenvalue -1\.010e-08$"):
        Trajectory(np.array([0.0, 1.0]), outside)


def test_trajectory_min_eig_is_the_least_eigenvalue_of_each_stored_state():
    liou = build_liouvillian(ModelParams.from_rates(1.3, 0.4, 0.8, 0.7))
    rho0 = product_state(0.6, 0.3)
    for traj in (evolve_exact(liou, rho0, np.linspace(0.0, 2.0, 21)),
                 evolve_rk(liou, rho0, 2.0, steps=400, samples=20)):
        assert traj.min_eig is traj.min_eig
        assert np.array_equal(traj.min_eig, np.linalg.eigvalsh(traj.frame_states).min(axis=1))


def test_validate_raises_below_psd_tol_within_the_hermiticity_tolerance():
    # eigvalsh reads the lower triangle of the stored state: a deviation
    # there just under HERM_TOL must not hide an eigenvalue below PSD_TOL
    state = np.diag([0.5 - 2 * PSD_TOL, 0.5, 0.0, 2 * PSD_TOL]).astype(complex)
    state[3, 0] = 0.999 * HERM_TOL
    stack = np.stack([product_state(1.0, 0.0), state])
    with pytest.raises(NumericalInvariantError,
                       match=r"^state 1: negative eigenvalue -2\.000e-08$"):
        validate_density_matrix(stack)


def test_validate_holds_hermiticity_to_1e_10():
    # absolute deviations, so a looser HERM_TOL fails here
    state = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    state[0, 1] = 5e-11
    validate_density_matrix(state)
    state[0, 1] = 5e-10
    with pytest.raises(NumericalInvariantError, match=r"^state: Hermiticity deviation 5\.000e-10$"):
        validate_density_matrix(state)


def test_validate_holds_the_trace_to_1e_9():
    state = np.diag([0.4, 0.3, 0.2, 0.1 + 5e-10]).astype(complex)
    validate_density_matrix(state)
    state[3, 3] = 0.1 + 5e-9
    with pytest.raises(NumericalInvariantError, match=r"^state: trace deviates by 5\.000e-09$"):
        validate_density_matrix(state)


def test_validate_stack_reports_first_bad_state():
    states = np.repeat(product_state(1.0, 0.0)[None], 4, axis=0)
    states[1, 0, 1] = 1e-6  # not Hermitian
    states[3] *= 2.0  # trace 2
    with pytest.raises(NumericalInvariantError, match=r"^stack 1: Hermiticity deviation"):
        validate_density_matrix(states, context="stack")
    with pytest.raises(NumericalInvariantError,
                       match=r"^state at t=3: trace deviates by 1\.000e\+00$"):
        validate_density_matrix(states[2:], times=np.array([2.0, 3.0]))
    with pytest.raises(NumericalInvariantError, match=r"^one: trace deviates"):
        validate_density_matrix(states[3], context="one")
    validate_density_matrix(states[[0, 2]])
    with pytest.raises(ConfigError, match=r"^expected a \(4, 4\) state or an \(N, 4, 4\) "
                                          r"stack, got \(1, 4, 4, 4\)$"):
        validate_density_matrix(states[None])


def test_validate_names_the_first_failing_state_finite_or_not():
    states = np.repeat(product_state(1.0, 0.0)[None], 3, axis=0)
    states[1, 2, 3] = np.inf
    states[2] = np.nan
    with pytest.raises(NumericalInvariantError,
                       match=r"^state at t=0\.5: entries are not finite$"):
        validate_density_matrix(states, times=np.array([0.0, 0.5, 1.0]))
    with pytest.raises(NumericalInvariantError, match=r"^state 2: entries are not finite$"):
        validate_density_matrix(states[[0, 0, 2]])
    # a failing finite state is named before a later non-finite one
    states[1] = 1.01 * product_state(1.0, 0.0)
    with pytest.raises(NumericalInvariantError, match=r"^state 1: trace deviates by 1\.000e-02$"):
        validate_density_matrix(states)
    with pytest.raises(NumericalInvariantError, match=r"^state at t=0: entries are not finite$"):
        Trajectory(times=np.array([0.0, 1.0]), states=np.full((2, 4, 4), np.nan))


def test_trajectory_csv_format(tmp_path, canonical_liouvillian):
    traj = evolve_exact(canonical_liouvillian, product_state(1.0, 0.0),
                        np.linspace(0.0, 1.0, 3))
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[1] == "re_rho_00"
    assert header[2] == "im_rho_00"
    assert header[-4] == "re_rho_33"
    assert header[-3] == "im_rho_33"
    assert header[-2:] == ["trace", "min_eig"]
    assert len(header) == 35
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    # initial state |01><01|: entry rho_11 is one
    assert float(first[1 + 2 * 5]) == 1.0
    assert abs(float(first[-2]) - 1.0) < 1e-12
