import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bathlink.model as model
from bathlink.errors import ConfigError, DegenerateSteadyStateError, NumericalInvariantError
from bathlink.matops import trace_norm, unvec, vec
from bathlink.model import (
    ModelParams,
    build_liouvillian,
    kossakowski_matrix,
    rates_from_temperature,
    steady_state_analytic,
    steady_state_numeric,
)
from oracles import (
    hamiltonian,
    kossakowski_liouvillian,
    master_equation_rhs,
    max_abs_diff,
    per_value_liouvillian,
    random_density,
    random_hermitian,
)


def ket(index):
    v = np.zeros(4, dtype=complex)
    v[index] = 1.0
    return v


def proj(i, j):
    return np.outer(ket(i), ket(j).conj())


# ------------------------------------------------------------------- rates

def test_rates_canonical_pair():
    g1, g2 = rates_from_temperature(1.0, 1.0 / math.log(101.0))
    assert abs(g1 - 1.01) < 1e-12
    assert abs(g2 - 0.01) < 1e-12


def test_rates_low_temperature_limit():
    g1, g2 = rates_from_temperature(1.0, 0.05)
    assert abs(g2 - 1.0 / math.expm1(20.0)) < 1e-22
    assert g2 == pytest.approx(2.061e-9, rel=1e-3)
    assert abs(g1 - 1.0 - g2) < 1e-15


def test_rates_doubling_example():
    g1, g2 = rates_from_temperature(2.0, 1.0 / math.log(2.0))
    assert abs(g1 - 4.0) < 1e-12
    assert abs(g2 - 2.0) < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_rates_difference_identity(seed):
    rng = np.random.default_rng(seed)
    zeta = rng.uniform(0.1, 3.0)
    temp = rng.uniform(0.05, 5.0)
    g1, g2 = rates_from_temperature(zeta, temp)
    assert g1 > g2 > 0
    assert abs((g1 - g2) - zeta) < 1e-12 * max(1.0, g1)
    assert abs(g1 / g2 - math.exp(1.0 / temp)) < 1e-9 * math.exp(1.0 / temp)


def test_rates_reject_non_positive():
    with pytest.raises(ConfigError):
        rates_from_temperature(0.0, 1.0)
    with pytest.raises(ConfigError):
        rates_from_temperature(1.0, -0.5)


def test_params_from_rates_reject_zero_zeta():
    with pytest.raises(ConfigError, match=r"^zeta must be > 0, got 0\.0$"):
        ModelParams.from_rates(1.01, 0.01, 1.0, 0.001, zeta=0.0)


def test_rates_where_exp_inverse_temperature_overflows():
    # e^(1/T) - 1 is finite up to 1/T of about 709.78; the formula is unchanged there
    temp = 1.0 / 709.0
    gamma2 = 1.0 / math.expm1(1.0 / temp)
    assert rates_from_temperature(1.0, temp) == (gamma2 + 1.0, gamma2)
    temp = 1.0 / 720.0
    g1, g2 = rates_from_temperature(2.0, temp)
    assert g2 == 2.0 * math.exp(-1.0 / temp) and g2 > 0.0 and g1 == 2.0
    assert rates_from_temperature(1.0, 0.001) == (1.0, 0.0)
    assert rates_from_temperature(1.0, 1e-310) == (1.0, 0.0)


# ------------------------------------------------------------------ params

def test_params_reject_inconsistent_temperature():
    with pytest.raises(ConfigError):
        ModelParams(omega=1.0, zeta=1.0, gamma1=5.0, gamma2=1.0, eta=1.0, temperature=1.0)


def test_params_reject_rates_off_the_temperature_by_1e_8():
    g1, g2 = rates_from_temperature(1.0, 0.5)
    ModelParams(omega=1.0, zeta=1.0, gamma1=g1, gamma2=g2, eta=1.0, temperature=0.5)
    with pytest.raises(ConfigError, match="inconsistent with temperature"):
        ModelParams(omega=1.0, zeta=1.0, gamma1=g1 + 1e-8, gamma2=g2, eta=1.0, temperature=0.5)


def test_params_roundtrip_with_temperature():
    p = ModelParams.from_temperature(zeta=1.0, temperature=0.5, eta=0.7, omega=0.001)
    q = ModelParams(**p.to_dict())
    assert q == p
    assert "temperature" in p.to_dict()


def test_params_roundtrip_without_temperature():
    p = ModelParams.from_rates(1.01, 0.01, 1.0, 0.001)
    d = p.to_dict()
    assert "temperature" not in d
    assert ModelParams(**d) == p


def test_params_validation():
    with pytest.raises(ConfigError):
        ModelParams.from_rates(-1.0, 0.01, 1.0, 0.001)
    with pytest.raises(ConfigError):
        ModelParams.from_rates(1.0, 0.01, -0.2, 0.001)
    with pytest.raises(ConfigError):
        ModelParams.from_rates(1.0, 0.01, 1.0, 0.0)


@pytest.mark.parametrize("gamma1, gamma2, eta", [
    (1.0, 0.01, 1e200),   # 2 eta^2 gamma1 overflows (eta**2 itself would raise)
    (0.0, 0.0, 1e200),    # eta^2 = inf times a zero rate
    (1e308, 0.01, 1.0),   # 2 gamma1 overflows
])
def test_params_reject_non_finite_kossakowski_entries(gamma1, gamma2, eta):
    with pytest.raises(ConfigError, match="Kossakowski matrix is not finite"):
        ModelParams.from_rates(gamma1, gamma2, eta, 0.001)


def test_params_from_numpy_scalars_reach_the_config_error():
    # numpy scalars would warn on the overflowing products (a RuntimeWarning
    # fails the test); as floats they reach the check
    with pytest.raises(ConfigError, match="Kossakowski matrix is not finite"):
        ModelParams.from_rates(1.01, 0.01, np.float64(1e200), 0.001)
    params = ModelParams.from_rates(np.float64(1.01), np.float32(0.5), np.int64(1), 0.001)
    assert params == ModelParams.from_rates(1.01, 0.5, 1.0, 0.001)
    assert all(type(value) is float for value in params.to_dict().values())


@pytest.mark.parametrize("bad", ["1.0", None, 1j, [1.0]])
def test_params_reject_values_that_are_not_real_numbers(bad):
    with pytest.raises(ConfigError, match="eta must be a real number"):
        ModelParams.from_rates(1.01, 0.01, bad, 0.001)


def test_params_accept_large_finite_kossakowski_entries():
    params = ModelParams.from_rates(1.0, 0.01, 1e150, 0.001)
    assert np.isfinite(kossakowski_matrix(params)).all()


# ------------------------------------------------------------- kossakowski

def test_kossakowski_canonical_matrix(canonical_params):
    expected = np.array(
        [
            [0.02, 0, 0, 0.02],
            [0, 2.02, 2.02, 0],
            [0, 2.02, 2.02, 0],
            [0.02, 0, 0, 0.02],
        ]
    )
    assert max_abs_diff(kossakowski_matrix(canonical_params), expected) < 1e-14


@pytest.mark.parametrize("seed", range(10))
def test_kossakowski_spectrum_formula(seed):
    rng = np.random.default_rng(400 + seed)
    g1, g2 = rng.uniform(0.0, 3.0, size=2)
    eta = rng.uniform(0.0, 2.0)
    p = ModelParams.from_rates(g1, g2, eta, 0.001)
    k = kossakowski_matrix(p)
    assert max_abs_diff(k, k.conj().T) == 0.0
    eigs = np.sort(np.linalg.eigvalsh(k))
    expected = np.sort([2 * g1 * (1 + eta**2), 2 * g2 * (1 + eta**2), 0.0, 0.0])
    assert np.allclose(eigs, expected, atol=1e-10)
    assert eigs.min() > -1e-12  # PSD: completely positive dynamics


def test_kossakowski_decoupled_limit():
    p = ModelParams.from_rates(1.3, 0.4, 0.0, 0.001)
    assert max_abs_diff(kossakowski_matrix(p), np.diag([0.8, 2.6, 0.0, 0.0])) < 1e-14


# --------------------------------------------------------------- generator

def test_hamiltonian_is_diagonal_with_expected_levels(canonical_params):
    h = hamiltonian(canonical_params)
    om = canonical_params.omega
    assert np.allclose(np.diag(h), [-om / 2, om / 2, om / 2, 3 * om / 2])
    assert max_abs_diff(h, np.diag(np.diag(h))) == 0.0


def test_build_matches_kossakowski_lift_oracle():
    # the collective-jump build against the entry-by-entry Kossakowski lift
    rng = np.random.default_rng(2024)
    worst = 0.0
    for g1, g2, eta, omega in rng.uniform(0.0, 2.0, size=(2000, 4)):
        params = ModelParams.from_rates(g1, g2, eta, omega)
        s = build_liouvillian(params).superop
        ref = kossakowski_liouvillian(hamiltonian(params), kossakowski_matrix(params))
        worst = max(worst, max_abs_diff(s, ref) / np.abs(ref).max())
    assert worst <= 1e-15


@pytest.mark.parametrize("rates", [(5000.0, 50.0, 0.6), (7900.0, 79.0, 0.6), (2000.0, 0.0, 1.0)])
def test_build_accepts_large_rates(rates):
    # rate J^dag J is the partial trace of the scaled jump term, so the
    # trace row stays within an absolute 1e-12 at these rates
    g1, g2, eta = rates
    build_liouvillian(ModelParams.from_rates(g1, g2, eta, 1.0))


@pytest.mark.parametrize("gamma1", [1e4, 1e6])
def test_build_accepts_rates_beyond_the_absolute_trace_check(gamma1):
    # residuals of 1.5e-12 and 1.1e-10 here, with max|S| 2.7e4 and 2.7e6:
    # the checks are relative to max(1, max|S|)
    build_liouvillian(ModelParams.from_rates(gamma1, gamma1 / 101.0, 0.6, 1.0))


# coherence order n_i - n_j of vec index i + 4 j, excitations (0, 1, 1, 2):
# sectors of sizes 1, 4, 6, 4 and 1
_ORDER = np.array([[0, 1, 1, 2][a % 4] - [0, 1, 1, 2][a // 4] for a in range(16)])
_CROSS = _ORDER[:, None] != _ORDER[None, :]
_PROBES = [random_density(np.random.default_rng(2100 + k)) for k in range(3)]


def test_build_rejects_a_cross_order_entry(monkeypatch):
    lift = model._lift_dissipator

    def leaky(rate, jump):
        out = lift(rate, jump).copy()
        out[..., 1, 0] += 1e-3  # rho_10 (order 1) fed from rho_00 (order 0)
        return out

    monkeypatch.setattr(model, "_lift_dissipator", leaky)
    with pytest.raises(NumericalInvariantError, match="couples different coherence orders"):
        build_liouvillian(ModelParams.from_rates(1.01, 0.01, 0.6, 0.001))


def test_build_names_the_failing_sweep_point(monkeypatch):
    lift = model._lift_dissipator

    def leaky(rate, jump):
        out = lift(rate, jump).copy()
        out[1, 1, 0] += 1e-3  # only the second point of the stack leaks
        return out

    monkeypatch.setattr(model, "_lift_dissipator", leaky)
    sweep = [ModelParams.from_rates(1.01, 0.01, eta, 0.001) for eta in (0.25, 0.5, 0.75)]
    with pytest.raises(NumericalInvariantError,
                       match=r"couples different coherence orders .* at .*eta=0\.5$"):
        build_liouvillian(sweep)


def test_build_rejects_a_trace_leak(monkeypatch):
    lift = model._lift_dissipator
    # a diagonal term keeps every coherence order apart but feeds the trace
    monkeypatch.setattr(model, "_lift_dissipator",
                        lambda rate, jump: lift(rate, jump) + 1e-3 * np.eye(16))
    params = ModelParams.from_rates(1.01, 0.01, 0.6, 0.001)
    with pytest.raises(NumericalInvariantError, match="does not annihilate the trace") as info:
        build_liouvillian(params)
    assert str(info.value).endswith(f"at {params.label()}")
    # the trace row is held to 1e-12 max|S| (2.747e-12 here); both lifts add the term
    monkeypatch.setattr(model, "_lift_dissipator",
                        lambda rate, jump: lift(rate, jump) + 1e-12 * np.eye(16))
    build_liouvillian(params)
    monkeypatch.setattr(model, "_lift_dissipator",
                        lambda rate, jump: lift(rate, jump) + 2e-12 * np.eye(16))
    with pytest.raises(NumericalInvariantError, match=r"trace \(max 4\.000e-12, max\|S\| 2\.747"):
        build_liouvillian(params)


def test_build_rejects_a_growing_mode(monkeypatch):
    lift = model._lift_dissipator
    # -D[J] still annihilates the trace and keeps the orders apart, but it pumps
    monkeypatch.setattr(model, "_lift_dissipator", lambda rate, jump: -lift(rate, jump))
    params = ModelParams.from_rates(1.01, 0.01, 0.6, 0.001)
    with pytest.raises(NumericalInvariantError, match="eigenvalue with positive real part") as info:
        build_liouvillian(params)
    assert str(info.value).endswith(f"at {params.label()}")
    # real parts are held to 1e-10 max|S|: shift the computed spectrum to either side of it
    monkeypatch.setattr(model, "_lift_dissipator", lift)
    scale = np.abs(build_liouvillian(params).superop).max()
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: eigvals(a) + 0.5e-10 * scale)
    build_liouvillian(params)
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: eigvals(a) + 2e-10 * scale)
    with pytest.raises(NumericalInvariantError, match=r"positive real part 5\.494e-10 at"):
        build_liouvillian(params)


@pytest.mark.parametrize("rates", [(1.01, 0.01, 0.6, 1e308), (8e307, 0.01, 0.6, 0.001)])
def test_build_rejects_a_generator_that_overflows(rates):
    # at omega = 1e308 D is finite and only omega diag(k) overflows: S is checked, not D
    params = ModelParams.from_rates(*rates)
    sweep = [ModelParams.from_rates(1.01, 0.01, 0.6, 0.001), params]
    with pytest.raises(NumericalInvariantError, match="generator is not finite") as info:
        build_liouvillian(sweep)
    assert str(info.value).endswith(f"at {params.label()}")


_FRAME_OMEGAS = [0.001, 0.0033, 0.7, 5.0, 1e-320, 1e200]


@pytest.mark.parametrize("omega", [0.001, 0.7, 5.0, 1e-320, 1e200])
def test_dissipator_is_built_without_omega(omega):
    # omega enters S only through -i omega diag(k), so D is the same at every omega
    liou = build_liouvillian(ModelParams.from_rates(1.01, 0.01, 0.6, omega))
    reference = build_liouvillian(ModelParams.from_rates(1.01, 0.01, 0.6, 1.0))
    assert np.array_equal(liou.dissipator, reference.dissipator)
    assert np.array_equal(liou.superop, liou.dissipator - 1j * omega * np.diag(_ORDER))


@pytest.mark.parametrize("omega", _FRAME_OMEGAS)
@pytest.mark.parametrize("eta", [0.0, 0.6, 1.0, 1.3])
def test_generator_splits_into_the_frame_rotation_and_a_real_dissipator(omega, eta):
    liou = build_liouvillian(ModelParams.from_rates(1.01, 0.01, eta, omega))
    assert liou.dissipator.dtype == np.float64
    assert np.array_equal(liou.dissipator, liou.superop.real)
    rotation = liou.superop.imag
    assert np.array_equal(rotation, np.diag(np.diag(rotation)))
    # -i [H, .] is built as -i omega diag(k), not summed from H's levels
    assert np.array_equal(np.diag(rotation), -omega * _ORDER)
    # D commutes with diag(k): it couples no two coherence orders
    assert not liou.dissipator[_CROSS].any()


def test_stacked_build_matches_the_per_value_oracle():
    # one broadcast lift for every point, bitwise equal to one np.kron build per
    # point: the dissipator to the oracle's real part, the rotation exactly
    rng = np.random.default_rng(909)
    etas = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 3.0, 998)])
    points = [ModelParams.from_rates(g1, g2, eta, omega)
              for (g1, g2, omega), eta in zip(rng.uniform(0.0, 2.0, (1000, 3)), etas)]
    points += [ModelParams.from_temperature(zeta, temperature, eta, omega)
               for (zeta, temperature, omega), eta
               in zip(rng.uniform(0.05, 3.0, (1000, 3)), rng.permutation(etas))]
    built = build_liouvillian(points)
    assert len(built) == 2000
    for liou, params in zip(built, points):
        assert liou.params is params
        oracle = per_value_liouvillian(params)
        assert np.array_equal(liou.dissipator, oracle.real)
        assert np.array_equal(liou.superop.imag, np.diag(-params.omega * _ORDER))
    single = build_liouvillian(points[7])
    assert np.array_equal(single.superop, built[7].superop)
    assert np.array_equal(single.eigenvalues, built[7].eigenvalues)
    assert single.spectral_radius == built[7].spectral_radius


@settings(derandomize=True, max_examples=200, deadline=None)
@given(gamma1=st.floats(1e-8, 1e4), gamma2=st.floats(1e-8, 1e4),
       eta=st.floats(0.0, 100.0), omega=st.floats(1e-4, 1e3))
def test_generator_properties(gamma1, gamma2, eta, omega):
    params = ModelParams.from_rates(gamma1, gamma2, eta, omega)
    s = build_liouvillian(params).superop
    bound = 1e-12 * max(1.0, float(np.abs(s).max()))
    for rho in _PROBES:
        assert max_abs_diff(master_equation_rhs(params, rho), unvec(s @ vec(rho))) <= bound
    assert np.abs(vec(np.eye(4)).conj() @ s).max() <= bound
    assert np.all(s[_CROSS] == 0.0)
    k = kossakowski_matrix(params)
    assert np.linalg.eigvalsh(k).min() >= -1e-12 * max(1.0, float(np.abs(k).max()))


def test_build_and_apply_agree_on_random_hermitian(canonical_params, canonical_liouvillian):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        rho = random_hermitian(rng)
        direct = master_equation_rhs(canonical_params, rho)
        via_superop = canonical_liouvillian.apply(rho)
        worst = max(worst, max_abs_diff(direct, via_superop))
    assert worst < 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_generator_adjoint_and_trace_properties(seed, canonical_liouvillian):
    rng = np.random.default_rng(500 + seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))  # general, non-Hermitian
    s = canonical_liouvillian.superop
    l_a = unvec(s @ vec(a))
    l_a_dag = unvec(s @ vec(a.conj().T))
    assert max_abs_diff(l_a.conj().T, l_a_dag) < 1e-12
    assert abs(np.trace(l_a)) < 1e-13


def test_apply_preserves_trace_and_hermiticity(canonical_liouvillian):
    rng = np.random.default_rng(8)
    for _ in range(100):
        rho = random_hermitian(rng)
        out = canonical_liouvillian.apply(rho)
        assert abs(np.trace(out)) < 1e-12
        assert max_abs_diff(out, out.conj().T) < 1e-12


def test_apply_linearity(canonical_liouvillian):
    rng = np.random.default_rng(9)
    r1, r2 = random_hermitian(rng), random_hermitian(rng)
    a, b = 0.3, -1.7
    apply = canonical_liouvillian.apply
    lhs = apply(a * r1 + b * r2)
    rhs = a * apply(r1) + b * apply(r2)
    assert max_abs_diff(lhs, rhs) < 1e-12


def test_apply_on_doubly_excited_state(canonical_params, canonical_liouvillian):
    # both parts excited, eta = 1: pure loss into the symmetric channel
    rho = proj(3, 3)
    g1 = canonical_params.gamma1
    expected = 2 * g1 * (
        proj(1, 1) + proj(2, 2) - 2 * proj(3, 3) + proj(1, 2) + proj(2, 1)
    )
    assert max_abs_diff(canonical_liouvillian.apply(rho), expected) < 1e-12


def test_apply_decoupled_oscillator():
    p = ModelParams.from_rates(1.01, 0.01, 0.0, 0.001)
    rho = proj(1, 1)  # |01><01|: qubit ground, oscillator excited
    expected = 2 * p.gamma2 * (proj(3, 3) - proj(1, 1))
    assert max_abs_diff(build_liouvillian(p).apply(rho), expected) < 1e-14


def test_superop_trace_annihilation_and_spectrum(canonical_liouvillian):
    s = canonical_liouvillian.superop
    trace_row = vec(np.eye(4)).conj() @ s
    assert np.abs(trace_row).max() < 1e-12
    assert canonical_liouvillian.eigenvalues.real.max() <= 1e-10


# ------------------------------------------------------------ steady state

def test_steady_state_analytic_canonical(canonical_params, canonical_liouvillian):
    ss = steady_state_analytic(canonical_params)
    expected = np.diag([10201.0, 101.0, 101.0, 1.0]) / 10404.0
    assert max_abs_diff(ss, expected) < 1e-15
    assert abs(np.trace(ss) - 1.0) < 1e-14
    assert np.abs(canonical_liouvillian.apply(ss)).max() < 1e-10


def test_steady_state_analytic_equal_rates():
    p = ModelParams.from_rates(0.7, 0.7, 1.0, 0.001)
    assert max_abs_diff(steady_state_analytic(p), np.eye(4) / 4) < 1e-15


def test_steady_state_analytic_rejects_zero_gamma2():
    p = ModelParams.from_rates(1.0, 0.0, 1.0, 0.001)
    with pytest.raises(ConfigError):
        steady_state_analytic(p)


def test_steady_state_numeric_generic_coupling():
    # eta != 1 keeps the kernel one-dimensional
    p = ModelParams.from_rates(1.01, 0.01, 0.7, 0.001)
    result = steady_state_numeric(build_liouvillian(p))
    assert result.null_space_dim == 1
    assert trace_norm(result.state - steady_state_analytic(p)) < 1e-8
    assert result.residual_max < 1e-10


def test_steady_state_numeric_equal_couplings_is_degenerate(canonical_liouvillian):
    # at eta = 1 both collective jump operators annihilate the antisymmetric
    # single-excitation state, so the kernel is two-dimensional
    with pytest.raises(DegenerateSteadyStateError):
        steady_state_numeric(canonical_liouvillian)
    result = steady_state_numeric(canonical_liouvillian, require_unique=False)
    assert result.null_space_dim == 2
    assert result.residual_max < 1e-10


def test_steady_state_numeric_zero_temperature_dark_state():
    p = ModelParams.from_rates(1.0, 0.0, 1.0, 0.001)
    result = steady_state_numeric(build_liouvillian(p), require_unique=False)
    assert result.null_space_dim > 1


def test_steady_state_numeric_holds_a_traceless_kernel_to_1e_14():
    # a generator whose kernel is spanned by diag(1, -1, tau, 0): its unit
    # eigenvector has trace tau / sqrt(2), a state only from 1e-14 up
    def generator(tau):
        kernel = vec(np.diag([1.0, -1.0, tau, 0.0])).real
        kernel /= np.linalg.norm(kernel)
        superop = (np.outer(kernel, kernel) - np.eye(16)).astype(complex)
        return model.Liouvillian(params=ModelParams.from_rates(1.01, 0.01, 0.6, 0.001),
                                 superop=superop, eigenvalues=np.linalg.eigvals(superop),
                                 spectral_radius=1.0, dissipator=superop.real)

    assert steady_state_numeric(generator(1e-13)).null_space_dim == 1
    with pytest.raises(DegenerateSteadyStateError, match="eigenvector is traceless"):
        steady_state_numeric(generator(1e-14))


def test_steady_state_numeric_decoupled_oscillator_is_degenerate():
    # eta = 0 freezes the oscillator entirely: any diagonal oscillator state
    # tensored with the thermal qubit is stationary
    p = ModelParams.from_rates(1.01, 0.01, 0.0, 0.001)
    result = steady_state_numeric(build_liouvillian(p), require_unique=False)
    assert result.null_space_dim == 2
    assert result.residual_max < 1e-10


@pytest.mark.parametrize("eta", [1e-4, 0.9995, 0.9999, 0.99999])
def test_kernel_is_one_dimensional_near_both_ends_of_eta(eta):
    # the slowest nonzero rates are 7.9e-10, 1.0e-8, 4.0e-10 and 4.0e-12 here:
    # slow, but above the rounding-level threshold (5.7e-14), so the steady
    # state is unique
    params = ModelParams.from_rates(1.01, 0.01, eta, 0.001)
    result = steady_state_numeric(build_liouvillian(params))
    assert result.null_space_dim == 1
    assert result.residual_max < 1e-10


@pytest.mark.parametrize("eta, dim", [(0.0, 2), (0.5, 1), (0.9999, 1), (1.0, 2)])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_kernel_dimension_does_not_depend_on_the_rate_scale(eta, dim, scale):
    # every rate and the frequency scaled alike scale the whole spectrum
    params = ModelParams.from_rates(1.01 * scale, 0.01 * scale, eta, 0.001 * scale)
    result = steady_state_numeric(build_liouvillian(params), require_unique=False)
    assert result.null_space_dim == dim
