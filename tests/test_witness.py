import numpy as np
import pytest
from scipy.linalg import expm

from bathlink._format import write_table
from bathlink.correlations import negativity
from bathlink.dynamics import evolve_exact, product_state
from bathlink.errors import ConfigError, NumericalInvariantError
from bathlink.matops import matrix_exp, partial_transpose_second
from bathlink.model import ModelParams, build_liouvillian
from bathlink.witness import (
    DEFAULT_CONFIRM_TAU,
    _report,
    dxi0_general,
    dxi0_quadratic,
    is_entangling,
    quadratic_coefficients,
    quadratic_roots,
    region_scan,
    report_for_kappas,
    report_for_product_state,
    witness_vector,
)
from oracles import bell_state, fd_dxi0, reference_region_scan, xi_value


def normalized(v):
    return v / np.linalg.norm(v)


def rate_from_generator(liouvillian, rho0, psi):
    """``<psi| (L rho0)^T_HO |psi>`` read off the generator, ``psi`` as given."""
    return float((psi.conj() @ partial_transpose_second(liouvillian.apply(rho0)) @ psi).real)


# ---------------------------------------------------------------------- xi

def test_xi_orthogonal_support(canonical_params):
    # the direction |00> against the |0>_Q |1>_HO start
    assert report_for_kappas(1.0, 0.0, canonical_params).xi0 == 0.0


def test_xi_bell_state_antisymmetric_direction(canonical_liouvillian):
    psi = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    xi0 = xi_value(canonical_liouvillian.superop, bell_state("phi+"), psi, 0.0)
    assert abs(xi0 + 0.5) < 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_xi_nonnegative_on_product_states(seed, canonical_liouvillian):
    rng = np.random.default_rng(seed)
    p, q = rng.uniform(-1.0, 1.0, size=2)
    rho = product_state(p, q)
    for _ in range(10):
        psi = normalized(rng.normal(size=4) + 1j * rng.normal(size=4))
        assert xi_value(canonical_liouvillian.superop, rho, psi, 0.0) > -1e-12


# ------------------------------------------------------------- dxi0 (kappa)

def test_dxi0_quadratic_pinned_values(canonical_params):
    assert abs(dxi0_quadratic(0.5, 1.0, canonical_params) + 0.495) < 1e-12
    assert abs(dxi0_quadratic(1.0, -0.5, canonical_params) - 3.045) < 1e-12


def test_dxi0_quadratic_value_between_roots(canonical_params):
    lo, hi = quadratic_roots(1.0, canonical_params)
    assert abs(lo - 0.01 / 1.01) < 1e-12
    assert abs(hi - 1.0) < 1e-12
    assert lo < 0.5 < hi


def test_dxi0_quadratic_equal_rates_is_perfect_square():
    p = ModelParams.from_rates(0.9, 0.9, 1.3, 0.001)
    rng = np.random.default_rng(3)
    for _ in range(20):
        k1, k3 = rng.uniform(-1.0, 1.0, size=2)
        value = dxi0_quadratic(k1, k3, p)
        expected = 2.0 * 0.9 * (k1 * 1.3 - k3) ** 2
        assert abs(value - expected) < 1e-12
        assert value >= 0.0
    assert abs(dxi0_quadratic(0.5, 0.65, p)) < 1e-12  # kappa1*eta = kappa3


def test_dxi0_quadratic_opposite_signs_never_negative(canonical_params):
    rng = np.random.default_rng(4)
    for _ in range(50):
        k1 = rng.uniform(0.01, 2.0)
        k3 = -rng.uniform(0.01, 2.0)
        assert dxi0_quadratic(k1, k3, canonical_params) > 0.0


@pytest.mark.parametrize("seed", range(10))
def test_dxi0_quadratic_matches_finite_difference(seed, canonical_liouvillian,
                                                  canonical_params):
    rng = np.random.default_rng(1300 + seed)
    k1, k2, k3 = rng.uniform(-1.0, 1.0, size=3)
    psi = np.array([k1, 0.0, k2, k3], dtype=complex)
    norm_sq = float(np.vdot(psi, psi).real)
    if norm_sq < 1e-4:
        return
    analytic = dxi0_quadratic(k1, k3, canonical_params) / norm_sq
    if abs(analytic) < 1e-3:
        return  # relative comparison is meaningless at a near-root
    fd = fd_dxi0(canonical_liouvillian.superop, product_state(1.0, 0.0),
                 psi / np.sqrt(norm_sq))
    assert abs(fd - analytic) / abs(analytic) < 1e-6


# -------------------------------------------------------------- dxi0 (p, q)

def test_dxi0_general_change_of_variables(canonical_params):
    rng = np.random.default_rng(5)
    for _ in range(20):
        k1, k3 = rng.uniform(-1.0, 1.0, size=2)
        lhs = dxi0_general(1.0, 0.0, -k3, k1, canonical_params)
        rhs = dxi0_quadratic(k1, k3, canonical_params)
        assert abs(lhs - rhs) < 1e-12


def test_dxi0_general_cross_term_vanishes_at_corners(canonical_params):
    rng = np.random.default_rng(6)
    g2 = canonical_params.gamma2
    for _ in range(10):
        al, be = rng.uniform(-1.0, 1.0, size=2)
        value = dxi0_general(1.0, 1.0, al, be, canonical_params)
        expected = 2.0 * g2 * al**2 + 2.0 * g2 * be**2
        assert abs(value - expected) < 1e-12
        assert value >= 0.0


@pytest.mark.parametrize("seed", range(10))
def test_dxi0_general_matches_finite_difference(seed, canonical_params,
                                                canonical_liouvillian):
    rng = np.random.default_rng(1400 + seed)
    p, q = rng.uniform(-1.0, 1.0, size=2)
    al, be, th = rng.uniform(-1.0, 1.0, size=3)
    psi = witness_vector(p, q, al, be, th)
    norm_sq = float(np.vdot(psi, psi).real)
    if norm_sq < 1e-4:
        return
    analytic = dxi0_general(p, q, al, be, canonical_params) / norm_sq
    if abs(analytic) < 1e-3:
        return
    fd = fd_dxi0(canonical_liouvillian.superop, product_state(p, q),
                 psi / np.sqrt(norm_sq))
    assert abs(fd - analytic) / abs(analytic) < 1e-6


@pytest.mark.parametrize("seed", range(10))
def test_dxi0_general_matches_generator_route(seed, canonical_params, canonical_liouvillian):
    rng = np.random.default_rng(1500 + seed)
    p, q = rng.uniform(-1.0, 1.0, size=2)
    al, be, th = rng.uniform(-1.0, 1.0, size=3)
    exact = rate_from_generator(
        canonical_liouvillian, product_state(p, q), witness_vector(p, q, al, be, th)
    )
    assert abs(exact - dxi0_general(p, q, al, be, canonical_params)) < 1e-12


def test_dxi0_rate_independent_of_vartheta(canonical_liouvillian):
    # the vartheta component of the direction lies in the kernel of the rate
    # form; the generator-route value may move only by float rounding
    rng = np.random.default_rng(7)
    for _ in range(10):
        p, q = rng.uniform(-1.0, 1.0, size=2)
        al, be = rng.uniform(-1.0, 1.0, size=2)
        rho0 = product_state(p, q)
        values = [
            rate_from_generator(canonical_liouvillian, rho0,
                                witness_vector(p, q, al, be, th))
            for th in np.linspace(-1.0, 1.0, 5)
        ]
        assert max(values) - min(values) < 5e-15


def test_witness_vector_orthogonal_to_initial_state():
    rng = np.random.default_rng(8)
    for _ in range(20):
        p, q = rng.uniform(-1.0, 1.0, size=2)
        al, be, th = rng.uniform(-1.0, 1.0, size=3)
        rho = product_state(p, q)
        psi = witness_vector(p, q, al, be, th)
        overlap = psi.conj() @ rho @ psi
        assert abs(overlap) < 1e-14


# ------------------------------------------------------------ is_entangling

def test_is_entangling_corner_cases(canonical_params):
    g1 = canonical_params.gamma1
    g2 = canonical_params.gamma2
    verdict, excess = is_entangling(1.0, 0.0, canonical_params)
    assert verdict
    assert abs(excess - 4.0 * (g1 - g2) ** 2) < 1e-12
    assert is_entangling(0.0, 1.0, canonical_params)[0]
    assert not is_entangling(1.0, 1.0, canonical_params)[0]
    assert not is_entangling(0.0, 0.0, canonical_params)[0]


def test_is_entangling_equal_rates_boundary():
    p = ModelParams.from_rates(0.5, 0.5, 1.0, 0.001)
    verdict, excess = is_entangling(1.0, 0.0, p)
    assert abs(excess) < 1e-12
    assert not verdict  # boundary counts as non-entangling


def test_is_entangling_decoupled():
    p = ModelParams.from_rates(1.01, 0.01, 0.0, 0.001)
    verdict, excess = is_entangling(1.0, 0.0, p)
    assert not verdict and excess <= 0.0


def test_quadratic_coefficients_are_nonnegative(canonical_params):
    rng = np.random.default_rng(9)
    for _ in range(50):
        p, q = rng.uniform(-1.0, 1.0, size=2)
        a, _, c = quadratic_coefficients(p, q, canonical_params)
        assert a >= 0.0 and c >= 0.0


def test_is_entangling_rejects_non_finite_excess():
    # B^2 overflows at rates of 1e150
    params = ModelParams.from_rates(1e150, 1e150, 1e4, 1.0)
    with pytest.raises(NumericalInvariantError, match="excess B\\^2 - 4AC is not finite"):
        is_entangling(0.6, 0.3, params)
    # at 8e307 the coefficient B overflows, so no route reads a NaN form
    params = ModelParams.from_rates(8e307, 8e307, 1.0, 1.0)
    for evaluate in (is_entangling, report_for_product_state):
        with pytest.raises(NumericalInvariantError,
                           match=r"^rate form coefficients A, B, C are not finite at omega=1"):
            evaluate(0.5, 0.5, params)


# -------------------------------------------------------------- region scan

@pytest.mark.parametrize("rates", [(1.01, 0.01, 1.0), (0.7, 0.3, 0.35), (1.0, 0.0, 0.9)])
def test_region_verdicts_invariant_under_rate_scaling(rates):
    g1, g2, eta = rates
    scan = region_scan(ModelParams.from_rates(g1, g2, eta, 1.0), n=41, spot_checks=0)
    p, q = scan.p_values[:, None], scan.q_values[None, :]
    for k in (-40, 3, 60):
        scaled = ModelParams.from_rates(g1 * 2.0**k, g2 * 2.0**k, eta, 1.0)
        entangling, excess = is_entangling(p, q, scaled)
        assert np.array_equal(entangling, scan.entangling)
        assert np.array_equal(excess, scan.excess * 4.0**k)
    entangling, _ = is_entangling(p, q, ModelParams.from_rates(g1 * 1e100, g2 * 1e100, eta, 1.0))
    assert np.array_equal(entangling, scan.entangling)


def test_region_verdicts_follow_excess_at_tiny_rates():
    # B^2 and 4AC underflow at rates of 1e-200: the excess reads 0 and the verdict follows it
    scan = region_scan(ModelParams.from_rates(1.01e-200, 1e-202, 1.0, 1.0), n=21, spot_checks=0)
    assert np.all(np.isfinite(scan.excess))
    assert np.array_equal(scan.entangling, scan.excess > 0.0)


def test_region_scan_symmetry_and_corners(canonical_params):
    scan = region_scan(canonical_params, n=21, spot_checks=0)
    e = scan.entangling
    assert np.array_equal(e, e[::-1, :])
    assert np.array_equal(e, e[:, ::-1])
    assert np.array_equal(e, e[::-1, ::-1])
    p = list(scan.p_values)
    i1, i0 = p.index(1.0), p.index(0.0)
    assert e[i1, i0] and e[i0, i1]
    assert not e[i1, i1] and not e[i0, i0]
    assert e[p.index(-1.0), i0]


def test_region_scan_spot_checks_record_positive_negativity(canonical_params):
    scan = region_scan(canonical_params, n=11, spot_checks=10, seed=0)
    assert len(scan.spot_checks) == 10
    for check in scan.spot_checks:
        assert check["negativity"] > 1e-10


def test_region_scan_raises_where_a_spot_check_shows_no_negativity(canonical_params,
                                                                  monkeypatch):
    import bathlink.witness as witness

    monkeypatch.setattr(witness, "negativity", lambda rho: np.zeros(len(rho)))
    with pytest.raises(NumericalInvariantError,
                       match=r"^point \(\S+, \S+\) is flagged entangling but shows no "
                             r"negativity at t=0\.0001$"):
        region_scan(canonical_params, n=11, spot_checks=1)


def test_region_scan_spot_check_picks_are_pinned(canonical_params):
    # random.Random(seed).random() is the stream Python keeps across versions
    scan = region_scan(canonical_params, n=11, spot_checks=3, seed=0)
    assert [(c["p"], c["q"]) for c in scan.spot_checks] == [
        (1.0, -0.6000000000000001), (0.8, 0.6000000000000001), (-0.20000000000000007, -1.0)]


def test_region_scan_confirm_dynamics_matches_verdicts(canonical_params):
    scan = region_scan(canonical_params, n=9, confirm_dynamics=True, spot_checks=0)
    dyn = scan.confirm_negativity > 1e-10
    assert np.array_equal(dyn, scan.entangling)


def test_region_scan_csv(tmp_path, canonical_params):
    scan = region_scan(canonical_params, n=3, spot_checks=0)
    path = tmp_path / "region.csv"
    write_table(str(path), "csv", *scan.table())
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "p,q,entangling,excess"
    assert len(lines) == 10
    first = lines[1].split(",")
    assert first[0] == "-1" and first[1] == "-1"
    assert first[2] in ("0", "1")


def _rates_at(eta):
    return ModelParams.from_rates(gamma1=1.01, gamma2=0.01, eta=eta, omega=0.001)


_T07_ETA08 = ModelParams.from_temperature(zeta=1.0, temperature=0.7, eta=0.8, omega=0.001)


@pytest.mark.parametrize("params, tau", [
    pytest.param(_rates_at(1.0), DEFAULT_CONFIRM_TAU, id="1.0"),
    pytest.param(_rates_at(0.6), DEFAULT_CONFIRM_TAU, id="0.6"),
    pytest.param(_rates_at(0.0), DEFAULT_CONFIRM_TAU, id="0.0"),
    pytest.param(_T07_ETA08, DEFAULT_CONFIRM_TAU, id="T0.7-eta0.8"),
    pytest.param(_rates_at(0.6), 0.05, id="0.6-tau0.05"),
])
@pytest.mark.parametrize("n", [2, 11, 40, 121])
def test_region_scan_matches_per_point_reference(n, params, tau):
    scan = region_scan(params, n=n, spot_checks=0, confirm_dynamics=True, confirm_tau=tau)
    # the scan's own propagator, exp(tau D) in the rotating frame, so the
    # per-point loop, which evolves every point, is compared bit for bit with
    # the batched scan and its parity-mirrored half; matrix_exp has its own
    # oracle tests, and the lab-frame agreement is tested below
    entangling, excess, neg = reference_region_scan(
        params.gamma1, params.gamma2, params.eta,
        matrix_exp(build_liouvillian(params).dissipator, tau), n,
    )
    assert np.array_equal(scan.entangling, entangling)
    assert np.array_equal(scan.excess, excess)
    assert np.array_equal(scan.confirm_negativity, neg)


@pytest.mark.parametrize("params", [_rates_at(1.0), _rates_at(0.6), _T07_ETA08,
                                    ModelParams.from_rates(1.3, 0.4, 0.8, 5.0)],
                         ids=["1.0", "0.6", "T0.7-eta0.8", "omega5"])
def test_region_column_matches_lab_frame_evolution(params):
    # the column is evolved in the frame rotating at omega; the oracle evolves
    # every point in the lab frame with scipy's expm of the complex generator
    scan = region_scan(params, n=21, spot_checks=0, confirm_dynamics=True, confirm_tau=0.05)
    neg = reference_region_scan(params.gamma1, params.gamma2, params.eta,
                                expm(0.05 * build_liouvillian(params).superop), 21)[2]
    assert np.abs(scan.confirm_negativity - neg).max() <= 1e-15


@pytest.mark.parametrize("n", [40, 201])
def test_region_excess_is_mirror_symmetric(n):
    # every power in the rate form is a product, so (p, q) and (-p, -q) round alike
    excess = region_scan(_T07_ETA08, n=n, spot_checks=0).excess
    assert np.array_equal(excess, excess[::-1, ::-1])
    assert np.array_equal(excess, excess[::-1, :]) and np.array_equal(excess, excess[:, ::-1])


def test_region_scan_spot_checks_match_confirmation_column(canonical_params):
    n = 21
    scan = region_scan(canonical_params, n=n, spot_checks=10, seed=0, confirm_dynamics=True)
    index = {float(x): k for k, x in enumerate(scan.p_values)}
    flat = []
    for check in scan.spot_checks:
        i, j = index[check["p"]], index[check["q"]]
        # the spot checks evolve their points directly, the column mirrors half of them
        assert check["negativity"] == scan.confirm_negativity[i, j]
        flat.append(i * n + j)
    assert min(flat) < (n * n + 1) // 2 <= max(flat)


def test_region_scan_rejects_tiny_grid(canonical_params):
    with pytest.raises(ConfigError):
        region_scan(canonical_params, n=1)


def test_region_scan_degenerate_two_point_grid(canonical_params):
    scan = region_scan(canonical_params, n=2, spot_checks=4)
    assert list(scan.p_values) == [-1.0, 1.0]
    assert scan.entangling.shape == (2, 2)
    assert not scan.entangling.any()  # all four corners are non-entangling


# ------------------------------------------------------------------ reports

def test_report_for_kappas(canonical_params):
    report = report_for_kappas(0.5, 1.0, canonical_params)
    assert report.xi0 == 0.0
    assert abs(report.dxi0 + 0.495) < 1e-12
    assert report.entangling


def test_report_for_kappas_documented_positive_case(canonical_params):
    report = report_for_kappas(1.0, -0.5, canonical_params)
    assert abs(report.dxi0 - 3.045) < 1e-12
    assert not report.entangling


def test_report_for_product_state_optimal_direction(canonical_params):
    report = report_for_product_state(1.0, 0.0, canonical_params)
    assert report.entangling
    assert report.dxi0 < 0.0
    # the optimal direction's rate beats a generic one
    generic = report_for_product_state(1.0, 0.0, canonical_params, alpha=1.0, beta=1.0)
    assert report.dxi0 <= generic.dxi0 + 1e-12


def test_report_for_product_state_non_entangling_point(canonical_params):
    report = report_for_product_state(1.0, 1.0, canonical_params)
    assert not report.entangling
    assert report.dxi0 >= -1e-15


def test_report_holds_xi0_to_1e_12_and_its_imaginary_part_to_1e_10():
    # a direction entangles only where Xi(0) vanishes: below 1e-12
    psi = np.array([1, 0, 0, 0], dtype=complex)
    for xi0, entangling in ((5e-13, True), (5e-12, False)):
        rho0 = np.diag([xi0, 1.0 - xi0, 0.0, 0.0]).astype(complex)
        report = _report(rho0, psi, -1.0, "probe")
        assert abs(report.xi0 - xi0) < 1e-20 and report.entangling is entangling
    # a lone entry 2ix of rho0 gives Xi(0) the imaginary part x along |00> + |01>
    psi = np.array([1, 1, 0, 0], dtype=complex)
    rho0 = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    rho0[1, 0] = 1e-10j
    _report(rho0, psi, -1.0, "probe")
    rho0[1, 0] = 1e-9j
    with pytest.raises(NumericalInvariantError, match=r"imaginary part 5\.000e-10;"):
        _report(rho0, psi, -1.0, "probe")


# ------------------------------------------- witness verdict vs dynamics tie

def test_entangling_verdicts_match_short_time_dynamics(canonical_params,
                                                       canonical_liouvillian):
    rng = np.random.default_rng(10)
    flagged, unflagged = 0, 0
    while flagged < 10 or unflagged < 10:
        p, q = rng.uniform(-1.0, 1.0, size=2)
        verdict, _ = is_entangling(p, q, canonical_params)
        rho = evolve_exact(canonical_liouvillian, product_state(p, q), [0.0, 1e-4]).final_state
        neg = negativity((rho + rho.conj().T) / 2)
        if verdict:
            assert neg > 1e-10
            flagged += 1
        else:
            assert neg < 1e-10
            unflagged += 1
