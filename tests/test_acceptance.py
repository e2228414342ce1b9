"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see every line.

Criteria 2, 4 and 8 pin the equal-coupling point (gamma1=1.01, gamma2=0.01,
eta=1, omega=0.001), and there the model has a decoherence-free state: the
dissipator couples the pair to the bath only through the collective
operators ``sigma_-^Q + eta sigma_-^HO`` and its raising partner, and at
eta = 1 both annihilate ``|psi-> = (|01> - |10>)/sqrt(2)``, which is also a
Hamiltonian eigenstate.  The criteria therefore assert what that structure
implies rather than a unique thermal fixed point:

* criterion 2: the generator kernel is two-dimensional, spanned by the
  diagonal thermal state and ``|psi-><psi-|``, and the numeric kernel
  element lies in that span;
* criterion 4: the dark population ``<psi-|rho(t)|psi->`` stays at its
  initial value 1/2, and the trajectory from ``|0>_Q |1>_HO`` converges to
  the closed-form asymptotic state ``tests.oracles.eta1_asymptotic_state``
  (itself checked against the exact propagator at t = 1e4), negativity
  included;
* criterion 8: the emitted negativity rises monotonically from 0 to that
  state's persistent plateau (~0.1025).

Criterion 8's ordering clause splits the familiar chain ``I >= discord >=
negativity``: ``I >= discord`` is a theorem and holds at every sample, while
``discord >= negativity`` holds only after the short-time transient (from
t = 0.15 on), because negativity grows linearly in t from a pure product
state and briefly exceeds both entropic measures; the clause pins that
transient at t = 0.015 as well.
"""

import math
import time

import numpy as np
import pytest

from bathlink.cli import main as cli_main
from bathlink.correlations import discord, mutual_information, negativity
from bathlink.dynamics import evolve_exact, evolve_rk, product_state
from bathlink.matops import kron, matrix_exp, trace_norm, unvec, vec
from bathlink.model import (
    ModelParams,
    build_liouvillian,
    kossakowski_matrix,
    steady_state_analytic,
    steady_state_numeric,
)
from bathlink.witness import dxi0_general, dxi0_quadratic, is_entangling, witness_vector
from oracles import (
    BELL,
    bell_diagonal,
    bell_diagonal_discord,
    bell_state,
    eta1_asymptotic_state,
    fd_dxi0,
    longdouble_dxi0,
)

CANON = dict(gamma1=1.01, gamma2=0.01, eta=1.0, omega=0.001)


def _report(number, name, elapsed, limit, checks):
    """Print one line for the criterion, then fail on any unmet check."""
    failed = [f"{label}: {detail}" for label, ok, detail in checks if not ok]
    status = "PASS" if not failed and elapsed < limit else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({elapsed:.2f} s / limit {limit:.0f} s)")
    for label, ok, detail in checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {label}: {detail}")
    assert elapsed < limit, f"criterion {number} exceeded its {limit:.0f} s budget"
    assert not failed, f"criterion {number}: " + "; ".join(failed)


@pytest.fixture(scope="module")
def canonical():
    params = ModelParams.from_rates(**CANON)
    return params, build_liouvillian(params)


def test_criterion_1_kossakowski_spectrum():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_gap = 0.0
    worst_herm = 0.0
    min_eig = np.inf
    for _ in range(50):
        g1, g2 = rng.uniform(0.0, 3.0, size=2)
        eta = rng.uniform(0.0, 2.0)
        params = ModelParams.from_rates(g1, g2, eta, 0.001)
        k = kossakowski_matrix(params)
        worst_herm = max(worst_herm, float(np.abs(k - k.conj().T).max()))
        eigs = np.sort(np.linalg.eigvalsh(k))
        expected = np.sort([2 * g1 * (1 + eta**2), 2 * g2 * (1 + eta**2), 0.0, 0.0])
        worst_gap = max(worst_gap, float(np.abs(eigs - expected).max()))
        min_eig = min(min_eig, float(eigs.min()))
    elapsed = time.perf_counter() - start
    _report(1, "kossakowski spectrum", elapsed, 1.0, [
        ("eigenvalues match {2g1(1+eta^2), 2g2(1+eta^2), 0, 0} to 1e-10",
         worst_gap < 1e-10, f"worst |gap| {worst_gap:.3e}"),
        ("Hermitian", worst_herm == 0.0, f"worst deviation {worst_herm:.3e}"),
        ("positive semidefinite", min_eig > -1e-10, f"min eigenvalue {min_eig:.3e}"),
    ])


def test_criterion_2_steady_state(canonical):
    params, liou = canonical
    start = time.perf_counter()
    analytic = steady_state_analytic(params)
    dark = bell_state("psi-")
    residual = float(np.abs(liou.apply(analytic)).max())
    dark_residual = float(np.abs(liou.apply(dark)).max())
    numeric = steady_state_numeric(liou, require_unique=False)
    # trace-norm distance of the numeric kernel element from span{rho_G, dark},
    # bounded above by the residual of its least-squares fit
    basis = np.stack([analytic.ravel(), dark.ravel()], axis=1)
    coeffs = np.linalg.lstsq(basis, numeric.state.ravel(), rcond=None)[0]
    span_gap = trace_norm(numeric.state - (basis @ coeffs).reshape(4, 4))
    elapsed = time.perf_counter() - start
    _report(2, "steady state", elapsed, 1.0, [
        ("analytic thermal state residual < 1e-10", residual < 1e-10,
         f"{residual:.3e}"),
        ("decoherence-free |psi-><psi-| residual < 1e-10", dark_residual < 1e-10,
         f"{dark_residual:.3e}"),
        ("kernel dimension == 2 (thermal state plus the decoherence-free state)",
         numeric.null_space_dim == 2, f"dimension {numeric.null_space_dim}"),
        ("numeric kernel element within 1e-8 (trace norm) of "
         "span{rho_G, |psi-><psi-|}", span_gap < 1e-8,
         f"{span_gap:.3e} (coefficients {coeffs.real[0]:.6f}, {coeffs.real[1]:.6f})"),
    ])


def test_criterion_3_integrator_oracle(canonical):
    _, liou = canonical
    start = time.perf_counter()
    rho0 = product_state(1.0, 0.0)
    exact = evolve_exact(liou, rho0, np.array([0.0, 1.0])).final_state
    err1000 = trace_norm(
        evolve_rk(liou, rho0, 1.0, steps=1000, samples=1).final_state - exact
    )
    err100 = trace_norm(
        evolve_rk(liou, rho0, 1.0, steps=100, samples=1).final_state - exact
    )
    err200 = trace_norm(
        evolve_rk(liou, rho0, 1.0, steps=200, samples=1).final_state - exact
    )
    ratio = err100 / err200
    elapsed = time.perf_counter() - start
    _report(3, "integrator oracle", elapsed, 5.0, [
        ("RK4 (1000 steps) vs exact propagator < 1e-6", err1000 < 1e-6,
         f"trace-norm error {err1000:.3e}"),
        ("step-halving ratio in [12, 20]", 12.0 <= ratio <= 20.0,
         f"{err100:.3e} / {err200:.3e} = {ratio:.2f}"),
    ])


def test_criterion_4_trajectory_invariants(canonical):
    params, liou = canonical
    start = time.perf_counter()
    rho0 = product_state(1.0, 0.0)
    traj = evolve_rk(liou, rho0, 30.0, steps=30000, samples=400)
    psi_minus = BELL["psi-"]
    worst_tr = 0.0
    worst_herm = 0.0
    worst_dark = 0.0
    min_eig = np.inf
    for rho in traj.states:
        worst_tr = max(worst_tr, abs(np.trace(rho).real - 1.0))
        worst_herm = max(worst_herm, float(np.abs(rho - rho.conj().T).max()))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(rho).min()))
        dark = (psi_minus.conj() @ rho @ psi_minus).real
        worst_dark = max(worst_dark, abs(dark - 0.5))
    rho_inf = eta1_asymptotic_state(params.gamma1, params.gamma2, rho0)
    oracle_gap = trace_norm(unvec(matrix_exp(liou.superop, 1e4) @ vec(rho0)) - rho_inf)
    gap = trace_norm(traj.final_state - rho_inf)
    neg_final = negativity(traj.final_state)
    neg_inf = negativity(rho_inf)
    elapsed = time.perf_counter() - start
    _report(4, "trajectory invariants", elapsed, 10.0, [
        ("trace within 1e-9 at all samples", worst_tr < 1e-9, f"worst {worst_tr:.3e}"),
        ("min eigenvalue > -1e-8 at all samples", min_eig > -1e-8, f"worst {min_eig:.3e}"),
        ("Hermiticity < 1e-10 at all samples", worst_herm < 1e-10, f"worst {worst_herm:.3e}"),
        ("dark population <psi-|rho|psi-> conserved at 1/2 within 1e-9 at all "
         "samples", worst_dark < 1e-9, f"worst |gap| {worst_dark:.3e}"),
        ("closed-form rho_inf vs exp(1e4 L) rho0 < 1e-10 (trace norm)",
         oracle_gap < 1e-10, f"{oracle_gap:.3e}"),
        ("||rho(30) - rho_inf||_1 < 1e-3", gap < 1e-3, f"{gap:.3e}"),
        ("|negativity(30) - negativity(rho_inf)| < 1e-6",
         abs(neg_final - neg_inf) < 1e-6,
         f"{neg_final:.10f} vs plateau {neg_inf:.10f}"),
    ])


def test_criterion_5_witness_dynamics_consistency(canonical):
    params, liou = canonical
    start = time.perf_counter()
    axis = np.linspace(-1.0, 1.0, 21)
    axis = (axis - axis[::-1]) / 2.0
    propagator = matrix_exp(liou.superop, 1e-4)
    mismatches = []
    verdicts = {}
    for p in axis:
        for q in axis:
            verdict, _ = is_entangling(p, q, params)
            rho = unvec(propagator @ vec(product_state(p, q)))
            neg = negativity((rho + rho.conj().T) / 2)
            verdicts[(round(p, 6), round(q, 6))] = verdict
            if verdict != (neg > 1e-10):
                mismatches.append((p, q, verdict, neg))
    anchor_in = all(verdicts[key] for key in [(1, 0), (-1, 0), (0, 1), (0, -1)])
    anchor_out = not any(
        verdicts[key] for key in [(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0)]
    )
    elapsed = time.perf_counter() - start
    _report(5, "witness/dynamics consistency", elapsed, 60.0, [
        ("discriminant verdict matches negativity(1e-4) > 1e-10 on 21x21 grid",
         not mismatches, f"{len(mismatches)} mismatches {mismatches[:3]}"),
        ("(+-1, 0) and (0, +-1) entangling", anchor_in, str(anchor_in)),
        ("(+-1, +-1) and (0, 0) non-entangling", anchor_out, str(anchor_out)),
    ])


def test_criterion_6_derivative_oracle(canonical):
    params, liou = canonical
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    worst_rel = 0.0
    collected = 0
    # draws whose closed-form rate sits within 1e-3 of zero are redrawn:
    # a relative comparison against a near-root value measures only noise
    while collected < 10:
        k1, k2, k3 = rng.uniform(-1.0, 1.0, size=3)
        psi = np.zeros(4, dtype=complex)
        psi[0], psi[2], psi[3] = k1, k2, k3
        norm_sq = float(np.vdot(psi, psi).real)
        analytic = dxi0_quadratic(k1, k3, params) / norm_sq
        if norm_sq < 1e-4 or abs(analytic) < 1e-3:
            continue
        fd = fd_dxi0(liou.superop, product_state(1.0, 0.0), psi / math.sqrt(norm_sq))
        worst_rel = max(worst_rel, abs(fd - analytic) / abs(analytic))
        collected += 1
    while collected < 20:
        p, q = rng.uniform(-1.0, 1.0, size=2)
        al, be, th = rng.uniform(-1.0, 1.0, size=3)
        psi = witness_vector(p, q, al, be, th)
        norm_sq = float(np.vdot(psi, psi).real)
        analytic = dxi0_general(p, q, al, be, params) / norm_sq
        if norm_sq < 1e-4 or abs(analytic) < 1e-3:
            continue
        fd = fd_dxi0(liou.superop, product_state(p, q), psi / math.sqrt(norm_sq))
        worst_rel = max(worst_rel, abs(fd - analytic) / abs(analytic))
        collected += 1
    worst_var = 0.0
    for _ in range(20):
        p, q = rng.uniform(-1.0, 1.0, size=2)
        al, be = rng.uniform(-1.0, 1.0, size=2)
        values = [
            longdouble_dxi0(params.gamma1, params.gamma2, params.eta, params.omega,
                            p, q, al, be, th)
            for th in np.linspace(-1.0, 1.0, 7)
        ]
        worst_var = max(worst_var, max(values) - min(values))
    elapsed = time.perf_counter() - start
    _report(6, "derivative oracle", elapsed, 5.0, [
        ("centered finite differences (h=1e-6) match closed forms to 1e-6 "
         "relative on 20 inputs", worst_rel < 1e-6, f"worst relative {worst_rel:.3e}"),
        ("vartheta-independence to 1e-15 (extended precision)",
         worst_var < 1e-15, f"worst variation {worst_var:.3e}"),
    ])


def test_criterion_7_correlation_benchmarks():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    bell = bell_state("phi+")
    werner = 0.6 * bell + 0.4 * np.eye(4) / 4.0
    product = kron(
        np.diag([0.65, 0.35]).astype(complex), np.diag([0.2, 0.8]).astype(complex)
    )
    classical = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    checks = [
        ("negativity(bell) = 0.5", abs(negativity(bell) - 0.5) < 1e-10,
         f"{negativity(bell):.12f}"),
        ("negativity(werner 0.6) = 0.2", abs(negativity(werner) - 0.2) < 1e-10,
         f"{negativity(werner):.12f}"),
        ("mutual_info(bell) = 2", abs(mutual_information(bell) - 2.0) < 1e-9,
         f"{mutual_information(bell):.12f}"),
    ]
    d_bell = discord(bell).discord
    d_prod = discord(product).discord
    d_cls = discord(classical).discord
    checks += [
        ("discord(bell) = 1 within 1e-6", abs(d_bell - 1.0) < 1e-6, f"{d_bell:.9f}"),
        ("discord(product) = 0 within 1e-6", abs(d_prod) < 1e-6, f"{d_prod:.2e}"),
        ("discord(classical) = 0 within 1e-6", abs(d_cls) < 1e-6, f"{d_cls:.2e}"),
    ]
    worst_bd = 0.0
    for _ in range(20):
        rho = bell_diagonal(rng.dirichlet(np.ones(4)))
        worst_bd = max(worst_bd, abs(discord(rho).discord - bell_diagonal_discord(rho)))
    checks.append(
        ("bell-diagonal discord matches the analytic oracle within 1e-4 on 20 states",
         worst_bd < 1e-4, f"worst |gap| {worst_bd:.3e}")
    )
    elapsed = time.perf_counter() - start
    _report(7, "correlation benchmarks", elapsed, 30.0, checks)


def test_criterion_8_qualitative_claims(tmp_path):
    start = time.perf_counter()
    sim_path = tmp_path / "sim.csv"
    argv = ["simulate", "--gamma1", "1.01", "--gamma2", "0.01", "--eta", "1",
            "--omega", "0.001", "--p", "1", "--q", "0", "--t-max", "6",
            "--samples", "400", "--out", str(sim_path)]
    assert cli_main(argv) == 0
    lines = sim_path.read_text(encoding="utf-8").splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    neg = [r[1] for r in rows]
    mi = [r[2] for r in rows]
    dis = [r[3] for r in rows]
    steps = np.diff(neg)
    plateau = negativity(
        eta1_asymptotic_state(CANON["gamma1"], CANON["gamma2"], product_state(1.0, 0.0))
    )
    rises_to_plateau = (
        neg[0] < 1e-12 and max(neg) > 1e-3 and steps.min() >= -1e-12
        and abs(neg[-1] - plateau) < 1e-8
    )

    heat_path = tmp_path / "heat.csv"
    argv = ["heatmap", "--omega", "0.001", "--eta", "1", "--observable",
            "negativity", "--axis", "temperature",
            "--axis-values", "0.1,0.3,0.6,1.0", "--p", "1", "--q", "0",
            "--t-max", "2", "--samples", "400", "--out", str(heat_path)]
    assert cli_main(argv) == 0
    hlines = heat_path.read_text(encoding="utf-8").splitlines()
    hrows = [[float(x) for x in line.split(",")] for line in hlines[1:]]
    temps = [0.1, 0.3, 0.6, 1.0]
    monotone = True
    for t_fix in (0.5, 1.0, 2.0):
        series = [r[2] for temp in temps for r in hrows
                  if r[1] == temp and abs(r[0] - t_fix) < 1e-12]
        assert len(series) == 4
        if any(series[i] < series[i + 1] - 1e-12 for i in range(3)):
            monotone = False

    # tiny slack: all three measures are ~0 at t=0 up to optimizer rounding
    mi_margin = min(m - d for m, d in zip(mi, dis))
    late_margin = min(d - n for r, d, n in zip(rows, dis, neg) if r[0] >= 0.15 - 1e-12)
    first = [(n, m) for r, n, m in zip(rows, neg, mi) if abs(r[0] - 0.015) < 1e-12]
    transient = len(first) == 1 and first[0][0] > first[0][1]
    elapsed = time.perf_counter() - start
    _report(8, "qualitative claims on emitted data", elapsed, 60.0, [
        ("negativity rises monotonically from 0 to the decoherence-free plateau",
         rises_to_plateau,
         f"start {neg[0]:.3e}, smallest step {steps.min():.3e}, final "
         f"{neg[-1]:.10f} vs plateau {plateau:.10f}"),
        ("negativity non-increasing in T at fixed t in {0.5, 1, 2}",
         monotone, f"temperatures {temps}"),
        ("I >= discord at every sample (discord is I minus a non-negative "
         "classical correlation)", mi_margin >= -1e-7,
         f"min I - discord {mi_margin:.3e}"),
        ("discord >= negativity for t >= 0.15", late_margin >= -1e-7,
         f"min discord - negativity {late_margin:.3e}"),
        ("negativity > I at t = 0.015 (short-time transient)", transient,
         f"N={first[0][0]:.6f}, I={first[0][1]:.6f}" if first else "no sample at t=0.015"),
    ])


def test_criterion_9_discrepancy_regression(canonical):
    params, _ = canonical
    start = time.perf_counter()
    plus = dxi0_quadratic(1.0, -0.5, params)
    minus = dxi0_quadratic(0.5, 1.0, params)
    elapsed = time.perf_counter() - start
    _report(9, "rate-sign regression", elapsed, 1.0, [
        ("dxi0_quadratic(1, -1/2) = +3.045", abs(plus - 3.045) < 1e-9, f"{plus:.12g}"),
        ("dxi0_quadratic(0.5, 1) = -0.495", abs(minus + 0.495) < 1e-9, f"{minus:.12g}"),
    ])
