import numpy as np
import pytest
from scipy.linalg import expm

from bathlink.dynamics import PSD_TOL
from bathlink.errors import NumericalInvariantError
from bathlink.matops import (
    _positive_definite,
    hermitize,
    matrix_to_dict,
    partial_trace,
    partial_transpose_second,
    trace_norm,
    unvec,
    vec,
)
from bathlink.model import SP_HO, SP_Q, ModelParams, build_liouvillian
from oracles import (
    SIGMA_X,
    bell_state,
    hermitian_deviation,
    hermitian_eigen,
    is_close,
    matrix_from_dict,
    matrix_from_json,
    matrix_to_json,
    max_abs_diff,
    random_hermitian,
)


def test_kron_sigma_plus_acts_on_first_index():
    expected = np.zeros((4, 4))
    expected[2, 0] = expected[3, 1] = 1.0
    assert max_abs_diff(SP_Q, expected) == 0.0
    expected = np.zeros((4, 4))
    expected[1, 0] = expected[3, 2] = 1.0
    assert max_abs_diff(SP_HO, expected) == 0.0


def test_partial_transpose_fixes_diagonal_product_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0  # |00><00|
    assert max_abs_diff(partial_transpose_second(rho), rho) == 0.0


def test_partial_transpose_bell_spectrum():
    eigs = np.linalg.eigvalsh(partial_transpose_second(bell_state("phi+")))
    assert np.allclose(np.sort(eigs), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_partial_transpose_involution_trace_hermiticity(seed):
    rng = np.random.default_rng(seed)
    rho = random_hermitian(rng)
    pt = partial_transpose_second(rho)
    assert max_abs_diff(partial_transpose_second(pt), rho) == 0.0
    assert abs(np.trace(pt) - np.trace(rho)) < 1e-14
    assert max_abs_diff(pt, pt.conj().T) < 1e-14


def test_partial_transpose_rejects_wrong_shape():
    with pytest.raises(ValueError):
        partial_transpose_second(np.eye(2))


def test_partial_trace_rejects_wrong_shape_and_factor():
    with pytest.raises(ValueError, match=r"^partial trace expects 4x4 matrices, got \(3, 3\)$"):
        partial_trace(np.eye(3), "first")
    with pytest.raises(ValueError, match=r"^keep must be 'first' or 'second', got 'third'$"):
        partial_trace(np.eye(4), "third")


def test_partial_trace_bell_is_maximally_mixed():
    rho = bell_state("phi+")
    assert max_abs_diff(partial_trace(rho, "first"), np.eye(2) / 2) < 1e-14
    assert max_abs_diff(partial_trace(rho, "second"), np.eye(2) / 2) < 1e-14


def test_partial_trace_product_state():
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1.0  # |01><01|
    expected = np.zeros((2, 2))
    expected[0, 0] = 1.0  # qubit part |0><0|
    assert max_abs_diff(partial_trace(rho, "first"), expected) == 0.0


def test_partial_trace_identity():
    assert max_abs_diff(partial_trace(np.eye(4) / 4, "second"), np.eye(2) / 2) == 0.0


@pytest.mark.parametrize("seed", range(6))
def test_partial_trace_of_kron(seed):
    rng = np.random.default_rng(100 + seed)
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 2)
    out = partial_trace(np.kron(a, b), "first")
    assert max_abs_diff(out, a * np.trace(b)) < 1e-13
    out2 = partial_trace(np.kron(a, b), "second")
    assert max_abs_diff(out2, b * np.trace(a)) < 1e-13


# The eigendecomposition, tolerance and JSON helpers live in tests/oracles.py;
# other tests lean on them, so they are checked here too.

def test_hermitian_eigen_diagonal():
    dec = hermitian_eigen(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(dec.eigenvalues, [1.0, 2.0, 3.0])


def test_hermitian_eigen_pauli_x():
    dec = hermitian_eigen(SIGMA_X)
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])


def test_hermitian_eigen_bell_partial_transpose():
    dec = hermitian_eigen(partial_transpose_second(bell_state("phi+")))
    assert np.allclose(dec.eigenvalues, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_hermitian_eigen_reconstruction_and_orthonormality(seed):
    rng = np.random.default_rng(200 + seed)
    a = random_hermitian(rng)
    dec = hermitian_eigen(a)
    assert max_abs_diff(dec.reconstruct(), a) < 1e-10
    gram = dec.eigenvectors.conj().T @ dec.eigenvectors
    assert max_abs_diff(gram, np.eye(4)) < 1e-10
    assert np.all(np.diff(dec.eigenvalues) >= 0)


def test_hermitian_eigen_rejects_non_hermitian():
    with pytest.raises(NumericalInvariantError):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_matrix_exp_zero_matrix():
    from bathlink.matops import matrix_exp

    out = matrix_exp(np.zeros((3, 3)), 1.0)
    assert max_abs_diff(out, np.eye(3)) == 0.0


def test_matrix_exp_diagonal():
    from bathlink.matops import matrix_exp

    out = matrix_exp(np.diag([-1.0, -2.0]).astype(complex), 1.0)
    assert np.allclose(np.diag(out), [np.exp(-1.0), np.exp(-2.0)], atol=1e-14)


@pytest.mark.parametrize("seed", range(4))
def test_matrix_exp_semigroup(seed):
    from bathlink.matops import matrix_exp

    rng = np.random.default_rng(300 + seed)
    a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    radius = max(abs(np.linalg.eigvals(a)))
    a *= 5.0 / radius  # spectral radius 5
    t, s = rng.uniform(0.1, 1.0, size=2)
    lhs = matrix_exp(a, t) @ matrix_exp(a, s)
    rhs = matrix_exp(a, t + s)
    assert max_abs_diff(lhs, rhs) < 1e-9


def test_matrix_exp_rejects_non_square():
    from bathlink.matops import matrix_exp

    with pytest.raises(ValueError):
        matrix_exp(np.zeros((2, 3)))


def test_matrix_exp_matches_scipy_on_random_matrices():
    # 500 seeded complex 16x16 matrices, 1-norms log-uniform in [1e-5, 1e2]
    from bathlink.matops import _pade_exp, matrix_exp

    rng = np.random.default_rng(2009)
    scaled = set()
    worst = 0.0
    for norm in 10.0 ** rng.uniform(-5.0, 2.0, size=500):
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        a *= norm / np.abs(a).sum(axis=0).max()
        scaled.add(_pade_exp(a)[1] > 0)
        ref = expm(a)
        worst = max(worst, np.abs(matrix_exp(a) - ref).max() / np.abs(ref).max())
    assert scaled == {False, True}
    assert worst <= 1e-12, worst


@pytest.mark.parametrize("eta", [0.0, 0.3, 0.6, 1.0])
def test_matrix_exp_matches_scipy_on_canonical_liouvillians(eta):
    from bathlink.matops import matrix_exp

    params = ModelParams.from_rates(gamma1=1.01, gamma2=0.01, eta=eta, omega=0.001)
    superop = build_liouvillian(params).superop
    for t in (1e-4, 0.015, 0.024, 0.075, 6.0):
        gap = np.abs(matrix_exp(superop, t) - expm(t * superop)).max()
        assert gap <= 1e-14, (t, gap)


@pytest.mark.parametrize("eta", [0.0, 0.6, 1.0])
def test_matrix_exp_keeps_a_real_dissipator_real(eta):
    from bathlink.matops import matrix_exp

    dissipator = build_liouvillian(ModelParams.from_rates(1.01, 0.01, eta, 0.7)).dissipator
    assert matrix_exp(dissipator, 0.0).dtype == np.float64
    for t in (1e-4, 0.024, 6.0):
        out = matrix_exp(dissipator, t)
        assert out.dtype == np.float64
        assert np.abs(out - expm(t * dissipator)).max() <= 1e-14


@pytest.mark.parametrize("t", [6 / 250, 1e-4, 0.3, 5.0, 100.0])
def test_matrix_exp_of_the_heatmap_sweep_stack_is_each_matrix_exp(t):
    # the 41 real dissipators of the heatmap_sweep benchmark's eta axis
    from bathlink.matops import matrix_exp

    stack = np.stack([build_liouvillian(ModelParams.from_rates(1.01, 0.01, eta, 0.001)).dissipator
                      for eta in np.linspace(0.0, 1.0, 41)])
    out = matrix_exp(stack, t)
    assert out.shape == stack.shape and out.dtype == np.float64
    for k, dissipator in enumerate(stack):
        assert np.array_equal(out[k], matrix_exp(dissipator, t)), k


def test_matrix_exp_squares_each_matrix_of_a_stack_its_own_number_of_times():
    from bathlink.matops import _pade_exp, matrix_exp

    rng = np.random.default_rng(22)
    stack = np.stack([np.zeros((16, 16)), 1e-3 * rng.normal(size=(16, 16)),
                      40.0 * rng.normal(size=(16, 16)), rng.normal(size=(16, 16))])
    scale = np.abs(stack).max(axis=(1, 2))[:, None, None]
    stack = stack + 1j * scale * rng.normal(size=stack.shape)
    _, squarings = _pade_exp(stack)
    assert squarings[0] == squarings[1] == 0 and squarings[2] >= 6 and 0 < squarings[3]
    out = matrix_exp(stack[None], 1.0)
    assert out.shape == (1, 4, 16, 16)
    for k, a in enumerate(stack):
        assert np.array_equal(out[0, k], matrix_exp(a, 1.0)), k
    assert np.array_equal(out[0, 0], np.eye(16))
    assert np.array_equal(matrix_exp(stack, 0.0), np.broadcast_to(np.eye(16), stack.shape))


def test_matrix_exp_of_a_stack_rejects_one_non_finite_result():
    from bathlink.matops import matrix_exp

    stack = np.stack([np.zeros((2, 2)), np.eye(2)])
    assert np.isfinite(matrix_exp(stack, 700.0)).all()
    with pytest.raises(NumericalInvariantError, match=r"^exp\(t A\) is not finite at t=1000$"):
        matrix_exp(stack, 1000.0)
    stack[1, 0, 1] = np.nan
    with pytest.raises(NumericalInvariantError, match=r"^exp\(t A\) is not finite at t=1$"):
        matrix_exp(stack, 1.0)


def test_pade_exp_counts_each_matrix_of_a_mixed_stack_as_on_its_own():
    # seeded dense draws, in two of which ell(A, 13) adds the only squaring, the
    # sixth draw times 8 (3 scaling squarings plus that one), and edge matrices
    # (zero, NaN, inf, 1e200-filled, 700 I, -1e6 I); the expected counts are
    # those of the scalar recipe of Al-Mohy & Higham, one matrix at a time
    from bathlink.matops import _pade_exp, matrix_exp

    rng = np.random.default_rng(1)
    draws = [rng.normal(size=(6, 6)) for _ in range(16)]
    edges = [np.zeros((6, 6)), np.full((6, 6), np.nan), np.full((6, 6), np.inf),
             np.full((6, 6), 1e200), 700.0 * np.eye(6), -1e6 * np.eye(6)]
    stack = np.stack(draws + [8.0 * draws[5]] + edges)
    failing = np.isin(np.arange(len(stack)), [18, 19, 20])
    r, s = _pade_exp(stack)
    assert s.tolist() == [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 4] + [0, 0, 0, 0, 8, 18]
    assert s.tolist() == [int(_pade_exp(a)[1]) for a in stack]
    assert np.isnan(r[failing]).all() and not np.isnan(r[~failing]).any()
    with pytest.raises(NumericalInvariantError, match=r"^exp\(t A\) is not finite at t=1$"):
        matrix_exp(stack)


def test_transposes_and_traces_keep_real_states_real():
    rho = bell_state("phi-").real
    assert partial_transpose_second(rho).dtype == np.float64
    assert partial_trace(rho, "first").dtype == partial_trace(rho, "second").dtype == np.float64
    assert unvec(vec(rho)).dtype == np.float64
    assert partial_transpose_second(bell_state("phi-")).dtype == np.complex128


@pytest.mark.parametrize("dtype", [float, complex])
def test_positive_definite_is_the_least_eigenvalue_above_the_margin(dtype):
    # unit-trace stacks of ranks 1-4 against scalar margins and against margins
    # within 1e-3 and 1e-10 of each least eigenvalue; a least eigenvalue within
    # 1e-13 of its margin is left to rounding and not compared
    rng = np.random.default_rng(24)
    for rank in range(1, 5):
        a = rng.normal(size=(400, 4, rank)).astype(dtype)
        if dtype is complex:
            a += 1j * rng.normal(size=a.shape)
        h = a @ a.conj().swapaxes(1, 2)
        h /= np.trace(h, axis1=1, axis2=2).real[:, None, None]
        least = np.linalg.eigvalsh(h)[:, 0]
        near = [least + rng.uniform(-w, w, size=least.size) for w in (1e-3, 1e-10)]
        for margin in (PSD_TOL, 0.0, 1e-12, *near):
            far = np.abs(least - margin) > 1e-13
            mask = _positive_definite(h, margin)
            assert mask.dtype == bool and mask.shape == (400,)
            assert np.array_equal(mask[far], (least > margin)[far])
        for margin in near:  # both sides of each margin are well populated
            assert min(np.count_nonzero(least > margin), np.count_nonzero(least < margin)) > 100


@pytest.mark.parametrize("dtype", [float, complex])
def test_positive_definite_certifies_no_matrix_with_a_nan_entry(dtype):
    rows, cols = np.tril_indices(4)
    h = np.stack([np.eye(4, dtype=dtype)] * (rows.size + 1))
    h[np.arange(rows.size), rows, cols] = np.nan
    assert np.array_equal(_positive_definite(h, PSD_TOL), [False] * rows.size + [True])


def test_complex_to_real_cast_is_an_error():
    # numpy drops the imaginary part of such a cast with only a ComplexWarning,
    # a RuntimeWarning subclass, which the suite's filters make an error
    complex_warning = getattr(np, "exceptions", np).ComplexWarning
    real = np.ones(2)
    with pytest.raises(complex_warning):
        real[:] = np.array([1.0 + 1.0j, 2.0])


@pytest.mark.parametrize("case", ["powers_overflow", "result_overflows", "nan_entry"])
def test_matrix_exp_rejects_non_finite_result(case, canonical_liouvillian):
    from bathlink.matops import matrix_exp

    a, t = {
        "powers_overflow": (canonical_liouvillian.superop, 1e300),
        "result_overflows": (np.eye(2), 1000.0),
        "nan_entry": (np.array([[0.0, np.nan], [0.0, 0.0]]), 1.0),
    }[case]
    with pytest.raises(NumericalInvariantError, match="not finite"):
        matrix_exp(a, t)


def test_vec_unvec_roundtrip_and_multiplication_law():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert max_abs_diff(unvec(vec(x)), x) == 0.0
    lhs = np.kron(b.T, a) @ vec(x)
    assert max_abs_diff(unvec(lhs), a @ x @ b) < 1e-13


def test_vec_of_a_stack_is_the_vec_of_each_matrix():
    rng = np.random.default_rng(1)
    xs = rng.normal(size=(2, 3, 4, 4)) + 1j * rng.normal(size=(2, 3, 4, 4))
    stacked = vec(xs)
    assert stacked.shape == (2, 3, 16)
    for i, j in np.ndindex(2, 3):
        assert np.array_equal(stacked[i, j], xs[i, j].reshape(-1, order="F"))
    assert np.array_equal(unvec(stacked), xs)


def test_trace_norm_of_hermitian():
    rng = np.random.default_rng(1)
    a = random_hermitian(rng)
    assert abs(trace_norm(a) - np.abs(np.linalg.eigvalsh(a)).sum()) < 1e-12


def test_matrix_serialization_roundtrip():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    d = matrix_to_dict(a)
    assert d["rows"] == 4 and d["cols"] == 4 and len(d["entries"]) == 16
    assert max_abs_diff(matrix_from_dict(d), a) == 0.0
    assert max_abs_diff(matrix_from_json(matrix_to_json(a)), a) == 0.0


def test_matrix_from_dict_rejects_bad_length():
    with pytest.raises(ValueError):
        matrix_from_dict({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})


def test_tolerance_helpers():
    a = np.array([[1.0, 0.5], [0.5, 2.0]], dtype=complex)
    assert is_close(a, a + 1e-12, 1e-9)
    assert not is_close(a, a + 1e-6, 1e-9)
    skew = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert hermitian_deviation(skew) == 1.0
    assert hermitian_deviation(hermitize(skew)) == 0.0
