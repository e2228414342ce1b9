import numpy as np
import pytest
from scipy.linalg import expm

from bathlink.errors import NumericalInvariantError
from bathlink.matops import (
    ID2,
    SIGMA_P,
    hermitize,
    kron,
    matrix_to_dict,
    partial_trace,
    partial_transpose_second,
    trace_norm,
    unvec,
    vec,
)
from bathlink.model import ModelParams, build_liouvillian
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


def test_kron_identity():
    assert max_abs_diff(kron(ID2, ID2), np.eye(4)) == 0.0


def test_kron_diagonal():
    out = kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert max_abs_diff(out, np.diag([3.0, 4.0, 6.0, 8.0])) == 0.0


def test_kron_sigma_plus_acts_on_first_index():
    out = kron(SIGMA_P, ID2)
    expected = np.zeros((4, 4))
    expected[2, 0] = 1.0
    expected[3, 1] = 1.0
    assert max_abs_diff(out, expected) == 0.0


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
    out = partial_trace(kron(a, b), "first")
    assert max_abs_diff(out, a * np.trace(b)) < 1e-13
    out2 = partial_trace(kron(a, b), "second")
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
