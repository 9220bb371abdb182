import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwbench.dirac import GAMMA, dirac_hamiltonian
from fwbench.linalg import (
    BranchError,
    LinalgError,
    commutator,
    frob,
    is_hermitian,
    is_unitary,
    mat_exp,
    mat_fn,
    mat_sqrt,
)

I4 = np.eye(4, dtype=complex)


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (a + a.conj().T)
    return h / max(np.abs(np.linalg.eigvalsh(h)))  # unit spectral radius


def test_sqrt_identity_is_identity():
    assert np.allclose(mat_fn(I4, np.sqrt), I4)


def test_sqrt_diagonal():
    assert np.allclose(mat_fn(np.diag([9.0, 4.0]), np.sqrt), np.diag([3.0, 2.0]))


def test_square_of_dirac_hamiltonian():
    h = dirac_hamiltonian((3.0, 0.0, 0.0), 4.0)
    oracle = h @ h
    assert np.allclose(oracle, 25.0 * I4, atol=1e-12)
    assert np.allclose(mat_fn(h, lambda w: w**2), oracle, atol=1e-10)


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_sqrt_roundtrip_hermitian(n, seed):
    h = random_hermitian(np.random.default_rng(seed), n)
    r = mat_sqrt(h)
    assert frob(r @ r - h) <= 1e-10


def test_mat_fn_hermitian_in_hermitian_out():
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 5)
    psd = h @ h + 0.1 * np.eye(5)    # real positive spectrum
    r = mat_sqrt(psd)
    assert frob(r - r.conj().T) <= 1e-12
    e = mat_fn(h, np.exp)
    assert frob(e - e.conj().T) <= 1e-12


def test_mat_fn_normal_non_hermitian_input():
    # a unitary is normal; log through the spectral route recovers the phase
    u = np.diag(np.exp(1j * np.array([0.3, -1.2, 2.0])))
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    m = q @ u @ q.conj().T
    r = mat_fn(m, lambda w: w**2)
    assert frob(r - m @ m) <= 1e-12


def test_sqrt_negative_eigenvalue_branch():
    m = np.diag([1.0, -4.0])
    r = mat_sqrt(m)
    assert np.allclose(r @ r, m, atol=1e-12)
    with pytest.raises(BranchError):
        mat_sqrt(m, real_branch=True)


def test_mat_fn_rejects_non_normal():
    with pytest.raises(LinalgError, match="not normal"):
        mat_fn(np.array([[1.0, 1.0], [0.0, 1.0]]), np.sqrt)


def test_mat_fn_rejects_non_square_and_nonfinite():
    with pytest.raises(LinalgError):
        mat_fn(np.ones((2, 3)), np.sqrt)
    bad = np.eye(2) * np.nan
    with pytest.raises(LinalgError):
        mat_fn(bad, np.sqrt)


def test_commutator_trivial_cases():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert frob(commutator(I4, m)) == 0.0
    s1, s2, s3 = GAMMA.rho
    assert np.allclose(commutator(s1, s2), 2j * s3)
    beta, a1 = GAMMA.beta, GAMMA.alpha[0]
    assert np.allclose(commutator(beta, a1), 2 * beta @ a1)


def test_commutator_dim_mismatch():
    with pytest.raises(LinalgError):
        commutator(np.eye(2), np.eye(3))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_commutator_antisymmetric_exactly(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert frob(commutator(a, b) + commutator(b, a)) <= 1e-14


def test_commutator_bilinear():
    rng = np.random.default_rng(3)
    a, b, c = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3))
    lhs = commutator(2.0 * a + b, c)
    rhs = 2.0 * commutator(a, c) + commutator(b, c)
    assert frob(lhs - rhs) <= 1e-13 * max(frob(lhs), 1.0)


def test_mat_exp_zero_and_diagonal():
    assert np.allclose(mat_exp(np.zeros((3, 3)), 2.7), np.eye(3))
    s3 = GAMMA.rho[2]
    assert np.allclose(mat_exp(s3, np.pi / 2), np.diag([1j, -1j]), atol=1e-14)


def test_mat_exp_conjugation_matches_velocity_oscillation():
    # oscillating Heisenberg velocity of the free Dirac particle
    p = np.array([1.0, 0.0, 0.0])
    m = 1.0
    h = dirac_hamiltonian(p, m)
    eps2 = 2.0
    a1 = GAMMA.alpha[0]
    for t in (0.1, 0.5):
        u = mat_exp(h, t)
        numeric = u @ a1 @ u.conj().T
        phase = np.cos(2 * np.sqrt(eps2) * t) * I4 \
            - 1j * np.sin(2 * np.sqrt(eps2) * t) * h / np.sqrt(eps2)
        closed = (a1 - p[0] * h / eps2) @ phase + p[0] * h / eps2
        assert frob(numeric - closed) <= 1e-12


@given(st.integers(min_value=0, max_value=10**6), st.floats(min_value=0.1, max_value=50.0))
@settings(max_examples=25, deadline=None)
def test_mat_exp_unitary_roundtrip(seed, t):
    h = random_hermitian(np.random.default_rng(seed), 4)  # ||h|| = 1, so ||h|| t <= 50
    u = mat_exp(h, t) @ mat_exp(h, -t)
    assert frob(u - I4) <= 1e-10


def test_mat_exp_overflow_guard():
    nonhermitian = np.array([[0.0, 1.0], [0.0, 0.0]]) * 300.0
    with pytest.raises(LinalgError, match="overflow"):
        mat_exp(nonhermitian, 10.0)


def test_structure_predicates():
    assert is_hermitian(GAMMA.beta)
    assert is_unitary(GAMMA.alpha[1])
    assert not is_hermitian(1j * GAMMA.beta)
