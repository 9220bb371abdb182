import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwbench.dirac import ALPHA, BETA, PAULI
from fwbench.linalg import (
    LinalgError,
    as_matrix,
    frob,
    is_hermitian,
    mat_inv_sqrt_psd,
)
from oracles import commutator

I4 = np.eye(4, dtype=complex)


def is_unitary(m, atol: float = 1e-10) -> bool:
    n = m.shape[0]
    return frob(m @ m.conj().T - np.eye(n)) <= atol * np.sqrt(n)


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (a + a.conj().T)
    return h / max(np.abs(np.linalg.eigvalsh(h)))  # unit spectral radius


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_inv_sqrt_roundtrip_positive_definite(n, seed):
    h = random_hermitian(np.random.default_rng(seed), n)
    psd = h @ h + 0.1 * np.eye(n)    # spectrum in [0.1, 1.1]
    r = mat_inv_sqrt_psd(psd)
    assert frob(r - r.conj().T) <= 1e-12
    assert frob(r @ psd @ r - np.eye(n)) <= 1e-10


def test_inv_sqrt_rejects_bad_input():
    with pytest.raises(LinalgError, match="square"):
        mat_inv_sqrt_psd(np.ones((2, 3)))
    with pytest.raises(LinalgError, match="non-finite"):
        mat_inv_sqrt_psd(np.eye(2) * np.nan)
    with pytest.raises(LinalgError, match="Hermitian"):
        mat_inv_sqrt_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(LinalgError, match="positive definite"):
        mat_inv_sqrt_psd(np.diag([1.0, -4.0]))
    # each member of a stack on its own: one that is not positive definite
    with pytest.raises(LinalgError, match="min eigenvalue -4.000e"):
        mat_inv_sqrt_psd(np.stack([np.eye(2), np.diag([1.0, -4.0]), np.eye(2)]))
    with pytest.raises(LinalgError, match="square"):
        mat_inv_sqrt_psd(np.ones((2, 2, 3)))


def test_real_input_stays_real():
    # a real symmetric matrix is decomposed in float64, a complex one in complex128
    assert as_matrix([[1, 2], [2, 1]]).dtype == np.float64
    assert as_matrix(np.eye(2, dtype=np.float32)).dtype == np.float64
    assert as_matrix(np.eye(2) + 0j).dtype == np.complex128
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 5))
    psd = a @ a.T + 0.1 * np.eye(5)
    r = mat_inv_sqrt_psd(psd)
    assert r.dtype == np.float64
    assert frob(r @ psd @ r - np.eye(5)) <= 1e-10
    np.testing.assert_allclose(mat_inv_sqrt_psd(psd + 0j), r, rtol=0, atol=1e-12)


def test_commutator_trivial_cases():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert frob(commutator(I4, m)) == 0.0
    s1, s2, s3 = PAULI
    assert np.allclose(commutator(s1, s2), 2j * s3)
    beta, a1 = BETA, ALPHA[0]
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


def test_structure_predicates():
    assert is_hermitian(BETA)
    assert is_unitary(ALPHA[1])
    assert not is_hermitian(1j * BETA)
    # each member of a stack on its own: one small non-Hermitian member among
    # large Hermitian ones, whose defect is O(1) relative to its own norm but
    # below HERMITIAN_RTOL relative to the whole stack's
    big, small = 1e8 * np.eye(2), np.array([[0.0, 1e-3], [0.0, 0.0]])
    assert not is_hermitian(np.stack([big, small, big]))
    assert is_hermitian(np.stack([big, small + small.T, big]))


def test_inv_sqrt_of_a_stack_is_each_member_s():
    # members of widely different scales, each positive definite on its own
    # although the smallest is far below 1e-13 of the largest
    rng = np.random.default_rng(9)
    stack = []
    for scale in (1e-20, 1.0, 1e12):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        stack.append(scale * (a @ a.conj().T + 0.1 * np.eye(3)))
    stack = np.stack(stack)
    got = mat_inv_sqrt_psd(stack)
    assert got.shape == stack.shape
    for member, r in zip(stack, got):
        want = mat_inv_sqrt_psd(member)
        assert frob(r - want) <= 1e-12 * frob(want)
