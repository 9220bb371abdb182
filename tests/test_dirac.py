import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from fwbench.dirac import (
    GAMMA,
    PAULI,
    build_gamma_set,
    dirac_hamiltonian,
    energy,
    free_propagator,
    fw_unitary_matrix,
)
from fwbench.phase_ops import OperatorFamily, build_operator, snapshot

I4 = np.eye(4)


def test_clifford_relations_exact():
    g = build_gamma_set()
    assert np.array_equal(g.beta @ g.beta, I4 + 0j)
    for j in range(3):
        assert np.array_equal(g.beta @ g.alpha[j] + g.alpha[j] @ g.beta,
                              np.zeros((4, 4)) + 0j)
        for k in range(3):
            anti = g.alpha[j] @ g.alpha[k] + g.alpha[k] @ g.alpha[j]
            assert np.array_equal(anti, 2.0 * (j == k) * I4 + 0j)


def test_sigma_algebra_exact():
    g = GAMMA
    levi = {(0, 1): 2, (1, 2): 0, (2, 0): 1}
    for (i, j), k in levi.items():
        comm = g.Sigma[i] @ g.Sigma[j] - g.Sigma[j] @ g.Sigma[i]
        assert np.array_equal(comm, 2j * g.Sigma[k])
    for k in range(3):
        assert np.array_equal(g.Sigma[k], g.Sigma[k].conj().T)


def test_pi_and_gamma_definitions():
    # Pi_k = beta Sigma_k = diag(sigma_k, -sigma_k), built here from the Pauli set
    g = GAMMA
    z = np.zeros((2, 2))
    for k in range(3):
        assert np.array_equal(g.beta @ g.Sigma[k], np.block([[PAULI[k], z], [z, -PAULI[k]]]))
        assert np.array_equal(g.gamma[k], g.beta @ g.alpha[k])


def test_matrices_entrywise_exact_values():
    g = GAMMA
    allowed = {0.0, 1.0, -1.0}
    for m in (g.beta, *g.alpha, *g.gamma, *g.Sigma, *PAULI):
        for entry in m.ravel():
            assert entry.real in allowed and entry.imag in allowed


def test_energy_values():
    assert energy((0.0, 0.0, 0.0), 1.7) == pytest.approx(1.7, abs=0)
    assert energy((3.0, 0.0, 0.0), 4.0) == pytest.approx(5.0, abs=1e-15)
    assert energy((1.0, 2.0, 2.0), 0.0) == pytest.approx(3.0, abs=1e-15)
    with pytest.raises(ValueError):
        energy((1.0, 0.0, 0.0), -1.0)


def test_energy_of_points_stacks_and_odd_block_values():
    # one function for a single momentum, a stack of them and the 1-D grid
    # momenta of the eriksen odd block, bit for bit the forms it replaced:
    # sqrt(m^2 + p @ p) per point and sqrt(m^2 + p * p) per grid value
    rng = np.random.default_rng(11)
    for m in (0.0, 1e-3, 1.0, 1e3):
        ps = rng.standard_normal((200, 3)) * np.exp(rng.uniform(-5, 5, (200, 1)))
        stacked = energy(ps, m)
        assert stacked.shape == (200,)
        assert np.array_equal(stacked, [np.sqrt(m * m + p @ p) for p in ps])
        assert all(energy(p, m) == e for p, e in zip(ps, stacked))
        assert np.array_equal(energy(ps[:, :1], m), np.sqrt(m * m + ps[:, 0] * ps[:, 0]))


@given(st.integers(min_value=0, max_value=10**6),
       st.sampled_from([0.0, 0.5, 1.0, 10.0]))
@settings(max_examples=50, deadline=None)
def test_mass_shell_identity(seed, m):
    p = np.random.default_rng(seed).uniform(-10, 10, 3)
    h = dirac_hamiltonian(p, m)
    target = (m * m + p @ p) * I4
    assert np.linalg.norm(h @ h - target) <= 1e-12 * max(1.0, m * m + p @ p)


def test_mass_shell_identity_100_samples():
    rng = np.random.default_rng(42)
    for m in (0.0, 0.5, 1.0, 10.0):
        for _ in range(100):
            p = rng.uniform(-10, 10, 3)
            h = dirac_hamiltonian(p, m)
            resid = np.linalg.norm(h @ h - (m * m + p @ p) * I4)
            assert resid <= 1e-12 * max(1.0, m * m + p @ p)


@pytest.mark.parametrize("m", [0.0, 0.5, 10.0])
def test_stacked_matrices_match_per_point_formulas(m):
    ps = np.random.default_rng(7).uniform(-10, 10, (50, 3))
    hs = dirac_hamiltonian(ps, m)
    us, uis = fw_unitary_matrix(ps, m), fw_unitary_matrix(ps, m, inverse=True)
    assert hs.shape == us.shape == (50, 4, 4)
    for p, h, u, ui in zip(ps, hs, us, uis):
        assert np.array_equal(h, m * GAMMA.beta + sum(p[k] * GAMMA.alpha[k] for k in range(3)))
        e = np.sqrt(m * m + p @ p)
        gp = sum(p[k] * GAMMA.gamma[k] for k in range(3))
        scale = np.sqrt(2 * e * (e + m))
        assert np.linalg.norm(u - ((e + m) * I4 + gp) / scale) <= 1e-15
        assert np.linalg.norm(ui - ((e + m) * I4 - gp) / scale) <= 1e-15
        assert np.linalg.norm(u @ ui - I4) <= 1e-14


@pytest.mark.parametrize("m", [0.0, 1.0, 4.0])
def test_free_propagator_matches_spectral_exponential(m):
    # expm scales and squares; the propagator uses H^2 = eps^2 instead
    ps = np.random.default_rng(3).uniform(-3, 3, (20, 3))
    eps = np.sqrt(m * m + np.sum(ps * ps, axis=1))
    hs = dirac_hamiltonian(ps, m)
    for t in (0.0, 0.4, 2.5):
        stack = free_propagator(hs, eps[:, None, None], t)
        for h, e, u in zip(hs, eps, stack):
            assert np.linalg.norm(u - scipy.linalg.expm(-1j * t * h)) <= 1e-12
            assert np.linalg.norm(u - free_propagator(h, e, t)) <= 1e-15


def test_fw_hamiltonian_is_beta_energy():
    # the catalogue row, at one momentum and over a stack, is beta eps
    ps = np.random.default_rng(4).uniform(-3, 3, (20, 3))
    for m in (0.5, 2.0):
        h = snapshot(build_operator(OperatorFamily.FW_HAMILTONIAN, m), ps).A
        assert np.array_equal(h, energy(ps, m)[:, None, None] * GAMMA.beta)
        assert np.array_equal(snapshot(build_operator(OperatorFamily.FW_HAMILTONIAN, m),
                                       ps[0]).A, h[0])


def test_gamma_set_immutable():
    with pytest.raises(ValueError):
        GAMMA.beta[0, 0] = 5.0
    with pytest.raises(ValueError):
        PAULI[2][0, 0] = 5.0
