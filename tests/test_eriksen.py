import numpy as np
import pytest

from fwbench.dirac import GAMMA, dirac_hamiltonian, energy
from fwbench.grids import Grid1D
from fwbench.eriksen import (
    BlockedHamiltonian,
    approx_fw,
    discretize_dirac_1d,
    eriksen_conditions,
    eriksen_unitary,
    free_spectrum_1d,
    offblock_norm,
    potential_scaling_study,
    sign_function,
    spectral_momentum,
    upper_block_spectrum,
)
from fwbench.linalg import LinalgError, frob
from fwbench.phase_ops import evaluate, fw_unitary_free

I4 = np.eye(4)


def blocked_4x4(p, m):
    return BlockedHamiltonian(H=dirac_hamiltonian(p, m),
                              beta=GAMMA.beta.copy(), M=m * I4)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(n=3, length=10.0)
    with pytest.raises(ValueError):
        Grid1D(n=100, length=10.0)   # not a power of two
    with pytest.raises(ValueError):
        Grid1D(n=64, length=-1.0)
    g = Grid1D(n=64, length=32.0)
    assert g.dx * g.dp * g.n == pytest.approx(2 * np.pi, abs=1e-13)


def test_spectral_momentum_is_hermitian_and_diagonalizes_plane_waves():
    g = Grid1D(n=32, length=16.0)
    P = spectral_momentum(g)
    assert frob(P - P.conj().T) <= 1e-12
    k = 2 * np.pi * 3 / g.length
    wave = np.exp(1j * k * g.x)
    assert np.linalg.norm(P @ wave - k * wave) <= 1e-10


def test_eriksen_on_diagonal_mass_term_is_identity():
    bh = BlockedHamiltonian(H=2.0 * GAMMA.beta, beta=GAMMA.beta.copy(), M=2.0 * I4)
    u, _ = eriksen_unitary(bh)
    assert np.allclose(u, I4, atol=1e-12)


def test_eriksen_matches_free_closed_form_unitary():
    m = 1.0
    rng = np.random.default_rng(2)
    for _ in range(6):
        p = rng.uniform(-4, 4, 3)
        u, _ = eriksen_unitary(blocked_4x4(p, m))
        closed = evaluate(fw_unitary_free(m), p).A
        assert np.linalg.norm(u - closed) <= 1e-12


def test_approx_on_mass_term():
    bh = BlockedHamiltonian(H=1.5 * GAMMA.beta, beta=GAMMA.beta.copy(), M=1.5 * I4)
    u, h = approx_fw(bh)
    assert np.allclose(u, I4, atol=1e-12)
    assert np.allclose(h, 1.5 * GAMMA.beta, atol=1e-12)


def test_approx_free_case_is_exact():
    m = 1.0
    p = np.array([1.1, -0.3, 0.7])
    bh = blocked_4x4(p, m)
    u, h = approx_fw(bh)
    assert np.linalg.norm(h - energy(p, m) * GAMMA.beta) <= 1e-12
    assert np.linalg.norm(u - evaluate(fw_unitary_free(m), p).A) <= 1e-12


@pytest.fixture(scope="module")
def free_grid_system():
    grid = Grid1D(n=64, length=32.0)
    bh = discretize_dirac_1d(grid, 1.0, lambda x: np.zeros_like(x))
    return grid, bh


def test_free_spectrum_matches_analytic(free_grid_system):
    grid, bh = free_grid_system
    ev = np.sort(np.linalg.eigvalsh(bh.H))
    assert np.max(np.abs(ev - free_spectrum_1d(grid, 1.0))) <= 1e-10


def test_constant_potential_shifts_spectrum_exactly(free_grid_system):
    grid, _ = free_grid_system
    c = 0.37
    bh = discretize_dirac_1d(grid, 1.0, lambda x: c * np.ones_like(x))
    ev = np.sort(np.linalg.eigvalsh(bh.H))
    assert np.max(np.abs(ev - (free_spectrum_1d(grid, 1.0) + c))) <= 1e-10


def test_odd_part_anticommutes_with_beta(free_grid_system):
    _, bh = free_grid_system
    odd = bh.odd_part()
    assert frob(bh.beta @ odd + odd @ bh.beta) <= 1e-10
    assert frob(bh.even_part()) <= 1e-12   # free case: E = 0


def test_eriksen_conditions_on_free_grid(free_grid_system):
    grid, bh = free_grid_system
    u, lam = eriksen_unitary(bh)
    conds = eriksen_conditions(u, lam, bh)
    for name, value in conds.items():
        assert value <= 1e-10, name


def test_positive_block_spectrum(free_grid_system):
    grid, bh = free_grid_system
    u, _ = eriksen_unitary(bh)
    h_fw = u @ bh.H @ u.conj().T
    expected = np.sort(np.repeat(np.sqrt(1.0 + grid.p_fft**2), 2))
    assert np.max(np.abs(upper_block_spectrum(h_fw, bh.n_upper) - expected)) <= 1e-10


def test_eriksen_conditions_with_potential():
    grid = Grid1D(n=32, length=16.0)
    bh = discretize_dirac_1d(grid, 1.0,
                             lambda x: 0.2 * np.exp(-x**2 / 4.0))
    u, lam = eriksen_unitary(bh)
    conds = eriksen_conditions(u, lam, bh)
    assert conds["lambda_squared"] <= 1e-10
    assert conds["odd_exponent"] <= 1e-10
    assert conds["unitarity"] <= 1e-10
    assert conds["offblock"] <= 1e-9    # exact transform: machine level


def test_exactness_when_even_odd_commute():
    # constant potential commutes with the odd part: transform stays exact
    grid = Grid1D(n=32, length=16.0)
    bh = discretize_dirac_1d(grid, 1.0, lambda x: 0.25 * np.ones_like(x))
    u, _ = eriksen_unitary(bh)
    h_fw = u @ bh.H @ u.conj().T
    assert offblock_norm(h_fw, bh.n_upper) <= 1e-10


def test_scaling_study_quadratic_spectrum_linear_offblock():
    grid = Grid1D(n=64, length=32.0)
    study = potential_scaling_study(grid, 1.0, [1e-3, 1e-2, 1e-1])
    assert abs(study.exponent - 2.0) <= 0.3
    assert np.all(study.exact_offblock <= 1e-9)
    off_slope = np.polyfit(np.log(study.v0), np.log(study.approx_offblock), 1)[0]
    assert abs(off_slope - 1.0) <= 0.2


def test_sign_function_rejects_zero_modes():
    h = np.diag([1.0, 0.0, -1.0, 2.0]).astype(complex)
    with pytest.raises(LinalgError, match="zero"):
        sign_function(h)


def test_approx_rejects_singular_mass_operator():
    bh = BlockedHamiltonian(H=dirac_hamiltonian((1.0, 0, 0), 0.0),
                            beta=GAMMA.beta.copy(), M=np.zeros((4, 4)))
    with pytest.raises(LinalgError, match="not invertible"):
        approx_fw(bh)


def test_blocked_hamiltonian_validation():
    with pytest.raises(LinalgError):
        BlockedHamiltonian(H=np.array([[0.0, 1.0], [0.0, 0.0]]),
                           beta=np.eye(2), M=np.eye(2))
    with pytest.raises(LinalgError):
        BlockedHamiltonian(H=np.eye(4), beta=2 * np.eye(4), M=np.eye(4))


def test_caller_supplied_even_operator():
    # F enters only through the double commutator; F = E reproduces the default
    grid = Grid1D(n=16, length=8.0)
    bh = discretize_dirac_1d(grid, 1.0, lambda x: 0.1 * np.cos(2 * np.pi * x / 8.0))
    _, h_default = approx_fw(bh)
    _, h_explicit = approx_fw(bh, F=bh.even_part())
    assert frob(h_default - h_explicit) == 0.0
    _, h_zero = approx_fw(bh, F=np.zeros_like(bh.H))
    assert frob(h_default - h_zero) > 1e-6
