import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fwbench.eriksen
import fwbench.linalg
from fwbench.cli import main
from fwbench.dirac import BETA, dirac_hamiltonian, energy
from fwbench.grids import Grid1D
from fwbench.eriksen import (
    BlockedHamiltonian,
    approx_fw,
    check_strengths,
    conjugated_quadrant,
    discretize_dirac_1d,
    eigenframe,
    eigenvalues,
    eriksen_conditions,
    eriksen_unitary,
    free_checks,
    potential_scaling_study,
    sign_function,
)
from fwbench.linalg import LinalgError, adjoint, frob
from oracles import commutator, evaluate, even_part, fw_unitary_free, odd_part

I4 = np.eye(4)


def block_beta(n):
    """beta = diag(I_n, -I_n) of the 2n x 2n spin block."""
    return np.kron(np.diag([1.0, -1.0]), np.eye(n))


def eigenbasis_hamiltonian(P, v, m):
    """(bh, Q2) for H = [[m + diag v, P], [P, diag v - m]] with a Hermitian
    odd block P = Q diag(p) Q^dag: bh holds H in P's eigenbasis, p and
    V = Q^dag diag(v) Q, and Q2 = diag(Q, Q) takes its matrices back,
    H = Q2 bh.H Q2^dag (rotated_back)."""
    p, Q = np.linalg.eigh(P)
    return (BlockedHamiltonian(p=p, V=Q.conj().T @ np.diag(v) @ Q, m=m),
            np.kron(np.eye(2), Q))


def rotated_back(A, Q2):
    """Q2 A Q2^dag: a matrix of eigenbasis_hamiltonian's basis in the original one."""
    return Q2 @ A @ Q2.conj().T


def blocked_4x4(p, m):
    """(bh, Q2) of the 4x4 Dirac Hamiltonian beta m + alpha.p, P = sigma.p and
    no potential, in the eigenbasis of sigma.p (eigenbasis_hamiltonian)."""
    return eigenbasis_hamiltonian(dirac_hamiltonian(p, m)[:2, 2:], np.zeros(2), m)


def mass_term(v, m):
    """beta m + diag(v, v) with no odd block."""
    return BlockedHamiltonian(p=np.zeros(len(v)), V=np.diag(v), m=m)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(n=3, length=10.0)
    with pytest.raises(ValueError):
        Grid1D(n=100, length=10.0)   # not a power of two
    with pytest.raises(ValueError):
        Grid1D(n=64, length=-1.0)
    g = Grid1D(n=64, length=32.0)
    assert g.dx * g.dp * g.n == pytest.approx(2 * np.pi, abs=1e-13)


def test_grid_hamiltonian_is_the_node_hamiltonian_in_the_dft_basis(dense_eriksen_oracle):
    # bh.H = F2 h_node F2^dag with F2 = diag(F, F), F the unitary DFT and
    # h_node the spin block of the four-component oracle on the nodes; the
    # odd block is the grid's momenta bit for bit and V is real and exactly
    # symmetric
    for n in (4, 16, 64):
        grid = Grid1D(n=n, length=n / 2)
        F2 = np.kron(np.eye(2), np.fft.fft(np.eye(n), norm="ortho"))
        order = _spin_block_order(n)
        for m in ORACLE_MASSES:
            for name, profile in ORACLE_PROFILES.items():
                V = profile(grid.length)
                bh = discretize_dirac_1d(grid, m, lambda x: 0.2 * V(x))
                H4, _ = dense_eriksen_oracle["hamiltonian_4n"](grid, m, 0.2 * V(grid.x))
                h_node = H4[np.ix_(order, order)][:2 * n, :2 * n]
                assert frob(bh.H - F2 @ h_node @ F2.conj().T) <= 1e-14 * frob(h_node), \
                    (n, m, name)
                np.testing.assert_array_equal(bh.p, grid.p_fft)
                assert bh.V.dtype == np.float64
                np.testing.assert_array_equal(bh.V, bh.V.T)


def _shifted_gauss(length):
    return lambda x: np.exp(-0.5 * ((x - length / 16) / (length / 8)) ** 2)


def test_grid_kernels_stay_real():
    grid, m = Grid1D(n=16, length=8.0), 1.5
    bh = discretize_dirac_1d(grid, m, lambda x: 0.2 * np.exp(-x**2 / 4.0))
    frame = eigenframe(bh)
    U = eriksen_unitary(frame)
    for a in (bh.V, bh.H, *frame, U, sign_function(frame), approx_fw(bh)[0],
              conjugated_quadrant(U, bh, 1)):
        assert a.dtype == np.float64


def test_uneven_potential_is_rejected():
    # a potential that is not even on the grid makes H complex in the
    # momentum basis; the reflection check runs after the shape check
    grid = Grid1D(n=16, length=8.0)
    with pytest.raises(LinalgError, match="even on the grid"):
        discretize_dirac_1d(grid, 1.0, _shifted_gauss(grid.length))
    with pytest.raises(LinalgError, match="even on the grid"):
        potential_scaling_study(grid, 1.0, [1e-3, 1e-2], _shifted_gauss(grid.length))
    with pytest.raises(LinalgError, match="even on the grid"):
        discretize_dirac_1d(grid, 1.0, lambda x: np.where(x == x[1], 1.0, 0.0))
    with pytest.raises(LinalgError, match="one value per grid node"):
        potential_scaling_study(grid, 1.0, [1e-3, 1e-2], lambda x: 0.3)


def exact_transform(bh):
    """(U, lambda) of bh from its one eigenframe."""
    frame = eigenframe(bh)
    return eriksen_unitary(frame), sign_function(frame)


def test_eriksen_on_diagonal_mass_term_is_identity():
    bh = mass_term(np.zeros(2), 2.0)
    np.testing.assert_array_equal(bh.H, 2.0 * BETA)
    u = eriksen_unitary(eigenframe(bh))
    assert np.allclose(u, I4, atol=1e-12)


def test_eriksen_matches_free_closed_form_unitary():
    m = 1.0
    rng = np.random.default_rng(2)
    for _ in range(6):
        p = rng.uniform(-4, 4, 3)
        bh, Q2 = blocked_4x4(p, m)
        u = rotated_back(eriksen_unitary(eigenframe(bh)), Q2)
        closed = evaluate(fw_unitary_free(m), p).A
        assert np.linalg.norm(u - closed) <= 1e-12


def test_approx_on_mass_term():
    # at p = 0 the approximate unitary is the identity: H_approx = beta m
    upper, offblock = approx_fw(mass_term(np.zeros(2), 1.5))
    assert np.allclose(upper, 1.5 * np.eye(2), atol=1e-12)
    assert offblock == 0.0


def test_approx_free_case_is_exact():
    m = 1.0
    p = np.array([1.1, -0.3, 0.7])
    bh, Q2 = blocked_4x4(p, m)
    upper, offblock = approx_fw(bh)
    Q = Q2[:2, :2]
    assert np.linalg.norm(Q @ upper @ Q.conj().T - energy(p, m) * np.eye(2)) <= 1e-12
    assert offblock == 0.0


@pytest.mark.parametrize("m", [1e-3, 1.0, 1e3])
def test_approx_on_free_grid_is_the_free_spectrum(m):
    # V = 0: the upper block is diag(eps) exactly and U block-diagonalizes
    # H exactly, at every mass scale
    grid = Grid1D(n=64, length=32.0)
    upper, offblock = approx_fw(discretize_dirac_1d(grid, m, np.zeros_like))
    np.testing.assert_array_equal(upper, np.diag(np.sqrt(m * m + grid.p_fft**2)))
    assert offblock == 0.0


@pytest.fixture(scope="module")
def free_grid_system():
    grid = Grid1D(n=64, length=32.0)
    bh = discretize_dirac_1d(grid, 1.0, lambda x: np.zeros_like(x))
    return grid, bh


def free_spectrum(grid, m):
    """The free spin block's exact spectrum +-eps(p) over the grid, sorted."""
    eps = energy(grid.p_fft[:, None], m)
    return np.sort(np.concatenate([-eps, eps]))


def test_free_spectrum_matches_analytic(free_grid_system):
    grid, bh = free_grid_system
    ev = np.sort(np.linalg.eigvalsh(bh.H))
    assert np.max(np.abs(ev - free_spectrum(grid, 1.0))) <= 1e-10


def test_constant_potential_shifts_spectrum_exactly(free_grid_system):
    grid, _ = free_grid_system
    c = 0.37
    bh = discretize_dirac_1d(grid, 1.0, lambda x: c * np.ones_like(x))
    ev = np.sort(np.linalg.eigvalsh(bh.H))
    assert np.max(np.abs(ev - (free_spectrum(grid, 1.0) + c))) <= 1e-10


def test_odd_part_anticommutes_with_beta(free_grid_system):
    grid, bh = free_grid_system
    beta = block_beta(grid.n)
    odd = odd_part(bh)
    assert frob(beta @ odd + odd @ beta) <= 1e-10
    assert frob(even_part(bh)) <= 1e-12   # free case: E = 0


def test_eriksen_conditions_on_free_grid(free_grid_system):
    grid, bh = free_grid_system
    u, lam = exact_transform(bh)
    conds = eriksen_conditions(u, lam, bh)
    for name, value in conds.items():
        assert value <= 1e-10, name


def test_positive_block_spectrum(free_grid_system):
    grid, bh = free_grid_system
    u = eriksen_unitary(eigenframe(bh))
    h_fw = u @ bh.H @ u.conj().T
    expected = np.sort(np.sqrt(1.0 + grid.p_fft**2))
    nu = bh.n_upper
    assert np.max(np.abs(np.linalg.eigvalsh(h_fw[:nu, :nu]) - expected)) <= 1e-10


def test_eriksen_conditions_with_potential():
    grid = Grid1D(n=32, length=16.0)
    bh = discretize_dirac_1d(grid, 1.0,
                             lambda x: 0.2 * np.exp(-x**2 / 4.0))
    u, lam = exact_transform(bh)
    conds = eriksen_conditions(u, lam, bh)
    assert conds["lambda_squared"] <= 1e-10
    assert conds["odd_exponent"] <= 1e-10
    assert conds["unitarity"] <= 1e-10
    assert conds["offblock"] <= 1e-9    # exact transform: machine level


def test_exactness_when_even_odd_commute(dense_eriksen_oracle):
    # constant potential commutes with the odd part: transform stays exact
    grid = Grid1D(n=32, length=16.0)
    bh = discretize_dirac_1d(grid, 1.0, lambda x: 0.25 * np.ones_like(x))
    u = eriksen_unitary(eigenframe(bh))
    h_fw = u @ bh.H @ u.conj().T
    assert dense_eriksen_oracle["offblock"](h_fw, bh.n_upper) <= 1e-10


def test_scaling_study_quadratic_spectrum_linear_offblock():
    grid = Grid1D(n=64, length=32.0)
    study = potential_scaling_study(grid, 1.0, [1e-3, 1e-2, 1e-1])
    assert abs(study.exponent - 2.0) <= 0.3
    assert np.all(study.exact_offblock <= 1e-9)
    off_slope = np.polyfit(np.log(study.v0), np.log(study.approx_offblock), 1)[0]
    assert abs(off_slope - 1.0) <= 0.2


def _unchecked_eigenvalues(bh):
    """Mutant of eigenvalues that skips the spectrum check."""
    return np.linalg.eigvalsh(bh.H)


# the two spectrum paths, which one check serves, and the mutant that every
# rejection test must catch
SPECTRUM_PATHS = [pytest.param(eigenframe, False, id="eigenframe"),
                  pytest.param(eigenvalues, False, id="eigenvalues"),
                  pytest.param(_unchecked_eigenvalues, True, id="mutant-unchecked-eigenvalues")]


def assert_rejects(spectrum, mutant, bh, message):
    """spectrum(bh) raises LinalgError matching message; for the mutant
    that assertion itself fails."""
    if mutant:
        with pytest.raises(pytest.fail.Exception, match="DID NOT RAISE"):
            assert_rejects(spectrum, False, bh, message)
        return
    with pytest.raises(LinalgError, match=message):
        spectrum(bh)


@pytest.mark.parametrize("spectrum, mutant", SPECTRUM_PATHS)
def test_spectrum_paths_reject_zero_modes(spectrum, mutant):
    # H = diag(0, 1, -2, -1)
    assert_rejects(spectrum, mutant, mass_term(np.array([-1.0, 0.0]), 1.0),
                   "eigenvalue within 1e-08 of zero: sign function undefined")


def test_approx_rejects_singular_mass_operator():
    # X = O/m: at m = 0 the 4x4 block has nonzero momenta, and every FFT grid
    # holds p = 0, where the kinetic denominator 2 eps (eps + m) vanishes too
    bh, _ = blocked_4x4(np.array([1.0, 0.0, 0.0]), 0.0)
    with pytest.raises(LinalgError, match="not invertible"):
        approx_fw(bh)
    with pytest.raises(LinalgError, match="not invertible"):
        approx_fw(discretize_dirac_1d(Grid1D(n=16, length=8.0), 0.0, np.zeros_like))


def test_approx_rejects_singular_kinetic_denominator():
    # N^2 = 2 eps (eps + m) is 4 m^2 at p = 0 and about 2 p^2 at p >> m:
    # below 1e-12 of its largest value the approximate transform has no value
    bh = BlockedHamiltonian(p=np.array([0.0, 1e7]), V=np.zeros((2, 2)), m=0.1)
    with pytest.raises(LinalgError, match="kinetic denominator is singular"):
        approx_fw(bh)
    approx_fw(BlockedHamiltonian(p=np.array([0.0, 1e5]), V=np.zeros((2, 2)), m=0.1))


def test_approx_on_a_stack_acts_on_each_member():
    # a stack of two Hamiltonians with different odd blocks and complex
    # potentials: the stack of the members' upper blocks, bit for bit, and
    # the off-block norm over the whole stack
    rng = np.random.default_rng(5)
    p = rng.uniform(-2.0, 2.0, (2, 3))
    V = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    V += adjoint(V)
    m = 0.7
    upper, offblock = approx_fw(BlockedHamiltonian(p=p, V=V, m=m))
    members = [approx_fw(BlockedHamiltonian(p=p[k], V=V[k], m=m)) for k in range(2)]
    np.testing.assert_array_equal(upper, np.stack([u for u, _ in members]))
    assert offblock == pytest.approx(np.hypot(*(off for _, off in members)), rel=1e-15)
    assert min(off for _, off in members) > 0.0


def test_blocked_hamiltonian_is_frozen():
    # every kernel trusts the constructor's checks of bh's parts
    bh = mass_term(np.zeros(2), 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        bh.V = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(dataclasses.FrozenInstanceError):
        bh.p = np.array([np.inf, 0.0])


def test_eriksen_command_checks_each_hamiltonian_hermitian_once(tmp_path, monkeypatch):
    n = 16
    shapes = {}
    for module in (fwbench.eriksen, fwbench.linalg):
        original = module.is_hermitian

        def counted(a, *args, _original=original, _module=module.__name__, **kwargs):
            shapes.setdefault(_module, []).append(a.shape)
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(module, "is_hermitian", counted)
    assert main(["eriksen", "--n", str(n), "--out", str(tmp_path / "e.json")]) == 0
    # the potential block V of the free Hamiltonian, the stack of its n
    # one-momentum blocks, and of the three of the default --v0 ladder;
    # mat_inv_sqrt_psd checks its own half-size inputs
    assert shapes["fwbench.eriksen"] == [(n, 1, 1)] + [(n, n)] * 3
    assert all(shape[-1] < 2 * n for shape in shapes["fwbench.linalg"])


def test_discretize_rejects_potential_without_one_finite_value_per_node():
    grid = Grid1D(n=16, length=8.0)
    with pytest.raises(ValueError, match="one value per grid node"):
        discretize_dirac_1d(grid, 1.0, lambda x: 0.3)
    with pytest.raises(ValueError, match="bounded"):
        discretize_dirac_1d(grid, 1.0, lambda x: np.where(x == 0.0, np.inf, 0.0))
    with pytest.raises(ValueError, match="real"):
        discretize_dirac_1d(grid, 1.0, lambda x: np.zeros_like(x) + 0.1j)


def test_blocked_hamiltonian_validation():
    p = np.zeros(2)
    with pytest.raises(LinalgError, match="Hermitian"):
        BlockedHamiltonian(p=p, V=np.array([[0.0, 1.0], [0.0, 0.0]]), m=1.0)
    for V in (np.ones((2, 3)), np.array([[np.nan, 0.0], [0.0, 1.0]])):
        with pytest.raises(LinalgError, match="square matrix|non-finite"):
            BlockedHamiltonian(p=p, V=V, m=1.0)
    for bad_p in (0.3, np.zeros(3), np.zeros((2, 1))):
        with pytest.raises(LinalgError, match="one value per row of V"):
            BlockedHamiltonian(p=bad_p, V=np.eye(2), m=1.0)
    # a stack of three 2x2 potential blocks takes one p row per member
    for bad_p in (np.zeros(2), np.zeros((1, 2)), np.zeros((3, 3)), np.zeros((2, 3))):
        with pytest.raises(LinalgError, match="one value per row of V"):
            BlockedHamiltonian(p=bad_p, V=np.zeros((3, 2, 2)), m=1.0)
    for bad_p in (np.array([np.inf, 0.0]), np.array([0.0, np.nan])):
        with pytest.raises(LinalgError, match="non-finite"):
            BlockedHamiltonian(p=bad_p, V=np.eye(2), m=1.0)
    with pytest.raises(LinalgError, match="real"):
        BlockedHamiltonian(p=np.array([0.0, 1j]), V=np.eye(2), m=1.0)
    for bad_mass in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="^mass must be finite and non-negative, got"):
            BlockedHamiltonian(p=p, V=np.eye(2), m=bad_mass)


@pytest.mark.parametrize("n", [2, 16])
def test_blocked_hamiltonian_dense_matrix_is_its_parts(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    p, V, m = rng.normal(size=n), 0.5 * (a + a.conj().T), 1.7
    bh = BlockedHamiltonian(p=p, V=V, m=m)
    eye = np.eye(n)
    want = np.block([[V + m * eye, np.diag(p)], [np.diag(p), V - m * eye]])
    np.testing.assert_array_equal(bh.H, want)
    assert bh.H.dtype == complex and bh.n_upper == n


@pytest.mark.parametrize("v0", [[0.1, 0.1], [0.01], [0.0, 0.01, 0.1],
                                [-0.01, 0.1], [np.nan, 0.1], [np.inf, 0.1]])
def test_scaling_study_rejects_degenerate_strengths(v0):
    with pytest.raises(ValueError, match="strength"):
        check_strengths(v0)
    with pytest.raises(ValueError, match="strength"):
        potential_scaling_study(Grid1D(n=16, length=8.0), 1.0, v0)


# --- structured kernels against the dense general-beta/M oracle -------------

ORACLE_MASSES = (0.5, 1.0, 3.0)
ORACLE_PROFILES = {
    "gauss": lambda length: (lambda x: np.exp(-x**2 / (2 * (length / 8) ** 2))),
    "cos": lambda length: (lambda x: np.cos(2 * np.pi * x / length)),
}


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _oracle_cases():
    """(bh, Q2): 4x4 Dirac blocks with a small diagonal potential in the
    eigenbasis of sigma.p, and grid Hamiltonians, already in the eigenbasis
    of their odd block (Q2 = 1)."""
    rng, rng_v = np.random.default_rng(5), np.random.default_rng(6)
    cases = [pytest.param(*eigenbasis_hamiltonian(dirac_hamiltonian(p, m)[:2, 2:],
                                                  rng_v.uniform(-0.2, 0.2, 2), m),
                          id=f"4x4-m{m}-{i}")
             for m in ORACLE_MASSES for i, p in enumerate(rng.uniform(-3, 3, (3, 3)))]
    for n in (16, 32):
        grid = Grid1D(n=n, length=n / 2)
        for m in ORACLE_MASSES:
            for name, profile in ORACLE_PROFILES.items():
                V = profile(grid.length)
                bh = discretize_dirac_1d(grid, m, lambda x: 0.2 * V(x))
                cases.append(pytest.param(bh, np.eye(2 * n), id=f"n{n}-m{m}-{name}"))
    return cases


@pytest.mark.parametrize("bh, Q2", _oracle_cases())
def test_structured_kernels_match_dense_oracle(bh, Q2, dense_eriksen_oracle):
    # compared in the oracle's basis, H = Q2 bh.H Q2^dag: measured worst case
    # over these cases 1.8e-15 relative, 1.7e-14 for the off-block norm
    H = rotated_back(bh.H, Q2)
    beta = block_beta(bh.n_upper)
    M = bh.m * np.eye(H.shape[0])
    U, lam = exact_transform(bh)
    U_o, lam_o = dense_eriksen_oracle["unitary"](H, beta)
    assert _rel(rotated_back(lam, Q2), lam_o) <= 1e-12
    assert _rel(rotated_back(U, Q2), U_o) <= 1e-12
    upper, offblock = approx_fw(bh)
    U_ao, h_ao = dense_eriksen_oracle["approx"](H, beta, M)
    h, Q = bh.n_upper, Q2[:bh.n_upper, :bh.n_upper]
    assert _rel(Q @ upper @ Q.conj().T, h_ao[:h, :h]) <= 1e-12
    want = dense_eriksen_oracle["offblock"](U_ao @ H @ U_ao.conj().T, h)
    assert abs(offblock / want - 1) <= 1e-12


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("m", ORACLE_MASSES)
@pytest.mark.parametrize("profile", sorted(ORACLE_PROFILES))
def test_scaling_study_matches_dense_oracle(n, m, profile, dense_eriksen_oracle):
    grid = Grid1D(n=n, length=n / 2)
    V = ORACLE_PROFILES[profile](grid.length)
    v0 = [1e-3, 1e-2, 1e-1]
    study = potential_scaling_study(grid, m, v0, V)
    hams = [discretize_dirac_1d(grid, m, lambda x: v * V(x)).H for v in v0]
    oracle = dense_eriksen_oracle["study"](hams, block_beta(n), m * np.eye(2 * n))
    # even_block_diff is a difference of O(1) eigenvalues, so it is compared
    # absolutely (measured worst 2.8e-14); the off-block norms relatively
    # (measured worst 3.9e-12), the exact ones are roundoff (below 6.5e-14).
    assert np.max(np.abs(study.even_block_diff - oracle["even_block_diff"])) <= 1e-12
    assert np.max(np.abs(study.approx_offblock / oracle["approx_offblock"] - 1)) <= 1e-11
    assert np.max(study.exact_offblock) <= 1e-12
    assert np.max(oracle["exact_offblock"]) <= 1e-12
    exponent = np.polyfit(np.log(v0), np.log(oracle["even_block_diff"]), 1)[0]
    assert abs(study.exponent - exponent) <= 1e-5


@st.composite
def gapped_hermitian(draw):
    """Random Hermitian 2k x 2k matrix with k eigenvalues of each sign, all
    at least 0.1 from zero."""
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mags = rng.uniform(0.1, 5.0, 2 * k)
    w = np.concatenate([mags[:k], -mags[k:]])
    q, _ = np.linalg.qr(rng.normal(size=(2 * k, 2 * k))
                        + 1j * rng.normal(size=(2 * k, 2 * k)))
    H = (q * w) @ q.conj().T
    return 0.5 * (H + H.conj().T)


@given(gapped_hermitian())
@settings(max_examples=60, deadline=None)
def test_eriksen_evenness_unitarity_and_block_diagonal(dense_eriksen_oracle, H):
    offblock_norm = dense_eriksen_oracle["offblock"]
    nu = H.shape[0] // 2
    beta = np.diag(np.r_[np.ones(nu), -np.ones(nu)])
    # a general H is no BlockedHamiltonian: eigh's frame of its k positive
    # and k negative eigenvalues is the one eigenframe would give
    frame = np.linalg.eigh(H)
    lam = sign_function(frame)
    g = 2 * np.eye(2 * nu) + beta @ lam + lam @ beta
    # g is even: the half-size route through its diagonal blocks is exact
    assert offblock_norm(g, nu) <= 1e-13 * frob(g)
    assume(np.linalg.eigvalsh(g).min() > 1e-3)   # g = |1 + beta lam|^2 > 0
    u = eriksen_unitary(frame)
    assert frob(u @ u.conj().T - np.eye(2 * nu)) <= 1e-10
    assert offblock_norm(u @ H @ u.conj().T, nu) <= 1e-10 * frob(H)


def test_scaling_study_decomposes_each_hamiltonian_once(monkeypatch):
    grid = Grid1D(n=16, length=8.0)
    full = 2 * grid.n
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, a.shape[-1]))
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    potential_scaling_study(grid, 1.0, [1e-3, 1e-2, 1e-1])
    # eigenvectors at the largest strength alone, for the exact off-block
    assert calls.count(("eigh", full)) == 1
    assert calls.count(("eigvalsh", full)) == 2
    assert all(dim <= full // 2 for name, dim in calls if dim != full)


def _count_eigh(monkeypatch) -> list:
    """The dimensions of every np.linalg.eigh call from now on."""
    calls = []
    original = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape[-1])
        return original(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


def test_scaling_study_factors_the_odd_part_without_eigh(monkeypatch):
    # every H of the ladder has the odd part [[0, diag p], [diag p, 0]], whose
    # functions are vectors (no eigh), and the exact off-block is read from
    # the eigenframe of the largest strength: the ladder takes one full-size
    # eigh and no half-size one, and the study forms no exact unitary and no
    # g^(-1/2).  The free check, which does form U, shows that the counting
    # wrappers see the calls; it holds the free grid as n one-momentum 2x2
    # Hamiltonians, so its frame is one batched eigh of the stack and no
    # full-size eigh
    grid = Grid1D(n=16, length=8.0)
    full = 2 * grid.n
    calls = _count_eigh(monkeypatch)
    counts = dict.fromkeys(("eriksen_unitary", "mat_inv_sqrt_psd"), 0)
    for name in counts:
        original = getattr(fwbench.eriksen, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(fwbench.eriksen, name, counted)
    potential_scaling_study(grid, 1.0, [1e-3, 1e-2, 1e-1])
    assert calls == [full]
    assert counts == {"eriksen_unitary": 0, "mat_inv_sqrt_psd": 0}
    fwbench.eriksen.free_checks(grid, 1.0)
    assert counts == {"eriksen_unitary": 1, "mat_inv_sqrt_psd": 2}
    assert 2 in calls[1:] and max(calls[1:]) < full


@pytest.mark.parametrize("mutant", [False, True], ids=["eigenvalues", "unchecked_eigenvalues"])
def test_scaling_study_checks_every_strength_in_ladder_order(mutant, monkeypatch):
    # at m = 0.01 the strengths 0.1 and 1 close the 2m gap: 17 and 19 of 32
    # eigenvalues are positive.  The first strength that fails names the
    # error, though only the largest takes the eigenframe; a study whose
    # eigenvalue-only path skipped the check would name the largest's count
    if mutant:
        monkeypatch.setattr(fwbench.eriksen, "eigenvalues", _unchecked_eigenvalues)
    first = "19" if mutant else "17"
    with pytest.raises(LinalgError, match=f"^{first} of 32 eigenvalues are positive"):
        potential_scaling_study(Grid1D(n=16, length=32.0), 0.01, [1e-3, 0.1, 1.0])


@pytest.mark.parametrize("spectrum, mutant", SPECTRUM_PATHS)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_spectrum_paths_reject_spectrum_without_half_positive(spectrum, mutant, k, seed):
    # H = [[m + c, diag p], [diag p, c - m]], in the eigenbasis of any
    # Hermitian odd block with eigenvalues p_i, has the spectrum c +- r_i with
    # r_i = sqrt(m^2 + p_i^2); a shift c between the two smallest roots
    # r_1 < c < r_2 leaves k+1 positive and k-1 negative eigenvalues, all
    # gapped from zero: no unitary sends the positive spectrum to the
    # k-dimensional upper block
    rng = np.random.default_rng(seed)
    mags = np.cumsum(rng.uniform(0.1, 1.0, k))
    p = mags * rng.choice([-1.0, 1.0], k)
    m = rng.uniform(0.1, 3.0)
    r = np.sqrt(m * m + mags * mags)
    c = 0.5 * (r[0] + r[1]) if k > 1 else r[0] + 1.0
    message = (f"{k + 1} of {2 * k} eigenvalues are positive, not half: "
               "no unitary sends the positive spectrum to the upper block")
    assert_rejects(spectrum, mutant, BlockedHamiltonian(p=p, V=c * np.eye(k), m=m), message)
    if k > 1:
        # a non-diagonal V, c I plus a Hermitian W with ||W||_2 at a quarter
        # of the spectrum's distance from zero, which moves no eigenvalue
        # across it (Weyl)
        W = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        W += W.conj().T
        gap = np.abs(np.concatenate([c + r, c - r])).min()
        V = c * np.eye(k) + 0.25 * gap * W / np.linalg.norm(W, 2)
        assert np.count_nonzero(V - np.diag(np.diagonal(V))) > 0
        assert_rejects(spectrum, mutant, BlockedHamiltonian(p=p, V=V, m=m), message)


def _diagonal_potential_cases():
    """BlockedHamiltonians with a diagonal V over a grid's momenta, which hold
    p = 0 and the Nyquist node -n dp / 2: V even in p (every +-p pair a
    degenerate pair of blocks) or not, real or of complex dtype.  |V_kk| < m
    keeps one eigenvalue of each sign in every block."""
    rng = np.random.default_rng(11)
    cases = []
    for n in (4, 8, 32):
        p = Grid1D(n=n, length=n / 2).p_fft
        for m in (0.5, 2.0):
            by_size = rng.uniform(-0.9, 0.9, n) * m
            even = by_size[np.unique(np.abs(p), return_inverse=True)[1]]
            for kind, v in (("even", even), ("generic", rng.uniform(-0.9, 0.9, n) * m)):
                for dtype in (float, complex):
                    bh = BlockedHamiltonian(p=p, V=np.diag(v).astype(dtype), m=m)
                    cases.append(pytest.param(bh, id=f"n{n}-m{m}-{kind}-{dtype.__name__}"))
    return cases


def _momentum_stack(bh):
    """bh with a diagonal V as the stack of its n one-momentum Hamiltonians
    [[m + V_kk, p_k], [p_k, V_kk - m]]: row k of bh.H couples only to row n + k."""
    return BlockedHamiltonian(p=bh.p[:, None], V=np.diagonal(bh.V)[:, None, None], m=bh.m)


def _scatter(stack):
    """The 2n x 2n matrix whose rows and columns (k, n + k) hold member k of
    an (n, 2, 2) stack, the inverse of the (k, n + k) permutation."""
    n = len(stack)
    idx = np.stack([np.arange(n), n + np.arange(n)], axis=1)
    full = np.zeros((2 * n, 2 * n), dtype=stack.dtype)
    full[idx[:, :, None], idx[:, None, :]] = stack
    return full


@pytest.mark.parametrize("bh", _diagonal_potential_cases())
def test_momentum_split_frame_matches_dense_frame(bh):
    # the frame of the per-momentum stack and of the dense bh.H: the same
    # spectrum to rounding, and, as lambda and U do not depend on the basis
    # inside a degenerate eigenspace (a +-p pair where V is even), the same
    # sign function and unitary after the (k, n + k) permutation within
    # test_structured_kernels_match_dense_oracle's bounds, and defining
    # conditions within test_eriksen_conditions_on_free_grid's
    stack = _momentum_stack(bh)
    np.testing.assert_array_equal(_scatter(stack.H), bh.H)
    frame, dense = eigenframe(stack), eigenframe(bh)
    assert frame[1].dtype == dense[1].dtype == bh.V.dtype
    w = dense[0]
    # in units of u max|w|: each member's pair against the closed form
    # V_kk +- sqrt(m^2 + p_k^2), and the whole spectrum against the dense eigh
    ulp = np.finfo(float).eps * np.abs(w).max()
    r, d = np.sqrt(bh.m**2 + bh.p**2), np.diagonal(bh.V).real
    assert np.max(np.abs(frame[0] - np.stack([d - r, d + r], axis=-1))) <= 2 * ulp
    assert np.max(np.abs(np.sort(frame[0], axis=None) - w)) <= 16 * ulp
    lam, U = sign_function(frame), eriksen_unitary(frame)
    assert _rel(_scatter(lam), sign_function(dense)) <= 1e-12
    assert _rel(_scatter(U), eriksen_unitary(dense)) <= 1e-12
    for conds in (eriksen_conditions(U, lam, stack),
                  eriksen_conditions(eriksen_unitary(dense), sign_function(dense), bh)):
        for name, value in conds.items():
            assert value <= 1e-10, name


@pytest.mark.parametrize("spectrum, mutant", SPECTRUM_PATHS)
def test_spectrum_paths_count_positive_eigenvalues_per_member(spectrum, mutant):
    # two one-momentum Hamiltonians at p = 0, V = +-2 and m = 1: the spectra
    # (1, 3) and (-3, -1) hold half of the stack's eigenvalues positive, but
    # no member has one positive eigenvalue to send to its upper block
    bh = BlockedHamiltonian(p=np.zeros((2, 1)), V=np.array([2.0, -2.0])[:, None, None], m=1.0)
    assert_rejects(spectrum, mutant, bh, "2 of 2 eigenvalues are positive")
    accepted = BlockedHamiltonian(p=np.ones((2, 1)), V=np.zeros((2, 1, 1)), m=1.0)
    w = spectrum(accepted)
    np.testing.assert_allclose(w[0] if spectrum is eigenframe else w,
                               np.full((2, 2), [-np.sqrt(2.0), np.sqrt(2.0)]),
                               rtol=4 * np.finfo(float).eps)


def test_free_checks_decompose_nothing_larger_than_2x2(monkeypatch):
    # the free grid is n one-momentum Hamiltonians: every decomposition is of
    # a stack of 2x2 (or 1x1) matrices, and no full-size matrix is formed
    grid = Grid1D(n=128, length=32.0)
    full_size = (2 * grid.n) ** 2 * 8
    dims = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, **kwargs):
            dims.append(a.shape[-1])
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        conds, spec_err = free_checks(grid, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert dims and max(dims) <= 2
    assert peak < full_size, f"peak {peak / full_size:.2f} full-size matrices"
    assert max(conds.values()) <= 1e-12 and spec_err <= 1e-12


@pytest.mark.parametrize("n", [16, 32, 64, 128])
@pytest.mark.parametrize("m", [0.5, 1.0, 10.0])
def test_grid_odd_part_matches_eigh_oracle(n, m, dense_eriksen_oracle):
    # the free approximate transform depends on the odd part diag(p) alone:
    # its upper block eps, from the closed forms, against the oracle's
    # eigh-based functions of the odd part on the nodes, and its off-block
    # norm, exactly zero, against the oracle's rounding.  Measured worst case
    # over these cases 2.6e-15 relative
    grid = Grid1D(n=n, length=32.0)
    F = np.fft.fft(np.eye(n), norm="ortho")
    upper, offblock = approx_fw(discretize_dirac_1d(grid, m, np.zeros_like))
    assert upper.dtype == np.float64
    H4, beta4 = dense_eriksen_oracle["hamiltonian_4n"](grid, m, np.zeros(n))
    order = _spin_block_order(n)[:2 * n]
    H = H4[np.ix_(order, order)]
    U_o, h_o = dense_eriksen_oracle["approx"](H, block_beta(n), m * np.eye(2 * n))
    assert _rel(F.conj().T @ upper @ F, h_o[:n, :n]) <= 1e-13
    assert offblock == 0.0
    assert dense_eriksen_oracle["offblock"](U_o @ H @ U_o.conj().T, n) <= 1e-13 * frob(H)


@pytest.mark.parametrize("profile", sorted(ORACLE_PROFILES))
def test_one_quadrant_offblock_norm_matches_full_conjugation(profile, dense_eriksen_oracle):
    # eriksen_conditions forms only the upper off-diagonal quadrant: U H U^dag
    # is Hermitian, so the lower quadrant's norm is the upper one's; the
    # oracle's approximate unitary leaves an O(V) off-block part to compare
    grid = Grid1D(n=32, length=16.0)
    V = ORACLE_PROFILES[profile](grid.length)
    for m in ORACLE_MASSES:
        bh = discretize_dirac_1d(grid, m, lambda x: 0.2 * V(x))
        nu = bh.n_upper
        U_a, _ = dense_eriksen_oracle["approx"](bh.H, block_beta(nu), m * np.eye(2 * nu))
        want = dense_eriksen_oracle["offblock"](U_a @ bh.H @ U_a.conj().T, nu)
        got = eriksen_conditions(U_a, sign_function(eigenframe(bh)), bh)["offblock"]
        assert abs(got / want - 1) <= 1e-12, m


def _swapped_offblock_norm(frame, bh):
    """exact_offblock_norm with V+ read where V- belongs: sqrt(2) ||V+^dag H V+||,
    the norm of the positive spectrum, O(||H||)."""
    w, v = frame
    h = w.size // 2
    return float(np.sqrt(2.0) * frob(v[:, h:].conj().T @ bh.H @ v[:, h:]))


# worst measured over these cases, in units of u ||H||_F: 0.27 against the
# formed U and 3.4 against the dense oracle; the values themselves are
# rounding, up to 4.6 u ||H||_F
EXACT_OFFBLOCK_VIA_U_ULPS = 2.0
EXACT_OFFBLOCK_DENSE_ULPS = 10.0


@pytest.mark.parametrize("mutant", [False, True], ids=["identity", "v_plus_for_v_minus"])
def test_exact_offblock_from_eigenframe_matches_unitary_and_oracle(mutant, monkeypatch,
                                                                   dense_eriksen_oracle):
    # the study's exact off-block, sqrt(2) ||V+^dag H V-||, against the same
    # norm read from the formed U (conjugated_quadrant) and from the dense
    # oracle's U H U^dag, each within a bound in units of u ||H||_F.  The
    # mutant reads V+ where V- belongs and must break both bounds
    if mutant:
        monkeypatch.setattr(fwbench.eriksen, "exact_offblock_norm", _swapped_offblock_norm)
    rng = np.random.default_rng(7)
    cases = []
    for m, p in zip(ORACLE_MASSES, rng.uniform(-3, 3, (3, 3))):
        bh, Q2 = blocked_4x4(p, m)
        cases.append((bh, Q2, fwbench.eriksen.exact_offblock_norm(eigenframe(bh), bh)))
    v0 = [1e-3, 1e-2, 1e-1]
    for n in (16, 32):
        grid = Grid1D(n=n, length=n / 2)
        for m in ORACLE_MASSES:
            for profile in ORACLE_PROFILES.values():
                V = profile(grid.length)
                study = potential_scaling_study(grid, m, v0, V)
                (got,) = study.exact_offblock
                cases.append((discretize_dirac_1d(grid, m, lambda x: max(v0) * V(x)),
                              np.eye(2 * n), got))
    via_u, dense = [], []
    for bh, Q2, got in cases:
        H, h = rotated_back(bh.H, Q2), bh.n_upper
        ulp = np.finfo(float).eps * frob(H)
        U = eriksen_unitary(eigenframe(bh))
        via_u.append(abs(got - np.sqrt(2.0) * frob(conjugated_quadrant(U, bh, 1))) / ulp)
        U_o, _ = dense_eriksen_oracle["unitary"](H, block_beta(h))
        want = dense_eriksen_oracle["offblock"](U_o @ H @ U_o.conj().T, h)
        dense.append(abs(got - want) / ulp)
    if mutant:
        assert min(via_u) > EXACT_OFFBLOCK_VIA_U_ULPS
        assert min(dense) > EXACT_OFFBLOCK_DENSE_ULPS
    else:
        assert max(via_u) <= EXACT_OFFBLOCK_VIA_U_ULPS
        assert max(dense) <= EXACT_OFFBLOCK_DENSE_ULPS


@pytest.mark.parametrize("transform", ["exact", "approx"])
def test_conjugated_quadrant_matches_dense_conjugation(transform, dense_eriksen_oracle):
    # quadrants (0, 0) and (0, 1) of U H U^dag from bh's parts against the
    # dense product, relative to ||H||: the scale of the rounding in the exact
    # transform's vanishing (0, 1) quadrant.  The approximate unitary is the
    # dense oracle's, whose (0, 1) quadrant is O(V)
    rng = np.random.default_rng(7)
    hams = [blocked_4x4(p, m)[0] for m, p in zip(ORACLE_MASSES, rng.uniform(-3, 3, (3, 3)))]
    grid = Grid1D(n=32, length=16.0)
    hams += [discretize_dirac_1d(grid, m, lambda x, V=profile(grid.length): 0.2 * V(x))
             for m in ORACLE_MASSES for profile in ORACLE_PROFILES.values()]
    for bh in hams:
        H, h = bh.H, bh.n_upper
        U = (eriksen_unitary(eigenframe(bh)) if transform == "exact" else
             dense_eriksen_oracle["approx"](H, block_beta(h), bh.m * np.eye(2 * h))[0])
        dense = U @ H @ U.conj().T
        for k in (0, 1):
            got = conjugated_quadrant(U, bh, k)
            assert frob(got - dense[:h, k * h:(k + 1) * h]) <= 1e-12 * frob(H), (bh.m, k)


@pytest.mark.parametrize("profile", sorted(ORACLE_PROFILES))
def test_approx_offblock_matches_closed_form(profile, dense_eriksen_oracle):
    # approx_fw's off-block norm is the closed form sqrt(2) ||(s_i u_j - u_i s_j) V_ij||;
    # the oracle conjugates H densely with U = [[diag u, diag s], [-diag s, diag u]],
    # u = (eps + m)/N and s = p/N, and reads both off-diagonal quadrants
    grid = Grid1D(n=32, length=16.0)
    V = ORACLE_PROFILES[profile](grid.length)
    v0 = [1e-3, 1e-2, 1e-1]
    p = grid.p_fft
    for m in ORACLE_MASSES:
        study = potential_scaling_study(grid, m, v0, V)
        eps = np.sqrt(m * m + p * p)
        norm = np.sqrt(2 * eps * (eps + m))
        u, s = np.diag((eps + m) / norm), np.diag(p / norm)
        U = np.block([[u, s], [-s, u]])
        for got, strength in zip(study.approx_offblock, v0):
            H = discretize_dirac_1d(grid, m, lambda x: strength * V(x)).H
            want = dense_eriksen_oracle["offblock"](U @ H @ U.T, grid.n)
            assert abs(got / want - 1) <= 1e-12, (m, strength)


def _explicit_bl_lb(lam, n):
    beta = block_beta(n)
    return frob(commutator(beta @ lam, lam @ beta))


@pytest.mark.parametrize("potential", [0.0, 0.2])
def test_bl_lb_commute_matches_explicit_commutator(potential):
    grid = Grid1D(n=32, length=16.0)
    bh = discretize_dirac_1d(grid, 1.0, lambda x: potential * np.exp(-x**2 / 4.0))
    U, lam = exact_transform(bh)
    got = eriksen_conditions(U, lam, bh)["bl_lb_commute"]
    assert abs(got - _explicit_bl_lb(lam, grid.n)) <= 1e-12
    # the identity [beta l, l beta] = beta l^2 beta - l^2 holds for any l, so
    # a random Hermitian l gives an O(1) commutator to match
    rng = np.random.default_rng(4)
    a = rng.normal(size=lam.shape) + 1j * rng.normal(size=lam.shape)
    other = 0.5 * (a + a.conj().T)
    got = eriksen_conditions(U, other, bh)["bl_lb_commute"]
    want = _explicit_bl_lb(other, grid.n)
    assert want > 1.0
    assert abs(got / want - 1) <= 1e-12


# --- the spin block against the four-component 4n x 4n grid Hamiltonian ------

def _spin_block_order(n):
    """Indices that reorder the 4n basis to components (1, 4 | 2, 3)."""
    return np.concatenate([np.arange(c * n, (c + 1) * n) for c in (0, 3, 1, 2)])


@pytest.mark.parametrize("n", [4, 16, 32])
@pytest.mark.parametrize("m", ORACLE_MASSES)
@pytest.mark.parametrize("profile", sorted(ORACLE_PROFILES))
def test_four_component_hamiltonian_is_two_spin_blocks(n, m, profile, dense_eriksen_oracle):
    # the grid Hamiltonian is this spin block in the DFT basis
    # (test_grid_hamiltonian_is_the_node_hamiltonian_in_the_dft_basis)
    grid = Grid1D(n=n, length=n / 2)
    V = ORACLE_PROFILES[profile](grid.length)
    H4, beta4 = dense_eriksen_oracle["hamiltonian_4n"](grid, m, 0.2 * V(grid.x))
    order = _spin_block_order(n)
    blocks = H4[np.ix_(order, order)]
    h_pos, zero = blocks[:2 * n, :2 * n], np.zeros((2 * n, 2 * n))
    np.testing.assert_array_equal(blocks, np.block([[h_pos, zero], [zero, h_pos]]))
    beta = block_beta(n)
    np.testing.assert_array_equal(beta4[np.ix_(order, order)],
                                  np.block([[beta, zero], [zero, beta]]))


@pytest.mark.parametrize("n", [16, 32])
def test_eriksen_command_matches_four_component_oracle(n, tmp_path, dense_eriksen_oracle):
    out = tmp_path / "eriksen.json"
    assert main(["eriksen", "--n", str(n), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    grid, m = Grid1D(n=n, length=data["box"]), data["mass"]
    width = grid.length / 8.0
    hams, betas = zip(*(dense_eriksen_oracle["hamiltonian_4n"](
        grid, m, v0 * np.exp(-grid.x**2 / (2 * width**2))) for v0 in data["v0"]))
    oracle = dense_eriksen_oracle["study"](hams, betas[0], m * np.eye(4 * n))
    # the reported Frobenius norms are over the 4n operator: no factor here
    assert np.max(np.abs(np.array(data["approx_offblock"])
                         / oracle["approx_offblock"] - 1)) <= 1e-11
    assert np.max(np.abs(np.array(data["even_block_spectral_diff"])
                         - oracle["even_block_diff"])) <= 1e-12
    exponent = np.polyfit(np.log(data["v0"]), np.log(oracle["even_block_diff"]), 1)[0]
    assert abs(data["scaling_exponent"] - exponent) <= 1e-5
    assert max(data["free_conditions"].values()) <= 1e-12
    assert max(data["exact_offblock"]) <= 1e-12
    assert np.max(oracle["exact_offblock"]) <= 1e-12


def test_eriksen_command_alone_scales_spin_block_norms_to_4n(tmp_path):
    # free_checks returns the conditions over the spin block, as
    # eriksen_conditions gives them for the free stack, and the study its
    # off-block norms; the command reports all of them over the 4n operator,
    # sqrt(2) times the spin block's
    grid = Grid1D(n=16, length=32.0)
    conds, spec_err = free_checks(grid, 1.0)
    bh = BlockedHamiltonian(p=grid.p_fft[:, None], V=np.zeros((grid.n, 1, 1)), m=1.0)
    frame = eigenframe(bh)
    assert conds == eriksen_conditions(eriksen_unitary(frame), sign_function(frame), bh)
    study = potential_scaling_study(grid, 1.0, [1e-3, 1e-2, 1e-1])
    out = tmp_path / "eriksen.json"
    assert main(["eriksen", "--n", "16", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["free_conditions"] == {k: float(np.sqrt(2.0) * v) for k, v in conds.items()}
    assert data["free_positive_spectrum_error"] == spec_err
    for key in ("approx_offblock", "exact_offblock"):
        assert data[key] == [float(np.sqrt(2.0) * v) for v in getattr(study, key)]


@pytest.mark.parametrize("v0", ["0.1,0.001,0.01", "0.01,0.1,0.001,0.1"])
def test_eriksen_command_reports_exact_offblock_at_the_largest_strength(v0, tmp_path,
                                                                        monkeypatch):
    # out of ladder order, and with the largest strength twice: one exact
    # off-block, from the one eigenframe of the Hamiltonian at v0 = 0.1, as
    # a one-element list whose max the benchmark's gate takes
    grid, m = Grid1D(n=16, length=32.0), 1.0
    seen = []
    original = fwbench.eriksen.exact_offblock_norm

    def spied(frame, bh):
        seen.append((bh, original(frame, bh)))
        return seen[-1][1]
    monkeypatch.setattr(fwbench.eriksen, "exact_offblock_norm", spied)
    out = tmp_path / "eriksen.json"
    assert main(["eriksen", "--n", "16", "--v0", v0, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    width = grid.length / 8.0
    largest = discretize_dirac_1d(grid, m, lambda x: 0.1 * np.exp(-0.5 * (x / width) ** 2))
    ((bh, norm),) = seen
    np.testing.assert_array_equal(bh.V, largest.V)
    assert data["v0"] == [float(v) for v in v0.split(",")]
    assert len(data["even_block_spectral_diff"]) == len(data["approx_offblock"]) == len(data["v0"])
    assert isinstance(data["exact_offblock"], list)
    assert data["exact_offblock"] == [float(np.sqrt(2.0) * norm)]
    assert max(data["exact_offblock"]) <= 1e-12


def test_eriksen_command_decomposes_nothing_larger_than_the_spin_block(tmp_path, monkeypatch):
    # and every Hermitian decomposition runs in real arithmetic
    n = 16
    dims, dtypes = [], []
    for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            dims.append(a.shape[-1])
            if _name in ("eigh", "eigvalsh"):
                dtypes.append(a.dtype)
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    assert main(["eriksen", "--n", str(n), "--out", str(tmp_path / "e.json")]) == 0
    assert max(dims) == 2 * n
    assert dtypes and all(dtype == np.float64 for dtype in dtypes)


def test_eriksen_working_set(capsys):
    # each grid Hamiltonian is built, checked and transformed with a handful
    # of full-size float64 matrices, and released before the next one is built
    n = 128
    full_size = (2 * n) ** 2 * 8
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert main(["eriksen", "--n", str(n)]) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
    assert peak <= 10 * full_size, f"peak {peak / full_size:.1f} full-size matrices"
