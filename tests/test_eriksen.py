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
from fwbench.dirac import GAMMA, dirac_hamiltonian, energy
from fwbench.grids import Grid1D
from fwbench.eriksen import (
    BlockedHamiltonian,
    ScalingStudy,
    approx_fw,
    check_strengths,
    conjugated_quadrant,
    discretize_dirac_1d,
    eigenframe,
    eriksen_conditions,
    eriksen_unitary,
    free_spectrum_1d,
    grid_odd_part,
    potential_scaling_study,
    sign_function,
    spectral_momentum,
    upper_block_spectrum,
)
from fwbench.linalg import LinalgError, frob
from oracles import (commutator, evaluate, even_part, factor_odd_part, fw_unitary_free,
                     odd_part)

I4 = np.eye(4)


def block_beta(n):
    """beta = diag(I_n, -I_n) of the 2n x 2n spin block."""
    return np.kron(np.diag([1.0, -1.0]), np.eye(n))


def blocked_4x4(p, m):
    """The 4x4 Dirac Hamiltonian beta m + alpha.p: P = sigma.p and no potential."""
    return BlockedHamiltonian(P=dirac_hamiltonian(p, m)[:2, 2:], v=np.zeros(2), m=m)


def mass_term(v, m):
    """beta m + diag(v, v) with no odd block."""
    return BlockedHamiltonian(P=np.zeros((len(v), len(v))), v=v, m=m)


def own_approx_fw(bh):
    """approx_fw with bh's own odd block factored by the eigh oracle."""
    return approx_fw(bh, factor_odd_part(bh.P, bh.m))


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
    np.testing.assert_array_equal(P, P.conj().T)
    k = 2 * np.pi * 3 / g.length
    wave = np.exp(1j * k * g.x)
    assert np.linalg.norm(P @ wave - k * wave) <= 1e-10


def exact_transform(bh):
    """(U, lambda) of bh from its one eigenframe."""
    frame = eigenframe(bh)
    return eriksen_unitary(frame), sign_function(frame)


def test_eriksen_on_diagonal_mass_term_is_identity():
    bh = mass_term(np.zeros(2), 2.0)
    np.testing.assert_array_equal(bh.H, 2.0 * GAMMA.beta)
    u = eriksen_unitary(eigenframe(bh))
    assert np.allclose(u, I4, atol=1e-12)


def test_eriksen_matches_free_closed_form_unitary():
    m = 1.0
    rng = np.random.default_rng(2)
    for _ in range(6):
        p = rng.uniform(-4, 4, 3)
        u = eriksen_unitary(eigenframe(blocked_4x4(p, m)))
        closed = evaluate(fw_unitary_free(m), p).A
        assert np.linalg.norm(u - closed) <= 1e-12


def test_approx_on_mass_term():
    bh = mass_term(np.zeros(2), 1.5)
    u, h = own_approx_fw(bh)
    assert np.allclose(u, I4, atol=1e-12)
    assert np.allclose(h, 1.5 * GAMMA.beta, atol=1e-12)


def test_approx_free_case_is_exact():
    m = 1.0
    p = np.array([1.1, -0.3, 0.7])
    bh = blocked_4x4(p, m)
    u, h = own_approx_fw(bh)
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
    assert np.max(np.abs(upper_block_spectrum(h_fw, bh.n_upper) - expected)) <= 1e-10


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


def test_sign_function_rejects_zero_modes():
    # H = diag(0, 1, -2, -1)
    with pytest.raises(LinalgError, match="zero"):
        eigenframe(mass_term(np.array([-1.0, 0.0]), 1.0))


def test_approx_rejects_singular_mass_operator():
    bh = blocked_4x4(np.array([1.0, 0.0, 0.0]), 0.0)
    with pytest.raises(LinalgError, match="not invertible"):
        own_approx_fw(bh)
    with pytest.raises(LinalgError, match="not invertible"):
        grid_odd_part(Grid1D(n=16, length=8.0), 0.0)


def test_blocked_hamiltonian_is_frozen():
    # every kernel trusts the constructor's checks of bh's parts
    bh = mass_term(np.zeros(2), 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        bh.P = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(dataclasses.FrozenInstanceError):
        bh.v = np.array([np.inf, 0.0])


def test_eriksen_command_checks_each_hamiltonian_hermitian_once(tmp_path, monkeypatch):
    n = 16
    dims = {}
    for module in (fwbench.eriksen, fwbench.linalg):
        original = module.is_hermitian

        def counted(a, *args, _original=original, _module=module.__name__, **kwargs):
            dims.setdefault(_module, []).append(a.shape[-1])
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(module, "is_hermitian", counted)
    assert main(["eriksen", "--n", str(n), "--out", str(tmp_path / "e.json")]) == 0
    # the odd block P of the free Hamiltonian and of the three of the default
    # --v0 ladder; mat_inv_sqrt_psd checks its own half-size inputs
    assert dims["fwbench.eriksen"] == [n] * 4
    assert 2 * n not in dims["fwbench.linalg"]


def test_discretize_rejects_potential_without_one_finite_value_per_node():
    grid = Grid1D(n=16, length=8.0)
    with pytest.raises(ValueError, match="one value per grid node"):
        discretize_dirac_1d(grid, 1.0, lambda x: 0.3)
    with pytest.raises(ValueError, match="bounded"):
        discretize_dirac_1d(grid, 1.0, lambda x: np.where(x == 0.0, np.inf, 0.0))


def test_blocked_hamiltonian_validation():
    v = np.zeros(2)
    with pytest.raises(LinalgError, match="Hermitian"):
        BlockedHamiltonian(P=np.array([[0.0, 1.0], [0.0, 0.0]]), v=v, m=1.0)
    for P in (np.ones((2, 3)), np.array([[np.nan, 0.0], [0.0, 1.0]])):
        with pytest.raises(LinalgError, match="square matrix|non-finite"):
            BlockedHamiltonian(P=P, v=v, m=1.0)
    for bad_v in (0.3, np.zeros(3), np.zeros((2, 1))):
        with pytest.raises(LinalgError, match="one value per grid node"):
            BlockedHamiltonian(P=np.eye(2), v=bad_v, m=1.0)
    for bad_v in (np.array([np.inf, 0.0]), np.array([0.0, np.nan])):
        with pytest.raises(LinalgError, match="bounded"):
            BlockedHamiltonian(P=np.eye(2), v=bad_v, m=1.0)
    with pytest.raises(LinalgError, match="real"):
        BlockedHamiltonian(P=np.eye(2), v=np.array([0.0, 1j]), m=1.0)
    for bad_mass in (-1.0, np.nan, np.inf):
        with pytest.raises(LinalgError, match="mass"):
            BlockedHamiltonian(P=np.eye(2), v=v, m=bad_mass)


@pytest.mark.parametrize("n", [2, 16])
def test_blocked_hamiltonian_dense_matrix_is_its_parts(n):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    P, v, m = 0.5 * (a + a.conj().T), rng.normal(size=n), 1.7
    bh = BlockedHamiltonian(P=P, v=v, m=m)
    want = np.block([[np.diag(m + v), P], [P, np.diag(v - m)]])
    np.testing.assert_array_equal(bh.H, want)
    assert bh.H.dtype == complex and bh.n_upper == n


@pytest.mark.parametrize("v0", [[0.1, 0.1], [0.01], [0.0, 0.01, 0.1],
                                [-0.01, 0.1], [np.nan, 0.1], [np.inf, 0.1]])
def test_scaling_study_rejects_degenerate_strengths(v0):
    with pytest.raises(ValueError, match="strength"):
        check_strengths(v0)
    with pytest.raises(ValueError, match="strength"):
        ScalingStudy(v0, np.ones(len(v0)), np.ones(len(v0)), np.ones(len(v0)))
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
    rng = np.random.default_rng(5)
    cases = [pytest.param(dirac_hamiltonian(p, m)[:2, 2:], np.zeros(2), m, GAMMA.beta,
                          id=f"4x4-m{m}-{i}")
             for m in ORACLE_MASSES for i, p in enumerate(rng.uniform(-3, 3, (3, 3)))]
    for n in (16, 32):
        grid = Grid1D(n=n, length=n / 2)
        beta = block_beta(n)
        for m in ORACLE_MASSES:
            for name, profile in ORACLE_PROFILES.items():
                cases.append(pytest.param(spectral_momentum(grid),
                                          0.2 * profile(grid.length)(grid.x), m, beta,
                                          id=f"n{n}-m{m}-{name}"))
    return cases


@pytest.mark.parametrize("P, v, m, beta", _oracle_cases())
def test_structured_kernels_match_dense_oracle(P, v, m, beta, dense_eriksen_oracle):
    # measured worst case over these cases: 4.2e-15 relative
    bh = BlockedHamiltonian(P=P, v=v, m=m)
    H = bh.H
    M = m * np.eye(H.shape[0])
    U, lam = exact_transform(bh)
    U_o, lam_o = dense_eriksen_oracle["unitary"](H, beta)
    assert _rel(lam, lam_o) <= 1e-12
    assert _rel(U, U_o) <= 1e-12
    U_a, h_a = own_approx_fw(bh)
    U_ao, h_ao = dense_eriksen_oracle["approx"](H, beta, M)
    assert _rel(U_a, U_ao) <= 1e-12
    assert _rel(h_a, h_ao) <= 1e-12


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
    assert calls.count(("eigh", full)) == 3
    assert calls.count(("eigvalsh", full)) == 0
    assert all(dim <= full // 2 for name, dim in calls if (name, dim) != ("eigh", full))


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
    # every H of the ladder has the odd part [[0, P], [P, 0]] of the grid's P,
    # whose functions come from the FFT (no eigh), and each H takes one
    # full-size eigh and two half-size ones for g_+^(-1/2) and g_-^(-1/2)
    grid = Grid1D(n=16, length=8.0)
    full = 2 * grid.n
    calls = _count_eigh(monkeypatch)
    potential_scaling_study(grid, 1.0, [1e-3, 1e-2, 1e-1])
    assert calls.count(full) == 3
    assert calls.count(full // 2) == 6
    assert len(calls) == 9


@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_eigenframe_rejects_spectrum_without_half_positive(k, seed):
    # H = [[m + c, P], [P, c - m]] has the spectrum c +- r_i with
    # r_i = sqrt(m^2 + p_i^2) over P's eigenvalues p_i; a shift c between the
    # two smallest roots r_1 < c < r_2 leaves k+1 positive and k-1 negative
    # eigenvalues, all gapped from zero: no unitary sends the positive
    # spectrum to the k-dimensional upper block
    rng = np.random.default_rng(seed)
    mags = np.cumsum(rng.uniform(0.1, 1.0, k))
    p = mags * rng.choice([-1.0, 1.0], k)
    q, _ = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    P = (q * p) @ q.conj().T
    m = rng.uniform(0.1, 3.0)
    r = np.sqrt(m * m + mags * mags)
    c = 0.5 * (r[0] + r[1]) if k > 1 else r[0] + 1.0
    bh = BlockedHamiltonian(P=0.5 * (P + P.conj().T), v=np.full(k, c), m=m)
    with pytest.raises(LinalgError, match=f"{k + 1} of {2 * k} eigenvalues are positive"):
        eigenframe(bh)


@pytest.mark.parametrize("n", [16, 32, 64, 128])
@pytest.mark.parametrize("m", [0.5, 1.0, 10.0])
def test_grid_odd_part_matches_eigh_oracle(n, m):
    # measured worst case over these cases: 5.6e-14 relative, in d_inv.  The
    # oracle's error grows with the largest p^2 (its eigh of P^2 is accurate
    # to rounding of that, absolutely): on a box of n/4 it reaches 1.5e-13
    grid = Grid1D(n=n, length=32.0)
    got = grid_odd_part(grid, m)
    np.testing.assert_array_equal(got.P, spectral_momentum(grid))
    want = factor_odd_part(got.P, m)
    for a, b in zip(got.block, want.block):
        assert _rel(a, b) <= 1e-13


@pytest.mark.parametrize("profile", sorted(ORACLE_PROFILES))
def test_one_quadrant_offblock_norm_matches_full_conjugation(profile, dense_eriksen_oracle):
    # U H U^dag is Hermitian, so the lower off-diagonal quadrant's norm is the
    # upper one's
    grid = Grid1D(n=32, length=16.0)
    V = ORACLE_PROFILES[profile](grid.length)
    for m in ORACLE_MASSES:
        bh = discretize_dirac_1d(grid, m, lambda x: 0.2 * V(x))
        U_a, _ = own_approx_fw(bh)
        nu = bh.n_upper
        want = dense_eriksen_oracle["offblock"](U_a @ bh.H @ U_a.conj().T, nu)
        got = fwbench.eriksen._conjugated_offblock_norm(U_a, bh)
        assert abs(got / want - 1) <= 1e-12, m


@pytest.mark.parametrize("transform", ["exact", "approx"])
def test_conjugated_quadrant_matches_dense_conjugation(transform):
    # quadrants (0, 0) and (0, 1) of U H U^dag from bh's parts against the
    # dense product, relative to ||H||: the scale of the rounding in the exact
    # transform's vanishing (0, 1) quadrant
    rng = np.random.default_rng(7)
    hams = [blocked_4x4(p, m) for m, p in zip(ORACLE_MASSES, rng.uniform(-3, 3, (3, 3)))]
    grid = Grid1D(n=32, length=16.0)
    hams += [discretize_dirac_1d(grid, m, lambda x, V=profile(grid.length): 0.2 * V(x))
             for m in ORACLE_MASSES for profile in ORACLE_PROFILES.values()]
    for bh in hams:
        U = eriksen_unitary(eigenframe(bh)) if transform == "exact" else own_approx_fw(bh)[0]
        H, h = bh.H, bh.n_upper
        dense = U @ H @ U.conj().T
        for k in (0, 1):
            got = conjugated_quadrant(U, bh, k)
            assert frob(got - dense[:h, k * h:(k + 1) * h]) <= 1e-12 * frob(H), (bh.m, k)


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


@pytest.mark.parametrize("profile", sorted(ORACLE_PROFILES))
def test_approx_fw_with_shared_factorization_is_identical(profile):
    # the study shares one grid factorization across its potentials
    grid = Grid1D(n=32, length=16.0)
    V = ORACLE_PROFILES[profile](grid.length)
    shared = grid_odd_part(grid, 1.5)
    for v0 in (1e-2, 0.3):
        bh = discretize_dirac_1d(grid, 1.5, lambda x: v0 * V(x))
        for got, want in zip(approx_fw(bh, shared), approx_fw(bh, grid_odd_part(grid, 1.5))):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("length, m", [(16.0, 1.0), (8.0, 2.0)], ids=["B", "m"])
def test_approx_fw_rejects_mismatched_factorization(length, m):
    # bh has the odd part of the length-8 grid and mass 1
    bh = discretize_dirac_1d(Grid1D(n=16, length=8.0), 1.0, lambda x: 0.1 * np.cos(x))
    with pytest.raises(LinalgError, match="does not match"):
        approx_fw(bh, grid_odd_part(Grid1D(n=16, length=length), m))


# --- the spin block against the four-component 4n x 4n grid Hamiltonian ------

def _spin_block_order(n):
    """Indices that reorder the 4n basis to components (1, 4 | 2, 3)."""
    return np.concatenate([np.arange(c * n, (c + 1) * n) for c in (0, 3, 1, 2)])


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("m", ORACLE_MASSES)
@pytest.mark.parametrize("profile", sorted(ORACLE_PROFILES))
def test_four_component_hamiltonian_is_two_spin_blocks(n, m, profile, dense_eriksen_oracle):
    grid = Grid1D(n=n, length=n / 2)
    V = ORACLE_PROFILES[profile](grid.length)
    H4, beta4 = dense_eriksen_oracle["hamiltonian_4n"](grid, m, 0.2 * V(grid.x))
    h = discretize_dirac_1d(grid, m, lambda x: 0.2 * V(x)).H
    order = _spin_block_order(n)
    zero = np.zeros_like(h)
    np.testing.assert_array_equal(H4[np.ix_(order, order)], np.block([[h, zero], [zero, h]]))
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


def test_eriksen_command_decomposes_nothing_larger_than_the_spin_block(tmp_path, monkeypatch):
    n = 16
    dims = []
    for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, **kwargs):
            dims.append(a.shape[-1])
            return _original(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    assert main(["eriksen", "--n", str(n), "--out", str(tmp_path / "e.json")]) == 0
    assert max(dims) == 2 * n


def test_eriksen_working_set(capsys):
    # each grid Hamiltonian is built, checked and transformed with a handful
    # of full-size matrices, and released before the next one is built
    n = 128
    full_size = (2 * n) ** 2 * 16
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
