"""Shared test oracles that do not go through the code they check."""

import numpy as np
import pytest
import scipy.linalg

from fwbench.algebra import ClassicalState, classical_observables, poisson_bracket
from fwbench.dirac import (GAMMA, dirac_hamiltonian, energy, free_propagator,
                           fv_hamiltonian_matrix)
from fwbench.eriksen import spectral_momentum
from fwbench.phase_ops import coeff_derivative, cross_c, p_dot


def positive_energy_density_gap(p0: float, sigma_p: float, m: float,
                                n_p: int = 801, n_x: int = 1201) -> float:
    """Peak-relative max |rho_Dirac - rho_FW| of a spin-up Gaussian packet.

    Direct Fourier quadrature, with no FFT and no wavepacket code.  The
    block-diagonal amplitude is g(p) (1, 0, 0, 0); the Dirac amplitude is
    the closed-form positive-energy spinor
    ((eps+m), 0, p, 0) g(p) / sqrt(2 eps (eps+m)).  Momenta span
    p0 +- 10 sigma_p, positions +- 6/sigma_p (six times the packet width
    in x) with x = 0 on the grid.  The normalization of g cancels in the
    ratio.
    """
    p = np.linspace(p0 - 10 * sigma_p, p0 + 10 * sigma_p, n_p)
    x = np.linspace(-6 / sigma_p, 6 / sigma_p, n_x)
    g = np.exp(-((p - p0) ** 2) / (4 * sigma_p**2))
    eps = np.sqrt(m * m + p * p)
    norm = np.sqrt(2 * eps * (eps + m))
    kernel = np.exp(1j * np.outer(x, p))
    rho_fw = np.abs(kernel @ g) ** 2
    rho_d = (np.abs(kernel @ ((eps + m) * g / norm)) ** 2
             + np.abs(kernel @ (p * g / norm)) ** 2)
    return float(np.max(np.abs(rho_d - rho_fw)) / rho_fw.max())


@pytest.fixture(scope="session")
def density_gap_oracle():
    return positive_energy_density_gap


def classical_frame_precession(p, m: float, cfg) -> np.ndarray:
    """Spin angular velocity W (dS/dt = W x S) of a classical spinning
    particle in a frame with acceleration g and rotation omega.

    Derived by exact Poisson brackets, dS/dt = {S, H}, from the frame
    Hamiltonian
        H = eps (1 + g.r) + S.(g x p)/(eps + m) - omega.(r x p + S)
    built from the classical observables; no precession formula is used.
    With {S_i, S_j} = e_ijk S_k, {S, H} = dH/dS x S, and the rates at
    S = e_1, e_2, e_3 give W = (1/2) sum_k e_k x {S, H}(S = e_k).
    """
    states = ClassicalState(Q=np.zeros((3, 3)), P=np.tile(p, (3, 1)),
                            S=np.eye(3), m=m)
    obs = classical_observables(states)
    g, omega = cfg.frame_accel, cfg.frame_omega
    eps, r, P, S = obs["H"], obs["Q"], obs["P"], obs["S"]
    gxp = [cross_c(g, P, c) for c in range(3)]
    H = (eps * (1 + p_dot(r, g)) + p_dot(S, gxp) / (eps + m)
         - p_dot(obs["J"], omega))
    rates = np.stack([poisson_bracket(S[i], H, states) for i in range(3)], axis=-1)
    return 0.5 * np.cross(np.eye(3), rates).sum(axis=0)


@pytest.fixture(scope="session")
def frame_precession_oracle():
    return classical_frame_precession


def _dense_hermitian_fn(a, f):
    w, v = np.linalg.eigh(a)
    return (v * f(w)) @ v.conj().T


def _dense_commutator(a, b):
    return a @ b - b @ a


def _dense_offblock(a, nu: int) -> float:
    return float(np.sqrt(np.linalg.norm(a[:nu, nu:]) ** 2 + np.linalg.norm(a[nu:, :nu]) ** 2))


def dense_eriksen_unitary(H, beta):
    """(1 + beta lam)(2 + beta lam + lam beta)^(-1/2) with a dense involution
    beta and full-size matrix functions throughout; returns (U, lam)."""
    eye = np.eye(H.shape[0])
    lam = _dense_hermitian_fn(H, np.sign)
    g = 2 * eye + beta @ lam + lam @ beta
    return (eye + beta @ lam) @ _dense_hermitian_fn(g, lambda w: 1 / np.sqrt(w)), lam


def dense_approx_fw(H, beta, M):
    """The approximate relativistic (U, H_approx) for a general even mass
    operator M: five full-size decompositions and dense double commutators."""
    eye = np.eye(H.shape[0])
    O = 0.5 * (H - beta @ H @ beta)
    E = 0.5 * (H + beta @ H @ beta) - beta @ M
    m_inv = _dense_hermitian_fn(M, lambda w: 1 / w)
    X = 0.5 * (m_inv @ O + O @ m_inv)
    S = _dense_hermitian_fn(X @ X, lambda w: np.sqrt(1 + np.clip(w, 0, None)))
    U = (eye + S + beta @ X) @ _dense_hermitian_fn(2 * S @ (eye + S),
                                                   lambda w: 1 / np.sqrt(w))
    eps_sq = M @ M + O @ O
    eps = _dense_hermitian_fn(eps_sq, lambda w: np.sqrt(np.clip(w, 0, None)))
    denom_inv = _dense_hermitian_fn(2 * eps_sq + eps @ M + M @ eps, lambda w: 1 / w)
    core = (beta @ _dense_commutator(O, _dense_commutator(O, M))
            - _dense_commutator(O, _dense_commutator(O, E)))
    return U, beta @ eps + E + 0.25 * (denom_inv @ core + core @ denom_inv)


def dense_scaling_study(hamiltonians, beta, M) -> dict:
    """even_block_diff, approx_offblock and exact_offblock of a potential
    ladder from the dense formulas, with full conjugations U H U^dag and the
    exact positive spectrum from eigvalsh(H)."""
    nu = beta.shape[0] // 2
    out = {"even_block_diff": [], "approx_offblock": [], "exact_offblock": []}
    for H in hamiltonians:
        U, _ = dense_eriksen_unitary(H, beta)
        U_a, h_approx = dense_approx_fw(H, beta, M)
        exact_positive = np.sort(np.linalg.eigvalsh(H))[nu:]
        approx_upper = np.sort(np.linalg.eigvalsh(h_approx[:nu, :nu]))
        out["even_block_diff"].append(np.max(np.abs(approx_upper - exact_positive)))
        out["approx_offblock"].append(_dense_offblock(U_a @ H @ U_a.conj().T, nu))
        out["exact_offblock"].append(_dense_offblock(U @ H @ U.conj().T, nu))
    return {k: np.asarray(v) for k, v in out.items()}


def dirac_grid_hamiltonian_4n(grid, m: float, v_vals):
    """The full four-component 4n x 4n grid Hamiltonian
    beta m + V(x) + alpha_1 p, component-major, from the Dirac matrices
    themselves rather than from the spin-block structure; v_vals holds V
    at the grid points.  Returns (H, beta)."""
    eye_n = np.eye(grid.n)
    H = (m * np.kron(GAMMA.beta, eye_n)
         + np.kron(np.eye(4), np.diag(v_vals))
         + np.kron(GAMMA.alpha[0], spectral_momentum(grid)))
    return H, np.kron(GAMMA.beta, eye_n)


@pytest.fixture(scope="session")
def dense_eriksen_oracle():
    return {"unitary": dense_eriksen_unitary, "approx": dense_approx_fw,
            "study": dense_scaling_study, "offblock": _dense_offblock,
            "hamiltonian_4n": dirac_grid_hamiltonian_4n}


def heisenberg_numeric(H, O, t: float):
    """exp(iHt) O exp(-iHt) by scaling-and-squaring matrix exponentials.

    The inverse factor is computed as exp(-iHt), which also covers the
    pseudo-Hermitian two-component scalar-sector Hamiltonian (for Hermitian
    H it equals the conjugate transpose).  No closed form of the propagator
    is used.
    """
    return scipy.linalg.expm(1j * t * H) @ O @ scipy.linalg.expm(-1j * t * H)


def heisenberg_position_numeric(p, m: float, t: float, component: int,
                                particle: str = "dirac"):
    """Matrix part of the evolved position, exp(iHt) i d/dp_k exp(-iHt) - r(0).

    Independent of the closed-form position: differentiates the propagator
    exp(-iHt) in momentum with the Richardson difference coeff_derivative
    instead of integrating the velocity.  The differenced propagator is
    free_propagator (checked against expm in test_dirac): the rounding of a
    numerical exponential of the non-normal scalar-sector H, about 1e-14,
    divided by the 1e-5 step would reach 1e-8.
    """
    ham = {"dirac": dirac_hamiltonian, "fv": fv_hamiltonian_matrix}[particle]
    p = np.asarray(p, dtype=float)
    d_evol = coeff_derivative(lambda q: free_propagator(ham(q, m), energy(q, m), t),
                              p, component)
    return scipy.linalg.expm(1j * t * ham(p, m)) @ (1j * d_evol)


@pytest.fixture(scope="session")
def heisenberg_oracle():
    return heisenberg_numeric


@pytest.fixture(scope="session")
def heisenberg_position_oracle():
    return heisenberg_position_numeric
