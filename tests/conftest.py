"""Shared test oracles that do not go through the code they check."""

import numpy as np
import pytest

from fwbench.algebra import ClassicalState, classical_observables, poisson_bracket
from fwbench.phase_ops import cross_c, p_dot


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
