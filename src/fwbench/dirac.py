"""Standard-representation Dirac matrices and free-particle kinematics.

Conventions (natural units, hbar = c = 1):
    beta  = diag(I2, -I2)
    alpha_k = offdiag(sigma_k, sigma_k)
    gamma_k = beta alpha_k
    Sigma_k = diag(sigma_k, sigma_k)
    Pi_k    = beta Sigma_k
    rho_k   = 2x2 Pauli set acting on two-component scalar-sector states.

All entries are exact elements of {0, +-1, +-i}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


def _block(a, b, c, d):
    return np.block([[a, b], [c, d]])


@dataclass(frozen=True)
class GammaSet:
    beta: np.ndarray
    alpha: tuple
    gamma: tuple
    Sigma: tuple
    Pi: tuple
    rho: tuple

    def __post_init__(self):
        for m in (self.beta, *self.alpha, *self.gamma, *self.Sigma, *self.Pi):
            m.setflags(write=False)
        for m in self.rho:
            m.setflags(write=False)


def build_gamma_set() -> GammaSet:
    """Construct the fixed standard-representation matrix set."""
    z = np.zeros((2, 2), dtype=complex)
    beta = _block(I2, z, z, -I2)
    alpha = tuple(_block(z, s, s, z) for s in PAULI)
    gamma = tuple(beta @ a for a in alpha)
    sigma_big = tuple(_block(s, z, z, s) for s in PAULI)
    pi = tuple(beta @ s for s in sigma_big)
    return GammaSet(beta=beta, alpha=alpha, gamma=gamma, Sigma=sigma_big, Pi=pi, rho=PAULI)


GAMMA = build_gamma_set()


def check_mass(m: float) -> float:
    """m, or ValueError unless it is finite and non-negative."""
    if not 0 <= m < np.inf:
        raise ValueError(f"mass must be finite and non-negative, got {m}")
    return m


def check_positive_mass(m: float) -> float:
    """m, or ValueError unless it is positive and finite.  The eriksen and
    packet grids hold p = 0, where the massless Hamiltonian has a zero mode:
    the sign function is undefined there, and the free unitary depends on
    the direction of p and so has no value.  The precession frequencies
    divide by m."""
    if not 0 < m < np.inf:
        raise ValueError(f"mass must be positive and finite, got {m}")
    return m


def energy(p, m: float) -> float:
    """Relativistic energy sqrt(m^2 + |p|^2) of a free particle."""
    check_mass(m)
    p = np.asarray(p, dtype=float)
    return float(np.sqrt(m * m + p @ p))


# alpha_k and gamma_k as rows of a (3, 16) matrix, so that p @ M sums the
# three products for a single momentum or a stack of them in one call
_ALPHA_ROWS = np.stack(GAMMA.alpha).reshape(3, 16)
_GAMMA_ROWS = np.stack(GAMMA.gamma).reshape(3, 16)
_RHO2, _RHO3 = PAULI[1], PAULI[2]


def dirac_hamiltonian(p, m: float) -> np.ndarray:
    """H = beta m + alpha . p at momenta of shape (..., 3), shape (..., 4, 4)."""
    p = np.asarray(p, dtype=float)
    return m * GAMMA.beta + (p @ _ALPHA_ROWS).reshape(p.shape[:-1] + (4, 4))


def _p_squared(p: np.ndarray) -> np.ndarray:
    """|p|^2 at momenta (..., 3) as shape (..., 1, 1); bit-identical to p @ p."""
    return p[..., None, :] @ p[..., :, None]


def stacked_energy(p, m: float) -> np.ndarray:
    """sqrt(m^2 + |p|^2) at momenta of shape (..., 3), as shape (..., 1, 1),
    so that it scales a stack of matrices point by point."""
    check_mass(m)
    return np.sqrt(m * m + _p_squared(np.asarray(p, dtype=float)))


def fw_hamiltonian(p, m: float) -> np.ndarray:
    """Block-diagonal free Hamiltonian beta sqrt(m^2 + p^2) at momenta (..., 3)."""
    return stacked_energy(p, m) * GAMMA.beta


def fv_hamiltonian_matrix(p, m: float) -> np.ndarray:
    """Two-component scalar-sector Hamiltonian rho_3 m + (rho_3 + i rho_2) p^2/(2m)
    at momenta (..., 3)."""
    if m <= 0:
        raise ValueError("two-component scalar-sector form requires m > 0")
    p = np.asarray(p, dtype=float)
    return _RHO3 * m + (_RHO3 + 1j * _RHO2) * _p_squared(p) / (2 * m)


def fv_velocity_matrix(p, m: float, component: int) -> np.ndarray:
    """Scalar-sector velocity (rho_3 + i rho_2) p_k / m at momenta (..., 3)."""
    if m <= 0:
        raise ValueError("two-component scalar-sector form requires m > 0")
    p = np.asarray(p, dtype=float)
    return (_RHO3 + 1j * _RHO2) * p[..., component, None, None] / m


def fw_unitary_matrix(p, m: float, inverse: bool = False) -> np.ndarray:
    """Free block-diagonalizing unitary (eps + m + gamma.p)/sqrt(2 eps (eps+m)).

    p has shape (..., 3) and the result shape (..., 4, 4); inverse=True flips
    the sign of gamma.p, which gives U^-1.
    """
    p = np.asarray(p, dtype=float)
    e = stacked_energy(p, m)
    gamma_p = (p @ _GAMMA_ROWS).reshape(p.shape[:-1] + (4, 4))
    num = (e + m) * I4 + (-1.0 if inverse else 1.0) * gamma_p
    return num / np.sqrt(2 * e * (e + m))


def free_propagator(H: np.ndarray, eps, t: float) -> np.ndarray:
    """exp(-iHt) = cos(eps t) - i sin(eps t) H / eps for H^2 = eps^2.

    H has shape (..., d, d).  eps broadcasts against H: a scalar for one
    matrix, shape (..., 1, 1) for a stack.
    """
    return np.cos(eps * t) * np.eye(H.shape[-1]) - 1j * np.sin(eps * t) * H / eps
