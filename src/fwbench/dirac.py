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

from dataclasses import dataclass, field

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


def energy(p, m: float) -> float:
    """Relativistic energy sqrt(m^2 + |p|^2) of a free particle."""
    if m < 0:
        raise ValueError(f"mass must be non-negative, got {m}")
    p = np.asarray(p, dtype=float)
    return float(np.sqrt(m * m + p @ p))


@dataclass(frozen=True)
class Kinematics:
    """Momentum, mass, and the derived on-shell energy."""

    p: np.ndarray
    m: float
    eps: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float).copy())
        self.p.setflags(write=False)
        object.__setattr__(self, "eps", energy(self.p, self.m))
        residual = abs(self.eps**2 - self.p @ self.p - self.m**2)
        if residual > 1e-12 * max(1.0, self.eps**2):
            raise ValueError(f"mass-shell violation: {residual:.3e}")


# alpha_k and gamma_k as rows of a (3, 16) matrix, so that p @ M sums the
# three products for a single momentum or a stack of them in one call
_ALPHA_ROWS = np.stack(GAMMA.alpha).reshape(3, 16)
_GAMMA_ROWS = np.stack(GAMMA.gamma).reshape(3, 16)
_RHO2, _RHO3 = PAULI[1], PAULI[2]


def dirac_hamiltonian(p, m: float) -> np.ndarray:
    """H = beta m + alpha . p at momenta of shape (..., 3), shape (..., 4, 4)."""
    p = np.asarray(p, dtype=float)
    return m * GAMMA.beta + (p @ _ALPHA_ROWS).reshape(p.shape[:-1] + (4, 4))


def fw_hamiltonian(p, m: float) -> np.ndarray:
    """Block-diagonal free Hamiltonian beta sqrt(m^2 + p^2)."""
    return energy(p, m) * GAMMA.beta


def fv_hamiltonian_matrix(p, m: float) -> np.ndarray:
    """Two-component scalar-sector Hamiltonian rho_3 m + (rho_3 + i rho_2) p^2/(2m)."""
    if m <= 0:
        raise ValueError("two-component scalar-sector form requires m > 0")
    p = np.asarray(p, dtype=float)
    return _RHO3 * m + (_RHO3 + 1j * _RHO2) * (p @ p) / (2 * m)


def fv_velocity_matrix(p, m: float, component: int) -> np.ndarray:
    """Scalar-sector velocity (rho_3 + i rho_2) p_k / m."""
    if m <= 0:
        raise ValueError("two-component scalar-sector form requires m > 0")
    p = np.asarray(p, dtype=float)
    return (_RHO3 + 1j * _RHO2) * p[component] / m


def fw_unitary_matrix(p, m: float, inverse: bool = False) -> np.ndarray:
    """Free block-diagonalizing unitary (eps + m + gamma.p)/sqrt(2 eps (eps+m)).

    p has shape (..., 3) and the result shape (..., 4, 4); inverse=True flips
    the sign of gamma.p, which gives U^-1.
    """
    p = np.asarray(p, dtype=float)
    e = np.sqrt(m * m + p[..., None, :] @ p[..., :, None])   # shape (..., 1, 1)
    gamma_p = (p @ _GAMMA_ROWS).reshape(p.shape[:-1] + (4, 4))
    num = (e + m) * I4 + (-1.0 if inverse else 1.0) * gamma_p
    return num / np.sqrt(2 * e * (e + m))


def free_propagator(H: np.ndarray, eps, t: float) -> np.ndarray:
    """exp(-iHt) = cos(eps t) - i sin(eps t) H / eps for H^2 = eps^2.

    H has shape (..., d, d).  eps broadcasts against H: a scalar for one
    matrix, shape (..., 1, 1) for a stack.
    """
    return np.cos(eps * t) * np.eye(H.shape[-1]) - 1j * np.sin(eps * t) * H / eps
