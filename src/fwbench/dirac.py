"""Standard-representation Dirac matrices and free-particle kinematics.

Conventions (natural units, hbar = c = 1), each matrix defined once here as
a read-only Kronecker product of the Pauli matrices sigma_k:

    PAULI  (3, 2, 2)  sigma_k; also rho_k, acting on two-component
                      scalar-sector states
    BETA   (4, 4)     sigma_3 (x) I2 = diag(I2, -I2)
    ALPHA  (3, 4, 4)  sigma_1 (x) sigma_k = offdiag(sigma_k, sigma_k)
    SIGMA  (3, 4, 4)  I2 (x) sigma_k = diag(sigma_k, sigma_k)
    GAMMA  (3, 4, 4)  gamma_k = BETA @ ALPHA[k] = offdiag(sigma_k, -sigma_k)

The stacks index their first axis by k = 0, 1, 2, and all entries are
exact elements of {0, +-1, +-i}.

The free-particle closed forms live here once each: the energy
eps = sqrt(m^2 + |p|^2) (energy, for one momentum, a stack of them, or the
1-D grid momenta of the eriksen odd block), the Dirac matrix
beta m + alpha . p, the block-diagonalizing unitary, and exp(-iHt) for
H^2 = eps^2.  The Hamiltonians the program evolves under, and their
velocities, are rows of the phase_ops catalogue: DIRAC_HAMILTONIAN (this
Dirac matrix, with gradient alpha_k), FV_HAMILTONIAN for the two-component
scalar sector and FW_HAMILTONIAN, beta eps, for the block-diagonal
(Foldy-Wouthuysen) representation.

The input rules live here once each, and both the library's constructors
and the CLI's argument types call them: check_finite, check_positive
(positive and finite), check_mass (finite and non-negative) and check_vec3
(3 finite numbers).  A rule's name argument only labels its message.
"""

from __future__ import annotations

import numpy as np

PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
BETA = np.kron(PAULI[2], I2)
ALPHA = np.kron(PAULI[0], PAULI)
SIGMA = np.kron(I2, PAULI)
GAMMA = BETA @ ALPHA
PAULI.flags.writeable = BETA.flags.writeable = ALPHA.flags.writeable = False
SIGMA.flags.writeable = GAMMA.flags.writeable = False


def check_finite(x: float, name: str) -> float:
    """x, or ValueError unless it is finite."""
    if not np.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x}")
    return x


def check_positive(x: float, name: str) -> float:
    """x, or ValueError unless it is positive and finite."""
    if not 0 < x < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {x}")
    return x


def check_mass(m: float) -> float:
    """m, or ValueError unless it is finite and non-negative."""
    if not 0 <= m < np.inf:
        raise ValueError(f"mass must be finite and non-negative, got {m}")
    return m


def check_vec3(v, name: str) -> np.ndarray:
    """v as a float array, or ValueError unless it holds 3 finite numbers."""
    a = np.asarray(v, dtype=float)
    if a.shape != (3,) or not np.all(np.isfinite(a)):
        raise ValueError(f"{name} must be 3 finite numbers, got {v}")
    return a


# alpha_k and gamma_k as rows of a (3, 16) matrix, so that p @ M sums the
# three products for a single momentum or a stack of them in one call
_ALPHA_ROWS = ALPHA.reshape(3, 16)
_GAMMA_ROWS = GAMMA.reshape(3, 16)


def dirac_hamiltonian(p, m: float) -> np.ndarray:
    """H = beta m + alpha . p at momenta of shape (..., 3), shape (..., 4, 4)."""
    p = np.asarray(p, dtype=float)
    return m * BETA + (p @ _ALPHA_ROWS).reshape(p.shape[:-1] + (4, 4))


def energy(p, m: float):
    """Relativistic energy sqrt(m^2 + |p|^2) of a free particle at momenta
    of shape (..., d), as shape (...): a number for one momentum.  Indexed
    [..., None, None], it scales a stack of matrices point by point.  |p|^2
    is a (1, d) @ (d, 1) product per momentum, bit-identical to p @ p."""
    check_mass(m)
    p = np.asarray(p, dtype=float)
    return np.sqrt(m * m + (p[..., None, :] @ p[..., :, None])[..., 0, 0])


def fw_weights(eps, m: float) -> tuple:
    """(u, 1/N, N^2) with u = (eps + m)/N and N^2 = 2 eps (eps + m): the free
    unitary is u + gamma.p / N, and N^2 is eriksen.approx_fw's kinetic denominator."""
    norm_sq = 2 * eps * (eps + m)
    inv_norm = 1.0 / np.sqrt(norm_sq)
    return (eps + m) * inv_norm, inv_norm, norm_sq


def fw_unitary_matrix(p, m: float, inverse: bool = False) -> np.ndarray:
    """Free block-diagonalizing unitary (eps + m + gamma.p)/sqrt(2 eps (eps+m)).

    p has shape (..., 3) and the result shape (..., 4, 4); inverse=True flips
    the sign of gamma.p, which gives U^-1.
    """
    p = np.asarray(p, dtype=float)
    u, inv_norm, _ = fw_weights(energy(p, m)[..., None, None], m)
    gamma_p = (p @ _GAMMA_ROWS).reshape(p.shape[:-1] + (4, 4))
    return u * I4 + (-inv_norm if inverse else inv_norm) * gamma_p


def free_phases(eps, t) -> tuple:
    """(cos(eps t), sin(eps t)), the two time series of exp(-iHt) for
    H^2 = eps^2: free_propagator sums them with the matrices I and -i H / eps,
    and zitter.record_evolution keeps them as columns of its closed form."""
    return np.cos(eps * t), np.sin(eps * t)


def free_propagator(H: np.ndarray, eps, t: float) -> np.ndarray:
    """exp(-iHt) = cos(eps t) - i sin(eps t) H / eps for H^2 = eps^2.

    H has shape (..., d, d).  eps broadcasts against H: a scalar for one
    matrix, shape (..., 1, 1) for a stack.
    """
    cos, sin = free_phases(eps, t)
    return cos * np.eye(H.shape[-1]) - 1j * sin * H / eps
