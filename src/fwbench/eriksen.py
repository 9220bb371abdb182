"""Exact and approximate block-diagonalizing transformations at matrix level.

The exact unitary for a Hermitian Hamiltonian H with no zero modes is

    U = (1 + beta lambda) / sqrt(2 + beta lambda + lambda beta),
    lambda = H (H^2)^(-1/2),

with the convention that the square root of the identity is the identity.
It block-diagonalizes H with respect to beta exactly, sending the whole
positive spectrum to the upper block.  The approximate relativistic
transformation and Hamiltonian are

    U = (1 + sqrt(1+X^2) + beta X) / sqrt(2 sqrt(1+X^2) (1 + sqrt(1+X^2))),
    X = {1/(2M), O},
    H_approx = beta eps + E
               + (1/4) { 1/(2 eps^2 + {eps, M}),
                         beta [O,[O,M]] - [O,[O,F]] },
    eps = sqrt(M^2 + O^2),

which coincides with the exact result whenever [E, O] = 0.  The operator F
defaults to E; it enters only through the double commutator and is exposed
for callers that need a different even operator there.

discretize_dirac_1d builds the 1D Dirac Hamiltonian with a static
electrostatic potential on a periodic grid, ordered so beta is literally
diag(I, -I) and "block-diagonal" means vanishing off-diagonal quadrants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .dirac import GAMMA
from .grids import Grid1D
from .linalg import (
    LinalgError,
    _hermitian_fn,
    anticommutator,
    as_matrix,
    commutator,
    frob,
    is_hermitian,
    mat_inv_sqrt_psd,
)

ZERO_MODE_RTOL = 1e-8


@dataclass
class BlockedHamiltonian:
    """Hermitian Hamiltonian with a fixed involution beta = diag(I, -I).

    M is the even mass-like operator of the splitting
    H = beta M + E + O,  E = (H + beta H beta)/2 - beta M,
    O = (H - beta H beta)/2.
    """

    H: np.ndarray
    beta: np.ndarray
    M: np.ndarray

    def __post_init__(self):
        self.H = as_matrix(self.H)
        self.beta = as_matrix(self.beta)
        self.M = as_matrix(self.M)
        n = self.H.shape[0]
        if n % 2:
            raise LinalgError("blocked Hamiltonian needs even dimension")
        if not is_hermitian(self.H):
            raise LinalgError("Hamiltonian must be Hermitian")
        if frob(self.beta @ self.beta - np.eye(n)) > 1e-12 * n:
            raise LinalgError("beta must square to the identity")
        if frob(commutator(self.beta, self.M)) > 1e-12 * max(frob(self.M), 1.0):
            raise LinalgError("M must be even (commute with beta)")

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    @property
    def n_upper(self) -> int:
        return self.dim // 2

    def odd_part(self) -> np.ndarray:
        return 0.5 * (self.H - self.beta @ self.H @ self.beta)

    def even_part(self) -> np.ndarray:
        """E in the splitting H = beta M + E + O."""
        return 0.5 * (self.H + self.beta @ self.H @ self.beta) - self.beta @ self.M


def offblock_norm(A: np.ndarray, n_upper: int) -> float:
    """Frobenius norm of the two off-diagonal quadrants."""
    return float(np.sqrt(frob(A[:n_upper, n_upper:]) ** 2
                         + frob(A[n_upper:, :n_upper]) ** 2))


def _nonzero_eigenvalues(w: np.ndarray, rtol: float, message: str) -> np.ndarray:
    """w itself, or LinalgError(message) if an eigenvalue is within rtol of zero."""
    if np.abs(w).min() <= rtol * max(np.abs(w).max(), 1e-300):
        raise LinalgError(message)
    return w


def sign_function(H: np.ndarray, rtol: float = ZERO_MODE_RTOL) -> np.ndarray:
    """lambda = H (H^2)^(-1/2) via the Hermitian eigendecomposition."""
    H = as_matrix(H)
    if not is_hermitian(H):
        raise LinalgError("sign function requires a Hermitian matrix")
    message = f"eigenvalue within {rtol:.0e} of zero: sign function undefined"
    return _hermitian_fn(H, lambda w: np.sign(_nonzero_eigenvalues(w, rtol, message)))


def eriksen_unitary(bh: BlockedHamiltonian) -> np.ndarray:
    """Exact block-diagonalizing unitary (1+beta lambda)(2+beta lambda+lambda beta)^(-1/2)."""
    lam = sign_function(bh.H)
    bl = bh.beta @ lam
    g = 2.0 * np.eye(bh.dim) + bl + bl.conj().T
    return (np.eye(bh.dim) + bl) @ mat_inv_sqrt_psd(g)


def eriksen_conditions(U: np.ndarray, bh: BlockedHamiltonian) -> dict:
    """Residuals of the defining properties of the exact transformation."""
    lam = sign_function(bh.H)
    bl = bh.beta @ lam
    lb = lam @ bh.beta
    h_fw = U @ bh.H @ U.conj().T
    return {
        "unitarity": frob(U @ U.conj().T - np.eye(bh.dim)),
        "odd_exponent": frob(bh.beta @ U - U.conj().T @ bh.beta),
        "lambda_squared": frob(lam @ lam - np.eye(bh.dim)),
        "bl_lb_commute": frob(commutator(bl, lb)),
        "beta_anticomm_combo": frob(commutator(bh.beta, bl + lb)),
        "offblock": offblock_norm(h_fw, bh.n_upper),
    }


def approx_fw(bh: BlockedHamiltonian,
              F: Optional[np.ndarray] = None) -> tuple:
    """Approximate relativistic transformation and Hamiltonian (U, H_approx)."""
    M, O, E = bh.M, bh.odd_part(), bh.even_part()
    beta = bh.beta
    eye = np.eye(bh.dim)
    if F is None:
        F = E

    m_inv = _hermitian_fn(M, lambda w: 1.0 / _nonzero_eigenvalues(
        w, 1e-12, "mass operator M is not invertible"))
    X = 0.5 * anticommutator(m_inv, O)
    S = _hermitian_fn(X @ X, lambda w: np.sqrt(1.0 + np.clip(w, 0.0, None)))
    U = (eye + S + beta @ X) @ mat_inv_sqrt_psd(2 * S @ (eye + S))

    eps_sq = M @ M + O @ O
    eps = _hermitian_fn(eps_sq, lambda w: np.sqrt(np.clip(w, 0.0, None)))
    denom = 2 * eps_sq + anticommutator(eps, M)
    denom_inv = _hermitian_fn(denom, lambda w: 1.0 / _nonzero_eigenvalues(
        w, 1e-12, "kinetic denominator is singular"))
    core = beta @ commutator(O, commutator(O, M)) - commutator(O, commutator(O, F))
    h_approx = beta @ eps + E + 0.25 * anticommutator(denom_inv, core)
    return U, h_approx


def spectral_momentum(grid: Grid1D) -> np.ndarray:
    """Dense n x n momentum operator -i d/dx in the periodic spectral basis."""
    f = np.fft.fft(np.eye(grid.n), axis=0)
    P = np.fft.ifft(grid.p_fft[:, None] * f, axis=0)
    return 0.5 * (P + P.conj().T)


def discretize_dirac_1d(grid: Grid1D, m: float,
                        V: Callable[[np.ndarray], np.ndarray]) -> BlockedHamiltonian:
    """4n x 4n Dirac Hamiltonian beta m + V(x) + alpha_1 p on a periodic box.

    Basis ordering is component-major (both upper-spinor components first),
    so beta = diag(I_{2n}, -I_{2n}).
    """
    if m < 0:
        raise ValueError(f"mass must be non-negative, got {m}")
    n = grid.n
    v_vals = np.asarray(V(grid.x), dtype=float)
    if v_vals.shape != (n,):
        v_vals = np.array([float(V(xj)) for xj in grid.x])
    if not np.all(np.isfinite(v_vals)):
        raise ValueError("potential must be bounded on the box")
    P = spectral_momentum(grid)
    eye_n = np.eye(n)
    H = (m * np.kron(GAMMA.beta, eye_n)
         + np.kron(np.eye(4), np.diag(v_vals))
         + np.kron(GAMMA.alpha[0], P))
    beta_big = np.kron(GAMMA.beta, eye_n)
    return BlockedHamiltonian(H=H, beta=beta_big, M=m * np.eye(4 * n))


def free_spectrum_1d(grid: Grid1D, m: float) -> np.ndarray:
    """Sorted exact spectrum of the free discretized Hamiltonian."""
    eps = np.sqrt(m * m + grid.p_fft**2)
    return np.sort(np.concatenate([eps, eps, -eps, -eps]))


def upper_block_spectrum(h_fw: np.ndarray, n_upper: int) -> np.ndarray:
    return np.sort(np.linalg.eigvalsh(h_fw[:n_upper, :n_upper]))


@dataclass
class ScalingStudy:
    """Approximate-vs-exact comparison over a ladder of potential strengths.

    even_block_diff is measured spectrally (largest gap between the sorted
    upper-block eigenvalues and the exact positive spectrum): the spectrum
    is the block-basis-invariant content of the even block, and it is what
    converges quadratically in the potential strength.  Matrix elements of
    different block-diagonalizations differ already at first order by an
    even change of basis.
    """

    v0: np.ndarray
    even_block_diff: np.ndarray
    approx_offblock: np.ndarray
    exact_offblock: np.ndarray
    exponent: float = field(init=False)

    def __post_init__(self):
        slope = np.polyfit(np.log(self.v0), np.log(self.even_block_diff), 1)[0]
        self.exponent = float(slope)


def potential_scaling_study(grid: Grid1D, m: float, v0_list,
                            profile: Optional[Callable] = None) -> ScalingStudy:
    """Exact vs approximate transformed Hamiltonians for V = v0 * profile(x).

    The exact transform block-diagonalizes every H to machine precision;
    the approximate transform leaves an O(v0) off-block residual, and the
    upper-block spectra of the two transformed Hamiltonians differ at
    O(v0^2).  The exact reference spectrum comes straight from H itself
    (its positive eigenvalues), independent of the exact unitary.
    """
    if profile is None:
        width = grid.length / 8.0
        def profile(x):
            return np.exp(-x**2 / (2 * width**2))
    diffs, approx_off, exact_off = [], [], []
    for v0 in v0_list:
        bh = discretize_dirac_1d(grid, m, lambda x: v0 * profile(x))
        U = eriksen_unitary(bh)
        h_exact = U @ bh.H @ U.conj().T
        U_a, h_approx = approx_fw(bh)
        h_rot = U_a @ bh.H @ U_a.conj().T
        nu = bh.n_upper
        exact_positive = np.sort(np.linalg.eigvalsh(bh.H))[nu:]
        approx_upper = upper_block_spectrum(h_approx, nu)
        diffs.append(float(np.max(np.abs(approx_upper - exact_positive))))
        approx_off.append(offblock_norm(h_rot, nu))
        exact_off.append(offblock_norm(h_exact, nu))
    return ScalingStudy(np.asarray(v0_list, dtype=float), np.asarray(diffs),
                        np.asarray(approx_off), np.asarray(exact_off))
