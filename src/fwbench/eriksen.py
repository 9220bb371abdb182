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
                         beta [O,[O,M]] - [O,[O,E]] },
    eps = sqrt(M^2 + O^2),

which coincides with the exact result whenever [E, O] = 0.

Here beta = diag(I, -I) and M = m I, and the code uses both as structure
rather than as dense matrices.  beta A flips the sign of A's lower rows; the
odd part O = [[0, B], [C, 0]] is H's off-diagonal quadrants (C = B^dag);
[O, M] = 0, so X = O/m and the beta [O,[O,M]] term vanishes.  A product of
two odd matrices is even, so O^2 = diag(B C, C B): S = sqrt(1+X^2), the
normalization, eps and the kinetic denominator are functions of the
half-size eigendecompositions of B C and C B (one, when B = C), and the
double commutator is formed block by block.  g = 2 + beta lambda +
lambda beta is even for any lambda, because its off-diagonal quadrants are
lambda_12 - lambda_12 = 0, so g^(-1/2) is two half-size inverse square
roots.  The one full-size decomposition per
Hamiltonian is eigh(H), which gives both lambda and the exact spectrum.

discretize_dirac_1d builds the 1D Dirac Hamiltonian with a static
electrostatic potential on a periodic grid.  With the momentum along x only
beta and alpha_1 appear, and alpha_1 couples spinor components 1 and 4, and
2 and 3, with the same operator.  In the component order (1, 4 | 2, 3) the
4n x 4n Hamiltonian is therefore diag(h, h) for one two-component 2n x 2n block
h = [[m + V, P], [P, V - m]], and the grid Hamiltonian is that block, ordered
so beta is literally diag(I_n, -I_n) and "block-diagonal" means vanishing
off-diagonal quadrants.  four_component_norm turns a Frobenius norm over the
block into the norm over the 4n operator.

What is factored per grid and what per potential: a potential enters only
E, so every Hamiltonian on one grid has the same odd part
O = [[0, P], [P, 0]], with P = spectral_momentum(grid).  The scaling study
builds P once, and factor_odd_part factors O^2 once per grid and mass.
Since B = C = P, the two diagonal blocks of O^2 are one matrix P^2, so that
is one half-size eigendecomposition, and from it factor_odd_part forms the
four half-size operators that depend only on O and m: the diagonal and
off-diagonal blocks of the approximate unitary, eps and the inverse kinetic
denominator.  The study hands that FactoredOddPart to approx_fw for every
potential, which then forms only what depends on E: K, L, the double
commutator and the even blocks of H_approx.  approx_fw(bh) on its own
factors bh's odd part, with two eigendecompositions when B != C.
sign_function, eriksen_unitary and every check stay per Hamiltonian;
Hermiticity is checked once, when the BlockedHamiltonian is made.  Because
H is Hermitian, so is U H U^dag for any U, and its off-diagonal norm is
sqrt(2) times the norm of the upper quadrant alone; and because
[beta lambda, lambda beta] = beta lambda^2 beta - lambda^2, the commutator
check reads the off-diagonal quadrants of the lambda^2 that the
lambda^2 = 1 check forms anyway.

Working set: each Hamiltonian is built, checked and transformed with a
handful of full-size matrices alive at once.  discretize_dirac_1d writes H
quadrant by quadrant, approx_fw reads E from H's diagonal quadrants,
eriksen_unitary forms 1 + beta lambda one column block at a time,
eriksen_conditions forms and reduces one condition at a time, subtracting
the identity in place, and the scaling study releases each Hamiltonian's
matrices before it builds the next.  Across the study's Hamiltonians only
P (a quarter of a full-size matrix) and the factored odd part (four
half-size matrices, one full-size matrix in all) stay alive; the
approximate unitary is copied out of the factored blocks per potential
rather than kept whole, and a Hamiltonian built on its own builds and
releases its own P.  A full-size matrix is 1 MiB at n = 128 and 4 MiB at
n = 256, so peak memory is set by how many are alive at once, not by the
O(n^3) products.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .dirac import check_mass
from .grids import Grid1D
from .linalg import (
    LinalgError,
    as_matrix,
    frob,
    is_hermitian,
    mat_inv_sqrt_psd,
)

ZERO_MODE_RTOL = 1e-8


@dataclass(frozen=True)
class BlockedHamiltonian:
    """Hermitian Hamiltonian split against beta = diag(I, -I) with M = m I:

    H = beta m + E + O,  E = (H + beta H beta)/2 - beta m,
    O = (H - beta H beta)/2.

    The constructor checks that H is finite and Hermitian, once; the kernels
    that take a BlockedHamiltonian rely on that check.
    """

    H: np.ndarray
    m: float

    def __post_init__(self):
        H, m = as_matrix(self.H), float(self.m)
        if not (np.isfinite(m) and m >= 0.0):
            raise LinalgError(f"mass must be finite and non-negative, got {m}")
        if H.shape[0] % 2:
            raise LinalgError("blocked Hamiltonian needs even dimension")
        if not is_hermitian(H):
            raise LinalgError("Hamiltonian must be Hermitian")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "m", m)

    @property
    def dim(self) -> int:
        return self.H.shape[0]

    @property
    def n_upper(self) -> int:
        return self.dim // 2


def _beta_times(A: np.ndarray, n_upper: int) -> np.ndarray:
    """beta A: A with its lower rows negated."""
    out = A.copy()
    out[n_upper:] *= -1
    return out


def _conjugated_offblock_norm(U: np.ndarray, H: np.ndarray, n_upper: int) -> float:
    """Frobenius norm of the two off-diagonal quadrants of U H U^dag for a
    Hermitian H, forming only the upper one, (U[:h] H) U[h:]^dag with
    h = n_upper: U H U^dag is Hermitian, so the lower quadrant is the
    adjoint of the upper one and has the same norm."""
    return float(np.sqrt(2.0) * frob((U[:n_upper] @ H) @ U[n_upper:].conj().T))


def _reject_zero_eigenvalues(w: np.ndarray, rtol: float, message: str) -> None:
    """LinalgError(message) if an eigenvalue in w is within rtol of zero."""
    if np.abs(w).min() <= rtol * max(np.abs(w).max(), 1e-300):
        raise LinalgError(message)


def sign_function(H, rtol: float = ZERO_MODE_RTOL) -> tuple:
    """lambda = H (H^2)^(-1/2) via the Hermitian eigendecomposition.

    H is a matrix, checked here to be finite and Hermitian, or a
    BlockedHamiltonian, whose constructor has checked its H.  Returns
    (lambda, w) with w the ascending eigenvalues of H, so a caller that also
    needs the spectrum does not decompose H a second time.
    """
    if isinstance(H, BlockedHamiltonian):
        H = H.H
    else:
        H = as_matrix(H)
        if not is_hermitian(H):
            raise LinalgError("sign function requires a Hermitian matrix")
    w, v = np.linalg.eigh(H)
    _reject_zero_eigenvalues(w, rtol, f"eigenvalue within {rtol:.0e} of zero: "
                                      "sign function undefined")
    vh = v.conj().T
    v *= np.sign(w)
    return v @ vh, w


def eriksen_unitary(bh: BlockedHamiltonian, lam: Optional[np.ndarray] = None) -> tuple:
    """Exact block-diagonalizing unitary (1+beta lambda)(2+beta lambda+lambda beta)^(-1/2).

    Returns (U, lambda), with lambda = sign(H) the sign function it is built
    from; a caller that holds sign_function(bh.H) already passes it as lam.
    g = 2 + beta lambda + lambda beta = diag(2 + l11 + l11^dag, 2 - l22 - l22^dag),
    so g^(-1/2) scales the left and right column blocks of 1 + beta lambda.
    """
    if lam is None:
        lam = sign_function(bh)[0]
    h = bh.n_upper
    eye = np.eye(h)
    g = (2.0 * eye + lam[:h, :h] + lam[:h, :h].conj().T,
         2.0 * eye - lam[h:, h:] - lam[h:, h:].conj().T)
    U = np.empty_like(lam)
    for k in (0, 1):
        cols = slice(k * h, (k + 1) * h)
        # column block k of 1 + beta lambda
        left = _beta_times(lam[:, cols], h) + np.eye(bh.dim, h, -k * h)
        U[:, cols] = left @ mat_inv_sqrt_psd(g[k])
    return U, lam


def _minus_identity(a: np.ndarray) -> np.ndarray:
    """a - I, in place."""
    a[np.diag_indices_from(a)] -= 1.0
    return a


def eriksen_conditions(U: np.ndarray, lam: np.ndarray, bh: BlockedHamiltonian) -> dict:
    """Residuals of the defining properties of the exact transformation U
    built from the sign function lam of bh.H, each formed and reduced before
    the next."""
    h = bh.n_upper
    conds = {"unitarity": frob(_minus_identity(U @ U.conj().T))}
    odd = _beta_times(U, h)
    odd -= odd.conj().T                                   # beta U - U^dag beta
    conds["odd_exponent"] = frob(odd)
    del odd
    sq = lam @ lam
    conds["lambda_squared"] = frob(_minus_identity(sq))
    # [beta lam, lam beta] = beta lam^2 beta - lam^2 is -2 times the
    # off-diagonal quadrants of lam^2, which subtracting I leaves alone
    conds["bl_lb_commute"] = 2.0 * float(np.hypot(frob(sq[:h, h:]), frob(sq[h:, :h])))
    del sq
    conds["offblock"] = _conjugated_offblock_norm(U, bh.H, h)
    return conds


@dataclass(frozen=True)
class FactoredOddPart:
    """The odd part O = [[0, B], [C, 0]] and mass m with everything in the
    approximate transform that does not depend on the even part E.  All
    Hamiltonians on one grid with one mass share it, since the potential
    enters only E.  blocks[k] = (u_diag, u_off, eps, d_inv) for diagonal
    block k, each a half-size function of that block of O^2 = diag(B C, C B):
    the diagonal block (1 + S) N of the unitary's column block k, with
    S = sqrt(1 + X^2) and N = (2 S (1 + S))^(-1/2); its off-diagonal block
    up to beta's sign, (C/m) N for k = 0 (the unitary holds -(C/m) N) and
    (B/m) N for k = 1; eps = sqrt(m^2 + O^2); and the inverse kinetic
    denominator 1/(2 eps^2 + 2 m eps).  When B == C the two blocks are one
    and the same tuple."""

    B: np.ndarray
    C: np.ndarray
    m: float
    blocks: tuple

    def matches(self, bh: BlockedHamiltonian) -> bool:
        """Whether bh has exactly this odd part and mass."""
        h = bh.n_upper
        return (bh.m == self.m and np.array_equal(bh.H[:h, h:], self.B)
                and np.array_equal(bh.H[h:, :h], self.C))


def factor_odd_part(B: np.ndarray, C: np.ndarray, m: float) -> FactoredOddPart:
    """Factor O^2 = diag(B C, C B) for the odd part O = [[0, B], [C, 0]] and
    form the operators that depend only on O and m.  When B == C, as for
    every grid Hamiltonian, C B is B C bit for bit, so it is decomposed once
    and its operators serve both diagonal blocks."""
    if m == 0.0:
        raise LinalgError("mass operator M = m I is not invertible")
    # distinct diagonal blocks of O^2, each with the quadrant of O that
    # multiplies its column block of the unitary off the diagonal
    distinct = [(B @ C, C)] if np.array_equal(B, C) else [(B @ C, C), (C @ B, B)]
    decomps = [np.linalg.eigh(q) for q, _ in distinct]
    # eps^2 = m^2 + O^2 and X^2 = O^2 / m^2
    w_sq = [np.clip(w, 0.0, None) for w, _ in decomps]
    eps = [np.sqrt(m * m + w) for w in w_sq]
    denom = [2.0 * e * e + 2.0 * m * e for e in eps]
    _reject_zero_eigenvalues(np.concatenate(denom), 1e-12, "kinetic denominator is singular")
    blocks = []
    for (_, v), (_, off), w, e, d in zip(decomps, distinct, w_sq, eps, denom):
        vh = v.conj().T

        def fn(f):
            return (v * f) @ vh
        s = np.sqrt(1.0 + w / (m * m))
        blocks.append((fn(np.sqrt((1.0 + s) / (2.0 * s))),
                       ((1.0 / m) * off) @ fn(1.0 / np.sqrt(2.0 * s * (1.0 + s))),
                       fn(e), fn(1.0 / d)))
    return FactoredOddPart(B, C, m, (blocks[0], blocks[-1]))


def approx_fw(bh: BlockedHamiltonian, odd: Optional[FactoredOddPart] = None) -> tuple:
    """Approximate relativistic transformation and Hamiltonian (U, H_approx).

    odd is factor_odd_part of bh's odd part and mass; a caller that
    transforms several Hamiltonians with the same odd part passes it, and
    one that does not match bh is rejected.
    """
    m, h, H = bh.m, bh.n_upper, bh.H
    rows = (slice(0, h), slice(h, bh.dim))
    B, C = H[rows[0], rows[1]], H[rows[1], rows[0]]          # O = [[0, B], [C, 0]]
    if odd is None:
        odd = factor_odd_part(B, C, m)
    elif not odd.matches(bh):
        raise LinalgError("odd-part factorization does not match the Hamiltonian's "
                          "odd part and mass")
    # E = diag(E1, E2), read from H's diagonal quadrants
    E1, E2 = H[:h, :h] - m * np.eye(h), H[h:, h:] + m * np.eye(h)
    # [O, E] = [[0, K], [L, 0]], so [O, [O, E]] = diag(B L - K C, C K - L B)
    K = B @ E2 - E1 @ B
    L = C @ E1 - E2 @ C
    double_comm = (B @ L - K @ C, C @ K - L @ B)

    # Column block k of U = (1 + S + beta X) N is (1 + S_k) N_k on the
    # diagonal and (beta X) N_k = -sign_k O N_k / m off it; H_approx =
    # beta eps + E - (1/4) {D^-1, [O,[O,E]]} is even.
    U = np.empty_like(H)
    h_approx = np.zeros_like(H)
    for k, sign in ((0, 1.0), (1, -1.0)):
        u_diag, u_off, eps, d_inv = odd.blocks[k]
        here, other = rows[k], rows[1 - k]
        U[here, here] = u_diag
        U[other, here] = -sign * u_off
        dc = double_comm[k]
        h_approx[here, here] = (sign * eps + (E1, E2)[k]
                                - 0.25 * (d_inv @ dc + dc @ d_inv))
    return U, h_approx


def spectral_momentum(grid: Grid1D) -> np.ndarray:
    """Dense n x n momentum operator -i d/dx in the periodic spectral basis."""
    f = np.fft.fft(np.eye(grid.n), axis=0)
    P = np.fft.ifft(grid.p_fft[:, None] * f, axis=0)
    return 0.5 * (P + P.conj().T)


def discretize_dirac_1d(grid: Grid1D, m: float,
                        V: Callable[[np.ndarray], np.ndarray],
                        P: Optional[np.ndarray] = None) -> BlockedHamiltonian:
    """2n x 2n spin block m sigma_z + V(x) + sigma_x p of the 1D Dirac
    Hamiltonian beta m + V(x) + alpha_1 p on a periodic box.

    Basis ordering is component-major (upper component first), so
    beta = diag(I_n, -I_n).  In spinor component order (1, 4 | 2, 3) the
    4n x 4n Hamiltonian is two copies of this block.  P is
    spectral_momentum(grid), built here unless a caller that builds several
    Hamiltonians on the grid passes it.
    """
    check_mass(m)
    n = grid.n
    v_vals = np.asarray(V(grid.x), dtype=float)
    if v_vals.shape != (n,):
        v_vals = np.array([float(V(xj)) for xj in grid.x])
    if not np.all(np.isfinite(v_vals)):
        raise ValueError("potential must be bounded on the box")
    H = np.zeros((2 * n, 2 * n), dtype=complex)
    H[:n, n:] = H[n:, :n] = spectral_momentum(grid) if P is None else P
    diag = np.arange(n)
    H[diag, diag] = m + v_vals
    H[n + diag, n + diag] = v_vals - m
    return BlockedHamiltonian(H=H, m=m)


def four_component_norm(block_norm):
    """Frobenius norm over the 4n x 4n Dirac operator of a quantity whose norm
    over the 2n x 2n spin block is block_norm.

    The permutation to component order (1, 4 | 2, 3) takes the 4n Hamiltonian
    to diag(h, h), and so every matrix built from it to diag(A, A), and
    ||diag(A, A)||_F = sqrt(||A||_F^2 + ||A||_F^2) = sqrt(2) ||A||_F.
    """
    return np.sqrt(2.0) * block_norm


def free_spectrum_1d(grid: Grid1D, m: float) -> np.ndarray:
    """Sorted exact spectrum of the free discretized spin block."""
    eps = np.sqrt(m * m + grid.p_fft**2)
    return np.sort(np.concatenate([eps, -eps]))


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
        self.v0 = check_strengths(self.v0)
        slope = np.polyfit(np.log(self.v0), np.log(self.even_block_diff), 1)[0]
        self.exponent = float(slope)


def check_strengths(v0_list) -> np.ndarray:
    """The potential strengths as an array, or ValueError unless they are
    finite, positive and hold at least two distinct values (the scaling
    exponent is a slope in log v0)."""
    v0 = np.asarray(v0_list, dtype=float).ravel()
    if not (np.all(np.isfinite(v0)) and np.all(v0 > 0.0)):
        raise ValueError(f"potential strengths must be finite and positive, got {v0.tolist()}")
    if np.unique(v0).size < 2:
        raise ValueError("a scaling exponent needs at least two distinct potential "
                         f"strengths, got {v0.tolist()}")
    return v0


def potential_scaling_study(grid: Grid1D, m: float, v0_list,
                            profile: Optional[Callable] = None) -> ScalingStudy:
    """Exact vs approximate transformed Hamiltonians for V = v0 * profile(x).

    The exact transform block-diagonalizes every H to machine precision;
    the approximate transform leaves an O(v0) off-block residual, and the
    upper-block spectra of the two transformed Hamiltonians differ at
    O(v0^2).  The exact reference spectrum comes straight from H itself
    (the positive eigenvalues of the decomposition that gives lambda),
    independent of the exact unitary.  The off-block norms are over the
    spin block; four_component_norm gives them over the 4n operator.  Every
    H has the odd part [[0, P], [P, 0]] of the grid's momentum operator P,
    so O^2 is factored once for the whole ladder.
    """
    v0_arr = check_strengths(v0_list)
    check_mass(m)
    if profile is None:
        width = grid.length / 8.0
        def profile(x):
            return np.exp(-0.5 * (x / width) ** 2)
    P = spectral_momentum(grid)
    odd = factor_odd_part(P, P, m)
    points = np.array([_study_point(grid, m, lambda x: v0 * profile(x), odd)
                       for v0 in v0_arr])
    return ScalingStudy(v0_arr, *points.T)


def _study_point(grid: Grid1D, m: float, V: Callable, odd: FactoredOddPart) -> tuple:
    """(even_block_diff, approx_offblock, exact_offblock) for one potential.
    lambda is released before the approximate transform is built, and every
    matrix but the shared odd-part factorization on return, before the next
    Hamiltonian is built."""
    bh = discretize_dirac_1d(grid, m, V, odd.B)          # odd.B is the grid's P
    nu = bh.n_upper
    lam, w = sign_function(bh)
    exact_off = _conjugated_offblock_norm(eriksen_unitary(bh, lam)[0], bh.H, nu)
    del lam
    U_a, h_approx = approx_fw(bh, odd)
    diff = float(np.max(np.abs(upper_block_spectrum(h_approx, nu) - w[nu:])))
    return diff, _conjugated_offblock_norm(U_a, bh.H, nu), exact_off
