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
odd part is H's off-diagonal quadrants, O = [[0, P], [P, 0]] with one
Hermitian block P, as for every grid Hamiltonian and the 4x4 Dirac one
(P = sigma.p); [O, M] = 0, so X = O/m and the beta [O,[O,M]] term
vanishes.

The exact unitary straight from the eigenframe.  With w, v = eigh(H)
(ascending, h = dim/2 negative eigenvalues first), V- = v[:, :h] and
V+ = v[:, h:], lambda = V+ V+^dag - V- V-^dag and V+ V+^dag + V- V-^dag = 1.
The upper rows of 1 + beta lambda are those of 1 + lambda, 2 X1 V+^dag with
X1 = v[:h, h:]; its lower rows are those of 1 - lambda, 2 Y2 V-^dag with
Y2 = v[h:, :h].  X = beta lambda is unitary, so g = 2 + beta lambda +
lambda beta = 2 + X + X^dag commutes with X, U = g^(-1/2) (1 + beta lambda),
and g = (1 + X)(1 + X)^dag.  g is even (its off-diagonal quadrants are
lambda_12 - lambda_12 = 0), with diagonal blocks g_+ = 4 X1 X1^dag and
g_- = 4 Y2 Y2^dag, so

    U[:h] = (X1 X1^dag)^(-1/2) X1 V+^dag,
    U[h:] = (Y2 Y2^dag)^(-1/2) Y2 V-^dag:

two half-size inverse square roots, and no 2n x 2n lambda.  A spectrum
whose positive part does not have exactly h eigenvalues has no unitary
that sends it to the upper block, and eigenframe rejects it.  lambda itself
is formed only where the defining conditions read it.

The approximate transform from the local potential.  Both even blocks of a
local Hamiltonian are the one real diagonal V: E = diag(V, V).  So both
quadrants of [O, E] are K = [P, V] = P (v_j - v_i), formed elementwise,
both blocks of [O,[O,E]] are [P, K], and {D^-1, [P, K]} is formed once.
K is anti-Hermitian, so [P, K] = PK + (PK)^dag, and {D^-1, [P, K]} =
A + A^dag with A = D^-1 [P, K]: two half-size products in all.
approx_fw reads v from the BlockedHamiltonian, which holds the potential
itself rather than a dense H, so no even part but a local one can reach it.

The odd part from the FFT.  P = spectral_momentum(grid) is
F^dag diag(p) F with F the DFT and p = grid.p_fft, so O^2 = diag(P^2, P^2)
and every function of it is F^dag diag(f(p^2)) F: the four half-size
operators that depend only on O and m (the diagonal and off-diagonal blocks
of the approximate unitary, eps and the inverse kinetic denominator) are
formed from the grid's momenta by one inverse FFT each (grid_odd_part),
with no eigendecomposition, in the standing-wave basis below.  A potential
enters only E, so every Hamiltonian on one grid shares them: the scaling
study forms them once per grid and mass, and approx_fw takes that
FactoredOddPart with every potential, rejects a Hamiltonian whose odd part
or mass it does not match, and forms only what depends on E.

discretize_dirac_1d builds the 1D Dirac Hamiltonian with a static
electrostatic potential on a periodic grid.  With the momentum along x only
beta and alpha_1 appear, and alpha_1 couples spinor components 1 and 4, and
2 and 3, with the same operator.  In the component order (1, 4 | 2, 3) the
4n x 4n Hamiltonian is therefore diag(h, h) for one two-component 2n x 2n block
h = [[m + V, P], [P, V - m]], and the grid Hamiltonian is that block, ordered
so beta is literally diag(I_n, -I_n) and "block-diagonal" means vanishing
off-diagonal quadrants.  four_component_norm turns a Frobenius norm over the
block into the norm over the 4n operator.

The standing-wave basis.  Node j sits at x_j = (j - n/2) dx, so its mirror
image -x_j is node (n - j) % n.  For a potential even on the grid,
v[j] = v[(n - j) % n], H commutes with T = R K, the reflection x -> -x after
complex conjugation, and T^2 = 1.  The standing waves

    w_k = a_k e_k + conj(a_k) e_(n-k),  a_k = 1/2 at k = 0 and n/2 (w_k = e_k),
    a_k = 1/sqrt(2) for 0 < k < n/2,  a_k = -i/sqrt(2) for n/2 < k < n,

are T-invariant and orthonormal, so every operator that commutes with T is
real in their basis W.  The grid's operators are in that basis: P is real
symmetric; diag(v) stays diag(v), since w_k lives on the nodes k and n - k,
where v takes the one value v[k]; and beta is unchanged, since W acts on
both components alike.  H is then real symmetric, and every eigh and
product runs in float64, a few times cheaper than in complex128.  A
Hermitian circulant C, with entries c[(j - l) % n], commutes with T whatever
its symbol, and

    (W^dag C W)_kl = 2 Re(conj(a_k) a_l c[k - l] + conj(a_k) conj(a_l) c[k + l]),

indices mod n: each entry gathers the pairs of nodes of w_k and w_l from
c = ifft(symbol), in O(n^2) and with no dense conjugation
(_standing_multiplier).  W commutes with beta, so spectra, Frobenius norms
and beta's quadrants are the same as in the position basis, and so is every
number the study reports.  discretize_dirac_1d rejects a potential that is
not even on the grid, bit for bit: H would not be real in this basis.

Checks.  The BlockedHamiltonian holds H's parts and checks them once, when
it is made: P Hermitian, v real with one value per row of P, all finite,
and m non-negative.  eigenframe forms H for eigh; every other kernel, and
FactoredOddPart.matches, reads the parts.
Because H is Hermitian, so is U H U^dag for any U, and its off-diagonal norm
is sqrt(2) times the norm of the upper quadrant alone; the upper rows
U[:h] H = [U1 (m+v) + U2 P, U1 P + U2 (v-m)] are two half-size products and
two diagonal scalings (conjugated_quadrant).  Because
[beta lambda, lambda beta] = beta lambda^2 beta - lambda^2, the commutator
check reads the off-diagonal quadrants of the lambda^2 that the
lambda^2 = 1 check forms anyway.

Working set: each Hamiltonian is built, checked and transformed with a
handful of full-size matrices alive at once.  The BlockedHamiltonian holds
only the half-size P, the vector v and m, and eigenframe forms the dense H
for eigh alone, so H is not alive beside U, the approximate unitary or the
conditions.  eriksen_unitary writes U half by half from the eigenframe,
eriksen_conditions forms and reduces one condition at a time, subtracting
the identity in place, and the scaling study releases the eigenframe
before the approximate transform and each Hamiltonian's matrices before it
builds the next.  Across the study's Hamiltonians only the factored odd
part stays alive: P and four more half-size matrices, each a quarter of a
full-size matrix.  Each Hamiltonian builds its own P, by the same
deterministic FFT construction, so the shared factorization still matches
it bit for bit.  A full-size float64 matrix is 0.5 MiB at n = 128 and 2 MiB
at n = 256, so peak memory is set by how many are alive at once, not by
the O(n^3) products.
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
    """The Hamiltonian H = [[m + v, P], [P, v - m]] split against
    beta = diag(I, -I) with M = m I, held as its parts: the Hermitian odd
    block P, the real local potential v and the mass m, so that

    H = beta m + E + O,  E = diag(v, v),  O = [[0, P], [P, 0]].

    The constructor checks the parts once; the kernels that take a
    BlockedHamiltonian rely on that check.  Every kernel keeps P's dtype:
    float64 for a grid Hamiltonian in the standing-wave basis, complex128
    for a complex P such as the 4x4 Dirac block sigma.p.
    """

    P: np.ndarray
    v: np.ndarray
    m: float

    def __post_init__(self):
        P, m = as_matrix(self.P), float(self.m)
        if not (np.isfinite(m) and m >= 0.0):
            raise LinalgError(f"mass must be finite and non-negative, got {m}")
        if not is_hermitian(P):
            raise LinalgError("odd block P must be Hermitian")
        if np.iscomplexobj(self.v):
            raise LinalgError("potential must be real")
        v = np.asarray(self.v, dtype=float)
        if v.shape != P.shape[:1]:
            raise LinalgError(f"potential must return one value per grid node, shape "
                              f"{P.shape[:1]}, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise LinalgError("potential must be bounded on the box")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "m", m)

    @property
    def n_upper(self) -> int:
        return self.P.shape[0]

    @property
    def H(self) -> np.ndarray:
        """The dense 2n x 2n matrix [[m + v, P], [P, v - m]] of P's dtype,
        formed on each read."""
        h = self.n_upper
        H = np.zeros((2 * h, 2 * h), dtype=self.P.dtype)
        H[:h, h:] = H[h:, :h] = self.P
        diag = np.arange(h)
        H[diag, diag] = self.m + self.v
        H[h + diag, h + diag] = self.v - self.m
        return H


def _beta_times(A: np.ndarray, n_upper: int) -> np.ndarray:
    """beta A: A with its lower rows negated."""
    out = A.copy()
    out[n_upper:] *= -1
    return out


def conjugated_quadrant(U: np.ndarray, bh: BlockedHamiltonian, k: int) -> np.ndarray:
    """Quadrant (0, k) of U H U^dag, (U[:h] H) U[kh:(k+1)h]^dag with
    h = n_upper, from bh's parts without forming H.

    U[:h] H = [U1 (m + v) + U2 P, U1 P + U2 (v - m)] with U1, U2 the column
    halves of U[:h]: two half-size products and two diagonal scalings.
    """
    h = bh.n_upper
    U1, U2 = U[:h, :h], U[:h, h:]
    cols = U[k * h:(k + 1) * h].conj().T
    return ((U1 * (bh.m + bh.v) + U2 @ bh.P) @ cols[:h]
            + (U1 @ bh.P + U2 * (bh.v - bh.m)) @ cols[h:])


def _conjugated_offblock_norm(U: np.ndarray, bh: BlockedHamiltonian) -> float:
    """Frobenius norm of the two off-diagonal quadrants of U H U^dag, forming
    only the upper one: U H U^dag is Hermitian, so the lower quadrant is the
    adjoint of the upper one and has the same norm."""
    return float(np.sqrt(2.0) * frob(conjugated_quadrant(U, bh, 1)))


def _reject_zero_eigenvalues(w: np.ndarray, rtol: float, message: str) -> None:
    """LinalgError(message) if an eigenvalue in w is within rtol of zero."""
    if np.abs(w).min() <= rtol * max(np.abs(w).max(), 1e-300):
        raise LinalgError(message)


def eigenframe(bh: BlockedHamiltonian) -> tuple:
    """(w, v) = eigh(bh.H), eigenvalues ascending, for a spectrum with no
    zero mode and exactly bh.n_upper positive eigenvalues; LinalgError
    otherwise.  bh.H, formed here alone, is Hermitian by construction.

    The frame gives the exact spectrum, eriksen_unitary and sign_function,
    so a caller decomposes each Hamiltonian once.
    """
    w, v = np.linalg.eigh(bh.H)
    _reject_zero_eigenvalues(w, ZERO_MODE_RTOL, f"eigenvalue within {ZERO_MODE_RTOL:.0e} "
                                                "of zero: sign function undefined")
    positive = int(np.count_nonzero(w > 0))
    if positive != bh.n_upper:
        raise LinalgError(f"{positive} of {w.size} eigenvalues are positive, not half: "
                          "no unitary sends the positive spectrum to the upper block")
    return w, v


def sign_function(frame: tuple) -> np.ndarray:
    """lambda = H (H^2)^(-1/2) = v sign(w) v^dag from eigenframe(bh)."""
    w, v = frame
    return (v * np.sign(w)) @ v.conj().T


def eriksen_unitary(frame: tuple) -> np.ndarray:
    """Exact block-diagonalizing unitary (1+beta lambda)(2+beta lambda+lambda beta)^(-1/2)
    from eigenframe(bh), without forming lambda:

    U[:h] = (X1 X1^dag)^(-1/2) X1 V+^dag,  U[h:] = (Y2 Y2^dag)^(-1/2) Y2 V-^dag,

    with V- = v[:, :h] and V+ = v[:, h:] the negative- and positive-energy
    eigenvectors, X1 = v[:h, h:] and Y2 = v[h:, :h]; the module docstring
    derives it.
    """
    w, v = frame
    h = w.size // 2
    U = np.empty_like(v)
    for rows, cols in ((slice(0, h), slice(h, None)), (slice(h, None), slice(0, h))):
        X = v[rows, cols]
        U[rows] = (mat_inv_sqrt_psd(X @ X.conj().T) @ X) @ v[:, cols].conj().T
    return U


def _minus_identity(a: np.ndarray) -> np.ndarray:
    """a - I, in place."""
    a[np.diag_indices_from(a)] -= 1.0
    return a


def eriksen_conditions(U: np.ndarray, lam: np.ndarray, bh: BlockedHamiltonian) -> dict:
    """Residuals of the defining properties of the exact transformation U
    built from the sign function lam of bh.H, each formed and reduced before
    the next; the off-block residual reads bh's parts (conjugated_quadrant)."""
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
    conds["offblock"] = _conjugated_offblock_norm(U, bh)
    return conds


@dataclass(frozen=True)
class FactoredOddPart:
    """The odd part O = [[0, P], [P, 0]], with P Hermitian, and mass m with
    everything in the approximate transform that does not depend on the
    even part E.  All Hamiltonians on one grid with one mass share it, since
    the potential enters only E.  block = (u_diag, u_off, eps, d_inv), each a
    half-size function of P^2, the diagonal block of O^2: the diagonal block
    (1 + S) N of each column block of the unitary, with S = sqrt(1 + X^2) and
    N = (2 S (1 + S))^(-1/2); its off-diagonal block (P/m) N up to beta's
    sign (the unitary holds -(P/m) N in its left column block and +(P/m) N
    in its right one); eps = sqrt(m^2 + O^2); and the inverse kinetic
    denominator 1/(2 eps^2 + 2 m eps)."""

    P: np.ndarray
    m: float
    block: tuple

    def matches(self, bh: BlockedHamiltonian) -> bool:
        """Whether bh has exactly this mass and odd block P."""
        return bh.m == self.m and np.array_equal(bh.P, self.P)


def _mirrored(a: np.ndarray) -> np.ndarray:
    """a[(n - j) % n] at j: a over the grid nodes reflected through x = 0."""
    return np.roll(a[::-1], 1)


def _standing_multiplier(grid: Grid1D, symbol: np.ndarray) -> np.ndarray:
    """F^dag diag(symbol) F on the grid for a real symbol over grid.p_fft, in
    the standing-wave basis: the real symmetric n x n matrix
    2 Re(conj(a_k) a_l c[k - l] + conj(a_k) conj(a_l) c[k + l]) of the module
    docstring, with c = ifft(symbol).  With D = c[k - l] and S = c[k + l]
    (indices mod n), the even pairs of nodes k <= n/2 (a_k real) and the odd
    pairs k > n/2 (a_k imaginary) give the blocks

        [[Re(D + S), Im(D - S)], [-Im(D + S), Re(D - S)]],

    with the rows and columns of the unpaired nodes 0 and n/2 scaled by
    1/sqrt(2).  D and S are strided views of two copies of c laid end to
    end, so no n x n index is formed.
    c takes its Hermitian part first, so that the matrix is exactly
    symmetric."""
    n, h = grid.n, grid.n // 2
    c = np.fft.ifft(symbol)
    c = 0.5 * (c + _mirrored(c).conj())                  # c[-k]^* at k
    windows = np.lib.stride_tricks.sliding_window_view
    S = windows(np.tile(c, 2), n)[:n]                    # row k: c[k + l]
    D = windows(np.tile(_mirrored(c), 2), n)[n:0:-1]     # row k: c[k - l]
    even, odd = slice(0, h + 1), slice(h + 1, n)
    M = np.empty((n, n))
    M[even, even] = D[even, even].real + S[even, even].real
    M[odd, odd] = D[odd, odd].real - S[odd, odd].real
    M[even, odd] = D[even, odd].imag - S[even, odd].imag
    M[odd, even] = -(D[odd, even].imag + S[odd, even].imag)
    M[[0, h]] *= np.sqrt(0.5)
    M[:, [0, h]] *= np.sqrt(0.5)
    return M


def grid_odd_part(grid: Grid1D, m: float) -> FactoredOddPart:
    """The FactoredOddPart of the grid's odd part [[0, P], [P, 0]] with
    P = spectral_momentum(grid) and mass m: P^2 is diagonal in the DFT basis
    with eigenvalues p^2, so each operator is F^dag diag(f(p^2)) F, formed in
    the standing-wave basis."""
    if m == 0.0:
        raise LinalgError("mass operator M = m I is not invertible")
    p = grid.p_fft
    w = p * p
    # eps^2 = m^2 + O^2 and X^2 = O^2 / m^2
    eps = np.sqrt(m * m + w)
    denom = 2.0 * eps * eps + 2.0 * m * eps
    _reject_zero_eigenvalues(denom, 1e-12, "kinetic denominator is singular")
    s = np.sqrt(1.0 + w / (m * m))
    symbols = (np.sqrt((1.0 + s) / (2.0 * s)), (p / m) / np.sqrt(2.0 * s * (1.0 + s)),
               eps, 1.0 / denom)
    return FactoredOddPart(spectral_momentum(grid), m,
                           tuple(_standing_multiplier(grid, f) for f in symbols))


def approx_fw(bh: BlockedHamiltonian, odd: FactoredOddPart) -> tuple:
    """Approximate relativistic transformation and Hamiltonian (U, H_approx)
    of a local Hamiltonian H = [[m + V, P], [P, V - m]].

    odd is the factorization of bh's odd block and mass (grid_odd_part),
    shared by every Hamiltonian with that odd part; one that does not match
    bh is rejected.
    """
    if not odd.matches(bh):
        raise LinalgError("odd-part factorization does not match the Hamiltonian's "
                          "odd part and mass")
    v = (bh.m + bh.v) - bh.m   # as H holds it: both transforms see one H to the last bit
    h, P = bh.n_upper, odd.P
    # both quadrants of [O, E] are K = [P, V], both blocks of [O, [O, E]]
    # [P, K] = PK - KP = PK + (PK)^dag, since K is anti-Hermitian
    PK = P @ (P * (v[None, :] - v[:, None]))
    double_comm = PK + PK.conj().T

    # Column block k of U = (1 + S + beta X) N is (1 + S) N on the diagonal
    # and (beta X) N = -sign_k O N / m off it; H_approx =
    # beta eps + E - (1/4) {D^-1, [O,[O,E]]} is even, and the anticommutator
    # of two Hermitian matrices is A + A^dag with A = D^-1 [O,[O,E]].
    u_diag, u_off, eps, d_inv = odd.block
    A = d_inv @ double_comm
    even = -0.25 * (A + A.conj().T)
    even[np.diag_indices_from(even)] += v
    U = np.empty((2 * h, 2 * h), dtype=P.dtype)
    U[:h, :h] = U[h:, h:] = u_diag
    U[:h, h:] = u_off
    U[h:, :h] = -u_off
    h_approx = np.zeros_like(U)
    h_approx[:h, :h] = even + eps
    h_approx[h:, h:] = even - eps
    return U, h_approx


def spectral_momentum(grid: Grid1D) -> np.ndarray:
    """Dense n x n momentum operator -i d/dx of the periodic spectral
    discretization, F^dag diag(p_fft) F, in the standing-wave basis: real
    symmetric."""
    return _standing_multiplier(grid, grid.p_fft)


def discretize_dirac_1d(grid: Grid1D, m: float,
                        V: Callable[[np.ndarray], np.ndarray]) -> BlockedHamiltonian:
    """2n x 2n spin block m sigma_z + V(x) + sigma_x p of the 1D Dirac
    Hamiltonian beta m + V(x) + alpha_1 p on a periodic box.

    Basis ordering is component-major (upper component first), so
    beta = diag(I_n, -I_n), and each component is in the standing-wave
    basis, where the potential stays diag(V(x)).  In spinor component order
    (1, 4 | 2, 3) the 4n x 4n Hamiltonian is two copies of this block, with
    the odd quadrants P = spectral_momentum(grid).  LinalgError unless V is
    even on the grid, V(x_j) = V(x_(n-j)) bit for bit.
    """
    bh = BlockedHamiltonian(P=spectral_momentum(grid), v=V(grid.x), m=m)
    if not np.array_equal(bh.v, _mirrored(bh.v)):
        raise LinalgError("potential must be even on the grid, v[j] == v[(n - j) % n]: "
                          "the standing-wave basis is real for parity-even potentials only")
    return bh


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
    return np.linalg.eigvalsh(h_fw[:n_upper, :n_upper])


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
    (the positive eigenvalues of the eigenframe that gives the exact
    unitary), independent of the exact unitary.  The off-block norms are
    over the spin block; four_component_norm gives them over the 4n
    operator.  Every H has the odd part [[0, P], [P, 0]] of the grid's
    momentum operator P, so the odd part is factored once for the whole
    ladder.  profile must be even on the grid (discretize_dirac_1d).
    """
    v0_arr = check_strengths(v0_list)
    check_mass(m)
    if profile is None:
        width = grid.length / 8.0
        def profile(x):
            return np.exp(-0.5 * (x / width) ** 2)
    odd = grid_odd_part(grid, m)
    points = np.array([_study_point(grid, m, lambda x: v0 * profile(x), odd)
                       for v0 in v0_arr])
    return ScalingStudy(v0_arr, *points.T)


def _study_point(grid: Grid1D, m: float, V: Callable, odd: FactoredOddPart) -> tuple:
    """(even_block_diff, approx_offblock, exact_offblock) for one potential.
    The eigenframe is released before the approximate transform is built,
    and every matrix but the shared odd-part factorization on return, before
    the next Hamiltonian is built."""
    bh = discretize_dirac_1d(grid, m, V)
    frame = eigenframe(bh)
    w = frame[0]
    exact_off = _conjugated_offblock_norm(eriksen_unitary(frame), bh)
    del frame
    U_a, h_approx = approx_fw(bh, odd)
    nu = bh.n_upper
    diff = float(np.max(np.abs(upper_block_spectrum(h_approx, nu) - w[nu:])))
    return diff, _conjugated_offblock_norm(U_a, bh), exact_off
