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
rather than as dense matrices.  beta A flips the sign of A's lower rows.
The odd part is H's off-diagonal quadrants, held in the basis where they are
diagonal: O = [[0, diag p], [diag p, 0]] with p real.  Any Hermitian odd
block P = Q diag(p) Q^dag reaches this form by the unitary diag(Q, Q), which
commutes with beta, so no generality is lost; the grid Hamiltonian is in it
already (the momentum basis below), and the 4x4 Dirac block sigma.p is
rotated into it by its eigenvectors.  [O, M] = 0, so X = O/m and the
beta [O,[O,M]] term vanishes.

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
that sends it to the upper block: one check, _check_spectrum, rejects it
for eigenframe and eigenvalues alike.  lambda itself is formed only where
the defining conditions read it.

The exact off-block without U.  P+ = (X1 X1^dag)^(-1/2) X1 and
P- = (Y2 Y2^dag)^(-1/2) Y2 are h x h unitary polar factors, so U[:h] = P+ V+^dag,
U[h:] = P- V-^dag, and the upper off-diagonal quadrant of U H U^dag is

    U[:h] H U[h:]^dag = P+ (V+^dag H V-) P-^dag.

The Frobenius norm is unchanged by unitary factors, so the off-block norm of
U H U^dag is sqrt(2) ||V+^dag H V-||: the eigenframe gives it with no inverse
square root, and V+^dag H is built from the parts like U[:h] H below.  In
exact arithmetic it is 0, as V+^dag H V- = V+^dag V- diag(w-); what it
measures is the rounding of eigh's frame, which U inherits.  So the
scaling study reads it at its largest strength alone, where the potential
couples the blocks most, and takes the other strengths' spectra from
eigvalsh, which forms no eigenvectors.

The approximate transform, elementwise.  O^2 = diag(p^2, p^2), so every
function of O and m is a vector: eps = sqrt(m^2 + p^2), and the unitary
(1 + S + beta X) / sqrt(2 S (1 + S)) is U = [[u, s], [-s, u]] with
u = diag(eps + m)/N and s = diag(p)/N, N = sqrt(2 eps (eps + m)): the free
closed forms (dirac.fw_weights).  The kinetic denominator
2 eps^2 + {eps, M} is N^2; write d = 1/N^2.  Both even blocks of a local
Hamiltonian are the one V, E = diag(V, V), so both quadrants of [O, E] are
K = [diag p, V], K_ij = (p_i - p_j) V_ij, and both blocks of [O,[O,E]] are
[diag p, K], (p_i - p_j)^2 V_ij.  So

    H_approx = diag(even + diag(eps), even - diag(eps)),
    even_ij = V_ij (1 - (d_i + d_j) (p_i - p_j)^2 / 4),

and the upper-right quadrant of U H U^dag,
-(u (m + V) + s diag p) s + (u diag p + s (V - m)) u, is
(s_i u_j - u_i s_j) V_ij: its diagonal p (u^2 - s^2) - 2 m u s vanishes,
as u^2 - s^2 = m/eps and 2 u s = p/eps.  approx_fw returns the upper block
of H_approx, all that the study reads of it, and the off-block norm from
these: O(n^2) elementwise work, with no product, no decomposition and
nothing larger than n x n.  It reads V from the BlockedHamiltonian, which
holds one potential block for both even blocks rather than a dense H, so
no other even part can reach it.

The momentum basis.  discretize_dirac_1d builds the 1D Dirac Hamiltonian
with a static electrostatic potential on a periodic grid.  With the
momentum along x only beta and alpha_1 appear, and alpha_1 couples spinor
components 1 and 4, and 2 and 3, with the same operator.  In the component
order (1, 4 | 2, 3) the 4n x 4n Hamiltonian is therefore diag(h, h) for one
two-component 2n x 2n block, ordered so beta is literally diag(I_n, -I_n)
and "block-diagonal" means vanishing off-diagonal quadrants.  Every norm
this module returns is over that spin block; four_component_norm turns it
into the norm over the 4n operator, which `fwbench eriksen` reports.  Each
component is held in the DFT basis,
F_kj = exp(-2 pi i k j / n) / sqrt(n) over the nodes j, where the spectral
momentum F^dag diag(p) F with p = grid.p_fft is diag(p) and the potential
diag(v) on the nodes is the circulant F diag(v) F^dag,
V_jk = fft(v)[(j - k) % n] / n.  Node j sits at x_j = (j - n/2) dx, so its
mirror image -x_j is node (n - j) % n.  For a potential even on the grid,
v[j] = v[(n - j) % n], fft(v) is real and even, so

    V_jk = c[min(d, n - d)],  d = (j - k) % n,  c = rfft(v).real / n,

real and exactly symmetric: H = [[m + V, diag p], [diag p, V - m]] is real
symmetric and every eigh and product runs in float64.  diag(F, F) commutes
with beta, so spectra, Frobenius norms and beta's quadrants are those of the
node basis, and so is every number the study reports.  discretize_dirac_1d
rejects a potential that is not even on the grid, bit for bit: V would not
be real.

Checks.  The BlockedHamiltonian holds H's parts and checks them once, when
it is made: p real with one value per row of V, V Hermitian, all finite,
and m non-negative.  It holds one Hamiltonian or a stack of them, p of
shape (..., h) and V of shape (..., h, h), and every kernel acts on each
member, indexing with ... and taking adjoints over the last two axes.  The
free grid is such a stack: V = 0 couples row k of H only to row n + k, so
H is n independent one-momentum Hamiltonians [[m, p_k], [p_k, -m]], and
free_checks holds it as p = grid.p_fft[:, None] and V = 0 of shape
(n, 1, 1), which one batched eigh decomposes.  The (k, n + k) permutation
takes the stack to H, block-diagonal, so Frobenius norms over the stack
are those over H; _check_spectrum tests for a zero mode against the largest
|eigenvalue| of the whole stack, as for H, and for half-positive spectra
member by member.  Because H is Hermitian, so is U H U^dag for any U, and
its off-diagonal norm is sqrt(2) times the norm of the upper quadrant
alone;
the upper rows U[:h] H = [U1 (m + V) + U2 diag p, U1 diag p + U2 (V - m)]
are two half-size products and two column scalings (conjugated_quadrant),
and V+^dag H is the same with V+^dag's column halves X1^dag and X2^dag,
X2 = v[h:, h:] (exact_offblock_norm).  free_checks forms U on the free grid
and reads its defining conditions from it, the runtime check of the
factorization above; the scaling study forms no U, and reads only the
off-block norm, from the eigenframe of its largest strength.  Because
[beta lambda, lambda beta] = beta lambda^2 beta - lambda^2, the commutator
check reads the off-diagonal quadrants of the lambda^2 that the
lambda^2 = 1 check forms anyway.

Working set: each Hamiltonian is built, checked and transformed with a
handful of full-size matrices alive at once.  The BlockedHamiltonian holds
only p, the half-size V and m; eigenframe and eigenvalues form the dense H
for eigh and eigvalsh alone; eriksen_unitary writes U half by half;
eriksen_conditions forms and reduces one condition at a time, subtracting
the identity in place; approx_fw forms half-size matrices only; and the
scaling study forms no U, takes eigenvectors at its largest strength alone,
reads the exact off-block from them through half-size products, releases
them before the approximate transform, and each Hamiltonian's matrices
before it builds the next.  The free check's stack holds 4n
entries per matrix, far below one full-size matrix.  A full-size float64
matrix is 0.5 MiB at n = 128 and 2 MiB at n = 256, so peak memory is set by
how many are alive at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dirac import check_mass, energy, fw_weights
from .grids import Grid1D
from .linalg import (
    LinalgError,
    adjoint,
    as_matrix,
    frob,
    is_hermitian,
    mat_inv_sqrt_psd,
)

ZERO_MODE_RTOL = 1e-8


@dataclass(frozen=True, eq=False)
class BlockedHamiltonian:
    """The Hamiltonian H = [[m + V, diag p], [diag p, V - m]] split against
    beta = diag(I, -I) with M = m I, held as its parts: the real odd block
    diag(p), the Hermitian potential block V and the mass m, so that

    H = beta m + E + O,  E = diag(V, V),  O = [[0, diag p], [diag p, 0]].

    p of shape (..., n) and V of shape (..., n, n) hold a stack of such
    Hamiltonians, one per leading index.  The constructor checks the parts
    once; the kernels that take a BlockedHamiltonian rely on that check.
    Every kernel keeps V's dtype:
    float64 for a grid Hamiltonian in the momentum basis, complex128 for a
    complex V such as the 4x4 Dirac block rotated into the eigenbasis of
    sigma.p.
    """

    p: np.ndarray
    V: np.ndarray
    m: float

    def __post_init__(self):
        V, m = as_matrix(self.V), check_mass(float(self.m))
        if not is_hermitian(V):
            raise LinalgError("potential block V must be Hermitian")
        if np.iscomplexobj(self.p):
            raise LinalgError("odd block p must be real")
        p = np.asarray(self.p, dtype=float)
        if p.shape != V.shape[:-1]:
            raise LinalgError(f"odd block p must hold one value per row of V, shape "
                              f"{V.shape[:-1]}, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise LinalgError("odd block p has non-finite entries")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "m", m)

    @property
    def n_upper(self) -> int:
        return self.p.shape[-1]

    @property
    def H(self) -> np.ndarray:
        """The dense 2n x 2n matrix [[m + V, diag p], [diag p, V - m]] of V's
        dtype, or the stack of them, formed on each read."""
        h = self.n_upper
        H = np.zeros(self.V.shape[:-2] + (2 * h, 2 * h), dtype=self.V.dtype)
        H[..., :h, :h] = H[..., h:, h:] = self.V
        diag = np.arange(h)
        H[..., diag, h + diag] = H[..., h + diag, diag] = self.p
        H[..., diag, diag] += self.m
        H[..., h + diag, h + diag] -= self.m
        return H


def _sandwich(rows: np.ndarray, bh: BlockedHamiltonian, cols: np.ndarray) -> np.ndarray:
    """rows H cols for h x 2h rows and 2h x h cols, h = n_upper, from bh's
    parts without forming H.

    rows H = [R1 (m + V) + R2 diag p, R1 diag p + R2 (V - m)] with R1, R2
    the column halves of rows: two half-size products and two column
    scalings.
    """
    h, p = bh.n_upper, bh.p[..., None, :]
    R1, R2 = rows[..., :h], rows[..., h:]
    return ((R1 @ bh.V + bh.m * R1 + R2 * p) @ cols[..., :h, :]
            + (R1 * p + R2 @ bh.V - bh.m * R2) @ cols[..., h:, :])


def conjugated_quadrant(U: np.ndarray, bh: BlockedHamiltonian, k: int) -> np.ndarray:
    """Quadrant (0, k) of U H U^dag, (U[:h] H) U[kh:(k+1)h]^dag with
    h = n_upper, from bh's parts without forming H."""
    h = bh.n_upper
    return _sandwich(U[..., :h, :], bh, adjoint(U[..., k * h:(k + 1) * h, :]))


def _reject_zero_eigenvalues(w: np.ndarray, rtol: float, message: str) -> None:
    """LinalgError(message) if an eigenvalue in w is within rtol of zero."""
    if np.abs(w).min() <= rtol * max(np.abs(w).max(), 1e-300):
        raise LinalgError(message)


def _check_spectrum(w: np.ndarray, n_upper: int) -> np.ndarray:
    """w, the ascending eigenvalues of a BlockedHamiltonian's H, if they hold
    no zero mode and exactly n_upper positive eigenvalues in each member;
    LinalgError otherwise.

    The zero-mode test is relative to the largest |eigenvalue| of the whole
    stack, so a stack rejects what its block-diagonal matrix would.
    """
    _reject_zero_eigenvalues(w, ZERO_MODE_RTOL, f"eigenvalue within {ZERO_MODE_RTOL:.0e} "
                                                "of zero: sign function undefined")
    positive = np.count_nonzero(w > 0, axis=-1)
    wrong = positive[positive != n_upper]
    if wrong.size:
        raise LinalgError(f"{wrong[0]} of {w.shape[-1]} eigenvalues are positive, not half: "
                          "no unitary sends the positive spectrum to the upper block")
    return w


def eigenframe(bh: BlockedHamiltonian) -> tuple:
    """(w, v) = eigh(bh.H), eigenvalues ascending, for a spectrum that
    _check_spectrum accepts; LinalgError otherwise.

    bh.H is formed here and in eigenvalues alone, Hermitian by construction.
    The frame gives the exact spectrum, eriksen_unitary and sign_function,
    so a caller decomposes each Hamiltonian once.
    """
    w, v = np.linalg.eigh(bh.H)
    return _check_spectrum(w, bh.n_upper), v


def eigenvalues(bh: BlockedHamiltonian) -> np.ndarray:
    """eigvalsh(bh.H), ascending, for a spectrum that _check_spectrum
    accepts: the spectrum of eigenframe(bh), rejected alike, without the
    eigenvectors."""
    return _check_spectrum(np.linalg.eigvalsh(bh.H), bh.n_upper)


def sign_function(frame: tuple) -> np.ndarray:
    """lambda = H (H^2)^(-1/2) = v sign(w) v^dag from eigenframe(bh)."""
    w, v = frame
    return (v * np.sign(w)[..., None, :]) @ adjoint(v)


def eriksen_unitary(frame: tuple) -> np.ndarray:
    """Exact block-diagonalizing unitary (1+beta lambda)(2+beta lambda+lambda beta)^(-1/2)
    from eigenframe(bh), without forming lambda:

    U[:h] = (X1 X1^dag)^(-1/2) X1 V+^dag,  U[h:] = (Y2 Y2^dag)^(-1/2) Y2 V-^dag,

    with V- = v[:, :h] and V+ = v[:, h:] the negative- and positive-energy
    eigenvectors, X1 = v[:h, h:] and Y2 = v[h:, :h]; the module docstring
    derives it.
    """
    w, v = frame
    h = w.shape[-1] // 2
    U = np.empty_like(v)
    for rows, cols in ((slice(0, h), slice(h, None)), (slice(h, None), slice(0, h))):
        X = v[..., rows, cols]
        U[..., rows, :] = (mat_inv_sqrt_psd(X @ adjoint(X)) @ X) @ adjoint(v[..., cols])
    return U


def exact_offblock_norm(frame: tuple, bh: BlockedHamiltonian) -> float:
    """Frobenius norm of the off-diagonal quadrants of U H U^dag for the
    exact unitary U = eriksen_unitary(frame), without forming U:
    sqrt(2) ||V+^dag H V-||, with V- = v[:, :h] and V+ = v[:, h:] the
    negative- and positive-energy eigenvectors of eigenframe(bh).  The
    module docstring derives the identity."""
    w, v = frame
    h = w.shape[-1] // 2
    return float(np.sqrt(2.0) * frob(_sandwich(adjoint(v[..., h:]), bh, v[..., :h])))


def _minus_identity(a: np.ndarray) -> np.ndarray:
    """a - I, of each member of a stack, in place."""
    diag = np.arange(a.shape[-1])
    a[..., diag, diag] -= 1.0
    return a


def eriksen_conditions(U: np.ndarray, lam: np.ndarray, bh: BlockedHamiltonian) -> dict:
    """Residuals of the defining properties of the exact transformation U
    built from the sign function lam of bh.H, each formed and reduced before
    the next; the off-block residual reads bh's parts (conjugated_quadrant)."""
    h = bh.n_upper
    conds = {"unitarity": frob(_minus_identity(U @ adjoint(U)))}
    odd = U.copy()
    odd[..., h:, :] *= -1                                 # beta U
    odd -= adjoint(odd)                                   # beta U - U^dag beta
    conds["odd_exponent"] = frob(odd)
    del odd
    sq = lam @ lam
    conds["lambda_squared"] = frob(_minus_identity(sq))
    # [beta lam, lam beta] = beta lam^2 beta - lam^2 is -2 times the
    # off-diagonal quadrants of lam^2, which subtracting I leaves alone
    conds["bl_lb_commute"] = 2.0 * float(np.hypot(frob(sq[..., :h, h:]),
                                                  frob(sq[..., h:, :h])))
    del sq
    # U H U^dag is Hermitian: its lower quadrant is the upper one's adjoint
    conds["offblock"] = float(np.sqrt(2.0) * frob(conjugated_quadrant(U, bh, 1)))
    return conds


def approx_fw(bh: BlockedHamiltonian) -> tuple:
    """(upper, offblock) of the approximate relativistic transformation U
    (module docstring): the upper block even + diag(eps) of H_approx, in V's
    dtype, and the off-block norm sqrt(2) ||(s_i u_j - u_i s_j) V_ij|| of
    U H U^dag, from dirac.fw_weights' u, 1/N and N^2 with s = p/N and
    d = 1/N^2.  Nothing larger than n x n is formed.  For a stack, upper is
    the stack of upper blocks and the norm is over the whole stack."""
    if bh.m == 0.0:
        raise LinalgError("mass operator M = m I is not invertible")
    p, V = bh.p, bh.V
    eps = energy(p[..., None], bh.m)
    u, inv_norm, norm_sq = fw_weights(eps, bh.m)
    _reject_zero_eigenvalues(norm_sq, 1e-12, "kinetic denominator is singular")
    d = 1.0 / norm_sq
    gap = p[..., :, None] - p[..., None, :]
    upper = V * (1.0 - 0.25 * (d[..., :, None] + d[..., None, :]) * (gap * gap))
    diag = np.arange(bh.n_upper)
    upper[..., diag, diag] += eps
    s = p * inv_norm
    cross = s[..., :, None] * u[..., None, :] - u[..., :, None] * s[..., None, :]
    return upper, float(np.sqrt(2.0) * frob(cross * V))


def discretize_dirac_1d(grid: Grid1D, m: float,
                        V: Callable[[np.ndarray], np.ndarray]) -> BlockedHamiltonian:
    """2n x 2n spin block m sigma_z + V(x) + sigma_x p of the 1D Dirac
    Hamiltonian beta m + V(x) + alpha_1 p on a periodic box.

    Basis ordering is component-major (upper component first), so
    beta = diag(I_n, -I_n), and each component is in the DFT basis, where
    the odd block is diag(grid.p_fft) and the potential is the real
    circulant V_jk = c[min(d, n - d)], d = (j - k) % n, c = rfft(v).real / n.
    In spinor component order (1, 4 | 2, 3) the 4n x 4n Hamiltonian is two
    copies of this block.  LinalgError unless V returns one finite real value
    per node and is even on the grid, V(x_j) = V(x_(n-j)) bit for bit.
    """
    v = V(grid.x)
    if np.iscomplexobj(v):
        raise LinalgError("potential must be real")
    v = np.asarray(v, dtype=float)
    if v.shape != grid.x.shape:
        raise LinalgError(f"potential must return one value per grid node, shape "
                          f"{grid.x.shape}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise LinalgError("potential must be bounded on the box")
    if not np.array_equal(v, np.roll(v[::-1], 1)):         # v[(n - j) % n] at j
        raise LinalgError("potential must be even on the grid, v[j] == v[(n - j) % n]: "
                          "the momentum-basis potential is real for parity-even "
                          "potentials only")
    c = np.fft.rfft(v).real / grid.n
    column = np.concatenate([c, c[-2:0:-1]])          # c[min(d, n - d)] at d
    idx = np.arange(grid.n)
    return BlockedHamiltonian(p=grid.p_fft, V=column[np.abs(idx[:, None] - idx[None, :])],
                              m=m)


def four_component_norm(block_norm):
    """Frobenius norm over the 4n x 4n Dirac operator of a quantity whose norm
    over the 2n x 2n spin block is block_norm.

    The permutation to component order (1, 4 | 2, 3) takes the 4n Hamiltonian
    to diag(h, h), and so every matrix built from it to diag(A, A), and
    ||diag(A, A)||_F = sqrt(||A||_F^2 + ||A||_F^2) = sqrt(2) ||A||_F.
    """
    return np.sqrt(2.0) * block_norm


def free_checks(grid: Grid1D, m: float) -> tuple:
    """(eriksen_conditions, largest error of the upper block's entries
    against the exact positive energies) of the exact transform on the free
    grid, held as the stack of its n one-momentum Hamiltonians
    [[m, p_k], [p_k, -m]].  The conditions are norms over the 2n x 2n spin
    block, as every norm this module returns; four_component_norm gives
    them over the 4n operator."""
    bh = BlockedHamiltonian(p=grid.p_fft[:, None], V=np.zeros((grid.n, 1, 1)), m=m)
    frame = eigenframe(bh)
    U, lam = eriksen_unitary(frame), sign_function(frame)
    conds = eriksen_conditions(U, lam, bh)
    upper = conjugated_quadrant(U, bh, 0)[:, 0, 0]
    return conds, float(np.max(np.abs(upper - energy(bh.p, m))))


@dataclass(eq=False)
class ScalingStudy:
    """Approximate-vs-exact comparison over a ladder of potential strengths.

    even_block_diff is measured spectrally (largest gap between the sorted
    upper-block eigenvalues and the exact positive spectrum): the spectrum
    is the block-basis-invariant content of the even block, and it is what
    converges quadratically in the potential strength.  Matrix elements of
    different block-diagonalizations differ already at first order by an
    even change of basis.  even_block_diff and approx_offblock hold one
    value per strength of v0, in its order; exact_offblock holds one value,
    at the largest strength, max(v0).  exponent is the slope of log
    even_block_diff against log v0, fitted by potential_scaling_study,
    which fills the record.
    """

    v0: np.ndarray
    even_block_diff: np.ndarray
    approx_offblock: np.ndarray
    exact_offblock: np.ndarray
    exponent: float


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
    O(v0^2).  The reference spectrum is the positive eigenvalues of H, from
    eigenvalues at every strength but the largest.  At max(v0), where the
    potential couples the blocks most, one eigenframe gives both the
    spectrum and the exact off-block, exact_offblock_norm, equal to the
    off-block norm of U H U^dag, without forming the exact unitary.  Every
    strength's spectrum passes the one check of _check_spectrum, in the
    order of v0, so the first strength that fails it names the error.  The
    off-block norms are over the spin block; four_component_norm gives them
    over the 4n operator.  profile must be even on the grid
    (discretize_dirac_1d).  v0 is checked here, and m by each Hamiltonian's
    BlockedHamiltonian.
    """
    v0_arr = check_strengths(v0_list)
    if profile is None:
        width = grid.length / 8.0
        def profile(x):
            return np.exp(-0.5 * (x / width) ** 2)
    top = int(np.argmax(v0_arr))
    diff, approx_off, exact_off = zip(*(
        _study_point(grid, m, lambda x: v0 * profile(x), k == top)
        for k, v0 in enumerate(v0_arr)))
    exponent = float(np.polyfit(np.log(v0_arr), np.log(diff), 1)[0])
    return ScalingStudy(v0_arr, np.array(diff), np.array(approx_off),
                        np.array([exact_off[top]]), exponent)


def _study_point(grid: Grid1D, m: float, V: Callable, offblock: bool) -> tuple:
    """(even_block_diff, approx_offblock, exact_offblock) for one potential.
    exact_offblock is None unless offblock: then one full-size eigh gives the
    spectrum and exact_offblock_norm, and no exact unitary is formed;
    otherwise the spectrum is eigenvalues alone.  The eigenframe is released
    before the approximate transform is built, and every matrix on return,
    before the next Hamiltonian is built."""
    bh = discretize_dirac_1d(grid, m, V)
    if offblock:
        frame = eigenframe(bh)
        w, exact_off = frame[0], exact_offblock_norm(frame, bh)
        del frame
    else:
        w, exact_off = eigenvalues(bh), None
    upper, approx_off = approx_fw(bh)
    diff = float(np.max(np.abs(np.linalg.eigvalsh(upper) - w[bh.n_upper:])))
    return diff, approx_off, exact_off
