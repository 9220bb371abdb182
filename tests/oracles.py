"""Test-side oracles and operators that no verdict of the program reads.

The dense matrix commutator, operator-level commutators and conjugation,
the free block-diagonalizing unitary as an operator, the catalogue families
that no suite uses (among them the Dirac-representation forms of the FW
families, the covariance oracles, and the scalar-sector velocity), the
scalar-sector Hamiltonian and velocity as plain matrices, the closed-form
worldline defects,
small packet, spectral and trembling-motion probes, and the grid's momentum
operator on the nodes.  The
tests check the program against these; the program itself never calls them.
"""

import numpy as np

from fwbench.algebra import ClassicalState
from fwbench.dirac import (ALPHA, BETA, GAMMA, I4, PAULI, SIGMA, dirac_hamiltonian, energy,
                           free_propagator, fw_unitary_matrix)
from fwbench.eriksen import BlockedHamiltonian
from fwbench.linalg import LinalgError, frob
from fwbench.phase_ops import (
    MASSLESS_MIN_P,
    DomainError,
    Family,
    Jet,
    OperatorFamily,
    PhaseOpValue,
    PhaseSpaceOperator,
    commutator_snapshot,
    cross_c,
    dirac_boost_part,
    levi,
    p_dot,
    radius_part,
    snapshot,
)
from fwbench.grids import Grid1D
from fwbench.wavepacket import (WavePacket1D, make_gaussian_packet, momentum_to_position,
                                to_picture)
from fwbench.zitter import EvolutionRecord

UNITARITY_ATOL = 1e-10


# --- operators ------------------------------------------------------------------

def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[A, B] = AB - BA of two dense matrices of one shape."""
    if a.shape != b.shape:
        raise LinalgError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def evaluate(op: PhaseSpaceOperator, p) -> PhaseOpValue:
    """Coefficients A, B of op at momenta (..., 3), from its snapshot."""
    s = snapshot(op, p)
    return PhaseOpValue(s.A, s.B)


def op_commutator(op1: PhaseSpaceOperator, op2: PhaseSpaceOperator, p) -> PhaseOpValue:
    """[op1, op2] evaluated at momenta p."""
    return commutator_snapshot(snapshot(op1, p), snapshot(op2, p))


def multiplicative(dim: int, A, label: str = "", min_p: float = 0.0) -> PhaseSpaceOperator:
    """Operator with no derivative part; A(p) is a Jet or a constant."""
    return PhaseSpaceOperator(dim, lambda p: (A(p), 0.0, 0.0, 0.0), label, min_p)


def constant_operator(M: np.ndarray, label: str = "") -> PhaseSpaceOperator:
    Mc = np.asarray(M, dtype=complex)
    return multiplicative(Mc.shape[0], lambda p: Mc, label)


def hermiticity_residual(op: PhaseSpaceOperator, p) -> float:
    """How far op is from Hermitian as an operator on L^2(dp) at one momentum.

    Conditions: every B_k anti-Hermitian, and
    A^dag - A + sum_k dB_k/dp_k = 0.
    """
    s = snapshot(op, p)
    res = frob(s.A.conj().T - s.A + sum(s.dB[k, k] for k in range(3)))
    res += sum(frob(s.B[k].conj().T + s.B[k]) for k in range(3))
    return float(res)


# --- free-particle representation change ----------------------------------------

class NonUnitaryError(ValueError):
    """Conjugation attempted with a transformation that is not unitary."""


def _fw_free_operator(m: float, inverse: bool) -> PhaseSpaceOperator:
    """The free unitary (or its inverse) with its analytic gradient."""
    if m < 0:
        raise DomainError(f"mass must be non-negative, got {m}")
    sign = -1.0 if inverse else 1.0

    def A(p):
        # U = num * s with s = 1/sqrt(2 eps (eps+m)): d_k U = (d_k num) s + U d_k log(s)
        e = energy(p, m)[..., None, None, None]
        s = 1.0 / np.sqrt(2 * e * (e + m))
        pk = p[..., :, None, None]
        dlog_s = -(pk * (2 * e + m) / e) / (2 * e * (e + m))
        u = fw_unitary_matrix(p, m, inverse)
        return Jet(u, (pk / e * I4 + sign * GAMMA) * s + u[..., None, :, :] * dlog_s)

    return multiplicative(4, A, "U_fw_free_inv" if inverse else "U_fw_free",
                          MASSLESS_MIN_P if m == 0 else 0.0)


def fw_unitary_free(m: float) -> PhaseSpaceOperator:
    """Free-particle transformation to the block-diagonal representation."""
    return _fw_free_operator(m, inverse=False)


def fw_unitary_free_inv(m: float) -> PhaseSpaceOperator:
    """Inverse of the free transformation (gamma.p sign flipped)."""
    return _fw_free_operator(m, inverse=True)


def conjugate(op: PhaseSpaceOperator, U: PhaseSpaceOperator,
              U_inv: PhaseSpaceOperator, p) -> PhaseOpValue:
    """Coefficients of U op U^-1 at momenta p, for a multiplicative unitary U.

    The derivative part shifts the multiplicative part:
        A' = U A U^-1 + sum_k U B_k (d U^-1 / d p_k)
        B'_k = U B_k U^-1
    U, U^-1 and the exact gradient of U^-1 are evaluated once, and
    unitarity is checked at every momentum to 1e-10.
    """
    if U.dim != op.dim or U_inv.dim != op.dim:
        raise DomainError("dimension mismatch in conjugation")
    if frob(evaluate(U, np.array([0.1, 0.2, 0.3])).B) != 0.0:
        raise DomainError("conjugation requires a transformation with no "
                          "derivative part")
    p = np.asarray(p, dtype=float)
    Um = evaluate(U, p).A
    inv = snapshot(U_inv, p)
    defect = np.linalg.norm(Um @ inv.A - np.eye(op.dim), axis=(-2, -1))
    if (defect > UNITARITY_ATOL * np.sqrt(op.dim)).any():
        worst = np.argmax(defect)
        raise NonUnitaryError(
            f"U U^-1 deviates from identity by {defect.flat[worst]:.3e} "
            f"at p = {p.reshape(-1, 3)[worst]}"
        )
    val = evaluate(op, p)
    Ul = Um[..., None, :, :]
    A = Um @ val.A @ inv.A + (Ul @ val.B @ inv.dA).sum(axis=-3)
    return PhaseOpValue(A, Ul @ val.B @ inv.A[..., None, :, :])


# --- catalogue families that no verdict reads -----------------------------------
#
# Rows of the product's Family table, each coefficient written once in Jets
# over the momentum components P and the energy e, keyed by name, and built
# through the same Family.build, which holds the mass and component rules.

_RHO_PLUS = PAULI[2] + 1j * PAULI[1]    # rho_3 + i rho_2


def _four_spin_space(p, P, e, m, c):
    return SIGMA[c] / 2 + P[c] * p_dot(SIGMA, P) / (2 * m * (e + m))


def _pauli_lubanski_space(p, P, e, m, c):
    return m * SIGMA[c] / 2 + P[c] * p_dot(SIGMA, P) / (2 * (e + m))


def _spin_prime(p, P, e, m, c):
    # (W - W0 p/(eps+m)) / m, assembled from the four-vector components
    w0 = p_dot(SIGMA, P) / 2
    return (_pauli_lubanski_space(p, P, e, m, c) - w0 * P[c] / (e + m)) / m


def _projector(sign):
    return lambda p, P, e, m, c: (0.5 * (I4 + sign * m / e * BETA)
                                  + sign * p_dot(ALPHA, P) / (2 * e))


# The Dirac-representation forms U^-1 (FW family) U of the product's FW
# families, which test_dirac_families_are_conjugated_fw_twins checks against
# the conjugation: the Newton-Wigner position, the mean spin, the boost and
# the center-of-mass, laboratory-spin and projected operators.

def _nw_position(p, P, e, m, c):
    return (-cross_c(SIGMA, P, c) / (2 * e * (e + m)) + 1j * GAMMA[c] / (2 * e)
            - 1j * p_dot(GAMMA, P) * P[c] / (2 * e * e * (e + m)))


def _mean_spin(p, P, e, m, c):
    return (m * SIGMA[c] / (2 * e) - 1j * cross_c(GAMMA, P, c) / (2 * e)
            + P[c] * p_dot(SIGMA, P) / (2 * e * (e + m)))


def _com_position_dirac(p, P, e, m, c):
    return 1j * (GAMMA[c] / (2 * m) - p_dot(GAMMA, P) * P[c] / (2 * m * e * e))


def _projected_spin_dirac(p, P, e, m, c):
    return (m * m * SIGMA[c] + P[c] * p_dot(SIGMA, P)
            - 1j * m * cross_c(GAMMA, P, c)) / (2 * e * e)


FAMILIES = {
    "four_spin_space": Family(_four_spin_space, massive_only=True),
    "four_spin_time": Family(lambda p, P, e, m, c: p_dot(SIGMA, P) / (2 * m),
                             vector=False, massive_only=True),
    "pauli_lubanski_space": Family(_pauli_lubanski_space, singular_at_rest=True),
    "pauli_lubanski_time": Family(lambda p, P, e, m, c: p_dot(SIGMA, P) / 2, vector=False),
    "spin_prime": Family(_spin_prime, massive_only=True),
    "projector_plus": Family(_projector(1.0), vector=False, singular_at_rest=True),
    "projector_minus": Family(_projector(-1.0), vector=False, singular_at_rest=True),
    # the velocity (rho_3 + i rho_2) p_k / m of the product's FV_HAMILTONIAN
    "fv_velocity": Family(lambda p, P, e, m, c: _RHO_PLUS * P[c] / m,
                          massive_only=True, dim=2),
    "nw_position_dirac": Family(_nw_position, radius_part, singular_at_rest=True),
    "mean_spin_dirac": Family(_mean_spin, singular_at_rest=True),
    # (1/2){x_c, H_D} = (i/2) alpha_c + i H_D d/dp_c,  t = 0
    "boost_dirac": Family(lambda p, P, e, m, c: 0.5j * ALPHA[c], dirac_boost_part),
    "com_position_dirac": Family(_com_position_dirac, radius_part, massive_only=True),
    "lab_spin_dirac": Family(lambda p, P, e, m, c: (
        SIGMA[c] / 2 - 1j * cross_c(GAMMA, P, c) / (2 * m)), massive_only=True),
    "projected_position_dirac": Family(lambda p, P, e, m, c: (
        -cross_c(SIGMA, P, c) / (2 * e * e) + 1j * m * GAMMA[c] / (2 * e * e)),
        radius_part, singular_at_rest=True),
    "projected_spin_dirac": Family(_projected_spin_dirac, singular_at_rest=True),
}

# every catalogue row by name: the product's 17, each named as build_operator
# names it, and the 15 above
ALL_ROWS = {**{member.name.lower(): member.value for member in OperatorFamily}, **FAMILIES}


def build_family(name: str, m: float, component=None) -> PhaseSpaceOperator:
    """One member of the family of FAMILIES named name, at mass m."""
    return FAMILIES[name].build(name, m, component)


def family_operators(m: float) -> list:
    """Every component of every row of ALL_ROWS that admits mass m."""
    return [row.build(name, m, c) for name, row in ALL_ROWS.items()
            for c in ((1, 2, 3) if row.vector else (None,))
            if m > 0 or not row.massive_only]


# --- the two-component scalar sector as plain matrices ---------------------------
#
# The closed forms the catalogue row FV_HAMILTONIAN and its gradient are
# checked against, written with a matrix product for |p|^2.

def fv_hamiltonian_matrix(p, m: float) -> np.ndarray:
    """Two-component scalar-sector Hamiltonian rho_3 m + (rho_3 + i rho_2) p^2/(2m)
    at momenta (..., 3)."""
    if m <= 0:
        raise ValueError("two-component scalar-sector form requires m > 0")
    p = np.asarray(p, dtype=float)
    return PAULI[2] * m + _RHO_PLUS * (p[..., None, :] @ p[..., :, None]) / (2 * m)


def fv_velocity_matrix(p, m: float, component: int) -> np.ndarray:
    """Scalar-sector velocity (rho_3 + i rho_2) p_k / m at momenta (..., 3)."""
    if m <= 0:
        raise ValueError("two-component scalar-sector form requires m > 0")
    p = np.asarray(p, dtype=float)
    return _RHO_PLUS * p[..., component, None, None] / m


# --- worldline defects ------------------------------------------------------------

def worldline_defect(m: float, p, i: int, j: int) -> np.ndarray:
    """Closed form of the [q_i, K_j] worldline residual of the conventional set.

    residual = -i beta d/dp_i [ (Sigma x p)_j / (2(eps+m)) ]
    """
    p = np.asarray(p, dtype=float)
    e = energy(p, m)
    sxp_j = sum(levi(j, k, l) * p[l] * SIGMA[k] for k in range(3) for l in range(3))
    term = sum(levi(j, k, i) * SIGMA[k] for k in range(3)) / (2 * (e + m)) \
        - sxp_j * p[i] / (2 * e * (e + m) ** 2)
    return -1j * BETA @ term


def classical_worldline_defect(state: ClassicalState, i: int, j: int) -> np.ndarray:
    """Closed form of the {Q_i, K_j} residual at the states:
    -e_ijk S_k/(m+H) + (S x P)_j P_i / (H (m+H)^2)."""
    h = np.sqrt(state.m ** 2 + (state.P ** 2).sum(axis=-1))
    sxp = np.cross(state.S, state.P)
    return (-sum(levi(i, j, k) * state.S[..., k] for k in range(3)) / (state.m + h)
            + sxp[..., j] * state.P[..., i] / (h * (state.m + h) ** 2))


# --- packets, grid Hamiltonians and trembling-motion records ----------------------

def make_dirac_upper_packet(p0: float, sigma_p: float, m: float, n=None) -> WavePacket1D:
    """Gaussian upper spinor written directly in the Dirac picture.

    Unlike the positive-energy factory, this state mixes both energy signs,
    so its velocity expectation trembles at twice the packet energy.
    """
    fw = make_gaussian_packet(p0, sigma_p, m, n)
    return WavePacket1D(grid=fw.grid, psi=fw.psi, m=m, picture="dirac")


def negative_energy_part(packet: WavePacket1D) -> np.ndarray:
    """(1 - H_D/eps)/2 applied nodewise to the Dirac-picture amplitude, (n, 4),
    with H_D = beta m + beta gamma_3 p built from the gamma matrices."""
    pk = to_picture(packet, "dirac")
    p = pk.grid.p_centered[:, None, None]
    h = pk.m * BETA + p * (BETA @ GAMMA[2])
    pi_minus = 0.5 * (I4 - h / np.sqrt(pk.m ** 2 + p * p))
    return np.einsum("nij,nj->ni", pi_minus, pk.psi)


def position_to_momentum(big_psi: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Inverse of momentum_to_position (kernel exp(-i p x)/sqrt(2 pi)), for
    spinors of shape (n, 4)."""
    alt = np.where(np.arange(grid.n) % 2, -1.0, 1.0)[:, None]
    return (grid.dx / np.sqrt(2 * np.pi)) * alt * np.fft.fft(alt * big_psi, axis=0)


def position_space(packet: WavePacket1D) -> tuple:
    """(x nodes, Psi(x) with shape (n, 4))."""
    return packet.grid.x, momentum_to_position(packet.psi, packet.grid)


def apply_position(packet: WavePacket1D) -> np.ndarray:
    """The spectrally periodized i d/dp on the packet's amplitude, (n, 4):
    multiply by x in position space, transform back."""
    x, big_psi = position_space(packet)
    return position_to_momentum(x[:, None] * big_psi, packet.grid)


def position_expectation(packet: WavePacket1D, picture: str = "fw") -> float:
    """<x> with the periodized i d/dp averaged in the stated picture."""
    pk = to_picture(packet, picture)
    return float(np.real(np.vdot(pk.psi, apply_position(pk))) * pk.grid.dp)


def position_sq_expectation(packet: WavePacket1D, picture: str = "fw") -> float:
    """<x^2> = ||i d/dp psi||^2 dp in the stated picture, by the operator
    route: no density is formed."""
    xpsi = apply_position(to_picture(packet, picture))
    return float(np.real(np.vdot(xpsi, xpsi)) * packet.grid.dp)


def closed_form_pce_x_sq(packet: WavePacket1D) -> float:
    """PCE(x^2) = sum |phi(p)|^2 m^2 / (4 eps^4) dp for an fw-picture packet
    with momentum and spin along z.  With u(p) = U(p)^dag e_1 the Dirac
    amplitude is phi u, and |d_p (phi u)|^2 - |d_p phi|^2 = |phi|^2 |d_p u|^2
    once the Berry connection <u, d_p u> vanishes, as it does for spin
    along p; |d_p u|^2 = m^2 / (4 eps^4)."""
    if packet.picture != "fw" or np.any(packet.psi[:, 1:]):
        raise ValueError("the closed form holds for an fw packet with spin up along z")
    p = packet.grid.p_centered
    eps2 = packet.m ** 2 + p * p
    return float(np.sum(np.abs(packet.psi[:, 0]) ** 2 * packet.m ** 2 / (4 * eps2 * eps2))
                 * packet.grid.dp)


def spin_z_expectation(packet: WavePacket1D) -> float:
    """<Sigma_3> in the block-diagonal picture."""
    pk = to_picture(packet, "fw")
    return float(np.real(np.einsum("ni,ij,nj->", pk.psi.conj(), SIGMA[2], pk.psi))
                 * pk.grid.dp)


def packet_difference(packet: WavePacket1D) -> float:
    """L2 distance between the two pictures' amplitudes of the same state."""
    fw = to_picture(packet, "fw")
    dirac = to_picture(packet, "dirac")
    return float(np.sqrt(np.sum(np.abs(fw.psi - dirac.psi) ** 2) * packet.grid.dp))


def alpha_z_expectation(packet: WavePacket1D) -> float:
    """<alpha_3> in the Dirac picture (the oscillating velocity signal)."""
    pk = to_picture(packet, "dirac")
    return float(np.real(np.einsum("ni,ij,nj->", pk.psi.conj(), ALPHA[2], pk.psi))
                 * pk.grid.dp)


def odd_part(bh: BlockedHamiltonian) -> np.ndarray:
    """O in the splitting H = beta M + E + O: the off-diagonal blocks."""
    h = bh.n_upper
    odd = np.zeros_like(bh.H)
    odd[:h, h:] = bh.H[:h, h:]
    odd[h:, :h] = bh.H[h:, :h]
    return odd


def even_part(bh: BlockedHamiltonian) -> np.ndarray:
    """E in the splitting H = beta M + E + O."""
    h = bh.n_upper
    even = np.zeros_like(bh.H)
    even[:h, :h] = bh.H[:h, :h] - bh.m * np.eye(h)
    even[h:, h:] = bh.H[h:, h:] + bh.m * np.eye(h)
    return even


def fourier_multiplier(grid, symbol) -> np.ndarray:
    """F^dag diag(symbol) F on the grid's nodes for a real symbol over
    grid.p_fft: the position-basis circulant whose (j, l) entry is
    c[(j - l) mod n] with c = ifft(symbol), its Hermitian part taken on c so
    that the matrix is exactly Hermitian."""
    c = np.fft.ifft(symbol)
    c = 0.5 * (c + np.roll(c[::-1], 1).conj())            # c[-k]^* at k
    idx = np.arange(grid.n)
    return c[np.subtract.outer(idx, idx) % grid.n]


def spectrum_drift(rec: EvolutionRecord) -> float:
    """Largest change of the velocity spectrum along the record (unitary
    evolution preserves it)."""
    ev = np.sort(np.linalg.eigvals(rec.velocity).real, axis=-1)
    return float(np.max(np.abs(ev[1:] - ev[0]), initial=0.0))


def stacked_record(p, m: float, times, component: int, particle: str) -> tuple:
    """(velocity, position) as (T, d, d) stacks, from one propagator
    P = exp(-2iHt) per sample time: amp P + drift and
    p_k t H^-1 + (i/2) amp H^-1 (P - I), with drift = p_k H^-1 and
    amp = v(0) - drift."""
    p = np.asarray(p, dtype=float)
    if particle == "dirac":
        H, v0 = dirac_hamiltonian(p, m), ALPHA[component]
    else:
        H, v0 = fv_hamiltonian_matrix(p, m), fv_velocity_matrix(p, m, component)
    eps, pk, t = energy(p, m), p[component], np.asarray(times, dtype=float)[:, None, None]
    h_inv = H / (eps * eps)
    drift = pk * h_inv
    prop = free_propagator(H, eps, 2 * t)
    amp = v0 - drift
    osc = 0.5j * amp @ h_inv @ (prop - np.eye(H.shape[0]))
    return amp @ prop + drift, pk * t * h_inv + osc
