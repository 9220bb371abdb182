"""Test-side oracles and operators that no verdict of the program reads.

The dense matrix commutator, operator-level commutators and conjugation,
the free block-diagonalizing unitary as an operator, the catalogue families
that no suite uses, the closed-form worldline defects, and small packet,
spectral and trembling-motion probes.  The tests check the program against
these; the program itself never calls them.
"""

import numpy as np

from fwbench.algebra import ClassicalState
from fwbench.dirac import GAMMA, I4, energy, fw_unitary_matrix, stacked_energy
from fwbench.eriksen import BlockedHamiltonian
from fwbench.linalg import LinalgError, frob
from fwbench.phase_ops import (
    MASSLESS_MIN_P,
    DomainError,
    Jet,
    PhaseOpValue,
    PhaseSpaceOperator,
    commutator_snapshot,
    energy_jet,
    levi,
    momentum_jets,
    p_dot,
    snapshot,
)
from fwbench.wavepacket import (WavePacket1D, apply_position, make_gaussian_packet,
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
    gammas = np.stack(GAMMA.gamma)

    def A(p):
        # U = num * s with s = 1/sqrt(2 eps (eps+m)): d_k U = (d_k num) s + U d_k log(s)
        e = stacked_energy(p, m)[..., None, :, :]
        s = 1.0 / np.sqrt(2 * e * (e + m))
        pk = p[..., :, None, None]
        dlog_s = -(pk * (2 * e + m) / e) / (2 * e * (e + m))
        u = fw_unitary_matrix(p, m, inverse)
        return Jet(u, (pk / e * I4 + sign * gammas) * s + u[..., None, :, :] * dlog_s)

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
# Multiplicative operators, each coefficient written once in Jets over the
# momentum components P and the energy e, as the product catalogue is.

_SIGMA = np.stack(GAMMA.Sigma)
_ALPHA = np.stack(GAMMA.alpha)
_RHO_PLUS = GAMMA.rho[2] + 1j * GAMMA.rho[1]    # rho_3 + i rho_2


def _four_spin_space(P, e, m, c):
    return _SIGMA[c] / 2 + P[c] * p_dot(_SIGMA, P) / (2 * m * (e + m))


def _pauli_lubanski_space(P, e, m, c):
    return m * _SIGMA[c] / 2 + P[c] * p_dot(_SIGMA, P) / (2 * (e + m))


def _spin_prime(P, e, m, c):
    # (W - W0 p/(eps+m)) / m, assembled from the four-vector components
    w0 = p_dot(_SIGMA, P) / 2
    return (_pauli_lubanski_space(P, e, m, c) - w0 * P[c] / (e + m)) / m


def _projector(sign):
    return lambda P, e, m, c: (0.5 * (I4 + sign * m / e * GAMMA.beta)
                               + sign * p_dot(_ALPHA, P) / (2 * e))


def _fv_hamiltonian(P, e, m, c):
    # two-component scalar sector: rho_3 m + (rho_3 + i rho_2) p^2/(2m)
    return m * GAMMA.rho[2] + _RHO_PLUS * p_dot(P, P) / (2 * m)


# name: (coefficient A(P, e, m, c), dimension, vector, carries 1/m,
#        singular at p = 0 when massless)
FAMILIES = {
    "four_spin_space": (_four_spin_space, 4, True, True, False),
    "four_spin_time": (lambda P, e, m, c: p_dot(_SIGMA, P) / (2 * m), 4, False, True, False),
    "pauli_lubanski_space": (_pauli_lubanski_space, 4, True, False, True),
    "pauli_lubanski_time": (lambda P, e, m, c: p_dot(_SIGMA, P) / 2, 4, False, False, False),
    "spin_prime": (_spin_prime, 4, True, True, False),
    "projector_plus": (_projector(1.0), 4, False, False, True),
    "projector_minus": (_projector(-1.0), 4, False, False, True),
    "fv_hamiltonian": (_fv_hamiltonian, 2, False, True, False),
    # the velocity (rho_3 + i rho_2) p_k / m
    "fv_velocity": (lambda P, e, m, c: _RHO_PLUS * P[c] / m, 2, True, True, False),
}


def build_family(name: str, m: float, component=None) -> PhaseSpaceOperator:
    """One member of a family of FAMILIES at mass m; vector families take
    component 1..3.  Families with a 1/m factor reject m = 0, and those with
    a 1/eps factor reject |p| < MASSLESS_MIN_P at m = 0."""
    A, dim, vector, massive_only, singular_at_rest = FAMILIES[name]
    if m == 0 and massive_only:
        raise DomainError(f"{name} carries a 1/m rest-frame factor and "
                          "requires strictly positive mass")
    c = component - 1 if vector else 0
    label = name + (f"_{component}" if vector else "")
    min_p = MASSLESS_MIN_P if m == 0 and singular_at_rest else 0.0
    return multiplicative(dim, lambda p: A(momentum_jets(p), energy_jet(p, m), m, c),
                          label, min_p)


def family_operators(m: float) -> list:
    """Every component of every family of FAMILIES that admits mass m."""
    return [build_family(name, m, c)
            for name, (_, _, vector, massive_only, _) in FAMILIES.items()
            for c in ((1, 2, 3) if vector else (None,))
            if m > 0 or not massive_only]


# --- worldline defects ------------------------------------------------------------

def worldline_defect(m: float, p, i: int, j: int) -> np.ndarray:
    """Closed form of the [q_i, K_j] worldline residual of the conventional set.

    residual = -i beta d/dp_i [ (Sigma x p)_j / (2(eps+m)) ]
    """
    p = np.asarray(p, dtype=float)
    e = energy(p, m)
    Sigma, beta = GAMMA.Sigma, GAMMA.beta
    sxp_j = sum(levi(j, k, l) * p[l] * Sigma[k] for k in range(3) for l in range(3))
    term = sum(levi(j, k, i) * Sigma[k] for k in range(3)) / (2 * (e + m)) \
        - sxp_j * p[i] / (2 * e * (e + m) ** 2)
    return -1j * beta @ term


def classical_worldline_defect(state: ClassicalState, i: int, j: int) -> np.ndarray:
    """Closed form of the {Q_i, K_j} residual at the states:
    -e_ijk S_k/(m+H) + (S x P)_j P_i / (H (m+H)^2)."""
    h = np.sqrt(state.m ** 2 + (state.P ** 2).sum(axis=-1))
    sxp = np.cross(state.S, state.P)
    return (-sum(levi(i, j, k) * state.S[..., k] for k in range(3)) / (state.m + h)
            + sxp[..., j] * state.P[..., i] / (h * (state.m + h) ** 2))


# --- packets, grid Hamiltonians and trembling-motion records ----------------------

def make_dirac_upper_packet(p0: float, sigma_p: float, m: float,
                            spin_dir=(0, 0, 1), grid=None, n=None) -> WavePacket1D:
    """Gaussian upper spinor written directly in the Dirac picture.

    Unlike the positive-energy factory, this state mixes both energy signs,
    so its velocity expectation trembles at twice the packet energy.
    """
    fw = make_gaussian_packet(p0, sigma_p, m, spin_dir, "fw", grid, n)
    return WavePacket1D(grid=fw.grid, psi=fw.psi, m=m, picture="dirac")


def negative_energy_part(packet: WavePacket1D) -> np.ndarray:
    """(1 - H_D/eps)/2 applied nodewise to the Dirac-picture amplitude, (n, 4),
    with H_D = beta m + beta gamma_3 p built from the gamma matrices."""
    pk = to_picture(packet, "dirac")
    p = pk.grid.p_centered[:, None, None]
    h = pk.m * GAMMA.beta + p * (GAMMA.beta @ GAMMA.gamma[2])
    pi_minus = 0.5 * (I4 - h / np.sqrt(pk.m ** 2 + p * p))
    return np.einsum("nij,nj->ni", pi_minus, pk.psi)


def position_expectation(packet: WavePacket1D, picture: str = "fw") -> float:
    """<x> with the periodized i d/dp averaged in the stated picture."""
    pk = to_picture(packet, picture)
    xpsi = apply_position(pk.psi, pk.grid)
    return float(np.real(np.vdot(pk.psi, xpsi)) * pk.grid.dp)


def spin_z_expectation(packet: WavePacket1D) -> float:
    """<Sigma_3> in the block-diagonal picture."""
    pk = to_picture(packet, "fw")
    return float(np.real(np.einsum("ni,ij,nj->", pk.psi.conj(), GAMMA.Sigma[2], pk.psi))
                 * pk.grid.dp)


def packet_difference(packet: WavePacket1D) -> float:
    """L2 distance between the two pictures' amplitudes of the same state."""
    fw = to_picture(packet, "fw")
    dirac = to_picture(packet, "dirac")
    return float(np.sqrt(np.sum(np.abs(fw.psi - dirac.psi) ** 2) * packet.grid.dp))


def alpha_z_expectation(packet: WavePacket1D) -> float:
    """<alpha_3> in the Dirac picture (the oscillating velocity signal)."""
    pk = to_picture(packet, "dirac")
    return float(np.real(np.einsum("ni,ij,nj->", pk.psi.conj(), GAMMA.alpha[2], pk.psi))
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


def spectrum_drift(rec: EvolutionRecord) -> float:
    """Largest change of the velocity spectrum along the record (unitary
    evolution preserves it)."""
    ev = np.sort(np.linalg.eigvals(rec.velocity).real, axis=-1)
    return float(np.max(np.abs(ev[1:] - ev[0]), initial=0.0))
