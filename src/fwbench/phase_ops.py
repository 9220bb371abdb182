"""First-order differential operator algebra in momentum space.

Every operator here acts on momentum-space spinor wave functions as

    (O psi)(p) = A(p) psi(p) + sum_k B_k(p) (d psi / d p_k)(p)

with matrix-valued coefficients.  The radius vector is i d/dp, so the
position, spin, orbital, and boost families of free relativistic particles
all live at this order.  Commutators of two such operators close on the
same form plus a symmetrized second-order residual, which for the families
in this module is identically zero (all derivative coefficients are
multiples of mutually commuting matrices); it is computed anyway and
asserted small by the verification suites.

Coefficient derivatives come from analytic gradients where a builder
supplies them, otherwise from central differences with one Richardson
level (relative step 1e-5, ~1e-11 accuracy on the rational/sqrt
coefficients appearing here).  Unitaries always carry analytic gradients
so representation changes do not inherit differencing noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .dirac import (GAMMA, I4, dirac_hamiltonian, energy, fv_hamiltonian_matrix,
                    fv_velocity_matrix, fw_hamiltonian, fw_unitary_matrix)
from .linalg import frob

FD_REL_STEP = 1e-5
MASSLESS_MIN_P = 1e-6
UNITARITY_ATOL = 1e-10

_LEVI = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _LEVI[_i, _j, _k] = 1.0
    _LEVI[_i, _k, _j] = -1.0

# (a x b)_c = a[_CROSS[c][0]] b[_CROSS[c][1]] - a[_CROSS[c][1]] b[_CROSS[c][0]]
_CROSS = ((1, 2), (2, 0), (0, 1))


def levi(i: int, j: int, k: int) -> float:
    return _LEVI[i, j, k]


class DomainError(ValueError):
    """Operator construction or evaluation outside its admissible domain."""


class NonUnitaryError(ValueError):
    """Conjugation attempted with a transformation that is not unitary."""


class Rep(Enum):
    DIRAC = "Dirac"
    FW = "FW"
    FV = "FV"


class OperatorFamily(Enum):
    DIRAC_HAMILTONIAN = ("dirac_hamiltonian", Rep.DIRAC, False)
    FW_HAMILTONIAN = ("fw_hamiltonian", Rep.FW, False)
    MOMENTUM = ("momentum", Rep.FW, True)
    FW_POSITION = ("fw_position", Rep.FW, True)
    NW_POSITION_DIRAC = ("nw_position_dirac", Rep.DIRAC, True)
    FW_SPIN = ("fw_spin", Rep.FW, True)
    MEAN_SPIN_DIRAC = ("mean_spin_dirac", Rep.DIRAC, True)
    DIRAC_SPIN = ("dirac_spin", Rep.DIRAC, True)
    OAM_FW = ("oam_fw", Rep.FW, True)
    TOTAL_J = ("total_j", Rep.FW, True)
    BOOST_FW = ("boost_fw", Rep.FW, True)
    BOOST_DIRAC = ("boost_dirac", Rep.DIRAC, True)
    COM_POSITION_FW = ("com_position_fw", Rep.FW, True)
    COM_POSITION_DIRAC = ("com_position_dirac", Rep.DIRAC, True)
    LAB_SPIN_FW = ("lab_spin_fw", Rep.FW, True)
    LAB_SPIN_DIRAC = ("lab_spin_dirac", Rep.DIRAC, True)
    COM_OAM = ("com_oam", Rep.FW, True)
    FOUR_SPIN_SPACE = ("four_spin_space", Rep.FW, True)
    FOUR_SPIN_TIME = ("four_spin_time", Rep.FW, False)
    PAULI_LUBANSKI_SPACE = ("pauli_lubanski_space", Rep.FW, True)
    PAULI_LUBANSKI_TIME = ("pauli_lubanski_time", Rep.FW, False)
    SPIN_PRIME = ("spin_prime", Rep.FW, True)
    PROJECTOR_PLUS = ("projector_plus", Rep.DIRAC, False)
    PROJECTOR_MINUS = ("projector_minus", Rep.DIRAC, False)
    PROJECTED_POSITION_FW = ("projected_position_fw", Rep.FW, True)
    PROJECTED_POSITION_DIRAC = ("projected_position_dirac", Rep.DIRAC, True)
    PROJECTED_SPIN_FW = ("projected_spin_fw", Rep.FW, True)
    PROJECTED_SPIN_DIRAC = ("projected_spin_dirac", Rep.DIRAC, True)
    PROJECTED_OAM = ("projected_oam", Rep.FW, True)
    FV_HAMILTONIAN = ("fv_hamiltonian", Rep.FV, False)
    FV_VELOCITY = ("fv_velocity", Rep.FV, True)

    @property
    def family_name(self) -> str:
        return self.value[0]

    @property
    def rep(self) -> Rep:
        return self.value[1]

    @property
    def is_vector(self) -> bool:
        return self.value[2]


# Families whose coefficients contain an explicit 1/m (rest-frame boost
# factors); these reject m = 0 at construction.
_MASSIVE_ONLY = {
    OperatorFamily.COM_POSITION_FW,
    OperatorFamily.COM_POSITION_DIRAC,
    OperatorFamily.LAB_SPIN_FW,
    OperatorFamily.LAB_SPIN_DIRAC,
    OperatorFamily.COM_OAM,
    OperatorFamily.FOUR_SPIN_SPACE,
    OperatorFamily.FOUR_SPIN_TIME,
    OperatorFamily.SPIN_PRIME,
    OperatorFamily.FV_HAMILTONIAN,
    OperatorFamily.FV_VELOCITY,
}

CoeffFn = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class PhaseSpaceOperator:
    """A(p) + sum_k B_k(p) d/dp_k with matrix coefficients.

    grad_A(p) -> (3, d, d) and grad_B(p) -> (3, 3, d, d) are optional
    analytic gradients (grad_B[l, k] = d B_l / d p_k); finite differences
    are used when absent.
    """

    dim: int
    A: CoeffFn
    B: tuple
    label: str = ""
    mass: float = 0.0
    min_p: float = 0.0
    grad_A: Optional[Callable[[np.ndarray], np.ndarray]] = None
    grad_B: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def check_p(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if p.shape != (3,):
            raise DomainError(f"momentum must be a 3-vector, got shape {p.shape}")
        if self.min_p > 0.0 and np.linalg.norm(p) < self.min_p:
            raise DomainError(
                f"operator '{self.label}' is singular for |p| < {self.min_p}"
            )
        return p


@dataclass
class PhaseOpValue:
    """Evaluation snapshot: multiplicative part, derivative part, and (for
    commutator results) the symmetrized second-order residual."""

    A: np.ndarray
    B: np.ndarray                      # shape (3, d, d)
    second: Optional[np.ndarray] = None  # shape (3, 3, d, d)

    def norm(self) -> float:
        """Frobenius norm over all coefficient blocks."""
        total = np.vdot(self.A, self.A).real + np.vdot(self.B, self.B).real
        if self.second is not None:
            total += np.vdot(self.second, self.second).real
        return float(np.sqrt(total))

    def __sub__(self, other: "PhaseOpValue") -> "PhaseOpValue":
        second = self.second
        if other.second is not None:
            second = other.second if second is None else second - other.second
        return PhaseOpValue(self.A - other.A, self.B - other.B, second)


def _zeros(dim: int) -> np.ndarray:
    return np.zeros((dim, dim), dtype=complex)


def _zero_coeff(dim: int) -> CoeffFn:
    z = _zeros(dim)
    return lambda p: z


def _zero_grad_B(dim: int):
    z = np.zeros((3, 3, dim, dim), dtype=complex)
    return lambda p: z


def _zero_grad_A(dim: int):
    z = np.zeros((3, dim, dim), dtype=complex)
    return lambda p: z


def multiplicative(dim: int, A: CoeffFn, label: str = "", mass: float = 0.0,
                   min_p: float = 0.0, grad_A=None) -> PhaseSpaceOperator:
    """Operator with no derivative part."""
    zero = _zero_coeff(dim)
    return PhaseSpaceOperator(dim, A, (zero, zero, zero), label, mass, min_p,
                              grad_A, _zero_grad_B(dim))


def constant_operator(M: np.ndarray, label: str = "") -> PhaseSpaceOperator:
    Mc = np.asarray(M, dtype=complex)
    d = Mc.shape[0]
    return PhaseSpaceOperator(d, lambda p: Mc, (_zero_coeff(d),) * 3, label,
                              0.0, 0.0, _zero_grad_A(d), _zero_grad_B(d))


def position_like(dim: int, component: int, A: CoeffFn, label: str = "",
                  mass: float = 0.0, min_p: float = 0.0,
                  grad_A=None) -> PhaseSpaceOperator:
    """A(p) + i d/dp_component (the radius-vector pattern)."""
    eye = 1j * np.eye(dim, dtype=complex)
    zero = _zero_coeff(dim)
    B = tuple(
        (lambda p, _m=eye: _m) if k == component else zero for k in range(3)
    )
    return PhaseSpaceOperator(dim, A, B, label, mass, min_p, grad_A,
                              _zero_grad_B(dim))


def radius_operator(dim: int, component: int, label: str = "r") -> PhaseSpaceOperator:
    op = position_like(dim, component, _zero_coeff(dim),
                       f"{label}_{component + 1}")
    return PhaseSpaceOperator(dim, op.A, op.B, op.label, 0.0, 0.0,
                              _zero_grad_A(dim), op.grad_B)


def oam_like(dim: int, component: int, A: CoeffFn, label: str = "",
             mass: float = 0.0, min_p: float = 0.0,
             grad_A=None) -> PhaseSpaceOperator:
    """A(p) + i eps_{c j k} p_k d/dp_j (angular-momentum derivative pattern)."""
    eye = np.eye(dim, dtype=complex)
    c = component

    def make_B(j):
        def Bj(p):
            return 1j * sum(_LEVI[c, j, k] * p[k] for k in range(3)) * eye
        return Bj

    gb = np.zeros((3, 3, dim, dim), dtype=complex)
    for j in range(3):
        for k in range(3):
            gb[j, k] = 1j * _LEVI[c, j, k] * eye

    return PhaseSpaceOperator(dim, A, tuple(make_B(j) for j in range(3)),
                              label, mass, min_p, grad_A, lambda p: gb)


# --- coefficient helpers ----------------------------------------------------

_SIGMA = np.stack(GAMMA.Sigma)
_ALPHA = np.stack(GAMMA.alpha)
_GAMMAK = np.stack(GAMMA.gamma)
_BETA = GAMMA.beta


def _cross_c(mats: np.ndarray, p: np.ndarray, c: int) -> np.ndarray:
    """(M x p)_c for a stacked matrix triple."""
    a, b = _CROSS[c]
    return mats[a] * p[b] - mats[b] * p[a]


def _p_dot(mats: np.ndarray, p: np.ndarray) -> np.ndarray:
    return p[0] * mats[0] + p[1] * mats[1] + p[2] * mats[2]


def _require_component(family: OperatorFamily, component) -> int:
    if not family.is_vector:
        if component is not None:
            raise DomainError(f"{family.family_name} is not a vector family")
        return 0
    if component not in (1, 2, 3):
        raise DomainError(
            f"{family.family_name} needs a component in 1..3, got {component}"
        )
    return component - 1


def _require_mass(family: OperatorFamily, m: float) -> None:
    if m < 0:
        raise DomainError(f"mass must be non-negative, got {m}")
    if m == 0 and family in _MASSIVE_ONLY:
        raise DomainError(
            f"{family.family_name} carries a 1/m rest-frame factor and "
            "requires strictly positive mass"
        )


def build_operator(family: OperatorFamily, m: float,
                   component: Optional[int] = None) -> PhaseSpaceOperator:
    """Construct one member of a named operator family at mass m.

    Vector families take component 1..3; scalar families take None.
    """
    _require_mass(family, m)
    c = _require_component(family, component)
    min_p = MASSLESS_MIN_P if m == 0 else 0.0
    label = family.family_name + (f"_{c + 1}" if family.is_vector else "")
    beta = _BETA

    if family is OperatorFamily.DIRAC_HAMILTONIAN:
        return multiplicative(4, lambda p: dirac_hamiltonian(p, m), label, m,
                              grad_A=lambda p: _ALPHA.copy())

    if family is OperatorFamily.FW_HAMILTONIAN:
        def grad_A(p):
            e = energy(p, m)
            return np.stack([p[k] / e * beta for k in range(3)])
        return multiplicative(4, lambda p: fw_hamiltonian(p, m), label, m, min_p, grad_A)

    if family is OperatorFamily.MOMENTUM:
        def A(p):
            return p[c] * I4

        def grad_A(p):
            out = np.zeros((3, 4, 4), dtype=complex)
            out[c] = I4
            return out
        return multiplicative(4, A, label, m, grad_A=grad_A)

    if family is OperatorFamily.FW_POSITION:
        return position_like(4, c, _zero_coeff(4), label, m,
                             grad_A=_zero_grad_A(4))

    if family is OperatorFamily.NW_POSITION_DIRAC:
        def A(p):
            e = energy(p, m)
            gdotp = _p_dot(_GAMMAK, p)
            return (-_cross_c(_SIGMA, p, c) / (2 * e * (e + m))
                    + 1j * _GAMMAK[c] / (2 * e)
                    - 1j * gdotp * p[c] / (2 * e * e * (e + m)))
        return position_like(4, c, A, label, m, min_p)

    if family in (OperatorFamily.FW_SPIN, OperatorFamily.DIRAC_SPIN):
        half_sigma = 0.5 * _SIGMA[c]
        return multiplicative(4, lambda p: half_sigma, label, m,
                              grad_A=_zero_grad_A(4))

    if family is OperatorFamily.MEAN_SPIN_DIRAC:
        def A(p):
            e = energy(p, m)
            return (m * _SIGMA[c] / (2 * e) - 1j * _cross_c(_GAMMAK, p, c) / (2 * e)
                    + p[c] * _p_dot(_SIGMA, p) / (2 * e * (e + m)))
        return multiplicative(4, A, label, m, min_p)

    if family is OperatorFamily.OAM_FW:
        return oam_like(4, c, _zero_coeff(4), label, m, grad_A=_zero_grad_A(4))

    if family is OperatorFamily.TOTAL_J:
        half_sigma = 0.5 * _SIGMA[c]
        return oam_like(4, c, lambda p: half_sigma, label, m,
                        grad_A=_zero_grad_A(4))

    if family is OperatorFamily.BOOST_FW:
        # (1/2){x_c, beta eps} - beta (Sigma x p)_c / (2(eps+m)),  t = 0
        def A(p):
            e = energy(p, m)
            return (0.5j * p[c] / e) * beta - beta @ _cross_c(_SIGMA, p, c) / (2 * (e + m))

        def grad_A(p):
            e = energy(p, m)
            out = np.empty((3, 4, 4), dtype=complex)
            sxp = _cross_c(_SIGMA, p, c)
            for k in range(3):
                d_sxp = sum(_LEVI[c, jj, k] * _SIGMA[jj] for jj in range(3))
                out[k] = (0.5j * ((1.0 if c == k else 0.0) / e - p[c] * p[k] / e**3) * beta
                          - beta @ d_sxp / (2 * (e + m))
                          + beta @ sxp * p[k] / (2 * e * (e + m) ** 2))
            return out

        def make_B(j):
            if j != c:
                return _zero_coeff(4)
            def Bj(p):
                return 1j * energy(p, m) * beta
            return Bj

        def grad_B(p):
            e = energy(p, m)
            out = np.zeros((3, 3, 4, 4), dtype=complex)
            for k in range(3):
                out[c, k] = 1j * p[k] / e * beta
            return out

        return PhaseSpaceOperator(4, A, tuple(make_B(j) for j in range(3)),
                                  label, m, min_p, grad_A, grad_B)

    if family is OperatorFamily.BOOST_DIRAC:
        fw = build_operator(OperatorFamily.BOOST_FW, m, component)
        return conjugate(fw, fw_unitary_free_inv(m), fw_unitary_free(m),
                         label=label)

    if family is OperatorFamily.COM_POSITION_FW:
        def A(p):
            e = energy(p, m)
            return _cross_c(_SIGMA, p, c) / (2 * m * (e + m))
        return position_like(4, c, A, label, m)

    if family is OperatorFamily.COM_POSITION_DIRAC:
        def A(p):
            e = energy(p, m)
            gdotp = _p_dot(_GAMMAK, p)
            return 1j * (_GAMMAK[c] / (2 * m) - gdotp * p[c] / (2 * m * e * e))
        return position_like(4, c, A, label, m)

    if family is OperatorFamily.LAB_SPIN_FW:
        # s - p x (p x s) / (m(eps+m)) with s = Sigma/2
        def A(p):
            e = energy(p, m)
            pxpxs = p[c] * _p_dot(_SIGMA, p) / 2 - (p @ p) * _SIGMA[c] / 2
            return _SIGMA[c] / 2 - pxpxs / (m * (e + m))
        return multiplicative(4, A, label, m)

    if family is OperatorFamily.LAB_SPIN_DIRAC:
        def A(p):
            return _SIGMA[c] / 2 - 1j * _cross_c(_GAMMAK, p, c) / (2 * m)
        return multiplicative(4, A, label, m)

    if family is OperatorFamily.COM_OAM:
        # (X_com x p)_c: shift part ((Sigma x p) x p)_c / (2m(eps+m))
        def A(p):
            e = energy(p, m)
            return (p[c] * _p_dot(_SIGMA, p) - (p @ p) * _SIGMA[c]) / (2 * m * (e + m))
        return oam_like(4, c, A, label, m)

    if family is OperatorFamily.FOUR_SPIN_SPACE:
        def A(p):
            e = energy(p, m)
            return _SIGMA[c] / 2 + p[c] * _p_dot(_SIGMA, p) / (2 * m * (e + m))
        return multiplicative(4, A, label, m)

    if family is OperatorFamily.FOUR_SPIN_TIME:
        def A(p):
            return _p_dot(_SIGMA, p) / (2 * m)
        return multiplicative(4, A, label, m)

    if family is OperatorFamily.PAULI_LUBANSKI_SPACE:
        def A(p):
            e = energy(p, m)
            return m * _SIGMA[c] / 2 + p[c] * _p_dot(_SIGMA, p) / (2 * (e + m))
        return multiplicative(4, A, label, m)

    if family is OperatorFamily.PAULI_LUBANSKI_TIME:
        def A(p):
            return _p_dot(_SIGMA, p) / 2
        return multiplicative(4, A, label, m)

    if family is OperatorFamily.SPIN_PRIME:
        # (W - W0 p/(eps+m)) / m, assembled from the four-vector components
        def A(p):
            e = energy(p, m)
            w_c = m * _SIGMA[c] / 2 + p[c] * _p_dot(_SIGMA, p) / (2 * (e + m))
            w0 = _p_dot(_SIGMA, p) / 2
            return (w_c - w0 * p[c] / (e + m)) / m
        return multiplicative(4, A, label, m)

    if family in (OperatorFamily.PROJECTOR_PLUS, OperatorFamily.PROJECTOR_MINUS):
        sign = 1.0 if family is OperatorFamily.PROJECTOR_PLUS else -1.0
        def A(p):
            e = energy(p, m)
            return 0.5 * (I4 + sign * m / e * beta) + sign * _p_dot(_ALPHA, p) / (2 * e)
        return multiplicative(4, A, label, m, min_p)

    if family is OperatorFamily.PROJECTED_POSITION_FW:
        def A(p):
            e = energy(p, m)
            return -_cross_c(_SIGMA, p, c) / (2 * e * (e + m))
        return position_like(4, c, A, label, m, min_p)

    if family is OperatorFamily.PROJECTED_POSITION_DIRAC:
        def A(p):
            e = energy(p, m)
            return (-_cross_c(_SIGMA, p, c) / (2 * e * e)
                    + 1j * m * _GAMMAK[c] / (2 * e * e))
        return position_like(4, c, A, label, m, min_p)

    if family is OperatorFamily.PROJECTED_SPIN_FW:
        def A(p):
            e = energy(p, m)
            return m * _SIGMA[c] / (2 * e) + p[c] * _p_dot(_SIGMA, p) / (2 * e * (e + m))
        return multiplicative(4, A, label, m, min_p)

    if family is OperatorFamily.PROJECTED_SPIN_DIRAC:
        def A(p):
            e = energy(p, m)
            return (m * m * _SIGMA[c] + p[c] * _p_dot(_SIGMA, p)
                    - 1j * m * _cross_c(_GAMMAK, p, c)) / (2 * e * e)
        return multiplicative(4, A, label, m, min_p)

    if family is OperatorFamily.PROJECTED_OAM:
        def A(p):
            e = energy(p, m)
            return -(p[c] * _p_dot(_SIGMA, p) - (p @ p) * _SIGMA[c]) / (2 * e * (e + m))
        return oam_like(4, c, A, label, m, min_p)

    if family is OperatorFamily.FV_HAMILTONIAN:
        return multiplicative(2, lambda p: fv_hamiltonian_matrix(p, m), label, m)

    if family is OperatorFamily.FV_VELOCITY:
        return multiplicative(2, lambda p: fv_velocity_matrix(p, m, c), label, m)

    raise DomainError(f"unknown operator family: {family}")


# --- free-particle representation change ------------------------------------

def _fw_free_operator(m: float, inverse: bool) -> PhaseSpaceOperator:
    """The free unitary (or its inverse) with its analytic gradient."""
    if m < 0:
        raise DomainError(f"mass must be non-negative, got {m}")
    sign = -1.0 if inverse else 1.0

    def grad_A(p):
        # U = num * s: d_k U = (d_k num) s + U d_k log(s)
        e = energy(p, m)
        s = 1.0 / np.sqrt(2 * e * (e + m))
        u = fw_unitary_matrix(p, m, inverse)
        out = np.empty((3, 4, 4), dtype=complex)
        for k in range(3):
            dlog_s = -(p[k] * (2 * e + m) / e) / (2 * e * (e + m))
            out[k] = (p[k] / e * I4 + sign * _GAMMAK[k]) * s + u * dlog_s
        return out

    return multiplicative(4, lambda p: fw_unitary_matrix(p, m, inverse),
                          "U_fw_free_inv" if inverse else "U_fw_free", m,
                          MASSLESS_MIN_P if m == 0 else 0.0, grad_A)


def fw_unitary_free(m: float) -> PhaseSpaceOperator:
    """Free-particle transformation to the block-diagonal representation."""
    return _fw_free_operator(m, inverse=False)


def fw_unitary_free_inv(m: float) -> PhaseSpaceOperator:
    """Inverse of the free transformation (gamma.p sign flipped)."""
    return _fw_free_operator(m, inverse=True)


# --- evaluation and commutation ----------------------------------------------

def coeff_derivative(f: CoeffFn, p: np.ndarray, k: int,
                     rel_step: float = FD_REL_STEP) -> np.ndarray:
    """d f / d p_k by central differences with one Richardson level.

    f returns an array (an operator coefficient) or a float (a classical
    observable, with p one block of phase-space coordinates).
    """
    h = rel_step * max(1.0, float(np.linalg.norm(p)))

    def central(hh):
        pp = p.copy()
        pm = p.copy()
        pp[k] += hh
        pm[k] -= hh
        return (f(pp) - f(pm)) / (2 * hh)

    d1 = central(h)
    d2 = central(h / 2)
    out = (4.0 * d2 - d1) / 3.0
    if not np.isfinite(out).all():
        raise DomainError(f"coefficient derivative failed near p = {p}")
    return out


@dataclass
class OpSnapshot:
    """Coefficients and their momentum gradients frozen at one momentum."""

    dim: int
    A: np.ndarray
    B: np.ndarray    # (3, d, d)
    dA: np.ndarray   # (3, d, d), dA[k] = d A / d p_k
    dB: np.ndarray   # (3, 3, d, d), dB[l, k] = d B_l / d p_k


def snapshot(op: PhaseSpaceOperator, p) -> OpSnapshot:
    p = op.check_p(p)
    d = op.dim
    A = np.asarray(op.A(p), dtype=complex)
    B = np.stack([np.asarray(op.B[l](p), dtype=complex) for l in range(3)])
    if op.grad_A is not None:
        dA = np.asarray(op.grad_A(p), dtype=complex)
    else:
        dA = np.stack([coeff_derivative(op.A, p, k) for k in range(3)])
    if op.grad_B is not None:
        dB = np.asarray(op.grad_B(p), dtype=complex)
    else:
        dB = np.empty((3, 3, d, d), dtype=complex)
        for l in range(3):
            for k in range(3):
                dB[l, k] = coeff_derivative(op.B[l], p, k)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise DomainError(f"operator '{op.label}' evaluated to non-finite entries")
    return OpSnapshot(d, A, B, dA, dB)


def evaluate(op: PhaseSpaceOperator, p) -> PhaseOpValue:
    """Coefficients of op at momentum p (no derivative data)."""
    p = op.check_p(p)
    A = np.asarray(op.A(p), dtype=complex)
    B = np.stack([np.asarray(op.B[l](p), dtype=complex) for l in range(3)])
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
        raise DomainError(f"operator '{op.label}' evaluated to non-finite entries")
    return PhaseOpValue(A, B)


def commutator_snapshot(s1: OpSnapshot, s2: OpSnapshot) -> PhaseOpValue:
    """Commutator of two first-order operators from frozen snapshots.

    zeroth:  [A, C] + sum_k (B_k dC_k - D_k dA_k)
    first l: [A, D_l] + [B_l, C] + sum_k (B_k dD_{l,k} - D_k dB_{l,k})
    second:  (1/2)(B_k D_l + B_l D_k - D_k B_l - D_l B_k)
    """
    if s1.dim != s2.dim:
        raise DomainError(f"dimension mismatch: {s1.dim} vs {s2.dim}")
    A, B, dA, dB = s1.A, s1.B, s1.dA, s1.dB
    C, D, dC, dD = s2.A, s2.B, s2.dA, s2.dB

    zero = (A @ C - C @ A
            + np.einsum("kab,kbc->ac", B, dC)
            - np.einsum("kab,kbc->ac", D, dA))
    first = (np.einsum("ab,lbc->lac", A, D) - np.einsum("lab,bc->lac", D, A)
             + np.einsum("lab,bc->lac", B, C) - np.einsum("ab,lbc->lac", C, B)
             + np.einsum("kab,lkbc->lac", B, dD)
             - np.einsum("kab,lkbc->lac", D, dB))
    bd = np.einsum("kab,lbc->klac", B, D)
    db = np.einsum("kab,lbc->klac", D, B)
    second = 0.5 * (bd + bd.transpose(1, 0, 2, 3) - db - db.transpose(1, 0, 2, 3))
    return PhaseOpValue(zero, first, second)


def op_commutator(op1: PhaseSpaceOperator, op2: PhaseSpaceOperator, p) -> PhaseOpValue:
    """[op1, op2] evaluated at momentum p."""
    return commutator_snapshot(snapshot(op1, p), snapshot(op2, p))


def conjugate(op: PhaseSpaceOperator, U: PhaseSpaceOperator,
              U_inv: PhaseSpaceOperator, label: str = "") -> PhaseSpaceOperator:
    """U op U^-1 for a multiplicative unitary U.

    The derivative part shifts the multiplicative part:
        A' = U A U^-1 + sum_k U B_k (d U^-1 / d p_k)
        B'_k = U B_k U^-1
    Unitarity of U at each evaluation point is checked to 1e-10.
    """
    if U.dim != op.dim or U_inv.dim != op.dim:
        raise DomainError("dimension mismatch in conjugation")
    probe = np.array([0.1, 0.2, 0.3])
    for k in range(3):
        if frob(np.asarray(U.B[k](probe))) != 0.0:
            raise DomainError("conjugation requires a transformation with no "
                              "derivative part")

    def _mats(p):
        Um = np.asarray(U.A(p), dtype=complex)
        Vi = np.asarray(U_inv.A(p), dtype=complex)
        defect = frob(Um @ Vi - np.eye(op.dim))
        if defect > UNITARITY_ATOL * np.sqrt(op.dim):
            raise NonUnitaryError(
                f"U U^-1 deviates from identity by {defect:.3e} at p = {p}"
            )
        return Um, Vi

    def A(p):
        Um, Vi = _mats(p)
        if U_inv.grad_A is not None:
            dVi = U_inv.grad_A(p)
        else:
            dVi = [coeff_derivative(U_inv.A, p, k) for k in range(3)]
        out = Um @ np.asarray(op.A(p), dtype=complex) @ Vi
        for k in range(3):
            out = out + Um @ np.asarray(op.B[k](p), dtype=complex) @ dVi[k]
        return out

    def make_B(l):
        def Bl(p):
            Um, Vi = _mats(p)
            return Um @ np.asarray(op.B[l](p), dtype=complex) @ Vi
        return Bl

    return PhaseSpaceOperator(op.dim, A, tuple(make_B(l) for l in range(3)),
                              label or f"conj({op.label})",
                              op.mass, max(op.min_p, U.min_p, U_inv.min_p))


def hermiticity_residual(op: PhaseSpaceOperator, p) -> float:
    """How far op is from Hermitian as an operator on L^2(dp).

    Conditions: every B_k anti-Hermitian, and
    A^dag - A + sum_k dB_k/dp_k = 0.
    """
    s = snapshot(op, p)
    res = frob(s.A.conj().T - s.A + sum(s.dB[k, k] for k in range(3)))
    res += sum(frob(s.B[k].conj().T + s.B[k]) for k in range(3))
    return float(res)
