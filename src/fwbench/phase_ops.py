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

Coefficients are evaluated on a whole stack of momenta, shape (..., 3), in
one call, and their momentum gradients are exact.  Each catalogue
coefficient is written once in forward-mode (value, gradient) arithmetic
(Jet), so its gradient comes from the same expression as its value, and
snapshot is the one evaluation path: it returns every coefficient with its
gradient.  The same Jets, with 9 gradient entries, carry the classical
observables over phase space (Q, P, S) in algebra.  Nothing in the program
differences numerically: the Richardson difference coeff_derivative is the
tests' oracle for the exact gradients, kept here because the benchmark's
span table (fwperf/spans.py) traces it by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .dirac import GAMMA, I4, dirac_hamiltonian, stacked_energy

FD_REL_STEP = 1e-5
MASSLESS_MIN_P = 1e-6

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


class OperatorFamily(Enum):
    DIRAC_HAMILTONIAN = ("dirac_hamiltonian", False)
    FW_HAMILTONIAN = ("fw_hamiltonian", False)
    MOMENTUM = ("momentum", True)
    FW_POSITION = ("fw_position", True)
    NW_POSITION_DIRAC = ("nw_position_dirac", True)
    FW_SPIN = ("fw_spin", True)
    MEAN_SPIN_DIRAC = ("mean_spin_dirac", True)
    OAM_FW = ("oam_fw", True)
    TOTAL_J = ("total_j", True)
    BOOST_FW = ("boost_fw", True)
    BOOST_DIRAC = ("boost_dirac", True)
    NAIVE_BOOST = ("naive_boost", True)
    COM_POSITION_FW = ("com_position_fw", True)
    COM_POSITION_DIRAC = ("com_position_dirac", True)
    LAB_SPIN_FW = ("lab_spin_fw", True)
    LAB_SPIN_DIRAC = ("lab_spin_dirac", True)
    COM_OAM = ("com_oam", True)
    PROJECTED_POSITION_FW = ("projected_position_fw", True)
    PROJECTED_POSITION_DIRAC = ("projected_position_dirac", True)
    PROJECTED_SPIN_FW = ("projected_spin_fw", True)
    PROJECTED_SPIN_DIRAC = ("projected_spin_dirac", True)
    PROJECTED_OAM = ("projected_oam", True)

    @property
    def family_name(self) -> str:
        return self.value[0]

    @property
    def is_vector(self) -> bool:
        return self.value[1]


# Families whose coefficients contain an explicit 1/m (rest-frame boost
# factors); these reject m = 0 at construction.
_MASSIVE_ONLY = {
    OperatorFamily.COM_POSITION_FW,
    OperatorFamily.COM_POSITION_DIRAC,
    OperatorFamily.LAB_SPIN_FW,
    OperatorFamily.LAB_SPIN_DIRAC,
    OperatorFamily.COM_OAM,
}


# --- forward-mode (value, gradient) arithmetic -------------------------------

def _kaxis(x: np.ndarray) -> np.ndarray:
    """x with a gradient axis inserted: shape (..., 1, r, c)."""
    return x[..., None, :, :]


class Jet:
    """A coefficient and its exact gradient, carried through one expression.

    val has shape (..., r, c) and grad shape (..., n, r, c), with
    grad[..., k, :, :] = d val / d x_k over n coordinates x: the 3 momenta
    of an operator coefficient, or the 9 phase-space coordinates (Q, P, S)
    of a classical observable.  A scalar function has r = c = 1, so it
    scales d x d matrices elementwise.  Plain numbers and constant matrices
    combine with a Jet as coordinate-independent values.
    """

    __array_ufunc__ = None    # ndarray operands defer to the reflected methods

    def __init__(self, val, grad):
        self.val = val
        self.grad = grad

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val + other.val, self.grad + other.grad)
        return Jet(self.val + other, self.grad)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.val, -self.grad)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val * other.val,
                       self.grad * _kaxis(other.val) + _kaxis(self.val) * other.grad)
        return Jet(self.val * other, self.grad * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            q = self.val / other.val
            return Jet(q, (self.grad - _kaxis(q) * other.grad) / _kaxis(other.val))
        return Jet(self.val / other, self.grad / other)

    def __rtruediv__(self, other):
        q = other / self.val
        return Jet(q, -_kaxis(q) * self.grad / _kaxis(self.val))

    def __matmul__(self, other):
        if isinstance(other, Jet):
            return Jet(self.val @ other.val,
                       self.grad @ _kaxis(other.val) + _kaxis(self.val) @ other.grad)
        return Jet(self.val @ other, self.grad @ other)

    def __rmatmul__(self, other):
        return Jet(other @ self.val, other @ self.grad)


def momentum_jets(p: np.ndarray) -> list:
    """The components of coordinates (..., n) as scalar Jets with n gradient
    entries: momenta p_1, p_2, p_3, or the 9 phase-space coordinates."""
    unit = np.eye(p.shape[-1])[:, :, None, None]    # unit[k] = d p_k / d p
    return [Jet(p[..., k, None, None], unit[k]) for k in range(p.shape[-1])]


def energy_jet(p: np.ndarray, m: float) -> Jet:
    """eps = sqrt(m^2 + |p|^2) as a scalar Jet; d eps / d p = p / eps.

    At m = 0, p = 0 the gradient is NaN; a coefficient that uses it there
    fails the finiteness check of its evaluation.
    """
    e = stacked_energy(p, m)
    with np.errstate(invalid="ignore"):
        return Jet(e, p[..., :, None, None] / _kaxis(e))


def cross_c(mats, P, c: int):
    """(M x p)_c for a stacked matrix triple M and momentum components P."""
    a, b = _CROSS[c]
    return mats[a] * P[b] - mats[b] * P[a]


def p_dot(mats, P):
    """p . M; p_dot(P, P) is |p|^2."""
    return P[0] * mats[0] + P[1] * mats[1] + P[2] * mats[2]


# --- operators ----------------------------------------------------------------

@dataclass(frozen=True)
class PhaseSpaceOperator:
    """A(p) + sum_k B_k(p) d/dp_k with matrix coefficients.

    coeffs(p) takes momenta of shape (..., 3) and returns (A, B_1, B_2, B_3),
    each a Jet or a momentum-independent constant (a d x d matrix or a
    number).
    """

    dim: int
    coeffs: Callable
    label: str = ""
    min_p: float = 0.0

    def check_p(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if p.shape[-1:] != (3,):
            raise DomainError(f"momenta must have shape (..., 3), got {p.shape}")
        if self.min_p > 0.0 and (np.linalg.norm(p, axis=-1) < self.min_p).any():
            raise DomainError(
                f"operator '{self.label}' is singular for |p| < {self.min_p}"
            )
        return p


def _sum_sq(x: np.ndarray, axes: int) -> np.ndarray:
    """Sum of |x|^2 over the last `axes` axes."""
    return (x.real ** 2 + x.imag ** 2).sum(axis=tuple(range(-axes, 0)))


@dataclass
class PhaseOpValue:
    """Evaluation snapshot: multiplicative part, derivative part, and (for
    commutator results) the symmetrized second-order residual."""

    A: np.ndarray                        # shape (..., d, d)
    B: np.ndarray                        # shape (..., 3, d, d)
    second: Optional[np.ndarray] = None  # shape (..., 3, 3, d, d)

    def norm(self):
        """Frobenius norm over all coefficient blocks, one per momentum."""
        total = _sum_sq(self.A, 2) + _sum_sq(self.B, 3)
        if self.second is not None:
            total = total + _sum_sq(self.second, 4)
        return np.sqrt(total)

    def __sub__(self, other: "PhaseOpValue") -> "PhaseOpValue":
        """A commutator minus a first-order right-hand side: other has no
        second-order part, so self's is kept as it is."""
        return PhaseOpValue(self.A - other.A, self.B - other.B, self.second)


# --- the operator catalogue ---------------------------------------------------

_SIGMA = np.stack(GAMMA.Sigma)
_ALPHA = np.stack(GAMMA.alpha)
_GAMMAK = np.stack(GAMMA.gamma)
_BETA = GAMMA.beta
_IEYE = 1j * I4

F = OperatorFamily

# Families with a 1/eps or 1/(eps+m) factor: singular at p = 0 when m = 0,
# so at m = 0 they reject |p| < MASSLESS_MIN_P.
_SINGULAR_AT_REST = {
    F.FW_HAMILTONIAN, F.NW_POSITION_DIRAC, F.MEAN_SPIN_DIRAC, F.BOOST_FW,
    F.PROJECTED_POSITION_FW, F.PROJECTED_POSITION_DIRAC, F.PROJECTED_SPIN_FW,
    F.PROJECTED_SPIN_DIRAC, F.PROJECTED_OAM,
}

# Derivative parts: i d/dp_c (the radius-vector pattern) and
# i eps_{c j k} p_k d/dp_j (the angular-momentum pattern).
_POSITION_LIKE = {
    F.FW_POSITION, F.NW_POSITION_DIRAC, F.COM_POSITION_FW, F.COM_POSITION_DIRAC,
    F.PROJECTED_POSITION_FW, F.PROJECTED_POSITION_DIRAC,
}
_OAM_LIKE = {F.OAM_FW, F.TOTAL_J, F.COM_OAM, F.PROJECTED_OAM}


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
    a, b = _CROSS[c]
    beta, sigma_c, gamma_c = _BETA, _SIGMA[c], _GAMMAK[c]

    def dirac_h(p):
        return Jet(dirac_hamiltonian(p, m), _ALPHA)

    def naive_boost(p, P, e):
        sxp = cross_c(_SIGMA, P, c)
        dinv = Jet(dirac_hamiltonian(p, 2 * m), _ALPHA) / (4 * m * m + p_dot(P, P))
        return 0.5j * _ALPHA[c] - 0.25 * (sxp @ dinv + dinv @ sxp)

    def lab_spin_fw(p, P, e):
        # s - p x (p x s) / (m(eps+m)) with s = Sigma/2
        pxpxs = P[c] * p_dot(_SIGMA, P) / 2 - p_dot(P, P) * sigma_c / 2
        return sigma_c / 2 - pxpxs / (m * (e + m))

    # The multiplicative part A, over the momenta p, their components P as
    # Jets and the energy e as a Jet.
    A = {
        F.DIRAC_HAMILTONIAN: lambda p, P, e: dirac_h(p),
        F.FW_HAMILTONIAN: lambda p, P, e: e * beta,
        F.MOMENTUM: lambda p, P, e: P[c] * I4,
        F.FW_POSITION: lambda p, P, e: 0.0,
        F.NW_POSITION_DIRAC: lambda p, P, e: (
            -cross_c(_SIGMA, P, c) / (2 * e * (e + m)) + 1j * gamma_c / (2 * e)
            - 1j * p_dot(_GAMMAK, P) * P[c] / (2 * e * e * (e + m))),
        F.FW_SPIN: lambda p, P, e: 0.5 * sigma_c,
        F.MEAN_SPIN_DIRAC: lambda p, P, e: (
            m * sigma_c / (2 * e) - 1j * cross_c(_GAMMAK, P, c) / (2 * e)
            + P[c] * p_dot(_SIGMA, P) / (2 * e * (e + m))),
        F.OAM_FW: lambda p, P, e: 0.0,
        F.TOTAL_J: lambda p, P, e: 0.5 * sigma_c,
        # (1/2){x_c, beta eps} - beta (Sigma x p)_c / (2(eps+m)),  t = 0
        F.BOOST_FW: lambda p, P, e: (
            (0.5j * P[c] / e) * beta - beta @ cross_c(_SIGMA, P, c) / (2 * (e + m))),
        # (1/2){x_c, H_D} = (i/2) alpha_c + i H_D d/dp_c,  t = 0
        F.BOOST_DIRAC: lambda p, P, e: 0.5j * _ALPHA[c],
        # built blindly from the radius vector and Sigma/2 in the Dirac
        # representation: (1/2){r_c, H_D} - (1/2){(Sigma x p)_c / 2, (2 beta m + alpha.p)^-1}
        F.NAIVE_BOOST: naive_boost,
        F.COM_POSITION_FW: lambda p, P, e: cross_c(_SIGMA, P, c) / (2 * m * (e + m)),
        F.COM_POSITION_DIRAC: lambda p, P, e: 1j * (
            gamma_c / (2 * m) - p_dot(_GAMMAK, P) * P[c] / (2 * m * e * e)),
        F.LAB_SPIN_FW: lab_spin_fw,
        F.LAB_SPIN_DIRAC: lambda p, P, e: sigma_c / 2 - 1j * cross_c(_GAMMAK, P, c) / (2 * m),
        # (X_com x p)_c: shift part ((Sigma x p) x p)_c / (2m(eps+m))
        F.COM_OAM: lambda p, P, e: (
            (P[c] * p_dot(_SIGMA, P) - p_dot(P, P) * sigma_c) / (2 * m * (e + m))),
        F.PROJECTED_POSITION_FW: lambda p, P, e: -cross_c(_SIGMA, P, c) / (2 * e * (e + m)),
        F.PROJECTED_POSITION_DIRAC: lambda p, P, e: (
            -cross_c(_SIGMA, P, c) / (2 * e * e) + 1j * m * gamma_c / (2 * e * e)),
        F.PROJECTED_SPIN_FW: lambda p, P, e: (
            m * sigma_c / (2 * e) + P[c] * p_dot(_SIGMA, P) / (2 * e * (e + m))),
        F.PROJECTED_SPIN_DIRAC: lambda p, P, e: (
            m * m * sigma_c + P[c] * p_dot(_SIGMA, P)
            - 1j * m * cross_c(_GAMMAK, P, c)) / (2 * e * e),
        F.PROJECTED_OAM: lambda p, P, e: (
            -(P[c] * p_dot(_SIGMA, P) - p_dot(P, P) * sigma_c) / (2 * e * (e + m))),
    }[family]

    def coeffs(p):
        P, e = momentum_jets(p), energy_jet(p, m)
        B = [0.0, 0.0, 0.0]
        if family in _POSITION_LIKE:
            B[c] = _IEYE
        elif family in _OAM_LIKE:
            B[a], B[b] = P[b] * _IEYE, -P[a] * _IEYE
        elif family is F.BOOST_FW:
            B[c] = 1j * e * beta
        elif family in (F.BOOST_DIRAC, F.NAIVE_BOOST):
            B[c] = 1j * dirac_h(p)
        return (A(p, P, e), *B)

    label = family.family_name + (f"_{c + 1}" if family.is_vector else "")
    min_p = MASSLESS_MIN_P if m == 0 and family in _SINGULAR_AT_REST else 0.0
    return PhaseSpaceOperator(4, coeffs, label, min_p)


# --- evaluation and commutation ----------------------------------------------

def coeff_derivative(f: Callable, p: np.ndarray, k: int,
                     rel_step: float = FD_REL_STEP) -> np.ndarray:
    """d f / d p_k by central differences with one Richardson level.

    f returns an array (an operator coefficient) or a float (a classical
    observable, with p the phase-space coordinates).  The tests use it as an
    oracle for the exact Jet gradients.
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
    """Coefficients and their momentum gradients frozen at momenta (...)."""

    dim: int
    A: np.ndarray
    B: np.ndarray    # (..., 3, d, d)
    dA: np.ndarray   # (..., 3, d, d), dA[k] = d A / d p_k
    dB: np.ndarray   # (..., 3, 3, d, d), dB[l, k] = d B_l / d p_k


def _stacked(blocks: list, axis: int, shape: tuple) -> np.ndarray:
    """The blocks stacked along axis, as a complex array broadcast to shape.

    Blocks are broadcast against each other, not against the momenta, before
    stacking: a momentum-independent stack stays a read-only view.
    """
    common = np.broadcast_shapes(shape[axis + 1:], *(np.shape(b) for b in blocks))
    stack = np.stack([np.broadcast_to(b, common) for b in blocks], axis=axis)
    return np.broadcast_to(stack.astype(complex, copy=False), shape)


def snapshot(op: PhaseSpaceOperator, p) -> OpSnapshot:
    """Coefficients of op and their exact gradients at momenta (..., 3)."""
    p = op.check_p(p)
    coeffs = op.coeffs(p)
    shape = p.shape[:-1] + (op.dim, op.dim)
    gshape = shape[:-2] + (3,) + shape[-2:]
    vals = [x.val if isinstance(x, Jet) else x for x in coeffs]
    grads = [x.grad if isinstance(x, Jet) else 0.0 for x in coeffs]
    snap = OpSnapshot(op.dim,
                      np.broadcast_to(np.asarray(vals[0], dtype=complex), shape),
                      _stacked(vals[1:], -3, gshape),
                      np.broadcast_to(np.asarray(grads[0], dtype=complex), gshape),
                      _stacked(grads[1:], -4, shape[:-2] + (3, 3) + shape[-2:]))
    if not all(np.isfinite(x).all() for x in (snap.A, snap.B, snap.dA, snap.dB)):
        raise DomainError(f"operator '{op.label}' evaluated to non-finite entries")
    return snap


def commutator_snapshot(s1: OpSnapshot, s2: OpSnapshot) -> PhaseOpValue:
    """Commutator of two first-order operators from snapshots at the same momenta.

    zeroth:  [A, C] + sum_k (B_k dC_k - D_k dA_k)
    first l: [A, D_l] + [B_l, C] + sum_k (B_k dD_{l,k} - D_k dB_{l,k})
    second:  (1/2)(B_k D_l + B_l D_k - D_k B_l - D_l B_k)
    """
    if s1.dim != s2.dim:
        raise DomainError(f"dimension mismatch: {s1.dim} vs {s2.dim}")
    A, B, dA, dB = s1.A, s1.B, s1.dA, s1.dB
    C, D, dC, dD = s2.A, s2.B, s2.dA, s2.dB

    # each sum over k is one matmul of block rows by block columns:
    # sum_k B_k dC_k = [B_1 B_2 B_3] [dC_1; dC_2; dC_3]
    B_row, D_row = _block_row(B), _block_row(D)
    zero = A @ C - C @ A + B_row @ _block_column(dC) - D_row @ _block_column(dA)
    first = (_kaxis(A) @ D - D @ _kaxis(A) + B @ _kaxis(C) - _kaxis(C) @ B
             + _kaxis(B_row) @ _block_column(dD) - _kaxis(D_row) @ _block_column(dB))
    # block (k, l) of [B_1; B_2; B_3] [D_1 D_2 D_3] is B_k D_l
    outer = _block_column(B) @ D_row
    outer -= _block_column(D) @ B_row
    d = s1.dim
    second = outer.reshape(outer.shape[:-2] + (3, d, 3, d)).swapaxes(-3, -2)
    second = second + second.swapaxes(-3, -4)
    second *= 0.5
    return PhaseOpValue(zero, first, second)


def _block_row(X: np.ndarray) -> np.ndarray:
    """[X_1 X_2 X_3] from X of shape (..., 3, r, c), as shape (..., r, 3c)."""
    return X.swapaxes(-3, -2).reshape(X.shape[:-3] + (X.shape[-2], 3 * X.shape[-1]))


def _block_column(X: np.ndarray) -> np.ndarray:
    """[X_1; X_2; X_3] from X of shape (..., 3, r, c), as shape (..., 3r, c)."""
    return X.reshape(X.shape[:-3] + (3 * X.shape[-2], X.shape[-1]))
