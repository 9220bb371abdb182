"""First-order differential operator algebra in momentum space.

Every operator here acts on momentum-space spinor wave functions as

    (O psi)(p) = A(p) psi(p) + sum_k B_k(p) (d psi / d p_k)(p)

with matrix-valued coefficients.  The radius vector is i d/dp, so the
position, spin, orbital, and boost families of free relativistic particles
all live at this order.  Commutators of two such operators close on the
same form plus a symmetrized second-order part
(1/2)(B_k D_l + B_l D_k - D_k B_l - D_l B_k).  For every pair the suites
commute that part is zero by construction: within one operator set each
derivative coefficient is a scalar multiple of the identity or of the set's
boost matrix (beta, or the Dirac Hamiltonian at the same momentum), so any
two of them commute.  The commutator therefore forms only the zeroth- and
first-order parts, and test_second_order_part_is_zero_by_construction in
tests/test_phase_ops.py checks that the dropped part vanishes.

The catalogue is one table: each OperatorFamily member is one Family row
(multiplicative part, derivative part, vector, massive_only,
singular_at_rest, dim), and Family.build holds the domain rules.  It holds
the families the program reads: those of the quantum sets (the
FW-representation position, spin, OAM and boost of each set, the Dirac and
FW Hamiltonians and their velocities, the momentum and the naive boost; a
set's total angular momentum is the sum of its OAM and spin operators),
and the 2 x 2 Hamiltonian FV_HAMILTONIAN of the two-component scalar
(Feshbach-Villars) sector.  zitter reads each particle's Hamiltonian row
and takes the velocity as its exact gradient d H / d p_k, which for the
Dirac and FW rows is the velocity row bit for bit; wavepacket evolves
under the Hamiltonian row of each picture.  The Dirac-representation forms
U^-1 (FW family) U are covariance oracles, rows of tests/oracles.py built
through the same Family.build.

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

One kernel, _bracket, forms the first-order part of O1 O2 + sign O2 O1:
commutator_snapshot is its sign -1, and symmetrized_product, the
worldline term's (1/2){O, V}, half its sign +1.  snapshot keeps a
momentum-independent coefficient as a read-only broadcast view, stride 0 on
the momentum axes, and the kernel reads that structure, since its cost is
the number of small matrix products, not their flops: such a block is its
single matrix, a zero block drops every term it enters, a single matrix
meets a momentum stack in one matrix product over all the stack's rows, and
only two stacks meet in a product batched over the momenta.  The result is broadcast back to the full momentum shape, one
value per momentum.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .dirac import ALPHA, BETA, I4, PAULI, SIGMA, check_mass, dirac_hamiltonian, energy

FD_REL_STEP = 1e-5
MASSLESS_MIN_P = 1e-6

# (a x b)_c = a[_CROSS[c][0]] b[_CROSS[c][1]] - a[_CROSS[c][1]] b[_CROSS[c][0]]
_CROSS = ((1, 2), (2, 0), (0, 1))


def levi(i: int, j: int, k: int) -> float:
    """The Levi-Civita symbol e_ijk over the indices 0, 1, 2."""
    return (i - j) * (j - k) * (k - i) / 2


class DomainError(ValueError):
    """Operator construction or evaluation outside its admissible domain."""


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
    scales d x d matrices elementwise.  Numbers and constant matrices combine
    with a Jet as coordinate-independent values, a matrix only as M @ Jet.
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
        return Jet(self.val @ other.val,
                   self.grad @ _kaxis(other.val) + _kaxis(self.val) @ other.grad)

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
    e = energy(p, m)[..., None, None]
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

    def __add__(self, other: "PhaseSpaceOperator") -> "PhaseSpaceOperator":
        """The sum, formed coefficient by coefficient."""
        return PhaseSpaceOperator(
            self.dim, lambda p: tuple(a + b for a, b in zip(self.coeffs(p), other.coeffs(p))),
            f"{self.label}+{other.label}", max(self.min_p, other.min_p))


def _sum_sq(x: np.ndarray, axes: int) -> np.ndarray:
    """Sum of |x|^2 over the last `axes` axes."""
    return (x.real ** 2 + x.imag ** 2).sum(axis=tuple(range(-axes, 0)))


@dataclass(eq=False)
class PhaseOpValue:
    """An operator at momenta (...), A + sum_k B_k d/dp_k; a number x stands for x I."""

    A: np.ndarray    # shape (..., d, d)
    B: np.ndarray    # shape (..., 3, d, d)

    __array_ufunc__ = None    # numpy scalars defer to the reflected methods

    def norm(self):
        """Frobenius norm over all coefficient blocks, one per momentum."""
        return np.sqrt(_sum_sq(self.A, 2) + _sum_sq(self.B, 3))

    def __abs__(self):
        return self.norm()

    def __sub__(self, other) -> "PhaseOpValue":
        if isinstance(other, PhaseOpValue):
            return PhaseOpValue(self.A - other.A, self.B - other.B)
        return PhaseOpValue(self.A - other * np.eye(self.A.shape[-1]), self.B)

    def __rmul__(self, c) -> "PhaseOpValue":
        return PhaseOpValue(c * self.A, c * self.B)


# --- the operator catalogue ---------------------------------------------------

_IEYE = 1j * I4
_RHO_PLUS = PAULI[2] + 1j * PAULI[1]    # rho_3 + i rho_2


@dataclass(frozen=True, eq=False)
class Family:
    """One operator family, A + sum_k B_k d/dp_k, as one catalogue row.

    A(p, P, e, m, c) is the multiplicative part over the momenta p, their
    components P as Jets and the energy e as a Jet, at mass m and component
    index c (0 for a scalar family).  B, with the same arguments, returns the
    derivative part (B_1, B_2, B_3); None means there is none.  A
    massive_only family carries a 1/m rest-frame factor and rejects m = 0;
    a singular_at_rest one carries 1/eps, 1/(eps+m) or, at m = 0, 1/|p|^2,
    so at m = 0 it rejects |p| < MASSLESS_MIN_P.  dim is the coefficients'
    matrix size: 4, or 2 for the two-component scalar sector.
    """

    name: str
    A: Callable
    B: Optional[Callable] = None
    vector: bool = True
    massive_only: bool = False
    singular_at_rest: bool = False
    dim: int = 4

    def build(self, m: float, component: Optional[int] = None) -> PhaseSpaceOperator:
        """The member at mass m: component 1..3 of a vector family, None for a scalar."""
        check_mass(m)
        if m == 0 and self.massive_only:
            raise DomainError(f"{self.name} carries a 1/m rest-frame factor and "
                              "requires strictly positive mass")
        if not self.vector and component is not None:
            raise DomainError(f"{self.name} is not a vector family")
        if self.vector and component not in (1, 2, 3):
            raise DomainError(f"{self.name} needs a component in 1..3, got {component}")
        c = component - 1 if self.vector else 0

        def coeffs(p):
            P, e = momentum_jets(p), energy_jet(p, m)
            B = self.B(p, P, e, m, c) if self.B else (0.0, 0.0, 0.0)
            return (self.A(p, P, e, m, c), *B)

        label = self.name + (f"_{c + 1}" if self.vector else "")
        min_p = MASSLESS_MIN_P if m == 0 and self.singular_at_rest else 0.0
        return PhaseSpaceOperator(self.dim, coeffs, label, min_p)


def _dirac_jet(p, m):
    return Jet(dirac_hamiltonian(p, m), ALPHA)


def _along(c: int, x) -> list:
    """(B_1, B_2, B_3) with x at index c and zero elsewhere."""
    B = [0.0, 0.0, 0.0]
    B[c] = x
    return B


def radius_part(p, P, e, m, c):
    """i d/dp_c: the derivative part of the radius vector."""
    return _along(c, _IEYE)


def orbital_part(p, P, e, m, c):
    """i eps_{c j k} p_k d/dp_j: the derivative part of (r x p)_c."""
    a, b = _CROSS[c]
    B = [0.0, 0.0, 0.0]
    B[a], B[b] = P[b] * _IEYE, -P[a] * _IEYE
    return B


def dirac_boost_part(p, P, e, m, c):
    """i H_D d/dp_c: the derivative part of (1/2){r_c, H_D} at t = 0."""
    return _along(c, 1j * _dirac_jet(p, m))


def _naive_boost(p, P, e, m, c):
    # built blindly from the radius vector and Sigma/2 in the Dirac
    # representation: (1/2){r_c, H_D} - (1/2){(Sigma x p)_c / 2, (2 beta m + alpha.p)^-1}
    sxp = cross_c(SIGMA, P, c)
    dinv = _dirac_jet(p, 2 * m) / (4 * m * m + p_dot(P, P))
    return 0.5j * ALPHA[c] - 0.25 * (sxp @ dinv + dinv @ sxp)


def _pxpxsigma(P, c):
    """(p x (p x Sigma))_c = p_c (p.Sigma) - |p|^2 Sigma_c."""
    return P[c] * p_dot(SIGMA, P) - p_dot(P, P) * SIGMA[c]


class OperatorFamily(Enum):
    """The product catalogue: each family a quantum set reads, one row each."""

    DIRAC_HAMILTONIAN = Family("dirac_hamiltonian", lambda p, P, e, m, c: _dirac_jet(p, m),
                               vector=False)
    FW_HAMILTONIAN = Family("fw_hamiltonian", lambda p, P, e, m, c: e * BETA,
                            vector=False, singular_at_rest=True)
    # the two-component scalar sector: rho_3 m + (rho_3 + i rho_2) p^2/(2m)
    FV_HAMILTONIAN = Family("fv_hamiltonian", lambda p, P, e, m, c: (
        m * PAULI[2] + _RHO_PLUS * p_dot(P, P) / (2 * m)),
        vector=False, massive_only=True, dim=2)
    # the velocities -i [q_c, H] = d H / d p_c under each Hamiltonian; p_c / eps
    # is divided first, as in the gradient of beta eps, so the row is that
    # gradient bit for bit
    FW_VELOCITY = Family("fw_velocity", lambda p, P, e, m, c: BETA * (P[c] / e),
                         singular_at_rest=True)
    DIRAC_VELOCITY = Family("dirac_velocity", lambda p, P, e, m, c: ALPHA[c])
    MOMENTUM = Family("momentum", lambda p, P, e, m, c: P[c] * I4)
    FW_POSITION = Family("fw_position", lambda p, P, e, m, c: 0.0, radius_part)
    FW_SPIN = Family("fw_spin", lambda p, P, e, m, c: 0.5 * SIGMA[c])
    OAM_FW = Family("oam_fw", lambda p, P, e, m, c: 0.0, orbital_part)
    # (1/2){x_c, beta eps} - beta (Sigma x p)_c / (2(eps+m)),  t = 0
    BOOST_FW = Family("boost_fw", lambda p, P, e, m, c: (
        (0.5j * P[c] / e) * BETA - BETA @ cross_c(SIGMA, P, c) / (2 * (e + m))),
        lambda p, P, e, m, c: _along(c, 1j * e * BETA), singular_at_rest=True)
    # (2 beta m + alpha.p)^-1 is alpha.p/|p|^2 at m = 0, 0/0 at p = 0
    NAIVE_BOOST = Family("naive_boost", _naive_boost, dirac_boost_part,
                         singular_at_rest=True)
    COM_POSITION_FW = Family("com_position_fw", lambda p, P, e, m, c: (
        cross_c(SIGMA, P, c) / (2 * m * (e + m))), radius_part, massive_only=True)
    LAB_SPIN_FW = Family("lab_spin_fw", lambda p, P, e, m, c: (
        0.5 * SIGMA[c] - _pxpxsigma(P, c) / (2 * m * (e + m))), massive_only=True)
    # (X_com x p)_c: shift part ((Sigma x p) x p)_c / (2m(eps+m))
    COM_OAM = Family("com_oam", lambda p, P, e, m, c: _pxpxsigma(P, c) / (2 * m * (e + m)),
                     orbital_part, massive_only=True)
    PROJECTED_POSITION_FW = Family("projected_position_fw", lambda p, P, e, m, c: (
        -cross_c(SIGMA, P, c) / (2 * e * (e + m))), radius_part, singular_at_rest=True)
    PROJECTED_SPIN_FW = Family("projected_spin_fw", lambda p, P, e, m, c: (
        m * SIGMA[c] / (2 * e) + P[c] * p_dot(SIGMA, P) / (2 * e * (e + m))),
        singular_at_rest=True)
    PROJECTED_OAM = Family("projected_oam", lambda p, P, e, m, c: (
        -_pxpxsigma(P, c) / (2 * e * (e + m))), orbital_part, singular_at_rest=True)


def build_operator(family: OperatorFamily, m: float,
                   component: Optional[int] = None) -> PhaseSpaceOperator:
    """Construct one member of a named operator family at mass m.

    Vector families take component 1..3; scalar families take None.
    """
    return family.value.build(m, component)

# --- evaluation and commutation ----------------------------------------------

def coeff_derivative(f: Callable, p: np.ndarray, k: int) -> np.ndarray:
    """d f / d p_k by central differences with one Richardson level.

    f returns an array (an operator coefficient) or a float (a classical
    observable, with p the phase-space coordinates).  The tests use it as an
    oracle for the exact Jet gradients.
    """
    h = FD_REL_STEP * max(1.0, float(np.linalg.norm(p)))

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


@dataclass(eq=False)
class OpSnapshot(PhaseOpValue):
    """Coefficients A, B and their momentum gradients frozen at momenta (...)."""

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
    snap = OpSnapshot(np.broadcast_to(np.asarray(vals[0], dtype=complex), shape),
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

    The second-order part is zero by construction (see the module docstring)
    and is not formed.
    """
    return _bracket(s1, s2, -1.0)


def symmetrized_product(s1: OpSnapshot, s2: OpSnapshot) -> PhaseOpValue:
    """(1/2){O, V} of a first-order operator O and a multiplicative one V
    (no derivative part), from snapshots at the same momenta.

    zeroth:  (A V + V A + sum_k B_k dV_k) / 2
    first l: (B_l V + V B_l) / 2
    """
    return 0.5 * _bracket(s1, s2, 1.0)


def _bracket(s1: OpSnapshot, s2: OpSnapshot, sign: float) -> PhaseOpValue:
    """O1 O2 + sign O2 O1 without its second-order part, for the operators
    O1 = A + B_k d/dp_k and O2 = C + D_k d/dp_k of two snapshots:

    zeroth:  A C + sign C A + sum_k (B_k dC_k + sign D_k dA_k)
    first l: A D_l + sign D_l A + B_l C + sign C B_l
             + sum_k (B_k dD_{l,k} + sign D_k dB_{l,k})

    Each block is read as snapshot leaves it: a momentum-independent block,
    a broadcast view with stride 0 on the momentum axes, is its single
    matrix, and a zero one drops every term it enters.  A product of a
    single matrix and a momentum stack is one matrix product over all the
    stack's rows; only two stacks meet in a product batched over the
    momenta.  The result has the full momentum shape, one value per momentum.
    """
    if s1.A.shape[-1] != s2.A.shape[-1]:
        raise DomainError(f"dimension mismatch: {s1.A.shape[-1]} vs {s2.A.shape[-1]}")
    A, B, dA, dB = (_momentum_rows(x, s1.A.ndim - 2) for x in (s1.A, s1.B, s1.dA, s1.dB))
    C, D, dC, dD = (_momentum_rows(x, s2.A.ndim - 2) for x in (s2.A, s2.B, s2.dA, s2.dB))

    # each sum over k is one matmul of block rows by block columns:
    # sum_k B_k dC_k = [B_1 B_2 B_3] [dC_1; dC_2; dC_3]
    B_row, D_row = (None if X is None else _block_row(X) for X in (B, D))
    dA, dB, dC, dD = (None if X is None else _block_column(X) for X in (dA, dB, dC, dD))
    zero = _signed_sum(sign, (A, C), (C, A), (B_row, dC), (D_row, dA))
    first = _signed_sum(sign, (A, D), (D, A), (B, C), (C, B), (B_row, dD), (D_row, dB))
    return PhaseOpValue(_at_momenta(zero, s1.A.shape), _at_momenta(first, s1.B.shape))


def _momentum_rows(x: np.ndarray, axes: int) -> Optional[np.ndarray]:
    """x with its leading `axes` momentum axes as one: of length 1 when x is
    the same at every momentum (stride 0 on those axes), and None when that
    one matrix block is zero."""
    if not any(x.strides[:axes]):
        single = x[(0,) * axes][None]
        return single if single.any() else None
    return x.reshape((-1,) + x.shape[axes:])


def _product(X: Optional[np.ndarray], Y: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """X @ Y over momentum rows, None when either factor is zero.

    The factor with fewer axes gains the index l after its momentum axis.
    Two stacks, or two single matrices, meet in a batched product.  A
    single matrix and a stack share no axis longer than 1, so X's matrices
    stacked as rows meet Y's set side by side in one product, arranged back
    to the broadcast shape.
    """
    if X is None or Y is None:
        return None
    X, Y = (Z[:, None] if Z.ndim < max(X.ndim, Y.ndim) else Z for Z in (X, Y))
    if len(X) == len(Y):
        return X @ Y
    rows = X.reshape(-1, X.shape[-1])
    cols = np.moveaxis(Y, -2, 0).reshape(Y.shape[-2], -1)
    out = (rows @ cols).reshape(X.shape[:-1] + Y.shape[:-2] + Y.shape[-1:])
    n = X.ndim - 2    # batch axes; out is (X's batch, rows, Y's batch, columns)
    order = [a for k in range(n) for a in (k, n + 1 + k)] + [n, 2 * n + 1]
    shape = np.broadcast_shapes(X.shape[:-2], Y.shape[:-2]) + (X.shape[-2], Y.shape[-1])
    return out.transpose(order).reshape(shape)


def _signed_sum(sign: float, *pairs) -> Optional[np.ndarray]:
    """X_1 Y_1 + sign X_2 Y_2 + X_3 Y_3 + sign X_4 Y_4 + ... over the pairs
    (X, Y), left to right and one product at a time, skipping the products
    that are zero; None when every one is.  sign is +-1, so sign * t is
    exact."""
    total = None
    for k, (X, Y) in enumerate(pairs):
        t = _product(X, Y)
        if t is not None:
            t = sign * t if k % 2 else t
            total = t if total is None else total + t
    return total


def _at_momenta(x: Optional[np.ndarray], shape: tuple) -> np.ndarray:
    """Momentum rows x (None for zero) at the full shape (*momenta, ...)."""
    if x is None:
        return np.broadcast_to(np.zeros((), dtype=complex), shape)
    return np.broadcast_to(x[0], shape) if len(x) == 1 else x.reshape(shape)


def _block_row(X: np.ndarray) -> np.ndarray:
    """[X_1 X_2 X_3] from X of shape (..., 3, r, c), as shape (..., r, 3c)."""
    return X.swapaxes(-3, -2).reshape(X.shape[:-3] + (X.shape[-2], 3 * X.shape[-1]))


def _block_column(X: np.ndarray) -> np.ndarray:
    """[X_1; X_2; X_3] from X of shape (..., 3, r, c), as shape (..., 3r, c)."""
    return X.reshape(X.shape[:-3] + (3 * X.shape[-2], X.shape[-1]))
