"""Spin precession in uniform fields and noninertial frames.

The angular velocity seen by the spin of a charged particle with anomalous
moment a = (g-2)/2 and electric-dipole factor eta, on the positive-energy
block (beta -> +1), is

    W_mdm = (e/m) [ -(m/eps + a) B + a (p.B) p / (eps(eps+m))
                    + (1/eps)(m/(eps+m) + a) p x E ]
    W_edm = -(e eta / 2m) [ E - (p.E) p / (eps(eps+m)) + p x B / eps ]

and in a frame with acceleration acc and rotation omega

    W_frame = acc x p / (eps + m) - omega.

angular_velocity is the one implementation of the total, added in the
order (W_mdm + W_edm) + W_frame.

Momentum is held fixed: only the spin sector evolves, so quantum and
classical propagation are both exact exponentials and must agree to
machine precision (the 2-to-1 covering of rotations by unit quaternions).
Both propagators take a whole 1-D time grid in one call and return one
row per time.  Every formula here is for the spin-1/2 particle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dirac import PAULI, energy, free_propagator


@dataclass(frozen=True, eq=False)
class FieldConfig:
    """Uniform external fields, particle moments, and frame kinematics."""

    e_field: np.ndarray = field(default_factory=lambda: np.zeros(3))
    b_field: np.ndarray = field(default_factory=lambda: np.zeros(3))
    charge: float = 1.0
    a_mm: float = 0.0
    eta: float = 0.0
    frame_accel: np.ndarray = field(default_factory=lambda: np.zeros(3))
    frame_omega: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        for name in ("e_field", "b_field", "frame_accel", "frame_omega"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (3,) or not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be a finite 3-vector")
            object.__setattr__(self, name, v)
            v.setflags(write=False)
        for name in ("charge", "a_mm", "eta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


def angular_velocity(p, m: float, cfg: FieldConfig) -> np.ndarray:
    """The spin's precession angular velocity W_mdm + W_edm + W_frame at
    momentum p, shape (3,)."""
    if m <= 0:
        raise ValueError("precession formulas require m > 0")
    p = np.asarray(p, dtype=float)
    e, a = cfg.charge, cfg.a_mm
    eps = energy(p, m)
    B, E = cfg.b_field, cfg.e_field
    mdm = (e / m) * (
        -(m / eps + a) * B
        + a * (p @ B) * p / (eps * (eps + m))
        + (m / (eps + m) + a) * np.cross(p, E) / eps
    )
    edm = -(e * cfg.eta / (2 * m)) * (
        E - (p @ E) * p / (eps * (eps + m)) + np.cross(p, B) / eps
    )
    frame = np.cross(cfg.frame_accel, p) / (eps + m) - cfg.frame_omega
    return (mdm + edm) + frame


def propagate_classical(s0, omega, times) -> np.ndarray:
    """s0 rotated about omega by |omega| t at each time t of a 1-D grid
    (exact Rodrigues formula), shape (T, 3).  An empty grid reads nothing
    of omega, whose norm may overflow."""
    s0 = np.asarray(s0, dtype=float)
    omega = np.asarray(omega, dtype=float)
    t = np.asarray(times, dtype=float)[:, None]
    w = np.linalg.norm(omega) if len(t) else 0.0
    if w == 0.0:
        return np.tile(s0, (len(t), 1))
    axis = omega / w
    theta = w * t
    return (s0 * np.cos(theta) + np.cross(axis, s0) * np.sin(theta)
            + axis * (axis @ s0) * (1 - np.cos(theta)))


def propagate_quantum(chi0, omega, times) -> np.ndarray:
    """chi(t) = exp(-i (omega . sigma / 2) t) chi0 for a unit spinor, at
    each time t of a 1-D grid, shape (T, 2); like propagate_classical, it
    reads nothing of omega on an empty grid."""
    chi0 = np.asarray(chi0, dtype=complex)
    if chi0.shape != (2,) or abs(chi0 @ chi0.conj() - 1.0) > 1e-10:
        raise ValueError("chi0 must be a normalized 2-spinor")
    omega = np.asarray(omega, dtype=float)
    t = np.asarray(times, dtype=float)[:, None, None]
    w = np.linalg.norm(omega) if len(t) else 0.0
    if w == 0.0:
        return np.tile(chi0, (len(t), 1))
    axis_dot_sigma = sum(omega[k] / w * PAULI[k] for k in range(3))
    return free_propagator(axis_dot_sigma, 1.0, 0.5 * w * t) @ chi0


def sigma_expectation(chi) -> np.ndarray:
    """<sigma> of 2-spinors, shape (..., 2) -> (..., 3)."""
    chi = np.asarray(chi, dtype=complex)
    return (chi.conj()[..., None, None, :] @ (PAULI @ chi[..., None, :, None]))[..., 0, 0].real


def unit_direction(direction) -> np.ndarray:
    """The direction as a unit vector.  It is divided by its largest
    |component| before the norm is taken, so that the norm neither overflows
    (0,0,1e200) nor underflows (1e-320,0,0): both give the axis."""
    n = np.asarray(direction, dtype=float)
    scale = np.max(np.abs(n))
    if scale == 0:
        raise ValueError("spin direction must be nonzero")
    n = n / scale
    return n / np.linalg.norm(n)


def spinor_from_direction(direction) -> np.ndarray:
    """Unit spinor with <sigma> along the given direction."""
    n = unit_direction(direction)
    theta = np.arccos(np.clip(n[2], -1.0, 1.0))
    phi = np.arctan2(n[1], n[0])
    return np.array([np.cos(theta / 2),
                     np.exp(1j * phi) * np.sin(theta / 2)], dtype=complex)
