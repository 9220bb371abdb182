"""Spin precession in uniform fields and noninertial frames.

The angular velocity seen by the spin of a charged particle with anomalous
moment a = (g-2)/2 and electric-dipole factor eta, on the positive-energy
block (beta -> +1), is

    W_mdm = (e/m) [ -(m/eps + a) B + a (p.B) p / (eps(eps+m))
                    + (1/eps)(m/(eps+m) + a) p x E ]
    W_edm = -(e eta / 2m) [ E - (p.E) p / (eps(eps+m)) + p x B / eps ]

and in a frame with acceleration acc and rotation omega

    W = acc x p / (eps + m) - omega.

Momentum is held fixed: only the spin sector evolves, so quantum and
classical propagation are both exact exponentials and must agree to
machine precision (the 2-to-1 covering of rotations by unit quaternions).
Every formula here is for the spin-1/2 particle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dirac import PAULI, energy, free_propagator


@dataclass(frozen=True)
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


def omega_mdm(p, m: float, cfg: FieldConfig) -> np.ndarray:
    """Magnetic-dipole part of the precession angular velocity."""
    if m <= 0:
        raise ValueError("precession formulas require m > 0")
    p = np.asarray(p, dtype=float)
    e, a = cfg.charge, cfg.a_mm
    eps = energy(p, m)
    B, E = cfg.b_field, cfg.e_field
    return (e / m) * (
        -(m / eps + a) * B
        + a * (p @ B) * p / (eps * (eps + m))
        + (m / (eps + m) + a) * np.cross(p, E) / eps
    )


def omega_edm(p, m: float, cfg: FieldConfig) -> np.ndarray:
    """Electric-dipole part of the precession angular velocity."""
    if m <= 0:
        raise ValueError("precession formulas require m > 0")
    p = np.asarray(p, dtype=float)
    eps = energy(p, m)
    B, E = cfg.b_field, cfg.e_field
    return -(cfg.charge * cfg.eta / (2 * m)) * (
        E - (p @ E) * p / (eps * (eps + m)) + np.cross(p, B) / eps
    )


def omega_total(p, m: float, cfg: FieldConfig) -> np.ndarray:
    """Total angular velocity of spin rotation in uniform fields."""
    return omega_mdm(p, m, cfg) + omega_edm(p, m, cfg)


def omega_noninertial(p, m: float, cfg: FieldConfig) -> np.ndarray:
    """Precession in an accelerated, rotating frame (positive-energy block)."""
    p = np.asarray(p, dtype=float)
    eps = energy(p, m)
    return np.cross(cfg.frame_accel, p) / (eps + m) - cfg.frame_omega


def propagate_classical(s0, omega, t: float) -> np.ndarray:
    """Rotate s0 about omega by |omega| t (exact Rodrigues formula)."""
    s0 = np.asarray(s0, dtype=float)
    omega = np.asarray(omega, dtype=float)
    w = np.linalg.norm(omega)
    if w == 0.0:
        return s0.copy()
    axis = omega / w
    theta = w * t
    return (s0 * np.cos(theta) + np.cross(axis, s0) * np.sin(theta)
            + axis * (axis @ s0) * (1 - np.cos(theta)))


def propagate_quantum(chi0, omega, t: float) -> np.ndarray:
    """chi(t) = exp(-i (omega . sigma / 2) t) chi0 for a unit spinor."""
    chi0 = np.asarray(chi0, dtype=complex)
    if chi0.shape != (2,) or abs(chi0 @ chi0.conj() - 1.0) > 1e-10:
        raise ValueError("chi0 must be a normalized 2-spinor")
    omega = np.asarray(omega, dtype=float)
    w = np.linalg.norm(omega)
    if w == 0.0:
        return chi0.copy()
    axis_dot_sigma = sum(omega[k] / w * PAULI[k] for k in range(3))
    return free_propagator(axis_dot_sigma, 1.0, 0.5 * w * t) @ chi0


def sigma_expectation(chi) -> np.ndarray:
    """<sigma> of a 2-spinor."""
    chi = np.asarray(chi, dtype=complex)
    return np.array([float((chi.conj() @ (PAULI[k] @ chi)).real) for k in range(3)])


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
