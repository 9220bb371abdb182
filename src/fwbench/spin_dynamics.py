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

from .dirac import PAULI, check_finite, check_positive, check_vec3, energy, free_propagator


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
            v = np.array(check_vec3(getattr(self, name), name))    # a copy, not the caller's
            object.__setattr__(self, name, v)
            v.setflags(write=False)
        for name in ("charge", "a_mm", "eta"):
            check_finite(getattr(self, name), name)


def angular_velocity(p, m: float, cfg: FieldConfig) -> np.ndarray:
    """The spin's precession angular velocity W_mdm + W_edm + W_frame at
    momentum p, shape (3,)."""
    check_positive(m, "mass")
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


def _axis_and_norm(v) -> tuple:
    """(v / |v|, |v|) for a nonzero 3-vector v, (None, 0.0) for zero.  v is
    divided by its largest |component| before the norm is taken, so that
    the norm neither overflows (0,0,1e200) nor underflows (1e-320,0,0)."""
    v = np.asarray(v, dtype=float)
    scale = np.max(np.abs(v))
    if scale == 0:
        return None, 0.0
    n = v / scale
    norm = np.linalg.norm(n)
    return n / norm, scale * norm


def propagate_classical(s0, omega, times) -> np.ndarray:
    """s0 rotated about omega by |omega| t at each time t of a 1-D grid
    (exact Rodrigues formula), shape (T, 3)."""
    s0 = np.asarray(s0, dtype=float)
    t = np.asarray(times, dtype=float)[:, None]
    axis, w = _axis_and_norm(omega)
    if axis is None:
        return np.tile(s0, (len(t), 1))
    theta = w * t
    return (s0 * np.cos(theta) + np.cross(axis, s0) * np.sin(theta)
            + axis * (axis @ s0) * (1 - np.cos(theta)))


def propagate_quantum(chi0, omega, times) -> np.ndarray:
    """chi(t) = exp(-i (omega . sigma / 2) t) chi0 for a unit spinor, at
    each time t of a 1-D grid, shape (T, 2)."""
    chi0 = np.asarray(chi0, dtype=complex)
    if chi0.shape != (2,) or abs(chi0 @ chi0.conj() - 1.0) > 1e-10:
        raise ValueError("chi0 must be a normalized 2-spinor")
    t = np.asarray(times, dtype=float)[:, None, None]
    axis, w = _axis_and_norm(omega)
    if axis is None:
        return np.tile(chi0, (len(t), 1))
    axis_dot_sigma = sum(axis[k] * PAULI[k] for k in range(3))
    return free_propagator(axis_dot_sigma, 1.0, 0.5 * w * t) @ chi0


def sigma_expectation(chi) -> np.ndarray:
    """<sigma> of 2-spinors, shape (..., 2) -> (..., 3)."""
    chi = np.asarray(chi, dtype=complex)
    return (chi.conj()[..., None, None, :] @ (PAULI @ chi[..., None, :, None]))[..., 0, 0].real


def unit_direction(direction) -> np.ndarray:
    """The direction as a unit vector, scaled as _axis_and_norm scales it:
    (0,0,1e200) and (1e-320,0,0) both give the axis."""
    axis, _ = _axis_and_norm(direction)
    if axis is None:
        raise ValueError("spin direction must be nonzero")
    return axis


def spinor_from_direction(direction) -> np.ndarray:
    """Unit spinor with <sigma> along the given direction.  The polar angle
    is arctan2(|n_perp|, n_z), which keeps a transverse part that 1 - n_z
    would round away within about 1e-8 of the z axis."""
    n = unit_direction(direction)
    theta = np.arctan2(np.hypot(n[0], n[1]), n[2])
    phi = np.arctan2(n[1], n[0])
    return np.array([np.cos(theta / 2),
                     np.exp(1j * phi) * np.sin(theta / 2)], dtype=complex)
