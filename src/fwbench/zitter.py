"""Trembling motion of free Dirac and two-component scalar particles.

At fixed momentum the Heisenberg velocity obeys dv/dt = 2i(p_k - v H),
whose matrix-level solution is

    v(t) = (v(0) - p_k H^-1) e^{-2iHt} + p_k H^-1,

with H the fixed-momentum Hamiltonian matrix (H^2 = eps^2, so every
function of H is closed form).  The position operator picks up

    r(t) - r(0) = p_k t H^-1 + (i/2)(v(0) - p_k H^-1) H^-1 (e^{-2iHt} - 1),

obtained by integrating v(s); r(0) itself is the untouched differential
operator i d/dp_k and is not representable as a matrix, so only the drift
plus oscillation is returned.  The (i/2)(...)H^-1 ordering is the one the
Heisenberg integral produces; orderings differ only in the sign of
energy-off-diagonal elements and coincide on each energy eigenspace.

In the block-diagonal representation the velocity is p_k / H, a constant
of the motion: the oscillation is a feature of the Dirac (and
Feshbach-Villars) position operators, not of the mean position operator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dirac import (GAMMA, dirac_hamiltonian, energy, free_propagator,
                    fv_hamiltonian_matrix, fv_velocity_matrix)


def fw_velocity(p, m: float, component: int) -> np.ndarray:
    """beta p_k / eps: commutes with the Hamiltonian, no trembling."""
    p = np.asarray(p, dtype=float)
    if m == 0 and np.linalg.norm(p) == 0:
        raise ValueError("velocity undefined at m = 0, p = 0")
    return GAMMA.beta * (p[component] / energy(p, m))


@dataclass
class EvolutionRecord:
    """Sampled Heisenberg evolution of velocity/position matrices, each a
    (T, d, d) stack over the T sample times."""

    velocity: np.ndarray
    position: np.ndarray


def record_evolution(p, m: float, times, component: int,
                     particle: str = "dirac") -> EvolutionRecord:
    """Closed-form velocity/position series for one momentum and component
    of the free Dirac ("dirac") or two-component scalar ("fv") particle;
    the position excludes r(0)."""
    times = np.asarray(times, dtype=float)
    p = np.asarray(p, dtype=float)
    if particle == "dirac":
        H, v0 = dirac_hamiltonian(p, m), GAMMA.alpha[component]
    elif particle == "fv":
        H, v0 = fv_hamiltonian_matrix(p, m), fv_velocity_matrix(p, m, component)
    else:
        raise ValueError(f"unknown particle kind {particle!r}")
    # one propagator exp(-2iHt) per sample time, as a (T, d, d) stack
    eps, pk, t = energy(p, m), p[component], times[:, None, None]
    h_inv = H / (eps * eps)
    drift = pk * h_inv
    prop = free_propagator(H, eps, 2 * t)
    amp = v0 - drift
    osc = 0.5j * amp @ h_inv @ (prop - np.eye(H.shape[0]))
    return EvolutionRecord(velocity=amp @ prop + drift, position=pk * t * h_inv + osc)


def dominant_frequency(times, values) -> float:
    """Angular frequency of a sampled sinusoid via its zero crossings.

    Each sign change of the demeaned real part is located by linear
    interpolation between its two bracketing samples; consecutive crossings
    are half periods, so a least-squares line through (crossing index,
    crossing time) gives pi/omega as its slope.  An offset that the mean
    over a non-whole number of periods leaves moves rising and falling
    crossings in opposite directions, so it averages out in the fit.
    """
    times = np.asarray(times, dtype=float)
    y = np.asarray(values).real.astype(float)
    y = y - y.mean()
    sign = np.sign(y)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if len(idx) < 2:
        raise ValueError("fewer than two zero crossings in the series")
    t0, t1, y0, y1 = times[idx], times[idx + 1], y[idx], y[idx + 1]
    crossings = t0 - y0 * (t1 - t0) / (y1 - y0)
    slope = np.polyfit(np.arange(len(crossings)), crossings, 1)[0]
    return float(np.pi / slope)
