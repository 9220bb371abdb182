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

    times: np.ndarray
    velocity: np.ndarray
    position: np.ndarray
    rep: str


def record_evolution(p, m: float, times, component: int,
                     particle: str = "dirac") -> EvolutionRecord:
    """Closed-form velocity/position series for one momentum and component
    of the free Dirac ("dirac") or two-component scalar ("fv") particle;
    the position excludes r(0)."""
    times = np.asarray(times, dtype=float)
    p = np.asarray(p, dtype=float)
    if particle == "dirac":
        H, v0, rep = dirac_hamiltonian(p, m), GAMMA.alpha[component], "Dirac"
    elif particle == "fv":
        H, v0, rep = fv_hamiltonian_matrix(p, m), fv_velocity_matrix(p, m, component), "FV"
    else:
        raise ValueError(f"unknown particle kind {particle!r}")
    # one propagator exp(-2iHt) per sample time, as a (T, d, d) stack
    eps, pk, t = energy(p, m), p[component], times[:, None, None]
    h_inv = H / (eps * eps)
    drift = pk * h_inv
    prop = free_propagator(H, eps, 2 * t)
    amp = v0 - drift
    osc = 0.5j * amp @ h_inv @ (prop - np.eye(H.shape[0]))
    return EvolutionRecord(times=times, velocity=amp @ prop + drift,
                           position=pk * t * h_inv + osc, rep=rep)


def dominant_frequency(times, values) -> float:
    """Angular frequency of a sampled sinusoid via refined zero crossings.

    Each sign change of the demeaned real part is refined with a local
    parabola; consecutive crossings are half periods, so a least-squares
    line through (crossing index, crossing time) gives pi/omega as its
    slope.  The parabola bias alternates sign between rising and falling
    crossings and averages out in the fit.
    """
    times = np.asarray(times, dtype=float)
    y = np.asarray(values).real.astype(float)
    y = y - y.mean()
    sign = np.sign(y)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if len(idx) < 2:
        raise ValueError("fewer than two zero crossings in the series")

    def refine(k):
        lo = max(k - 1, 0)
        hi = min(k + 2, len(y) - 1)
        ts, ys = times[lo:hi + 1], y[lo:hi + 1]
        if len(ts) == 3:
            a, b, c = np.polyfit(ts - ts[0], ys, 2)
            disc = b * b - 4 * a * c
            if a != 0.0 and disc >= 0:
                r1 = (-b + np.sqrt(disc)) / (2 * a) + ts[0]
                r2 = (-b - np.sqrt(disc)) / (2 * a) + ts[0]
                for r in sorted((r1, r2)):
                    if times[k] - 1e-12 <= r <= times[k + 1] + 1e-12:
                        return r
        # linear fallback on the bracketing pair
        t0, t1 = times[k], times[k + 1]
        y0, y1 = y[k], y[k + 1]
        return t0 - y0 * (t1 - t0) / (y1 - y0)

    crossings = np.array([refine(k) for k in idx])
    slope = np.polyfit(np.arange(len(crossings)), crossings, 1)[0]
    return float(np.pi / slope)
