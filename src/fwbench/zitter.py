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
                    fv_hamiltonian_matrix, fv_velocity_matrix, fw_hamiltonian)
from .linalg import mat_exp


def _closed(H: np.ndarray, v0: np.ndarray, pk: float, eps: float,
            t: float) -> tuple:
    """(v(t), r(t) - r(0)) at fixed momentum, from one propagator exp(-2iHt)."""
    h_inv = H / (eps * eps)
    drift = pk * h_inv
    prop = free_propagator(H, eps, 2 * t)
    amp = v0 - drift
    osc = 0.5j * amp @ h_inv @ (prop - np.eye(H.shape[0]))
    return amp @ prop + drift, pk * t * h_inv + osc


def dirac_velocity_closed(p, m: float, t: float, component: int) -> np.ndarray:
    """Heisenberg velocity matrix of the free Dirac particle."""
    p = np.asarray(p, dtype=float)
    return _closed(dirac_hamiltonian(p, m), GAMMA.alpha[component], p[component],
                   energy(p, m), t)[0]


def dirac_position_closed(p, m: float, t: float, component: int) -> np.ndarray:
    """Drift plus oscillatory part of the Dirac position operator.

    The constant r(0) (a differential operator in momentum space) is left
    out; the caller adds it symbolically if needed.
    """
    p = np.asarray(p, dtype=float)
    return _closed(dirac_hamiltonian(p, m), GAMMA.alpha[component], p[component],
                   energy(p, m), t)[1]


def fv_closed(p, m: float, t: float) -> tuple:
    """(velocity, position) closed forms for the free scalar particle,
    stacked over the three components; position excludes r(0)."""
    p = np.asarray(p, dtype=float)
    H, eps = fv_hamiltonian_matrix(p, m), energy(p, m)
    v, r = zip(*(_closed(H, fv_velocity_matrix(p, m, c), p[c], eps, t) for c in range(3)))
    return np.stack(v), np.stack(r)


def fw_velocity(p, m: float, component: int) -> np.ndarray:
    """beta p_k / eps: commutes with the Hamiltonian, no trembling."""
    p = np.asarray(p, dtype=float)
    if m == 0 and np.linalg.norm(p) == 0:
        raise ValueError("velocity undefined at m = 0, p = 0")
    return GAMMA.beta * (p[component] / energy(p, m))


def heisenberg_numeric(H: np.ndarray, O: np.ndarray, t: float) -> np.ndarray:
    """exp(iHt) O exp(-iHt) by matrix exponentials.

    The inverse factor is computed as exp(-iHt), which also covers the
    pseudo-Hermitian two-component scalar-sector Hamiltonian (for Hermitian
    H it equals the conjugate transpose).
    """
    return mat_exp(H, t) @ O @ mat_exp(H, -t)


def heisenberg_position_numeric(p, m: float, t: float, component: int,
                                particle: str = "dirac",
                                rel_step: float = 1e-5) -> np.ndarray:
    """Matrix part of the evolved position, exp(iHt) i d/dp_k exp(-iHt) - r(0).

    Independent of the closed form: differentiates the evolution phase in
    momentum by central differences with one Richardson level.
    """
    p = np.asarray(p, dtype=float)
    if particle == "dirac":
        ham = dirac_hamiltonian
    elif particle == "fv":
        ham = fv_hamiltonian_matrix
    else:
        raise ValueError(f"unknown particle kind {particle!r}")

    def evolution(q):
        # exp(-iHt) in closed form (H^2 = eps^2 for both particle kinds),
        # keeping differencing noise at the rounding level
        H = ham(q, m)
        eps = energy(q, m)
        return (np.cos(eps * t) * np.eye(H.shape[0])
                - 1j * np.sin(eps * t) * H / eps)

    h = rel_step * max(1.0, float(np.linalg.norm(p)))

    def central(hh):
        qp, qm = p.copy(), p.copy()
        qp[component] += hh
        qm[component] -= hh
        return (evolution(qp) - evolution(qm)) / (2 * hh)

    d_evol = (4.0 * central(h / 2) - central(h)) / 3.0
    return mat_exp(ham(p, m), t) @ (1j * d_evol)


@dataclass
class EvolutionRecord:
    """Sampled Heisenberg evolution of velocity/position matrices."""

    times: np.ndarray
    velocity: list
    position: list
    rep: str

    def spectrum_drift(self) -> float:
        """Largest change of the velocity spectrum along the record
        (unitary evolution preserves it)."""
        ref = np.sort(np.linalg.eigvals(self.velocity[0]).real)
        worst = 0.0
        for v in self.velocity[1:]:
            ev = np.sort(np.linalg.eigvals(v).real)
            worst = max(worst, float(np.max(np.abs(ev - ref))))
        return worst


def record_evolution(p, m: float, times, component: int,
                     particle: str = "dirac") -> EvolutionRecord:
    """Closed-form velocity/position series for one momentum and component."""
    times = np.asarray(times, dtype=float)
    p = np.asarray(p, dtype=float)
    if particle in ("dirac", "fv"):
        # H, v(0) and eps are constants of the record
        if particle == "dirac":
            H, v0, rep = dirac_hamiltonian(p, m), GAMMA.alpha[component], "Dirac"
        else:
            H, v0, rep = fv_hamiltonian_matrix(p, m), fv_velocity_matrix(p, m, component), "FV"
        eps = energy(p, m)
        series = [_closed(H, v0, p[component], eps, t) for t in times]
        vel, pos = [v for v, _ in series], [r for _, r in series]
    elif particle == "fw":
        v = fw_velocity(p, m, component)
        vel = [v.copy() for _ in times]
        pos = [p[component] * t * np.linalg.inv(fw_hamiltonian(p, m)) for t in times]
        rep = "FW"
    else:
        raise ValueError(f"unknown particle kind {particle!r}")
    return EvolutionRecord(times=times, velocity=vel, position=pos, rep=rep)


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
