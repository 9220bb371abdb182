"""Trembling motion of the free Dirac, two-component scalar and
Foldy-Wouthuysen particles.

At fixed momentum the Hamiltonian is a matrix H with H^2 = eps^2, so every
function of H is closed form.  An operator O at that momentum splits into
the part that anticommutes with H and the part that commutes with it,

    O_- = H [H, O] / (2 eps^2),    O_+ = O - O_-,

and e^{iHt} O e^{-iHt} = O_+ + O_- e^{-2iHt}.  For the velocity O = v(0),
integrating v(s) gives the position

    r(t) - r(0) = O_+ t + (i/2) O_- H^-1 (e^{-2iHt} - 1);

r(0) itself is the untouched differential operator i d/dp_k and is not
representable as a matrix, so only the drift plus oscillation is returned.
The (i/2)(...)H^-1 ordering is the one the Heisenberg integral produces;
orderings differ only in the sign of energy-off-diagonal elements and
coincide on each energy eigenspace.

Each particle's H is its Hamiltonian row of the phase_ops catalogue
(DIRAC_HAMILTONIAN, FV_HAMILTONIAN or FW_HAMILTONIAN), snapshot once at
p, and its velocity is Hamilton's v_k = -i [r_k, H] = d H / d p_k, the
row's exact gradient: alpha_k for the Dirac particle,
(rho_3 + i rho_2) p_k / m for the scalar sector and beta p_k / eps for the
block-diagonal (Foldy-Wouthuysen) one.

For a velocity, {H, v} = 2 p_k gives O_+ = p_k H^-1 with no product by
H, and the record uses it whenever [H, v] is nonzero: the Dirac velocity
alpha_k and the scalar-sector one obey dv/dt = 2i(p_k - v H) and tremble
at 2 eps.  (H [H, v] would round at u ||H||^2 ||v|| / eps^2, about
(|p|/m)^2 times u ||v|| for the non-normal scalar-sector H, whose entries
reach p^2 / (2m).)  In the block-diagonal representation H = beta eps and
v = beta p_k / eps are diagonal: [H, v] is exactly zero, so O_- is zero,
where v - p_k H^-1 would leave one ulp, and the velocity is a constant of
the motion.  The oscillation is a feature of the Dirac (and
Feshbach-Villars) position operators, not of the mean position operator.

Since e^{-2iHt} = cos(2 eps t) + sin(2 eps t) K with K = -i H / eps, both
series are linear in the four functions (t, cos 2 eps t, sin 2 eps t, 1):
each is basis(t) @ C, with a (T, 4) real basis over the T sample times and
a (4, d, d) stack C of time-independent coefficient matrices.  The record
stores only these; a reader expands the (T, d, d) stacks, or the (T,)
series of one matrix element, on demand with one small product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dirac import energy, free_phases
from .phase_ops import OperatorFamily, build_operator, snapshot

# the catalogue's Hamiltonian row of each particle, and of each packet picture
HAMILTONIANS = {"dirac": OperatorFamily.DIRAC_HAMILTONIAN,
                "fv": OperatorFamily.FV_HAMILTONIAN,
                "fw": OperatorFamily.FW_HAMILTONIAN}


def _expand(basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """basis @ coeffs over the leading axis: (T, 4) times (4, ...) gives (T, ...).

    The basis is real, so the complex coefficients enter as interleaved
    (re, im) pairs of one real product, read back as complex."""
    flat = np.ascontiguousarray(coeffs).reshape(4, -1).view(float)
    return (basis @ flat).view(complex).reshape(basis.shape[:1] + coeffs.shape[1:])


@dataclass
class EvolutionRecord:
    """Heisenberg evolution of velocity/position matrices in closed form.

    basis is (T, 4) with columns (t, cos 2 eps t, sin 2 eps t, 1) over the T
    sample times; velocity_coeffs and position_coeffs are (4, d, d), or (4,)
    for one matrix element (see entry).  .velocity and .position expand them
    to (T, d, d) stacks, or (T,) series."""

    basis: np.ndarray
    velocity_coeffs: np.ndarray
    position_coeffs: np.ndarray

    @property
    def velocity(self) -> np.ndarray:
        return _expand(self.basis, self.velocity_coeffs)

    @property
    def position(self) -> np.ndarray:
        return _expand(self.basis, self.position_coeffs)

    def entry(self, i: int, j: int) -> EvolutionRecord:
        """The record of matrix element (i, j) alone."""
        return EvolutionRecord(self.basis, self.velocity_coeffs[:, i, j],
                               self.position_coeffs[:, i, j])


def record_evolution(p, m: float, times, component: int,
                     particle: str = "dirac") -> EvolutionRecord:
    """Closed-form velocity/position record for one momentum and component
    of the free Dirac ("dirac"), two-component scalar ("fv") or
    Foldy-Wouthuysen ("fw") particle over the 1-D array of times; the
    position excludes r(0).  H is the particle's catalogue row at p and
    v(0) = d H / d p_component its exact gradient."""
    if particle not in HAMILTONIANS:
        raise ValueError(f"unknown particle kind {particle!r}")
    times = np.asarray(times, dtype=float)
    p = np.asarray(p, dtype=float)
    snap = snapshot(build_operator(HAMILTONIANS[particle], m), p)
    H, v0 = snap.A, snap.dA[component]
    eps, pk = energy(p, m), p[component]
    h_inv = H / (eps * eps)
    if np.any(H @ v0 - v0 @ H):
        even = pk * h_inv                             # O_+ = p_k H^-1
        odd = v0 - even                               # O_-, anticommutes with H
    else:
        even, odd = v0, np.zeros_like(v0)
    osc = 0.5j * odd @ h_inv                          # (i/2) O_- H^-1
    K = -1j * H / eps
    cos, sin = free_phases(eps, 2 * times)
    basis = np.stack((times, cos, sin, np.ones_like(times)), axis=-1)
    # v = O_- e^{-2iHt} + O_+,  r = t O_+ + osc (e^{-2iHt} - 1)
    return EvolutionRecord(basis,
                           velocity_coeffs=np.stack((np.zeros_like(odd), odd, odd @ K, even)),
                           position_coeffs=np.stack((even, osc, osc @ K, -osc)))


def dominant_frequency(times, values) -> float:
    """Angular frequency of a sampled sinusoid via its zero crossings.

    Each sign change of the demeaned real part is located by linear
    interpolation between its two bracketing samples; consecutive crossings
    are half periods, so a least-squares line through (crossing index,
    crossing time) gives pi/omega as its slope.  The estimate is biased:
    the mean over a non-whole number of periods leaves an offset that moves
    rising and falling crossings apart, and the fit does not cancel it
    (`fwbench zitter --p 0.1` reads 2.6e-3 relative error, `--p 2` 1.5e-4,
    and both exit 1).  A fix moves every frequency, and the benchmark gates
    them at ZITTER_REF_REL = 1e-12, so it waits for a reference re-record.
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
