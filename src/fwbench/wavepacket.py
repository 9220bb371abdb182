"""1D momentum-space spinor packets under free evolution.

Packets live on the centered momentum grid of a periodic box with the
momentum pointing along z, so the full 4x4 operator structure survives
while every spatial transform is one-dimensional.  The momentum-to-
position kernel is fixed to exp(+i p x)/sqrt(2 pi) (grid-periodized), and
position-type observables act as the spectrally periodized i d/dp:
multiply by x in position space, transform back.

Wave functions in the two pictures are related nodewise by the free
unitary U(p) = (eps + m + gamma_3 p)/sqrt(2 eps (eps+m)); expectation
values of an *untransformed* operator therefore depend on the picture the
averaging is done in, and the difference is the picture change error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import erfc
from typing import Optional

import numpy as np

from .dirac import (check_positive_mass, dirac_hamiltonian, free_propagator,
                    fw_hamiltonian, fw_unitary_matrix, stacked_energy)
from .grids import Grid1D
from .spin_dynamics import spinor_from_direction

PICTURES = ("fw", "dirac")


class GridResolutionError(ValueError):
    """Packet does not fit the grid (tail mass or band coverage)."""


@dataclass(frozen=True)
class WavePacket1D:
    """Spinor amplitude per momentum node, normalized to sum |psi|^2 dp = 1."""

    grid: Grid1D
    psi: np.ndarray          # (n, 4) complex
    m: float
    picture: str

    def __post_init__(self):
        if self.picture not in PICTURES:
            raise ValueError(f"picture must be one of {PICTURES}")
        psi = np.ascontiguousarray(self.psi, dtype=complex)
        if psi.shape != (self.grid.n, 4):
            raise ValueError(f"psi must have shape ({self.grid.n}, 4)")
        object.__setattr__(self, "psi", psi)
        psi.setflags(write=False)

    @property
    def norm(self) -> float:
        return float(np.sum(np.abs(self.psi) ** 2) * self.grid.dp)


def _z_momenta(grid: Grid1D) -> np.ndarray:
    """The grid's momentum nodes as 3-vectors (0, 0, p), shape (n, 3)."""
    p = np.zeros((grid.n, 3))
    p[:, 2] = grid.p_centered
    return p


def _apply_nodewise(mats: np.ndarray, psi: np.ndarray) -> np.ndarray:
    return np.einsum("nij,nj->ni", mats, psi)


def default_grid(p0: float, sigma_p: float, n: Optional[int] = None) -> Grid1D:
    """Grid sampling the packet with dp = sigma/8 and covering p0 +- 8 sigma.

    When n is not given, the smallest power of two >= 256 that reaches the
    required momentum band is used.
    """
    if sigma_p <= 0:
        raise ValueError("sigma_p must be positive")
    if n is None:
        n = 256
        while (n // 2 - 1) * (sigma_p / 8) < abs(p0) + 8 * sigma_p:
            n *= 2
    return Grid1D(n=n, length=2 * np.pi / (sigma_p / 8))


def make_gaussian_packet(p0: float, sigma_p: float, m: float,
                         spin_dir=(0, 0, 1), picture: str = "fw",
                         grid: Optional[Grid1D] = None,
                         n: Optional[int] = None) -> WavePacket1D:
    """Positive-energy Gaussian packet, upper-spinor-only in the fw picture.

    The Dirac-picture amplitude is obtained by applying U^-1 nodewise, so
    the packet stays a superposition of positive-energy plane waves.
    """
    check_positive_mass(m)   # the centered grid holds p = 0
    if grid is None:
        grid = default_grid(p0, sigma_p, n)
    p = grid.p_centered
    p_lo, p_hi = p[0], p[-1]
    if p0 - 6 * sigma_p < p_lo or p0 + 6 * sigma_p > p_hi:
        raise GridResolutionError(
            f"grid momenta [{p_lo:.3g}, {p_hi:.3g}] do not cover "
            f"p0 +- 6 sigma = [{p0 - 6 * sigma_p:.3g}, {p0 + 6 * sigma_p:.3g}]"
        )
    # analytic tail mass of the normalized Gaussian outside the box
    tail = 0.5 * (erfc((p_hi - p0) / (np.sqrt(2) * sigma_p))
                  + erfc((p0 - p_lo) / (np.sqrt(2) * sigma_p)))
    if tail > 1e-8:
        raise GridResolutionError(f"tail mass outside the box: {tail:.3e}")

    g = np.exp(-((p - p0) ** 2) / (4 * sigma_p**2)).astype(complex)
    g /= np.sqrt(np.sum(np.abs(g) ** 2) * grid.dp)

    chi = spinor_from_direction(spin_dir)
    psi = np.zeros((grid.n, 4), dtype=complex)
    psi[:, 0] = g * chi[0]
    psi[:, 1] = g * chi[1]
    return to_picture(WavePacket1D(grid=grid, psi=psi, m=m, picture="fw"), picture)


def to_picture(packet: WavePacket1D, picture: str) -> WavePacket1D:
    """Same physical state, amplitude re-expressed in the other picture."""
    if picture not in PICTURES:
        raise ValueError(f"picture must be one of {PICTURES}")
    if picture == packet.picture:
        return packet
    mats = fw_unitary_matrix(_z_momenta(packet.grid), packet.m,
                             inverse=(picture == "dirac"))
    return replace(packet, psi=_apply_nodewise(mats, packet.psi), picture=picture)


def evolve_free(packet: WavePacket1D, t: float) -> WavePacket1D:
    """Nodewise propagator exp(-i H(p) t) in the packet's own picture."""
    p = _z_momenta(packet.grid)
    ham = fw_hamiltonian if packet.picture == "fw" else dirac_hamiltonian
    mats = free_propagator(ham(p, packet.m), stacked_energy(p, packet.m), t)
    return replace(packet, psi=_apply_nodewise(mats, packet.psi))


def momentum_to_position(psi: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Psi(x_l) = (dp/sqrt(2 pi)) sum_j exp(+i p_j x_l) psi(p_j)."""
    n = grid.n
    alt = np.where(np.arange(n) % 2, -1.0, 1.0)
    shaped = alt[:, None] if psi.ndim == 2 else alt
    return (grid.dp * n / np.sqrt(2 * np.pi)) * shaped * np.fft.ifft(
        shaped * psi, axis=0)


def position_to_momentum(big_psi: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Inverse of momentum_to_position (kernel exp(-i p x)/sqrt(2 pi))."""
    n = grid.n
    alt = np.where(np.arange(n) % 2, -1.0, 1.0)
    shaped = alt[:, None] if big_psi.ndim == 2 else alt
    return (grid.dx / np.sqrt(2 * np.pi)) * shaped * np.fft.fft(
        shaped * big_psi, axis=0)


def position_space(packet: WavePacket1D) -> tuple:
    """(x nodes, Psi(x) with shape (n, 4))."""
    return packet.grid.x, momentum_to_position(packet.psi, packet.grid)


def density(packet: WavePacket1D) -> tuple:
    """(x nodes, probability density summed over spinor components)."""
    x, big_psi = position_space(packet)
    return x, np.sum(np.abs(big_psi) ** 2, axis=1)


def apply_position(psi: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Spectrally periodized i d/dp: multiply by x in position space."""
    big = momentum_to_position(psi, grid)
    big = grid.x[:, None] * big if big.ndim == 2 else grid.x * big
    return position_to_momentum(big, grid)


@dataclass(frozen=True)
class Observable:
    """Measurement descriptor: one of KINDS."""

    kind: str

    KINDS = ("identity", "position_sq", "momentum")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown observable kind {self.kind!r}")


def expectation(packet: WavePacket1D, obs: Observable,
                convention: str = "fw_picture") -> float:
    """<A> with the untransformed operator averaged in the stated picture."""
    if convention not in ("fw_picture", "dirac_picture"):
        raise ValueError("convention must be 'fw_picture' or 'dirac_picture'")
    pk = to_picture(packet, "fw" if convention == "fw_picture" else "dirac")
    psi, grid = pk.psi, pk.grid
    dp = grid.dp
    if obs.kind == "identity":
        return float(np.sum(np.abs(psi) ** 2) * dp)
    if obs.kind == "momentum":
        return float(np.sum(grid.p_centered * np.sum(np.abs(psi) ** 2, axis=1)) * dp)
    xpsi = apply_position(psi, grid)
    return float(np.real(np.vdot(xpsi, xpsi)) * dp)    # position_sq


def picture_change_error(packet: WavePacket1D, obs: Observable) -> float:
    """Averaging the raw operator with the Dirac-picture amplitude minus
    the same average in the block-diagonal picture."""
    return (expectation(packet, obs, "dirac_picture")
            - expectation(packet, obs, "fw_picture"))

