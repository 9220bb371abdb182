"""1D momentum-space spinor packets under free evolution.

Packets live on the centered momentum grid of a periodic box, with the
momentum along z and the spin up along z, so the full 4x4 operator
structure survives while every spatial transform is one-dimensional.
The momentum-to-position kernel is fixed to exp(+i p x)/sqrt(2 pi)
(grid-periodized).  expectation averages an observable in the packet's
own picture, as a moment of one of its densities: momentum-type ones of
|psi(p)|^2, position-type ones of the position density |Psi(x)|^2 on the
box nodes.  By Parseval the position moments equal the averages of the
spectrally periodized i d/dp.

Wave functions in the two pictures are related nodewise by the free
unitary U(p) = (eps + m + gamma_3 p)/sqrt(2 eps (eps+m)), and to_picture
is the one place where a packet changes picture.  Expectation values of an
*untransformed* operator therefore depend on the picture the packet is in,
and the difference is the picture change error.
Free evolution applies exp(-iHt) nodewise, with H the picture's catalogue
row: FW_HAMILTONIAN, beta eps, in the fw picture and DIRAC_HAMILTONIAN in
the dirac one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dirac import check_finite, check_positive, energy, free_propagator, fw_unitary_matrix
from .grids import Grid1D
from .phase_ops import build_operator, snapshot
from .zitter import HAMILTONIANS

PICTURES = ("fw", "dirac")
MAX_PACKET_NODES = 2**56    # the longest (n, 4) complex spinor array numpy can size


class GridResolutionError(ValueError):
    """Packet does not fit the grid: its p0 +- 6 sigma band leaves the box."""


@dataclass(frozen=True, eq=False)
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


def make_gaussian_packet(p0: float, sigma_p: float, m: float,
                         n: Optional[int] = None) -> WavePacket1D:
    """Positive-energy Gaussian packet in the fw picture, spin up along z:
    the first spinor component alone, on the grid with dp = sigma_p/8 and n
    nodes, or, when n is not given, the smallest power of two >= 256 that
    covers p0 +- 8 sigma_p; p0 / sigma_p that need more than MAX_PACKET_NODES
    nodes are rejected before the grid is sized.

    to_picture(packet, "dirac") applies U^-1 nodewise, so the packet stays a
    superposition of positive-energy plane waves in the Dirac picture.
    """
    check_positive(m, "mass")   # the centered grid holds p = 0
    check_finite(p0, "p0")
    check_positive(sigma_p, "sigma_p")
    if n is None:
        if (MAX_PACKET_NODES // 2 - 1) * (sigma_p / 8) < abs(p0) + 8 * sigma_p:
            raise ValueError(f"p0 = {p0} and sigma_p = {sigma_p} need a grid of more "
                             f"than {MAX_PACKET_NODES} nodes to cover p0 +- 8 sigma_p")
        n = 256
        while (n // 2 - 1) * (sigma_p / 8) < abs(p0) + 8 * sigma_p:
            n *= 2
    grid = Grid1D(n=n, length=2 * np.pi / (sigma_p / 8))
    p = grid.p_centered
    p_lo, p_hi = p[0], p[-1]
    if p0 - 6 * sigma_p < p_lo or p0 + 6 * sigma_p > p_hi:
        raise GridResolutionError(
            f"grid momenta [{p_lo:.3g}, {p_hi:.3g}] do not cover "
            f"p0 +- 6 sigma = [{p0 - 6 * sigma_p:.3g}, {p0 + 6 * sigma_p:.3g}]"
        )
    g = np.exp(-((p - p0) ** 2) / (4 * sigma_p**2)).astype(complex)
    g /= np.sqrt(np.sum(np.abs(g) ** 2) * grid.dp)

    psi = np.zeros((grid.n, 4), dtype=complex)
    psi[:, 0] = g
    return WavePacket1D(grid=grid, psi=psi, m=m, picture="fw")


def to_picture(packet: WavePacket1D, picture: str) -> WavePacket1D:
    """Same physical state, amplitude re-expressed in the other picture;
    the packet's own check rejects a picture not in PICTURES."""
    if picture == packet.picture:
        return packet
    mats = fw_unitary_matrix(_z_momenta(packet.grid), packet.m,
                             inverse=(picture == "dirac"))
    return replace(packet, psi=_apply_nodewise(mats, packet.psi), picture=picture)


def evolve_free(packet: WavePacket1D, t: float) -> WavePacket1D:
    """Nodewise propagator exp(-i H(p) t) in the packet's own picture."""
    p = _z_momenta(packet.grid)
    H = snapshot(build_operator(HAMILTONIANS[packet.picture], packet.m), p).A
    mats = free_propagator(H, energy(p, packet.m)[..., None, None], t)
    return replace(packet, psi=_apply_nodewise(mats, packet.psi))


def momentum_to_position(psi: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Psi(x_l) = (dp/sqrt(2 pi)) sum_j exp(+i p_j x_l) psi(p_j), for
    spinors psi of shape (n, 4)."""
    alt = np.where(np.arange(grid.n) % 2, -1.0, 1.0)[:, None]
    return (grid.dp * grid.n / np.sqrt(2 * np.pi)) * alt * np.fft.ifft(alt * psi, axis=0)


def density(packet: WavePacket1D) -> tuple:
    """(x nodes, probability density summed over spinor components)."""
    big_psi = momentum_to_position(packet.psi, packet.grid)
    return packet.grid.x, np.sum(np.abs(big_psi) ** 2, axis=1)


@dataclass(frozen=True)
class Observable:
    """Measurement descriptor: one of KINDS."""

    kind: str

    KINDS = ("position_sq", "momentum")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown observable kind {self.kind!r}")


def expectation(packet: WavePacket1D, obs: Observable) -> float:
    """<A> with the untransformed operator averaged in the packet's own
    picture, as a moment of that picture's momentum or position density."""
    grid = packet.grid
    if obs.kind == "momentum":
        return float(np.sum(grid.p_centered * np.sum(np.abs(packet.psi) ** 2, axis=1)) * grid.dp)
    # position_sq; x * x first would overflow in a huge box before rho scales it
    x, rho = density(packet)
    return float(np.sum(x * (x * rho)) * grid.dx)


def picture_change_error(packet: WavePacket1D, obs: Observable) -> float:
    """Averaging the raw operator with the Dirac-picture amplitude minus
    the same average in the block-diagonal picture."""
    return (expectation(to_picture(packet, "dirac"), obs)
            - expectation(to_picture(packet, "fw"), obs))
