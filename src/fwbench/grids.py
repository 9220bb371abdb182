"""Periodic 1D grid with spectral (FFT) momentum convention."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Grid1D:
    """n position nodes on a box of the given length, momenta 2 pi k / length.

    x runs over (j - n/2) dx and the centered momentum axis over
    (j - n/2) dp with dp = 2 pi / length, so dx dp n = 2 pi exactly.
    """

    n: int
    length: float
    # derived from (n, length), which alone compare and hash
    dx: float = field(init=False, compare=False)
    dp: float = field(init=False, compare=False)
    x: np.ndarray = field(init=False, compare=False)
    p_centered: np.ndarray = field(init=False, compare=False)
    p_fft: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        check_size(self.n)
        check_length(self.length)
        dx = self.length / self.n
        dp = 2 * np.pi / self.length
        idx = np.arange(self.n)
        object.__setattr__(self, "dx", dx)
        object.__setattr__(self, "dp", dp)
        object.__setattr__(self, "x", (idx - self.n // 2) * dx)
        object.__setattr__(self, "p_centered", (idx - self.n // 2) * dp)
        object.__setattr__(self, "p_fft", 2 * np.pi * np.fft.fftfreq(self.n, d=dx))
        self.x.setflags(write=False)
        self.p_centered.setflags(write=False)
        self.p_fft.setflags(write=False)


def check_size(n: int) -> int:
    """n, or ValueError unless it is a power of two >= 4."""
    if n < 4 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 4, got {n}")
    return n


def check_length(length: float) -> float:
    """length, or ValueError unless it is positive and finite."""
    if not 0 < length < np.inf:
        raise ValueError(f"box length must be positive and finite, got {length}")
    return length
