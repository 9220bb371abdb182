"""Dense complex matrix arithmetic for the spectral layer.

Everything downstream works with plain complex numpy arrays; this module
supplies the validated square-matrix input, the Hermitian inverse square
root and the tolerance-based Hermiticity predicate.
"""

from __future__ import annotations

import numpy as np

ComplexMatrix = np.ndarray

HERMITIAN_RTOL = 1e-10
PSD_MIN_EIG_RTOL = 1e-13


class LinalgError(ValueError):
    """Structured rejection of an ill-conditioned or ill-typed matrix input."""


def as_matrix(m) -> ComplexMatrix:
    """Validate and return a finite square complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise LinalgError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise LinalgError("matrix has non-finite entries")
    return a


def frob(m: ComplexMatrix) -> float:
    return float(np.linalg.norm(m))


def hermiticity_defect(m: ComplexMatrix) -> float:
    """Relative deviation ||M - M^dag|| / max(||M||, 1e-300)."""
    return frob(m - m.conj().T) / max(frob(m), 1e-300)


def is_hermitian(m: ComplexMatrix) -> bool:
    return hermiticity_defect(m) <= HERMITIAN_RTOL


def mat_inv_sqrt_psd(m) -> ComplexMatrix:
    """(M)^(-1/2) for Hermitian positive-definite M; rejects an eigenvalue at
    or below PSD_MIN_EIG_RTOL times the largest.

    V diag(w^(-1/2)) V^H from the Hermitian eigendecomposition M = V diag(w) V^H.
    """
    a = as_matrix(m)
    if not is_hermitian(a):
        raise LinalgError("inverse square root requires a Hermitian matrix")
    w, v = np.linalg.eigh(a)
    scale = max(abs(w[0]), abs(w[-1]), 1e-300)
    if w[0] <= PSD_MIN_EIG_RTOL * scale:
        raise LinalgError(f"matrix not positive definite: min eigenvalue {w[0]:.3e}")
    return (v * (1.0 / np.sqrt(w))) @ v.conj().T
