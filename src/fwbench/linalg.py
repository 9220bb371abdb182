"""Dense matrix arithmetic for the spectral layer.

Everything downstream works with plain numpy arrays, real symmetric or
complex Hermitian, and every kernel keeps its input's dtype; this module
supplies the validated square-matrix input, the Hermitian inverse square
root and the tolerance-based Hermiticity predicate.  Each takes one matrix
or a stack (..., d, d) of them, and judges every member of a stack on its
own, as if it had been passed alone.
"""

from __future__ import annotations

import numpy as np

HERMITIAN_RTOL = 1e-10
PSD_MIN_EIG_RTOL = 1e-13


class LinalgError(ValueError):
    """Structured rejection of an ill-conditioned or ill-typed matrix input."""


def as_matrix(m) -> np.ndarray:
    """Validate and return a finite square matrix, or a non-empty stack of
    them, float64 if m is real and complex128 otherwise."""
    a = np.asarray(m, dtype=complex if np.iscomplexobj(m) else float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.size == 0:
        raise LinalgError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise LinalgError("matrix has non-finite entries")
    return a


def frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def adjoint(m: np.ndarray) -> np.ndarray:
    """M^dag, of each member of a stack."""
    return m.conj().swapaxes(-1, -2)


def is_hermitian(m: np.ndarray) -> bool:
    """||M - M^dag|| / max(||M||, 1e-300) <= HERMITIAN_RTOL for M and for
    every member of a stack."""
    each = (-2, -1)
    defect = np.linalg.norm(m - adjoint(m), axis=each)
    return bool(np.all(defect <= HERMITIAN_RTOL * np.maximum(np.linalg.norm(m, axis=each),
                                                             1e-300)))


def mat_inv_sqrt_psd(m) -> np.ndarray:
    """(M)^(-1/2) for Hermitian positive-definite M, or for each member of a
    stack; rejects an eigenvalue at or below PSD_MIN_EIG_RTOL times the
    largest of its matrix.

    V diag(w^(-1/2)) V^H from the Hermitian eigendecomposition M = V diag(w) V^H.
    """
    a = as_matrix(m)
    if not is_hermitian(a):
        raise LinalgError("inverse square root requires a Hermitian matrix")
    w, v = np.linalg.eigh(a)
    low = w[..., 0]
    scale = np.maximum(np.abs(w[..., [0, -1]]).max(axis=-1), 1e-300)
    bad = low <= PSD_MIN_EIG_RTOL * scale
    if np.any(bad):
        raise LinalgError(f"matrix not positive definite: min eigenvalue {low[bad].min():.3e}")
    return (v * (1.0 / np.sqrt(w))[..., None, :]) @ adjoint(v)
