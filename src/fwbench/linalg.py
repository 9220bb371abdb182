"""Dense complex matrix arithmetic and spectral matrix functions.

Everything downstream works with plain complex numpy arrays; this module
supplies the spectral matrix calculus (f(M), exp(iMt)) plus the commutator
helpers and tolerance-based structure predicates used throughout.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.linalg

ComplexMatrix = np.ndarray

HERMITIAN_RTOL = 1e-10
NORMALITY_RTOL = 1e-10

# expm of a non-Hermitian argument overflows float64 around exp(709); stay
# well below so intermediate squaring terms remain finite.
MAX_NONHERMITIAN_PHASE = 200.0


class LinalgError(ValueError):
    """Structured rejection of an ill-conditioned or ill-typed matrix input."""


class BranchError(LinalgError):
    """A scalar function was undefined (or complex on a real branch) at an eigenvalue."""


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


def is_hermitian(m: ComplexMatrix, rtol: float = HERMITIAN_RTOL) -> bool:
    return hermiticity_defect(m) <= rtol


def is_unitary(m: ComplexMatrix, atol: float = 1e-10) -> bool:
    n = m.shape[0]
    return frob(m @ m.conj().T - np.eye(n)) <= atol * np.sqrt(n)


def normality_defect(m: ComplexMatrix) -> float:
    mh = m.conj().T
    return frob(m @ mh - mh @ m) / max(frob(m) ** 2, 1e-300)


def commutator(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """[A, B] = AB - BA."""
    if a.shape != b.shape:
        raise LinalgError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def anticommutator(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """{A, B} = AB + BA."""
    if a.shape != b.shape:
        raise LinalgError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b + b @ a


def _hermitian_fn(a: ComplexMatrix, f: Callable[[np.ndarray], np.ndarray]) -> ComplexMatrix:
    """V f(w) V^H from the Hermitian eigendecomposition a = V diag(w) V^H.

    f receives the ascending eigenvalues and may raise to reject them.  The
    input is not checked: callers validate it, or know it to be Hermitian.
    """
    w, v = np.linalg.eigh(a)
    return (v * f(w)) @ v.conj().T


def mat_fn(
    m,
    f: Callable[[np.ndarray], np.ndarray],
    real_branch: bool = False,
) -> ComplexMatrix:
    """Spectral function f(M) = V f(Lambda) V^-1 for a normal matrix M.

    Hermitian inputs use the Hermitian eigensolver and return a Hermitian
    result when f is real on the spectrum.  Non-Hermitian normal inputs go
    through a Schur decomposition.  The branch convention is numpy's
    principal branch, so f = sqrt maps the identity to the identity.

    real_branch=True rejects eigenvalue images with a significant imaginary
    part (e.g. sqrt of a negative real eigenvalue).
    """
    a = as_matrix(m)
    if is_hermitian(a):
        def f_real_if_possible(w):
            fw = np.asarray(f(w.astype(complex)))
            _check_branch(fw, real_branch)
            return fw.real if np.allclose(fw.imag, 0.0) else fw
        return _hermitian_fn(a, f_real_if_possible)
    defect = normality_defect(a)
    if defect > NORMALITY_RTOL:
        raise LinalgError(f"matrix is not normal: residual {defect:.3e}")
    t, q = scipy.linalg.schur(a, output="complex")
    w = np.diag(t)
    fw = np.asarray(f(w))
    _check_branch(fw, real_branch)
    return (q * fw) @ q.conj().T


def _check_branch(fw: np.ndarray, real_branch: bool) -> None:
    if not np.all(np.isfinite(fw)):
        raise BranchError("function undefined at an eigenvalue")
    if real_branch and np.max(np.abs(fw.imag)) > 1e-12 * max(1.0, np.max(np.abs(fw))):
        raise BranchError("real branch demanded but f(eigenvalue) is complex")


def mat_sqrt(m, real_branch: bool = False) -> ComplexMatrix:
    """Principal matrix square root via the spectral route."""
    return mat_fn(m, np.sqrt, real_branch=real_branch)


def mat_inv_sqrt_psd(m, eps: float = 1e-13) -> ComplexMatrix:
    """(M)^(-1/2) for Hermitian positive-definite M; rejects tiny eigenvalues."""
    a = as_matrix(m)
    if not is_hermitian(a):
        raise LinalgError("inverse square root requires a Hermitian matrix")

    def inv_sqrt(w):
        scale = max(abs(w[0]), abs(w[-1]), 1e-300)
        if w[0] <= eps * scale:
            raise LinalgError(f"matrix not positive definite: min eigenvalue {w[0]:.3e}")
        return 1.0 / np.sqrt(w)
    return _hermitian_fn(a, inv_sqrt)


def mat_exp(m, t: float) -> ComplexMatrix:
    """exp(i M t), spectral for Hermitian M, scaling-and-squaring otherwise."""
    a = as_matrix(m)
    if is_hermitian(a):
        return _hermitian_fn(a, lambda w: np.exp(1j * w * t))
    if frob(a) * abs(t) > MAX_NONHERMITIAN_PHASE:
        raise LinalgError(
            f"|t|*||M|| = {frob(a) * abs(t):.3e} exceeds the overflow bound "
            f"{MAX_NONHERMITIAN_PHASE} for non-Hermitian exponentials"
        )
    return scipy.linalg.expm(1j * t * a)
