"""Dense complex matrix kernels.

The solve and the Hermitian eigendecomposition are numpy.linalg (LAPACK)
calls behind explicit checks, so that a singular or non-Hermitian input
raises this package's errors instead of returning garbage.  Every matrix
tolerance in the package is `tolerance`: a relative constant times
dimension times max absolute entry, finite for every finite matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotHermitianError,
    SingularMatrixError,
    ValidationError,
    finite,
)

PIVOT_RTOL = 1e-12
HERMITIAN_RTOL = 1e-10

# an overflow leaves inf/nan in an array, which the closed forms report
# through `errors.finite`; numpy's own warning would only repeat it on
# stderr.  Used only as a decorator: that keeps its state per call, where
# one instance entered twice by `with` raises.
quiet = np.errstate(over="ignore", invalid="ignore")


def as_matrix(a) -> np.ndarray:
    """Validate and convert to a non-empty square complex128 array (copy).
    Anything numpy cannot read as a complex array raises ValidationError,
    and any other shape DimensionMismatchError."""
    try:
        m = np.array(a, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"expected a matrix of numbers: {exc}") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise DimensionMismatchError(f"expected a non-empty square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError("matrix has non-finite entries")
    return m


def square_matrices(items, p) -> list[np.ndarray]:
    """Each of `items` read by `as_matrix`: at least one matrix, every one
    p x p, or all of one size when p is None; otherwise
    DimensionMismatchError.  The one reader of a list of direction
    matrices or trace-word factors."""
    mats = [as_matrix(a) for a in items]
    sizes = {len(a) for a in mats}
    if len(sizes) != 1:
        raise DimensionMismatchError(f"need square matrices of one size: {sorted(sizes)}")
    if p not in (None, *sizes):
        raise DimensionMismatchError("direction matrices must match params dimension")
    return mats


def tolerance(a, rtol: float, floor: float = 0.0) -> float:
    """rtol * max(p * max|a|, floor) for a p x p matrix a, the one
    tolerance rule.  It is formed as max(p * (rtol * max|a|), rtol * floor),
    and an entry whose modulus passes the float range is read as twice the
    modulus of its half, so the tolerance is finite for every finite a."""
    big = float(np.abs(a).max())
    scaled = rtol * big if big < np.inf else 2 * rtol * float(np.abs(a / 2).max())
    return max(len(a) * scaled, rtol * floor)


def is_hermitian(a) -> bool:
    return _hermitian_within_tolerance(as_matrix(a))


def hermitian_matrix(a, message: str) -> np.ndarray:
    """`a` validated and converted as by `as_matrix`; raises
    NotHermitianError(message) unless it is Hermitian within tolerance."""
    m = as_matrix(a)
    if not _hermitian_within_tolerance(m):
        raise NotHermitianError(message)
    return m


@quiet  # a gap past the float range is inf, which no tolerance admits
def _hermitian_within_tolerance(m: np.ndarray) -> bool:
    return float(np.abs(m - m.conj().T).max()) <= tolerance(m, HERMITIAN_RTOL, 1e-300)


def solve(a, b) -> np.ndarray:
    """Solve A X = B.

    Raises SingularMatrixError when the smallest singular value of A is at
    most tolerance(A, PIVOT_RTOL).
    """
    a = as_matrix(a)
    b = np.array(b, dtype=complex)
    n = a.shape[0]
    if b.shape[0] != n:
        raise DimensionMismatchError(f"rhs rows {b.shape[0]} != matrix dim {n}")
    tol = tolerance(a, PIVOT_RTOL)
    smallest = np.linalg.svd(a, compute_uv=False)[-1]
    if smallest <= tol:
        raise SingularMatrixError(
            f"smallest singular value {smallest:.3e} below tolerance {tol:.3e}")
    return np.linalg.solve(a, b)


def hermitian_eigen(a):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, Q) with real eigenvalues in descending order and
    Q unitary, A Q = Q diag(eigenvalues).  Raises NotHermitianError when the
    input fails the Hermitian check, and NumericalError when an eigenvalue
    overflows.
    """
    a = hermitian_matrix(a, "matrix is not Hermitian within tolerance")
    vals, q = np.linalg.eigh(a / 2 + a.conj().T / 2)  # exact halves: no sum overflows
    finite(float(np.abs(vals).max()), "an eigenvalue")
    return vals[::-1], q[:, ::-1]
