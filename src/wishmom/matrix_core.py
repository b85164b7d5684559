"""Dense complex matrix kernels.

Traces are computed here; the solve and the Hermitian eigendecomposition
are numpy.linalg (LAPACK) calls behind explicit checks, so that a singular
or non-Hermitian input raises this package's errors instead of returning
garbage.  Tolerances are module constants stated relative to mat_norm (max
absolute entry times dimension).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotHermitianError,
    SingularMatrixError,
    ValidationError,
)

PIVOT_RTOL = 1e-12
HERMITIAN_RTOL = 1e-10


def as_matrix(a) -> np.ndarray:
    """Validate and convert to a non-empty square complex128 array (copy)."""
    m = np.array(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValidationError(f"expected a non-empty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValidationError("matrix has non-finite entries")
    return m


def mat_norm(a) -> float:
    """Reference norm for tolerances: dimension times max absolute entry."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return a.shape[0] * float(np.abs(a).max())


def trace(a) -> complex:
    """Unnormalized trace."""
    return complex(np.trace(as_matrix(a)))


def product_trace(factors) -> complex:
    """Tr(F_1 F_2 ... F_s), multiplied left to right.

    Invariant under cyclic rotation of the factor list.
    """
    factors = [as_matrix(f) for f in factors]
    if not factors:
        raise ValidationError("product_trace needs at least one factor")
    p = factors[0].shape[0]
    if any(f.shape[0] != p for f in factors):
        raise DimensionMismatchError("product_trace factors differ in dimension")
    acc = factors[0]
    for f in factors[1:]:
        acc = acc @ f
    return complex(np.trace(acc))


def power_traces(a, k_max: int) -> list[complex]:
    """[Tr(A), Tr(A^2), ..., Tr(A^k_max)] via repeated multiplication."""
    if k_max < 1:
        raise ValidationError(f"k_max must be >= 1: {k_max}")
    a = as_matrix(a)
    out = []
    acc = a
    for _ in range(k_max):
        out.append(complex(np.trace(acc)))
        acc = acc @ a
    return out


def is_hermitian(a) -> bool:
    a = as_matrix(a)
    scale = mat_norm(a)
    return float(np.abs(a - a.conj().T).max()) <= HERMITIAN_RTOL * max(scale, 1e-300)


def solve(a, b) -> np.ndarray:
    """Solve A X = B.

    Raises SingularMatrixError when the smallest singular value of A is at
    most PIVOT_RTOL * mat_norm(A).
    """
    a = as_matrix(a)
    b = np.array(b, dtype=complex)
    n = a.shape[0]
    if b.shape[0] != n:
        raise DimensionMismatchError(f"rhs rows {b.shape[0]} != matrix dim {n}")
    tol = PIVOT_RTOL * mat_norm(a)
    smallest = np.linalg.svd(a, compute_uv=False)[-1]
    if smallest <= tol:
        raise SingularMatrixError(
            f"smallest singular value {smallest:.3e} below tolerance {tol:.3e}")
    return np.linalg.solve(a, b)


def hermitian_eigen(a):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues, Q) with real eigenvalues in descending order and
    Q unitary, A Q = Q diag(eigenvalues).  Raises NotHermitianError when the
    input fails the Hermitian check.
    """
    a = as_matrix(a)
    if not is_hermitian(a):
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    vals, q = np.linalg.eigh((a + a.conj().T) / 2)
    return vals[::-1], q[:, ::-1]
