"""d-permanents, the master-theorem evaluation route, and spectral polykays."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import matrix_core
from .budgets import MAX_JOINT_WEIGHT, MAX_PERMANENT_DIM, check_budget
from .combinatorics import cycles_of_images
from .errors import DegenerateSampleSizeError, InsufficientOrdersError, ValidationError
from .multivariate import _Kahan, _partition_sum, _rho_of_kind, _sub_indices
from .univariate import MOMENTS, MomentSequence


def permanent_d(y, d) -> complex:
    """d-permanent: sum over permutations of d^{#cycles} prod_j y[j, s(j)].

    d = 1 is the classical permanent; d = -1 equals (-1)^p det(Y).
    Brute force over all p! permutations.
    """
    y = matrix_core.as_matrix(y)
    p = y.shape[0]
    check_budget("permanent dimension", p, MAX_PERMANENT_DIM)
    rows = y.tolist()
    total = _Kahan()
    for perm in itertools.permutations(range(p)):
        prod = complex(d) ** len(cycles_of_images(perm))
        for j in range(p):
            prod *= rows[j][perm[j]]
        total.add(prod)
    return total.value


def permanent_alpha(y, a: MomentSequence) -> complex:
    """alpha-permanent: the cycle-count weight d^k becomes a_k.

    `a` must carry moments up to order p (cycle counts reach p).
    """
    y = matrix_core.as_matrix(y)
    p = y.shape[0]
    check_budget("permanent dimension", p, MAX_PERMANENT_DIM)
    if a.kind != MOMENTS:
        raise ValidationError("a must be a moment sequence")
    if a.depth < p:
        raise InsufficientOrdersError(f"a carries {a.depth} orders, need {p}")
    rows = y.tolist()
    total = _Kahan()
    for perm in itertools.permutations(range(p)):
        prod = a.order(len(cycles_of_images(perm)))
        for j in range(p):
            prod *= rows[j][perm[j]]
        total.add(prod)
    return total.value


def repeated_matrix(t, i) -> np.ndarray:
    """T(i): row/column j of T repeated i_j times (the master-theorem target)."""
    t = matrix_core.as_matrix(t)
    if len(i) != t.shape[0]:
        raise ValidationError("index length must match matrix dimension")
    idx = [j for j, c in enumerate(i) for _ in range(int(c))]
    return t[np.ix_(idx, idx)]


def permanent_master(t, i, d_or_alpha) -> complex:
    """per_d[T(i)] through the trace expansion of det(I - Z T)^{-d}.

    Uses the canonical decomposition Sigma := T with unit diagonal selectors
    H_k, which always exists, so the base moments rho are built on products
    of T's columns:
        i! sum over partitions of a_{l} / m! prod rho[col]^r,
    with a_k = d^k, or the moments of `d_or_alpha` when it is a sequence.
    Equals the brute-force d-permanent of the row/column-repeated T(i).
    """
    t = matrix_core.as_matrix(t)
    m = t.shape[0]
    kind = tuple(int(v) for v in i)
    if len(kind) != m:
        raise ValidationError("index length must match matrix dimension")
    if any(v < 0 for v in kind):
        raise ValidationError(f"index must be componentwise >= 0: {kind}")
    weight = sum(kind)
    check_budget("joint weight", weight, MAX_JOINT_WEIGHT)
    if weight == 0:
        return 1.0 + 0.0j

    if isinstance(d_or_alpha, MomentSequence):
        if d_or_alpha.kind != MOMENTS:
            raise ValidationError("alpha must be a moment sequence")
        if d_or_alpha.depth < weight:
            raise InsufficientOrdersError(
                f"alpha carries {d_or_alpha.depth} orders, need {weight}")
        a_of = d_or_alpha.order
    else:
        d = complex(d_or_alpha)
        a_of = lambda k: d ** k

    # Sigma H_k with H_k = E_kk keeps only column k of T
    sh = []
    for k in range(m):
        e = np.zeros_like(t)
        e[:, k] = t[:, k]
        sh.append(e)
    rho_tab = {v: _rho_of_kind(sh, v) for v in _sub_indices(kind) if any(v)}
    total = _partition_sum(kind, rho_tab, a_of)
    i_fact = 1
    for v in kind:
        i_fact *= math.factorial(v)
    return i_fact * total


# ---------------------------------------------------------------------------
# spectral polykays
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolykaySample:
    """A spectral sample: eigenvalues of a compressed Hermitian matrix,
    together with its first four power sums."""

    eigenvalues: tuple[float, ...]
    power_sums: tuple[float, float, float, float]

    def __post_init__(self):
        if not self.eigenvalues:
            raise ValidationError("empty spectral sample")
        scale = max(1.0, max(abs(v) for v in self.eigenvalues) ** 4)
        for k in range(1, 5):
            want = sum(v ** k for v in self.eigenvalues)
            if abs(want - self.power_sums[k - 1]) > 1e-10 * max(scale, abs(want)):
                raise ValidationError(f"power sum S_{k} inconsistent with eigenvalues")

    @property
    def size(self) -> int:
        return len(self.eigenvalues)

    @classmethod
    def from_eigenvalues(cls, values) -> "PolykaySample":
        vals = tuple(float(v) for v in values)
        return cls(vals, tuple(sum(v ** k for v in vals) for k in range(1, 5)))


def polykay(sample: PolykaySample, order: int) -> float:
    """Spectral polykay estimators of the first four normalized cumulants.

    Unbiased in the spectral-sampling sense and inherited under Haar
    compression; shift semi-invariant for orders >= 2 and homogeneous of
    degree `order`.
    """
    m = sample.size
    s1, s2, s3, s4 = sample.power_sums
    if order == 1:
        return s1 / m
    if order == 2:
        if m < 2:
            raise DegenerateSampleSizeError("order 2 needs a sample of size >= 2")
        return (m * s2 - s1 ** 2) / (m * (m ** 2 - 1))
    if order == 3:
        if m < 3:
            raise DegenerateSampleSizeError("order 3 needs a sample of size >= 3")
        return 2 * (2 * s1 ** 3 - 3 * m * s1 * s2 + m ** 2 * s3) / (
            m * (m ** 2 - 1) * (m ** 2 - 4))
    if order == 4:
        if m < 4:
            raise DegenerateSampleSizeError("order 4 needs a sample of size >= 4")
        return 6 * (-5 * s1 ** 4 + 10 * m * s1 ** 2 * s2 + (3 - 2 * m ** 2) * s2 ** 2
                    - (4 + 4 * m ** 2) * s1 * s3 + (m + m ** 3) * s4) / (
            m ** 2 * (m ** 2 - 1) * (m ** 2 - 4) * (m ** 2 - 9))
    raise ValidationError(f"order must be 1..4: {order}")
