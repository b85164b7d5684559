"""d-permanents, the master-theorem evaluation route, and spectral polykays.

`permanent_master` evaluates the master theorem as one truncated power-
series composition on the grid of sub-indices of the index,
`combinatorics.compose_grid`, whose cells are per_d[T(v)] / v! for every
v <= i at once; it enumerates no partitions.  The last grid composed is
kept for its (T, weights) content, so a session that tabulates the
permanents of one T reads most of them as slices of one grid.  The
brute-force permanents are one `combinatorics.permutation_sum` over all p!
permutations and are its independent check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import matrix_core
from .budgets import (check_joint_weight, check_permanent_dimension, check_polykay_order, integer,
                      multi_index)
from .combinatorics import KeptGrid, compose_grid, permutation_sum
from .errors import (DegenerateSampleSizeError, InsufficientOrdersError, ValidationError, finite,
                     finite_of)

if TYPE_CHECKING:
    from .model import MomentSequence


def _finite_d(d) -> complex:
    d = complex(d)
    if not cmath.isfinite(d):
        raise ValidationError(f"d must be finite: {d}")
    return d


def _cycle_weighted_permanent(y: np.ndarray, a_of) -> complex:
    """sum over permutations s of a_of(#cycles(s)) prod_j y[j, s(j)]: one
    `permutation_sum`, whose term is this product in row order."""
    rows = y.tolist()

    def term(perm, cycles):
        prod = a_of(len(cycles))
        for j, col in enumerate(perm):
            prod *= rows[j][col]
        return prod

    return permutation_sum(len(rows), term, "permanent")


def permanent_d(y, d) -> complex:
    """d-permanent: sum over permutations of d^{#cycles} prod_j y[j, s(j)].

    d = 1 is the classical permanent; d = -1 equals (-1)^p det(Y).
    Brute force over all p! permutations.
    """
    d = _finite_d(d)
    y = matrix_core.as_matrix(y)
    check_permanent_dimension(y.shape[0])
    return _cycle_weighted_permanent(y, lambda k: d ** k)


def permanent_alpha(y, a: MomentSequence) -> complex:
    """alpha-permanent: the cycle-count weight d^k becomes a_k.

    `a` must carry moments up to order p (cycle counts reach p).
    """
    from .model import MOMENTS

    y = matrix_core.as_matrix(y)
    p = y.shape[0]
    check_permanent_dimension(p)
    if a.kind != MOMENTS:
        raise ValidationError("a must be a moment sequence")
    if a.depth < p:
        raise InsufficientOrdersError(f"a carries {a.depth} orders, need {p}")
    return _cycle_weighted_permanent(y, a.order)


def repeated_matrix(t, i) -> np.ndarray:
    """T(i): row/column j of T repeated i_j times (the master-theorem target)."""
    t = matrix_core.as_matrix(t)
    i = multi_index(i, t.shape[0])
    idx = [j for j, c in enumerate(i) for _ in range(c)]
    return t[np.ix_(idx, idx)]


# the last master-theorem grid composed, kept for its (T, weights) content
_kept_permanents = KeptGrid()


def permanent_master(t, i, d_or_alpha) -> complex:
    """per_d[T(i)] through the trace expansion of det(I - Z T)^{-d}.

    Uses the canonical decomposition Sigma := T with unit diagonal selectors
    H_k, which always exists, so the base moments rho are built on products
    of T's columns:
        i! [z^i] sum_l a_l R(z)^l / l!,  R(z) = sum_{u != 0} rho[u] z^u,
    with a_k = d^k, or the moments of `d_or_alpha` when it is a sequence.
    The master theorem gives per_d[T(v)] for every v <= i at once, as the
    cells of one composition on the grid of sub-indices
    (`combinatorics.compose_grid`).  That grid is kept for the content of
    T and the weights (the bytes of d, or the moments of alpha) in one
    slot (`combinatorics.KeptGrid`), so a later request inside it is a
    slice, and alpha's depth bounds its growth.  Each cell is computed by
    the same operations whatever the grid's extent, so a value is
    bit-identical whatever calls came before.
    Equals the brute-force d-permanent of the row/column-repeated T(i).
    """
    from .model import MOMENTS, MomentSequence

    t = matrix_core.as_matrix(t)
    m = t.shape[0]
    kind = multi_index(i, m)
    weight = check_joint_weight(sum(kind))
    if weight == 0:
        return 1.0 + 0.0j

    if isinstance(d_or_alpha, MomentSequence):
        if d_or_alpha.kind != MOMENTS:
            raise ValidationError("alpha must be a moment sequence")
        if d_or_alpha.depth < weight:
            raise InsufficientOrdersError(
                f"alpha carries {d_or_alpha.depth} orders, need {weight}")
        a_of, depth = d_or_alpha.order, d_or_alpha.depth
        weights = ("alpha", np.array(d_or_alpha.values, dtype=complex).tobytes())
    else:
        d = _finite_d(d_or_alpha)
        a_of, depth = (lambda k: d ** k), None
        weights = ("d", np.complex128(d).tobytes())

    def build(grid):
        from .multivariate import rho_table

        # Sigma H_k with H_k = E_kk keeps only column k of T
        sh = []
        for k in range(m):
            e = np.zeros_like(t)
            e[:, k] = t[:, k]
            sh.append(e)
        return (compose_grid(rho_table(sh, grid), grid, a_of),)

    factorial = math.prod(math.factorial(v) for v in kind)
    return _kept_permanents.value(
        (t.shape, t.tobytes(), *weights), kind, build,
        lambda table: finite_of(lambda cell: factorial * cell, "permanent", complex(table[kind])),
        depth=depth)


# ---------------------------------------------------------------------------
# spectral polykays
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolykaySample:
    """A spectral sample of `size` values y_j, held as its first four power
    sums S_k = sum_j y_j^k, k = 1..4."""

    size: int
    power_sums: tuple[float, float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "size", integer(self.size, "size"))
        if self.size < 1:
            raise ValidationError("empty spectral sample")
        if len(self.power_sums) != 4 or not all(math.isfinite(s) for s in self.power_sums):
            raise ValidationError(f"need four finite power sums: {self.power_sums}")

    @classmethod
    def from_eigenvalues(cls, values) -> "PolykaySample":
        """The sample of finite `values`; power sums that overflow raise
        NumericalError."""
        vals = [float(v) for v in values]
        if not all(math.isfinite(v) for v in vals):
            raise ValidationError(f"eigenvalues must be finite: {vals}")
        try:
            sums = tuple(sum(v ** k for v in vals) for k in range(1, 5))
        except OverflowError:  # float ** int raises where float * float gives inf
            sums = (math.inf,) * 4
        return cls(len(vals), tuple(finite(s, "a power sum of the eigenvalues") for s in sums))


def polykay(sample: PolykaySample, order: int) -> float:
    """Spectral polykay estimators of the first four normalized cumulants.

    Shift semi-invariant for orders >= 2 and homogeneous of degree
    `order`.  Every order is inherited under Haar compression: its
    expectation on a compression equals its expectation on the whole
    matrix.  On W(n, c I_p) the expectation of order r is n (r-1)! c^r
    whatever p, e.g. 10.0842 at order 4 on W(7, 0.7 I_6) and on its
    4 x 4 principal minor W(7, 0.7 I_4).  Each order equals the hook
    form (r-1)! sum_{a+b=r-1} (-1)^b s_{(a+1,1^b)}(y) /
    prod_{c=-b..a} (m + c) over the Schur functions of the hooks.  An
    order outside 1..4 raises ValidationError, a sample smaller than the
    order DegenerateSampleSizeError, and a value that overflows
    NumericalError.
    """
    order = check_polykay_order(order)
    return finite_of(lambda: _polykay(sample.size, *sample.power_sums, order),
                     f"the polykay of order {order}")


def _polykay(m: int, s1: float, s2: float, s3: float, s4: float, order: int) -> float:
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
    # order 4, the last of budgets.POLYKAY_ORDERS
    if m < 4:
        raise DegenerateSampleSizeError("order 4 needs a sample of size >= 4")
    return 6 * (-5 * s1 ** 4 + 10 * m * s1 ** 2 * s2 + (3 - 2 * m ** 2) * s2 ** 2
                - (4 + 4 * m ** 2) * s1 * s3 + (m + m ** 3) * s4) / (
        m * (m ** 2 - 1) * (m ** 2 - 4) * (m ** 2 - 9))
