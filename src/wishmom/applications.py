"""d-permanents through the master theorem, their brute-force reference,
and spectral polykays.

`permanent_master` is the one production route for permanents: it
evaluates the master theorem as one truncated power-series composition on
the grid of sub-indices of the index: the levels R^l / l! of
`combinatorics.compose_levels`, weighed at the one cell v by d^l or
alpha_l (`combinatorics.weigh_levels`), give per_d[T(v)] / v!; it
enumerates no partitions.  The alpha-permanent is its index (1, ..., 1).
The last levels composed are kept for the content of T alone, so a
session that tabulates the permanents of one T, under any d or alpha,
reads most of them as slices of one grid.  `permanent_d` is the
brute-force reference, one `combinatorics.permutation_sum` over all p!
permutations, and is its independent check.  A weight d^l past the float
range is held exactly (`errors.power`) on both routes, so a permanent in
the float range is that number; the master route raises NumericalError
where the levels may have lost products of the entries below the float
range.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import matrix_core
from .budgets import (check_joint_weight, check_permutation_degree, check_polykay_order, integer,
                      multi_index)
from .combinatorics import KeptGrid, compose_levels, permutation_sum, weigh_levels
from .errors import (DegenerateSampleSizeError, InsufficientOrdersError, NumericalError,
                     ValidationError, finite, finite_of, power)

if TYPE_CHECKING:
    from .model import MomentSequence


def _finite_d(d) -> complex:
    d = complex(d)
    if not cmath.isfinite(d):
        raise ValidationError(f"d must be finite: {d}")
    return d


def permanent_d(y, d) -> complex:
    """d-permanent: sum over permutations s of d^{#cycles(s)} prod_j y[j, s(j)].

    d = 1 is the classical permanent; d = -1 equals (-1)^p det(Y).  The
    brute-force reference for `permanent_master`: one `permutation_sum`
    over all p! permutations, priced by the S_p walk rule
    (`budgets.check_permutation_degree`), whose term is d^{#cycles} times
    the row-order product.
    """
    d = _finite_d(d)
    rows = matrix_core.as_matrix(y).tolist()

    def term(perm, cycles):
        prod = power(d, len(cycles))
        for j, col in enumerate(perm):
            prod *= rows[j][col]
        return prod

    return permutation_sum(check_permutation_degree(len(rows)), term, "permanent")


def permanent_alpha(y, a: MomentSequence) -> complex:
    """alpha-permanent: the cycle-count weight d^k becomes a_k, so
    `permanent_master` of y on the index (1, ..., 1).

    `a` must carry moments up to order p (cycle counts reach p).
    """
    y = matrix_core.as_matrix(y)
    return permanent_master(y, (1,) * len(y), a)


def repeated_matrix(t, i) -> np.ndarray:
    """T(i): row/column j of T repeated i_j times (the master-theorem target)."""
    t = matrix_core.as_matrix(t)
    i = multi_index(i, t.shape[0])
    idx = [j for j, c in enumerate(i) for _ in range(c)]
    return t[np.ix_(idx, idx)]


def _products_underflow(t: np.ndarray, weight: int) -> bool:
    """Whether a product of `weight` nonzero entries of t, over weight!,
    may pass below the float range, so that a master-theorem level built
    on such products may have lost them: an exact weight past the float
    range would then read what is left."""
    smallest = np.abs(t[t != 0]).min(initial=math.inf)
    return weight * math.log2(smallest) - math.log2(math.factorial(weight)) < -1022


# the last master-theorem levels composed, kept for the content of T
_kept_permanents = KeptGrid()


def permanent_master(t, i, d_or_alpha) -> complex:
    """per_d[T(i)] through the trace expansion of det(I - Z T)^{-d}.

    Uses the canonical decomposition Sigma := T with unit diagonal selectors
    H_k, which always exists, so the base moments rho are built on products
    of T's columns:
        i! [z^i] sum_l a_l R(z)^l / l!,  R(z) = sum_{u != 0} rho[u] z^u,
    with a_k = d^k, or the moments of `d_or_alpha` when it is a sequence.
    The levels R^l / l! on the grid of sub-indices
    (`combinatorics.compose_levels`) hold per_d[T(v)] / v! for every
    v <= i and every weight at once, and the read weighs only the cell at
    i (`combinatorics.weigh_levels`), so alpha need carry only |i|
    orders.  The levels are kept for the content of T alone in one slot
    (`combinatorics.KeptGrid`), so a later request inside the grid, under
    any d or alpha, is a slice.  Each level and each weighed cell is
    computed by the same operations whatever the grid's extent, so a
    value is bit-identical whatever calls came before.  A weight d^l past
    the float range is held exactly (`errors.power`); where a product of
    |i| nonzero entries of T may pass below the float range
    (`_products_underflow`), that read raises NumericalError, since the
    levels may have lost the product.
    Equals the brute-force `permanent_d` of the row/column-repeated T(i).
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
        a_of = d_or_alpha.order
    else:
        d = _finite_d(d_or_alpha)
        a_of = lambda k: power(d, k)
        if not isinstance(a_of(weight), complex) and _products_underflow(t, weight):
            raise NumericalError(f"permanent overflows: d^{weight} is past the float range, "
                                 f"and a product of {weight} entries below it")

    def build(grid):
        from .multivariate import rho_table

        # Sigma H_k with H_k = E_kk keeps only column k of T
        sh = []
        for k in range(m):
            e = np.zeros_like(t)
            e[:, k] = t[:, k]
            sh.append(e)
        return (compose_levels(rho_table(sh, grid), grid),)

    factorial = math.prod(math.factorial(v) for v in kind)
    return _kept_permanents.value(
        (t.shape, t.tobytes()), kind, build,
        lambda levels: finite_of(lambda cell: factorial * cell, "permanent",
                                 weigh_levels(levels, a_of, kind)))


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
