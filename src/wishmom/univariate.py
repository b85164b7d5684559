"""Exact moments and cumulants of the trace of a (non-)central complex
Wishart matrix.

Two independent routes are shipped for each quantity and pinned together by
the test suite: partition sums over the trace caches versus complete Bell
polynomials of the cumulant sequence, and the trace-cache cumulant formula
versus its eigenvalue form.  The non-central moments are the paper's
Sheffer convolution m_i = i! sum_j A_j R_{i-j}, with A_j and R_k partition
sums (`combinatorics.partition_sum`, which adds its terms with a correctly
rounded sum); the Bell route is a recurrence that enumerates no partitions.

The compositions, sums over partitions of a_l d_lambda prod x_part, are
one truncated power series each, the cell i of `combinatorics.compose_grid`
on the 1-D grid: the central moment, the randomized moment, and both
directions of the dimension-normalized moments.  They enumerate no
partitions.  The moments stay on the partition sums for now, computed once per sequence:
`moment_sequence` and `binomial_convolution_check` take A_0..A_K and
R_0..R_K from one pass and convolve every order from them, where a single
`noncentral_moment` of order K pays the same pass for its one order.  A_j
and R_j sum over the same partitions of j, so a pass reads each order's
partitions once and feeds the one list to both parts.  The lists come from
`combinatorics.integer_partitions`, which enumerates each order up to the
default moment budget (20) once per process and keeps it: the 230 lists
that `normalized_cumulant_moments(params, 20)` reads through its per-order
moments are 21 distinct ones, enumerated at most once.  An order above 20,
reachable only under `WISHMOM_MAX_BUDGET`, is enumerated on every read and
never kept.  The series form of A and R, exp of the cumulant series, waits
for a benchmark change (ROADMAP.md).
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import matrix_core
from .budgets import check_cumulant_order, check_moment_order, integer, positive_real
from .combinatorics import (
    complete_bell,
    complete_bell_sequence,
    complex_fsum,
    compose_grid,
    falling_factorial,
    integer_partitions,
    partition_sum,
)
from .errors import (DimensionMismatchError, InsufficientOrdersError, ValidationError, finite,
                     finite_of)
from .model import WishartParams, build

MOMENTS = "moments"
CUMULANTS = "cumulants"


@dataclass(frozen=True)
class MomentSequence:
    """A finite moment or cumulant sequence.

    `values[k]` is the order-k entry; index 0 holds 1 for moments and 0 for
    cumulants by convention.  Every entry must be a finite number, not a
    bool or a string, else ValidationError.
    """

    values: tuple[complex, ...]
    kind: str

    def __post_init__(self):
        if self.kind not in (MOMENTS, CUMULANTS):
            raise ValidationError(f"kind must be {MOMENTS!r} or {CUMULANTS!r}")
        if not self.values:
            raise ValidationError("empty sequence")
        for v in self.values:
            _check_entry(v)
        if self.kind == MOMENTS and self.values[0] != 1:
            raise ValidationError("a moment sequence must start with 1")

    @property
    def depth(self) -> int:
        """Highest order carried."""
        return len(self.values) - 1

    def order(self, k: int) -> complex:
        k = integer(k, "order")
        if k > self.depth:
            raise InsufficientOrdersError(
                f"order {k} not available (depth {self.depth})")
        return complex(self.values[k])

    @classmethod
    def from_moments(cls, orders_1_up) -> "MomentSequence":
        return cls((1,) + tuple(orders_1_up), MOMENTS)

    @classmethod
    def from_cumulants(cls, orders_1_up) -> "MomentSequence":
        return cls((0,) + tuple(orders_1_up), CUMULANTS)


def _check_entry(v) -> None:
    """ValidationError unless the sequence entry `v` is a finite number."""
    if isinstance(v, bool) or not isinstance(v, numbers.Number):
        raise ValidationError(f"sequence entries must be numbers: {v!r}")
    try:
        is_finite = cmath.isfinite(complex(v))
    except (TypeError, ValueError, OverflowError):  # e.g. an int past the float range
        is_finite = False
    if not is_finite:
        raise ValidationError("non-finite entry in sequence")


def _exponential_composition(x, i: int, weight, what: str) -> complex:
    """The d_lambda-weighted partition sum over the partitions of i,
    sum_lambda d_lambda weight(l(lambda)) prod_j x_{part_j}^{r_j} from
    x[k-1] = x_k: i! times the cell at i of `compose_grid` on the table
    [0, x_1 / 1!, ..., x_i / i!], through `errors.finite_of` labelled
    `what`.  x may be a generator: its entries are then computed inside the
    overflow rule too."""
    def compose():
        table = [0.0] + [v / math.factorial(k) for k, v in enumerate(x, 1)]
        return math.factorial(i) * complex(compose_grid(table, (i,), weight)[i])

    return finite_of(compose, what)


# ---------------------------------------------------------------------------
# central distribution
# ---------------------------------------------------------------------------

def central_moment(params: WishartParams, i: int) -> complex:
    """E[(Tr W)^i] for the central distribution (M ignored).

    Partition sum with falling-factorial weights over products of cyclic
    polynomials of the power traces T_1..T_i, evaluated as the composition
    i! [z^i] sum_l (n)_l R(z)^l / l! with R(z) = sum_j C_j(T) z^j / j!.
    The cyclic polynomials C_j(T) = Y_j(0! T_1, ..., (j-1)! T_j) of every
    j <= i come from one run of the Bell recurrence, inside the overflow
    rule.
    """
    i = check_moment_order(i)
    if i == 0:
        return 1.0 + 0.0j
    cache = params.trace_cache(i)

    def cyclic():
        c = [math.factorial(k - 1) * cache.t_power(k) for k in range(1, i + 1)]
        yield from complete_bell_sequence(c)[1:]

    return _exponential_composition(cyclic(), i, lambda l: falling_factorial(params.n, l),
                                    f"central moment of order {i}")


def central_cumulant(params: WishartParams, i: int) -> complex:
    """Cum_i(Tr W) for the central distribution: n (i-1)! T_i."""
    i = check_cumulant_order(i)
    if i < 1:
        raise ValidationError(f"cumulant order must be >= 1: {i}")
    cache = params.trace_cache(i)
    return finite_of(lambda: params.n * math.factorial(i - 1) * cache.t_power(i),
                     f"central cumulant of order {i}")


# ---------------------------------------------------------------------------
# non-central distribution
# ---------------------------------------------------------------------------

def noncentral_cumulant(params: WishartParams, i: int) -> complex:
    """Cum_i(Tr W) = n (i-1)! T_i + sign * i! S_i.

    `sign` is -1 under the paper convention and +1 under the standard one.
    """
    i = check_cumulant_order(i)
    if i < 1:
        raise ValidationError(f"cumulant order must be >= 1: {i}")
    cache = params.trace_cache(i)
    return finite_of(lambda: params.n * math.factorial(i - 1) * cache.t_power(i)
                     + params.sign * math.factorial(i) * cache.s_power(i),
                     f"cumulant of order {i}")


@matrix_core.quiet
def noncentral_cumulant_eigen(params: WishartParams, i: int) -> complex:
    """Cum_i(Tr W) through the eigenvalues of Sigma.

    (i-1)! sum_j (n theta_j^i + sign * i * d_j theta_j^(i-1)) with theta
    the eigenvalues, Sigma = Q diag(theta) Q^dag, and d the diagonal of
    Q^dag M Q (d_j = b_j theta_j, b the diagonal of Q^dag Omega Q).
    """
    i = check_cumulant_order(i)
    if i < 1:
        raise ValidationError(f"cumulant order must be >= 1: {i}")
    theta, q = matrix_core.hermitian_eigen(params.sigma)
    d = np.diagonal(q.conj().T @ params.m_matrix @ q)
    total = sum(params.n * theta[j] ** i + params.sign * i * d[j] * theta[j] ** (i - 1)
                for j in range(params.p))
    return finite_of(lambda: math.factorial(i - 1) * complex(total), f"cumulant of order {i}")


def _sheffer_parts(params: WishartParams, i_max: int) -> tuple[list, list]:
    """The Sheffer parts A_0..A_{i_max} and R_0..R_{i_max}, one partition
    sum each: A_j sums sign^l / prod r! over the partitions of j on the
    S-traces, R_j sums n^l / prod r! over the partitions of j on T_m / m.
    Both sum over the same partitions, so each order's list is built once
    and feeds the two.  Every moment up to order i_max is one convolution
    of the two lists (`_sheffer_moment`)."""
    cache = params.trace_cache(i_max)
    s_base = [0.0] + [cache.s_power(k) for k in range(1, i_max + 1)]
    t_base = [0.0] + [cache.t_power(k) / k for k in range(1, i_max + 1)]
    a_part, r_part = [], []
    for j in range(i_max + 1):
        partitions = integer_partitions(j)
        a_part.append(partition_sum(partitions, s_base, lambda l: params.sign ** l))
        r_part.append(partition_sum(partitions, t_base, lambda l: params.n ** l))
    return a_part, r_part


def _sheffer_moment(a_part, r_part, i: int) -> complex:
    """i! sum_{j+k=i} A_j R_k, i >= 1, from the lists of `_sheffer_parts`."""
    total = complex_fsum(a_part[j] * r_part[i - j] for j in range(i + 1))
    return finite_of(lambda: math.factorial(i) * total, f"moment of order {i}")


def _sheffer_moments(params: WishartParams, i_max: int) -> list[complex]:
    """Moments of orders 0..i_max from one pass of the Sheffer parts."""
    a_part, r_part = _sheffer_parts(params, i_max)
    return [1.0 + 0.0j] + [_sheffer_moment(a_part, r_part, i) for i in range(1, i_max + 1)]


def noncentral_moment(params: WishartParams, i: int) -> complex:
    """E[(Tr W)^i] by the paper's Sheffer convolution.

    i! sum_{j+k=i} A_j R_k where A_j sums sign^l / prod r! over partitions
    of j on the S-traces and R_k sums n^l / prod r! over partitions of k on
    T_m / m (`_sheffer_parts`).  Order i needs A and R up to i, so one
    order costs the partition sums of every lower one; a whole sequence
    shares them (`moment_sequence`).  Reduces to the central moment when
    M = 0.
    """
    i = check_moment_order(i)
    if i == 0:
        return 1.0 + 0.0j
    return _sheffer_moment(*_sheffer_parts(params, i), i)


def noncentral_moment_bell(params: WishartParams, i: int) -> complex:
    """E[(Tr W)^i] as the complete Bell polynomial of the cumulants.

    Independent route used to cross-check `noncentral_moment`.
    """
    i = check_moment_order(i)
    params.trace_cache(i)  # one extension to order i, not one per order
    cums = [noncentral_cumulant(params, k) for k in range(1, i + 1)]
    return finite(complex(complete_bell(cums)), f"moment of order {i}")


def cumulant_sequence(params: WishartParams, i_max: int) -> MomentSequence:
    """Cumulants of Tr W for orders 1..i_max; the budget is checked on
    i_max before any order is computed.  Raises NumericalError when an
    order overflows."""
    i_max = check_cumulant_order(i_max)
    params.trace_cache(i_max)  # one extension to i_max, not one per order
    return MomentSequence.from_cumulants(
        [noncentral_cumulant(params, k) for k in range(1, i_max + 1)])


def moment_sequence(params: WishartParams, i_max: int) -> MomentSequence:
    """Moments of Tr W for orders 0..i_max, each the same value as
    `noncentral_moment`; the budget is checked on i_max before any order
    is computed.  One pass: the Sheffer parts A_j, R_k are computed once
    up to i_max, and every order is one convolution of them.  Raises
    NumericalError when an order overflows."""
    i_max = check_moment_order(i_max)
    return MomentSequence.from_moments(_sheffer_moments(params, i_max)[1:])


# ---------------------------------------------------------------------------
# randomized degrees of freedom
# ---------------------------------------------------------------------------

def randomized_moment(alpha: MomentSequence, params: WishartParams, i: int) -> complex:
    """E[(Tr W(N))^i] for a random number of draws N with moments `alpha`.

    W(N) sums N independent single draws with common per-draw parameters
    (Sigma, M); params.n is ignored.  The random-sum composition gives
    sum over partitions of alpha_{l(lambda)} d_lambda times products of the
    per-draw trace *cumulants*, i.e. the moment sequence of N composed with
    the single-draw log-transform, evaluated by `compose_grid`.  For N
    fixed at an integer n this equals the n-draw moment with non-centrality
    n * M.
    """
    if alpha.kind != MOMENTS:
        raise ValidationError("alpha must be a moment sequence")
    i = check_moment_order(i)
    if i == 0:
        return 1.0 + 0.0j
    if alpha.depth < i:
        raise InsufficientOrdersError(
            f"alpha carries {alpha.depth} orders, need {i}")
    cache = params.trace_cache(i)
    draw_cums = (math.factorial(k - 1) * cache.t_power(k)
                 + params.sign * math.factorial(k) * cache.s_power(k)
                 for k in range(1, i + 1))
    return _exponential_composition(draw_cums, i, alpha.order, f"randomized moment of order {i}")


# ---------------------------------------------------------------------------
# dimension-normalized cumulants
# ---------------------------------------------------------------------------

def normalized_cumulant_moments(params: WishartParams, i_max: int) -> MomentSequence:
    """Moments of the dimension-normalized trace component.

    Defined by the triangular system
        E[(Tr W)^i] = sum over partitions of p^{l} d_lambda prod e_{part}^r
    and solved for the e_i by forward substitution, each step one
    composition (`compose_grid`) of the e_k found so far; reinserting the
    solved sequence reproduces the trace moments exactly.

    The system has a closed-form solution: exp(p R(z)) with
    R(z) = sum_k e_k z^k / k! is the moment series, so p R is the cumulant
    series and e_k = kappa_k / p exactly.  The substitution instead
    subtracts near-equal moments, and loses accuracy with the order: over
    200 random inputs (p from 1 to 8, both conventions, central and
    non-central) the worst relative error against kappa_k / p was 3.3e-8
    by order 6, 2.7e-3 by order 10 and 0.27 by order 12; at order 20 it
    reached 1.5e6.  A second set of 200 (Sigma = A A^H / p + 0.1 I, n
    between p and 3p) reached 3e-7, 3.7e-2 and 4 at orders 6, 10 and 12:
    the loss depends on the input.  Only the low orders are accurate.
    """
    i_max = check_moment_order(i_max)
    if i_max < 1:
        raise ValidationError(f"i_max must be >= 1: {i_max}")
    params.trace_cache(i_max)  # one extension to i_max, not one per order
    p = params.p
    e = [1.0 + 0.0j]
    for i in range(1, i_max + 1):
        mom = noncentral_moment(params, i)
        # every term but the head p * e_i, which vanishes at e_i = 0
        what = f"normalized moment of order {i}"
        rest = _exponential_composition(e[1:] + [0.0], i, lambda l: p ** l, what)
        e.append(finite((mom - rest) / p, what))
    return MomentSequence(tuple(e), MOMENTS)


def compose_normalized_moments(e: MomentSequence, p: int, i: int) -> complex:
    """Forward expansion: trace moment of order i from the normalized
    sequence e (round-trip companion of `normalized_cumulant_moments`),
    i! [z^i] sum_l p^l R(z)^l / l! with R(z) = sum_k e_k z^k / k!.

    p is the matrix dimension: a positive integer, else ValidationError.
    The order is read by `check_moment_order`, as in `randomized_moment`.
    """
    if e.kind != MOMENTS:
        raise ValidationError("e must be a moment sequence")
    p, i = integer(p, "p"), check_moment_order(i)
    if p < 1:
        raise ValidationError(f"p is a matrix dimension, a positive integer: {p}")
    if i == 0:
        return 1.0 + 0.0j
    return _exponential_composition([e.order(k) for k in range(1, i + 1)], i,
                                    lambda l: p ** l, f"moment of order {i}")


# ---------------------------------------------------------------------------
# convolution identities
# ---------------------------------------------------------------------------

def binomial_convolution_check(params: WishartParams, n1: float, n2: float,
                               i_max: int, m_split=None) -> dict[int, float]:
    """Verify the binomial convolution of trace moment sequences.

    Checks, order by order up to i_max,
        E[(Tr W(n1+n2, Sigma, M1+M2))^i]
          = sum_k C(i,k) E[(Tr W(n1, Sigma, M1))^k] E[(Tr W(n2, Sigma, M2))^{i-k}]
    with (M1, M2) = `m_split` (default: all of M on the n1 block, so the
    second factor is central).  Each of the three moment sequences is one
    pass of the Sheffer parts, as in `moment_sequence`.  Returns
    {order: max relative deviation}.

    Raises ValidationError when `m_split` is not a pair and
    DimensionMismatchError when either matrix is not p x p, before any
    parameters are built.
    """
    n1, n2 = positive_real(n1, "n1"), positive_real(n2, "n2")
    i_max = check_moment_order(i_max)
    if i_max < 1:
        raise ValidationError(f"i_max must be >= 1: {i_max}")
    sigma, conv = params.sigma, params.convention
    if m_split is None:
        m1, m2 = params.m_matrix, np.zeros_like(params.m_matrix)
    else:
        try:
            m1, m2 = m_split
        except (TypeError, ValueError):
            raise ValidationError("m_split must be a pair of matrices (M1, M2)") from None
        m1, m2 = matrix_core.as_matrix(m1), matrix_core.as_matrix(m2)
        for name, m in (("M1", m1), ("M2", m2)):
            if m.shape != sigma.shape:
                raise DimensionMismatchError(
                    f"m_split {name} shape {m.shape} != sigma shape {sigma.shape}")
        if np.abs((m1 + m2) - params.m_matrix).max() > 1e-12 * max(
                matrix_core.mat_norm(params.m_matrix), 1.0):
            raise ValidationError("m_split does not sum to params.m_matrix")
    whole, _ = build(n1 + n2, sigma, params.m_matrix, conv)
    left, _ = build(n1, sigma, m1, conv)
    right, _ = build(n2, sigma, m2, conv)

    wm = _sheffer_moments(whole, i_max)
    lm = _sheffer_moments(left, i_max)
    rm = _sheffer_moments(right, i_max)
    report = {}
    for i in range(1, i_max + 1):
        lhs = wm[i]
        rhs = sum(math.comb(i, k) * lm[k] * rm[i - k] for k in range(i + 1))
        report[i] = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
    return report
