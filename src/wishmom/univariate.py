"""Exact moments and cumulants of the trace of a (non-)central complex
Wishart matrix.

Two independent routes are shipped for each quantity and pinned together by
the test suite: the Sheffer convolution versus complete Bell polynomials
of the cumulant sequence, and the trace-cache cumulant formula versus its
eigenvalue form.  The non-central moments are the paper's Sheffer
convolution m_i = i! sum_j A_j R_{i-j}; the Bell route is a recurrence
that enumerates no partitions.

The compositions, sums over partitions of a_l d_lambda prod x_part, are
one truncated power series each, the cell i of
`combinatorics.compose_grid` on the 1-D grid: the central moment, the
randomized moment, and both directions of the dimension-normalized
moments.  They enumerate no partitions, and their tables form no factorial
(the central moment's reads the cyclic polynomials over j! from a first
grid on T_k / k, the randomized moment's holds T_k / k + sign S_k, and
e_k / k! is exact past 170), so the final i! is the one factorial, taken
exactly past 170 by the overflow rule.

The Sheffer parts are computed once per sequence: `moment_sequence` and
`binomial_convolution_check` take A_0..A_K and R_0..R_K from one pass and
convolve every order from them, where a single `noncentral_moment` of
order K pays the same pass for its one order.  A = exp(sign S(z)), the
formal variable built from the non-centrality traces, is the cells of one
`compose_grid` pass on the S-traces, for every law: a central law (M = 0)
has every S_k = 0, which composes to exact +0 cells, so its A is the
umbral unit (1, 0, 0, ...).  R_j is one partition sum per order
(`combinatorics.partition_sum`, which adds its terms with a correctly
rounded sum), over the list from `combinatorics.integer_partitions`,
which enumerates each order up to the default moment budget (20) once per
process and keeps it: the 230 lists that
`normalized_cumulant_moments(params, 20)` reads through its per-order
moments are 21 distinct ones, enumerated at most once.  The kept table
holds 2,714 partitions, each with its record, (counts, length,
prod r_j!), computed once when kept, about 0.92 MB in all, so a walk
reads each record and counts nothing.  An order above 20, reachable only
under `WISHMOM_MAX_BUDGET`, is enumerated on every read and never kept.
Every Sheffer route counts the partitions its passes will walk before the
first one, by `budgets.check_partition_walk`, and raises
BudgetExceededError past the fixed cap of 10^6 whatever the order budget:
one pass reaches order 48.  R's series form, exp(n T(z)), waits for a
benchmark change (ROADMAP.md).
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import matrix_core
from .budgets import (check_cumulant_order, check_moment_order, check_partition_walk, integer,
                      positive_real, sheffer_walk)
from .combinatorics import (
    complete_bell,
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


def _over_factorial(v, k: int) -> complex:
    """v / k!: Python's quotient while k! converts to a float (k <= 170),
    and past that each part's exact quotient, rounded once, where Python
    would raise OverflowError on k! itself."""
    f = math.factorial(k)
    try:
        return v / f
    except OverflowError:
        v = complex(v)
        parts = (x.as_integer_ratio() for x in (v.real, v.imag))
        return complex(*(num / (den * f) for num, den in parts))


def _exponential_table(x) -> list:
    """The table [0, x_1 / 1!, ..., x_i / i!] of the sequence x, x[k-1] = x_k."""
    return [0.0] + [_over_factorial(v, k) for k, v in enumerate(x, 1)]


def _exponential_composition(table, i: int, weight, what: str) -> complex:
    """The d_lambda-weighted partition sum over the partitions of i,
    sum_lambda d_lambda weight(l(lambda)) prod_j x_{part_j}^{r_j}, from the
    table [_, x_1 / 1!, ..., x_i / i!]: i! times the cell at i of
    `compose_grid`, each step through `errors.finite_of` labelled `what`.
    The final i! is the one factorial formed, and `finite_of` takes that
    product exactly when i! is past the float range."""
    cell = finite_of(lambda: complex(compose_grid(table, (i,), weight)[i]), what)
    return finite_of(lambda cell: math.factorial(i) * cell, what, cell)


# ---------------------------------------------------------------------------
# central distribution
# ---------------------------------------------------------------------------

def central_moment(params: WishartParams, i: int) -> complex:
    """E[(Tr W)^i] for the central distribution (M ignored).

    Partition sum with falling-factorial weights over products of cyclic
    polynomials of the power traces T_1..T_i, evaluated as the composition
    i! [z^i] sum_l (n)_l R(z)^l / l! with R(z) = sum_j C_j(T) z^j / j!.
    The cyclic polynomials have the exponential generating function
    exp(sum_k T_k z^k / k), so C_1 / 1!, ..., C_i / i! are the cells of
    one `compose_grid` on the table T_k / k with weight 1, and that grid is
    the table of the outer composition: no factorial is formed before the
    final i!, so an order past 170 whose moment is in the float range
    returns it.
    """
    i = check_moment_order(i)
    if i == 0:
        return 1.0 + 0.0j
    cache = params.trace_cache(i)
    logs = [0.0] + [cache.t_power(k) / k for k in range(1, i + 1)]
    cyclic = compose_grid(logs, (i,), lambda l: 1)
    return _exponential_composition(cyclic, i, lambda l: falling_factorial(params.n, l),
                                    f"central moment of order {i}")


def central_cumulant(params: WishartParams, i: int) -> complex:
    """Cum_i(Tr W) for the central distribution: n (i-1)! T_i."""
    i = check_cumulant_order(i)
    if i < 1:
        raise ValidationError(f"cumulant order must be >= 1: {i}")
    cache = params.trace_cache(i)
    return finite_of(lambda n, t: n * math.factorial(i - 1) * t,
                     f"central cumulant of order {i}", params.n, cache.t_power(i))


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
    return finite_of(lambda n, t, sign, s: n * math.factorial(i - 1) * t
                     + sign * math.factorial(i) * s, f"cumulant of order {i}",
                     params.n, cache.t_power(i), params.sign, cache.s_power(i))


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
    return finite_of(lambda total: math.factorial(i - 1) * total, f"cumulant of order {i}",
                     complex(total))


def _sheffer_parts(params: WishartParams, i_max: int) -> tuple[list, list]:
    """The Sheffer parts A_0..A_{i_max} and R_0..R_{i_max}.  A_j sums
    sign^l / prod r! over the partitions of j on the S-traces: A_0 = 1, and
    A_1..A_{i_max} are the cells of one `compose_grid` pass on
    [0, S_1, ..., S_{i_max}] with weight sign^l, each read through
    `errors.finite`.  A central law's S-table is zero and composes to
    exact +0 cells, so its A is the umbral unit (1, 0, 0, ...).  R_j sums
    n^l / prod r! over the partitions of j on T_m / m, one `partition_sum`
    walk per order.  Every moment up to order i_max is one convolution of
    the two lists (`_sheffer_moment`).  The caller has checked R's walks
    against the partition-walk cap."""
    cache = params.trace_cache(i_max)
    sign, n = params.sign, params.n
    s_table = [0.0] + [cache.s_power(k) for k in range(1, i_max + 1)]
    cells = compose_grid(s_table, (i_max,), lambda l: sign ** l).tolist()
    a_part = [1.0 + 0.0j] + [finite(a, f"Sheffer part A_{j}")
                             for j, a in enumerate(cells[1:], 1)]
    t_base = [0.0] + [cache.t_power(k) / k for k in range(1, i_max + 1)]
    r_part = [partition_sum(integer_partitions(j), t_base, lambda l: n ** l)
              for j in range(i_max + 1)]
    return a_part, r_part


def _sheffer_moment(a_part, r_part, i: int) -> complex:
    """i! sum_{j+k=i} A_j R_k, i >= 1, from the lists of `_sheffer_parts`."""
    total = complex_fsum(a_part[j] * r_part[i - j] for j in range(i + 1))
    return finite_of(lambda total: math.factorial(i) * total, f"moment of order {i}", total)


def _sheffer_moments(params: WishartParams, i_max: int) -> list[complex]:
    """Moments of orders 0..i_max from one pass of the Sheffer parts."""
    a_part, r_part = _sheffer_parts(params, i_max)
    return [1.0 + 0.0j] + [_sheffer_moment(a_part, r_part, i) for i in range(1, i_max + 1)]


def noncentral_moment(params: WishartParams, i: int) -> complex:
    """E[(Tr W)^i] by the paper's Sheffer convolution.

    i! sum_{j+k=i} A_j R_k where A_j sums sign^l / prod r! over partitions
    of j on the S-traces, the cells of one series pass, and R_k sums
    n^l / prod r! over partitions of k on T_m / m, one partition walk per
    order (`_sheffer_parts`).  Order i needs A and R up to i, so one order
    costs R's partition sums of every lower one; a whole sequence shares
    them (`moment_sequence`).  Reduces to the central moment when M = 0:
    A is then the umbral unit (1, 0, 0, ...), and the moment is i! R_i.
    Raises BudgetExceededError, before any walk, when the pass would walk
    more partitions than `budgets.MAX_PARTITION_WALK`.
    """
    i = check_moment_order(i)
    check_partition_walk(sheffer_walk((i,)), f"moment of order {i}")
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
    NumericalError when an order overflows, and BudgetExceededError when
    the pass would walk more partitions than the partition-walk cap."""
    i_max = check_moment_order(i_max)
    check_partition_walk(sheffer_walk((i_max,)), f"moment sequence to order {i_max}")
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
    # each per-draw cumulant (k-1)! T_k + sign k! S_k over k!
    table = [0.0] + [cache.t_power(k) / k + params.sign * cache.s_power(k)
                     for k in range(1, i + 1)]
    return _exponential_composition(table, i, alpha.order, f"randomized moment of order {i}")


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

    Each order is one `noncentral_moment`, one Sheffer pass, and the passes
    of every order are checked together against the partition-walk cap
    before the first: order 39 fits, order 40 raises BudgetExceededError.
    """
    i_max = check_moment_order(i_max)
    if i_max < 1:
        raise ValidationError(f"i_max must be >= 1: {i_max}")
    check_partition_walk(sheffer_walk(range(1, i_max + 1)),
                         f"normalized moments to order {i_max}")
    params.trace_cache(i_max)  # one extension to i_max, not one per order
    p = params.p
    e = [1.0 + 0.0j]
    for i in range(1, i_max + 1):
        mom = noncentral_moment(params, i)
        # every term but the head p * e_i, which vanishes at e_i = 0
        what = f"normalized moment of order {i}"
        rest = _exponential_composition(_exponential_table(e[1:] + [0.0]), i,
                                      lambda l: p ** l, what)
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
    table = _exponential_table(e.order(k) for k in range(1, i + 1))
    return _exponential_composition(table, i, lambda l: p ** l, f"moment of order {i}")


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
    pass of the Sheffer parts, as in `moment_sequence`, and the three
    passes are checked together against the partition-walk cap before
    the first.  Returns {order: max relative deviation}.

    Raises ValidationError when `m_split` is not a pair and
    DimensionMismatchError when either matrix is not p x p, before any
    parameters are built.
    """
    n1, n2 = positive_real(n1, "n1"), positive_real(n2, "n2")
    i_max = check_moment_order(i_max)
    if i_max < 1:
        raise ValidationError(f"i_max must be >= 1: {i_max}")
    check_partition_walk(sheffer_walk((i_max,) * 3),
                         f"binomial convolution check to order {i_max}")
    sigma, conv = params.sigma, params.convention
    if m_split is None:
        m1, m2 = params.m_matrix, None
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
