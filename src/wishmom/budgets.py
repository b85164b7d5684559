"""The one reading of every request field, and the one pricing of every
request.

This module imports neither numpy nor an engine, so the CLI reads and
prices a whole request with it before it loads either, and each engine
reads and prices its arguments by the same rules.

Every integer of a request (an order, an index or kind entry, a count, a
size, a seed) is read by one rule, `integer`: an int, a numpy integer or
an integral real is that non-negative int, so 2.0 counts as 2; True, 2.5,
-1, "2", None and anything else that is not a non-negative integral
number raise ValidationError naming the argument.  `integer_tuple` reads
each entry of a sequence by it and rejects a bare string, and
`multi_index` reads a multi-index against its m directions.  Degrees of
freedom are read by `positive_real`: an int, a float or a numpy real is
that positive finite float; True, "3", 3+0j, None, 0, -1, inf and nan
raise ValidationError naming the argument.  A sign convention is read by
`convention`: one of `CONVENTIONS`, else ValidationError.  The other
fixed sets of names and orders live here too: `IDENTITIES`, the
distributional identities `mc` checks, and `POLYKAY_ORDERS`, the orders
`check_polykay_order` admits.

Every combinatorially explosive operation caps one quantity of its request
with a rule below.  A rule reads its value by `integer`, checks its least
value and budget, and returns the int (``i = check_moment_order(i)``); it
needs no numpy, so the engines and the CLI call the same rule before any
numeric work.  Setting the environment variable ``WISHMOM_MAX_BUDGET`` to
a plain non-negative decimal (ASCII digits, nothing else) replaces the
defaults of all seven rules at once (moment order, cumulant order, joint
weight, necklace weight, permutation degree, product factors and
expansion positions), and a rejection then names that variable; any other
value raises ValidationError naming it.  A permanent is priced by the
joint weight of its index on the master-theorem route, the plain
permanent's index (1, ..., 1) weighing its dimension, and the brute-force
`permanent_d` by the permutation degree of its S_p walk.

Three fixed caps bound a cost, not an order, so no variable or argument
raises them; each is counted from the request before the first draw or
walk.  The Monte Carlo cap, `check_mc_variates`, bounds the random
variates one call draws (`check_identity_draws` for an identity check).
The partition-walk cap bounds the integer partitions one call walks,
counted from p(j) by Euler's pentagonal recurrence: `check_partition_walk`
for `integer_partitions`, `check_sheffer_passes` for the Sheffer moments.
The multi-index walk cap, `check_multiindex_walk`, bounds the partitions
of a multi-index (`check_joint_moment` for a joint moment).
"""

import itertools
import math
import numbers
import os

from .errors import BudgetExceededError, DimensionMismatchError, ValidationError

MAX_UNIVARIATE_ORDER = 20   # trace moment/cumulant order i
MAX_JOINT_WEIGHT = 10       # |i| for joint moments/cumulants, necklaces and permanent_master
MAX_PERMUTATION_SIZE = 10   # k for full S_k enumeration, permanent_d's too
MAX_PRODUCT_FACTORS = 8     # m for the group-action product-moment sums
MAX_EXPANSION_CYCLES = 6    # k for the 2^k central/formal assignment expansion
MAX_MC_VARIATES = 10 ** 9   # random variates one Monte Carlo call draws (fixed)
MAX_PARTITION_WALK = 10 ** 6  # integer partitions one call walks (fixed)
MAX_MULTIINDEX_WALK = 115_975  # multi-index partitions one walk visits (fixed): Bell(10)

_ENV_VAR = "WISHMOM_MAX_BUDGET"

CONVENTIONS = ("paper", "standard")
IDENTITIES = ("df-additivity", "sheffer", "m-split")
POLYKAY_ORDERS = range(1, 5)


def integer(value, name: str) -> int:
    """`value` as a non-negative int: an int, a numpy integer or an
    integral real such as 2.0.  A bool, a string, a non-integral or
    non-finite number, a negative number or anything else raises
    ValidationError naming `name`."""
    if type(value) is int and value >= 0:
        return value
    try:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError
        read = int(value)
        if read != value or read < 0:
            raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be a non-negative integer: {value!r}") from None
    return read


def integer_tuple(values, name: str) -> tuple[int, ...]:
    """Each entry of `values` read by `integer`; a bare string or a
    non-sequence raises ValidationError naming `name`."""
    try:
        if isinstance(values, str):
            raise TypeError
        return tuple(integer(v, name) for v in values)
    except (TypeError, ValidationError):
        raise ValidationError(
            f"{name} must be a list of non-negative integers: {values!r}") from None


def positive_real(value, name: str) -> float:
    """`value` as a positive finite float: an int, a float or a numpy
    real.  A bool, a string, a complex, None, a non-positive or
    non-finite number or anything else raises ValidationError naming
    `name`."""
    try:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise TypeError
        read = float(value)
    except (TypeError, ValueError, OverflowError):
        read = math.nan
    if not 0 < read < math.inf:
        raise ValidationError(f"{name} must be a positive finite real: {value!r}")
    return read


def convention(value) -> str:
    """`value` if it is one of `CONVENTIONS`; anything else raises
    ValidationError."""
    if value not in CONVENTIONS:
        raise ValidationError(f"convention must be one of {CONVENTIONS}: {value!r}")
    return value


def _limit(default: int) -> tuple[int, str | None]:
    """(effective budget, the environment variable if it set it, else None).

    The variable's value must be a plain non-negative decimal, ASCII
    digits only: a sign, a space, an underscore, a point or anything else
    raises ValidationError naming the variable."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return default, None
    try:
        if not (raw.isascii() and raw.isdigit()):
            raise ValueError
        return int(raw), _ENV_VAR  # ValueError past the interpreter's digit limit
    except ValueError:
        raise ValidationError(
            f"{_ENV_VAR} must be a non-negative decimal integer: {raw!r}") from None


def _rule(quantity: str, default: int, least: int = 0):
    def check(value) -> int:
        value = integer(value, quantity)
        if value < least:
            raise ValidationError(f"{quantity} must be >= {least}: {value}")
        limit, var = _limit(default)
        if value > limit:
            source = f" (set by {var})" if var else ""
            raise BudgetExceededError(f"{quantity}={value} exceeds budget {limit}{source}")
        return value

    check.__doc__ = (f"The {quantity} read by `integer`: ValidationError below "
                     f"{least}, BudgetExceededError above its budget (default "
                     f"{default}).")
    return check


check_moment_order = _rule("moment order", MAX_UNIVARIATE_ORDER)
check_cumulant_order = _rule("cumulant order", MAX_UNIVARIATE_ORDER)
check_joint_weight = _rule("joint weight", MAX_JOINT_WEIGHT)
check_necklace_weight = _rule("necklace weight", MAX_JOINT_WEIGHT, least=1)
check_permutation_degree = _rule("permutation degree", MAX_PERMUTATION_SIZE, least=1)
check_product_factors = _rule("product factors", MAX_PRODUCT_FACTORS)
check_expansion_positions = _rule("expansion positions", MAX_EXPANSION_CYCLES)


def check_mc_variates(variates: int, what: str) -> int:
    """The Monte Carlo cap: BudgetExceededError, naming the cost and the
    cap, when `what` would draw more than MAX_MC_VARIATES random variates.

    A call's cost is counted from its request before any draw: 2 n p
    normals per draw of the n rows of a p x p Wishart matrix, p variates
    per exact draw of its trace (one non-central chi-square per direction
    of Sigma), and 2 p^2 normals per Haar frame of a p x p matrix.  The cap
    is fixed: `WISHMOM_MAX_BUDGET` does not replace it.  Measured at the
    cap on one core of a shared 2-core host (Python 3.11, numpy 2.4, one
    BLAS thread), 10^9 variates took 26 s as Wishart rows
    (`estimate_joint_moment`, p = 4, n = 6), 63 s as exact traces
    (`estimate_trace_cumulants`, p = 4) and 82 s as Haar frames
    (`haar_power_sums`, p = 16); the largest test or benchmark call draws
    2 * 10^7.
    """
    if variates > MAX_MC_VARIATES:
        raise BudgetExceededError(
            f"{what} draws {variates} random variates, over the Monte Carlo cap "
            f"{MAX_MC_VARIATES}")
    return variates


def check_identity_draws(p: int, n_samples: int, what: str) -> int:
    """The Monte Carlo cap on an identity check of `n_samples` samples of a p x p
    law: three exact trace samples (the whole and both blocks), p variates a draw."""
    return check_mc_variates(3 * p * n_samples, what)


def check_polykay_order(order) -> int:
    """A polykay order read by `integer`: one of POLYKAY_ORDERS, else ValidationError."""
    order = integer(order, "order")
    if order not in POLYKAY_ORDERS:
        raise ValidationError(f"order must be 1..4: {order}")
    return order


def multi_index(values, m: int) -> tuple[int, ...]:
    """`values` read by `integer_tuple` as the multi-index of m directions:
    DimensionMismatchError unless it has m entries."""
    index = integer_tuple(values, "index")
    if len(index) != m:
        raise DimensionMismatchError(f"index has {len(index)} components, expected {m}")
    return index


def _partition_numbers(cap: int) -> tuple[int, ...]:
    """p(0), p(1), ..., p(k), k the least order with p(k) > cap, by Euler's
    pentagonal recurrence p(j) = sum_{g >= 1} (-1)^(g+1) (p(j - g(3g-1)/2)
    + p(j - g(3g+1)/2)), with p of a negative order 0."""
    p = [1]
    while p[-1] <= cap:
        j, total, g = len(p), 0, 1
        while g * (3 * g - 1) // 2 <= j:
            sign = 1 if g % 2 else -1
            total += sign * p[j - g * (3 * g - 1) // 2]
            if g * (3 * g + 1) // 2 <= j:
                total += sign * p[j - g * (3 * g + 1) // 2]
            g += 1
        p.append(total)
    return tuple(p)


_PARTITION_NUMBERS = _partition_numbers(MAX_PARTITION_WALK)  # p(0..61)
_SHEFFER_WALKS = tuple(itertools.accumulate(_PARTITION_NUMBERS))  # p(0) + ... + p(K)


def check_partition_walk(orders, what: str, table=_PARTITION_NUMBERS) -> None:
    """The partition-walk cap: BudgetExceededError when `what` would walk
    more than MAX_PARTITION_WALK integer partitions, one walk per entry j
    of `orders`, of table[j] partitions (past the table, its last entry,
    which is over the cap): p(j) by default, so `integer_partitions` of 60
    (966,467) fits and of 61 does not.  The count stops past the cap."""
    walked = itertools.accumulate(table[min(j, len(table) - 1)] for j in orders)
    if any(total > MAX_PARTITION_WALK for total in walked):
        raise BudgetExceededError(
            f"{what} walks more than {MAX_PARTITION_WALK} integer partitions, "
            f"over the partition-walk cap")


def check_sheffer_passes(order, what: str, passes=lambda k: (k,)) -> int:
    """The Sheffer-pass rule: `order` read by `check_moment_order`, then
    the partition-walk cap on the passes to each order of `passes(order)`
    (one pass to `order` by default), a pass to order K walking the
    p(0) + ... + p(K) partitions of orders 0..K.  A raised order budget
    costs the count no more than the cap's own orders.  A rejection names
    "<what> order <order>".

    The cap allows one pass to order 48 (918,220 partitions; order 49
    walks 1,091,745), `normalized_cumulant_moments`, a pass to each order
    1..K, to order 39, and `binomial_convolution_check`, three passes, to
    order 42.  Measured near the cap on one core of a shared 2-core host
    (Python 3.11, numpy 2.4, p = 4), `moment_sequence` to order 48 took
    5.1 s and `normalized_cumulant_moments` to order 39 took 4.3 s; the
    default moment budget (20) walks at most 2,714 partitions a pass.
    """
    order = check_moment_order(order)
    check_partition_walk(passes(order), f"{what} order {order}", _SHEFFER_WALKS)
    return order


def _multiindex_partitions_over(t, cap: int) -> bool:
    """Whether the multi-index t, non-negative ints, has more than `cap`
    partitions into nonzero columns: arithmetic lower bounds first, then
    the count itself.

    p(|t|) and prod p(t_i) bound the count from below: every integer
    partition of |t| is the column sums of some partition of t, and
    partitions of each coordinate apart, each part a column on its axis,
    are distinct partitions of t.  So are the pairs {u, t - u}, at least
    C / 2 - 1 of them, with C the cells u <= t of the grid of sub-indices,
    and the multisets {a, b, t - a - b} of three nonzero columns, at least
    (P - 3C) / 6 of them, with P the pairs c <= u of cells,
    prod (t_i + 1)(t_i + 2) / 2.  Past these bounds the count is one
    coin-change pass over the grid, P steps, so at most 12 cap + 6 when no
    bound rejects: count[u] gains count[u - c] for each nonzero column c in
    turn and each u >= c in C order.  A sub-index u <= t never has more
    partitions than t (adding the column t - u to each is one-to-one), so
    the pass stops once any cell passes the cap.
    """
    t = [v for v in t if v]
    numbers = _PARTITION_NUMBERS
    weight = sum(t)
    if weight >= len(numbers) or numbers[weight] > cap:
        return True
    if math.prod(numbers[v] for v in t) > cap:
        return True
    cells = math.prod(v + 1 for v in t)
    pairs = math.prod((v + 1) * (v + 2) // 2 for v in t)
    if cells > 2 * cap + 2 or pairs - 3 * cells > 6 * cap:
        return True
    strides = [math.prod(v + 1 for v in t[k + 1:]) for k in range(len(t))]
    grid = list(itertools.product(*(range(v + 1) for v in t)))
    count = [1] + [0] * (cells - 1)
    for c, column in enumerate(grid[1:], 1):
        for u in itertools.product(*(range(a, v + 1) for a, v in zip(column, t))):
            f = sum(x * stride for x, stride in zip(u, strides))
            count[f] += count[f - c]
            if count[f] > cap:
                return True
    return False


def check_multiindex_walk(t) -> None:
    """The multi-index walk cap: BudgetExceededError when the multi-index
    t, non-negative ints, has more than MAX_MULTIINDEX_WALK partitions,
    the walk of `combinatorics.multiindex_partitions`.

    Only a t of weight above the default joint-weight budget is counted
    (`_multiindex_partitions_over`): within it no index has more
    partitions than (1, ..., 1) of weight 10, Bell(10) = 115,975, so no
    request within the default budget is rejected and none pays for the
    count.  The cap, Bell(10) itself, is fixed: `WISHMOM_MAX_BUDGET` does
    not replace it.  It allows (5, 5, 5), 58,616 partitions, and rejects
    (6, 6, 6), 476,781, and (7, 7, 7) at once.  A walk costs more per
    partition the more columns its grid has.  Measured on one core of a
    shared 2-core host (Python 3.11, numpy 2.4, p = 2), `joint_moment` took
    16.5 s CPU on (3, 2, 1, 1, 1, 1, 1, 1), 115,500 partitions on a grid of
    768 cells, the largest grid of any index within the cap and above the
    default weight; (1, ..., 1) of weight 10, within the default budget,
    took 19.9 s.  The count itself took 0.24 s at most, on
    (2, 2, 1, ..., 1) of weight 13, the index up to weight 30 with the
    most pairs that the arithmetic bounds let through.
    """
    if sum(t) > MAX_JOINT_WEIGHT and _multiindex_partitions_over(t, MAX_MULTIINDEX_WALK):
        raise BudgetExceededError(
            f"index {t} has more than {MAX_MULTIINDEX_WALK} multi-index partitions, "
            f"over the multi-index walk cap")


def check_joint_moment(index) -> int:
    """The joint-moment rule: the weight of the multi-index, then its
    partitions (`check_multiindex_walk`); returns the weight.  `joint_moment`
    takes the second step inside `multiindex_partitions`: one count."""
    weight = check_joint_weight(sum(index))
    check_multiindex_walk(index)
    return weight
