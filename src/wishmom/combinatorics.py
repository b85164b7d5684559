"""Partitions, necklaces, cycle-typed permutations, and the classical
polynomial families (complete Bell, cyclic, complete homogeneous) that the
trace-moment formulas reduce to.

Enumeration orders are fixed and documented so outputs are deterministic:
integer partitions come in reverse-lexicographic order, multi-index
partitions in reverse-lexicographic order on their column sequences (larger
columns consumed first), necklace representatives in lexicographic order.

The closed forms are sums of two kinds, with one kernel each.  A weighted
sum over partitions, sum_lambda a_l / prod r! prod x_part^r, is the
coefficient [z^i] of sum_l a_l R(z)^l / l!, a truncated power series on
the grid of sub-indices u <= i.  The series kernel, `compose_grid`, gives
every coefficient u <= i at once, each bit-identical whatever the grid's
extent, and enumerates no partitions.  It carries the univariate
compositions (randomized, central and normalized moments), which read
their one cell at i, and the master-theorem permanents and the randomized
joint cumulants, whose routes keep their last grid for its content in a
`KeptGrid`; it also gives the trace moments' Sheffer part A, the
exponential of the non-centrality series, in one pass.  `partition_sum`
walks the partitions and adds the terms of one sum correctly rounded, as
`complex_fsum` does; it is the one loop over partitions.  It carries the
trace moments' Sheffer part R (one walk per order) and the joint moments
(one sum over the joint cumulant table), and is the tests' oracle for the
series kernel.  The Bell and cyclic polynomials come from the Bell recurrence and enumerate nothing, so they
stay an independent check on both.  A sum over the symmetric group, the
generalized moments' group action and the d- and alpha-permanents, is one
walk over S_m, `permutation_sum`, which hands each permutation and its
cycles to the caller's term and adds the terms with `complex_fsum`.

The public constructors of `IntegerPartition`, `MultiIndexPartition`,
`Necklace` and `CyclePermutation` validate: they read every integer by
`budgets.integer`, so 2.0 counts as 2 and True or 2.5 raise
ValidationError, check the class's invariants, and store the normalized
fields (a `CyclePermutation` in its canonical cycle order).  The
enumerators build their objects through one private trusted constructor
per class, `_of`, which checks nothing: they already guarantee every
invariant.  Integer partitions come from the reverse-lexicographic
successor rule (Knuth, TAOCP 7.2.1.4; Zoghbi and Stojmenovic 1998, ZS1),
one step per partition, with no recursion copying a prefix.  Each order
up to the default moment budget (20) is enumerated once per process and
kept, each partition with the one record `partition_sum` reads,
(counts, length, prod r_j!), which any other partition, a
`MultiIndexPartition` too, computes on the read; every caller gets a fresh
list of the kept partitions.  A higher order is enumerated
only within the partition-walk cap (`budgets.check_partition_walk`), and a
multi-index above the default joint weight only within the multi-index
walk cap (`budgets.check_multiindex_walk`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .budgets import (
    MAX_UNIVARIATE_ORDER,
    check_joint_weight,
    check_multiindex_walk,
    check_necklace_weight,
    check_partition_walk,
    check_permutation_degree,
    integer,
    integer_tuple,
)
from .errors import BudgetExceededError, DimensionMismatchError, ValidationError, finite_of


def _integer_rows(rows, name: str) -> tuple[tuple[int, ...], ...]:
    """Each entry of `rows` read by `integer_tuple`."""
    try:
        return tuple(integer_tuple(row, name) for row in rows)
    except TypeError:
        raise ValidationError(f"{name} must be a list of integer lists: {rows!r}") from None


# ---------------------------------------------------------------------------
# integer partitions
# ---------------------------------------------------------------------------

def _count_parts(parts: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The distinct parts of weakly decreasing `parts` with their
    multiplicities, largest part first."""
    out = []
    for p in parts:
        if out and out[-1][0] == p:
            out[-1] = (p, out[-1][1] + 1)
        else:
            out.append((p, 1))
    return tuple(out)


def _record_of(counts: tuple) -> tuple:
    """The record `partition_sum` reads of a partition with these
    (part, multiplicity) counts: (counts, length, prod r_j!)."""
    length, den = 0, 1
    for _, r in counts:
        length += r
        den *= math.factorial(r)
    return counts, length, den


class _RecordedOnRead:
    """`IntegerPartition.record` where the partition carries no record of
    its own: the record computed from its parts on each read.  It defines
    no __set__, so an entry in the instance's own dict takes precedence and
    reads as a plain attribute."""

    def __get__(self, lam, owner=None):
        if lam is None:
            return self
        return _record_of(_count_parts(lam.parts))


@dataclass(frozen=True)
class IntegerPartition:
    """A partition of an integer: weakly decreasing positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = integer_tuple(self.parts, "parts")
        if any(p < 1 for p in parts):
            raise ValidationError(f"parts must be positive: {parts}")
        if any(a < b for a, b in zip(parts, parts[1:])):
            raise ValidationError(f"parts must be weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    @classmethod
    def _of(cls, parts: tuple[int, ...]) -> "IntegerPartition":
        """The partition with these parts, unchecked: for a tuple of
        positive ints already known to be weakly decreasing."""
        self = object.__new__(cls)
        object.__setattr__(self, "parts", parts)
        return self

    @property
    def size(self) -> int:
        """The integer being partitioned."""
        return sum(self.parts)

    @property
    def length(self) -> int:
        """Number of parts."""
        return len(self.parts)

    @property
    def multiplicities(self) -> tuple[int, ...]:
        """(r_1, ..., r_max): r_j counts parts equal to j."""
        if not self.parts:
            return ()
        out = [0] * self.parts[0]
        for p in self.parts:
            out[p - 1] += 1
        return tuple(out)

    # the record `partition_sum` reads, (counts, length, prod r_j!): a kept
    # partition carries it as an attribute of its own, set once by
    # `_kept_partitions`, and any other partition computes it from its parts
    # on each read
    record = _RecordedOnRead()

    @property
    def counts(self) -> tuple[tuple[int, int], ...]:
        """Distinct parts with multiplicities, largest part first: the
        first field of `record`."""
        return self.record[0]

    def part_counts(self) -> list[tuple[int, int]]:
        """Distinct parts with multiplicities, largest part first, as a new
        list: mutating it changes no record a kept partition carries."""
        return list(self.counts)


def integer_partitions(i: int) -> list[IntegerPartition]:
    """All partitions of i, in reverse-lexicographic order, as a new list.

    i is read by `budgets.integer` on every call.  Orders up to the
    default moment budget, `budgets.MAX_UNIVARIATE_ORDER`, are enumerated
    once per process and kept as a tuple of frozen partitions
    (`_kept_partitions`, 2,714 objects for orders 0..20), each carrying
    its `record`, (counts, length, prod r_j!), computed once when it is
    kept, with one tuple per distinct (part, multiplicity) pair of an
    order: about 0.92 MB for the whole table under tracemalloc, 0.43 MB
    of it the records.  Every call copies the kept tuple into a fresh
    list, so a caller that mutates its list changes nothing kept, and
    `part_counts` hands out a fresh list of the counts.  Higher orders,
    reachable only under a raised budget, are enumerated on every call and
    never kept: p(60) alone is 966,467 partitions.  Their count p(i) is
    checked against the fixed partition-walk cap first
    (`budgets.check_partition_walk`), so i = 61 and above raise
    BudgetExceededError before any enumeration.
    """
    i = integer(i, "i")
    if i <= MAX_UNIVARIATE_ORDER:
        return list(_kept_partitions(i))
    check_partition_walk((i,), f"integer_partitions({i})")
    return _enumerate_partitions(i)


@functools.lru_cache(maxsize=None)
def _kept_partitions(i: int) -> tuple[IntegerPartition, ...]:
    """The partitions of i <= MAX_UNIVARIATE_ORDER, enumerated on first use,
    each carrying its `record`, (counts, length, prod r_j!), as an
    attribute of its own, so that `counts` reads the record's first field
    and the partition holds one record."""
    kept = tuple(_enumerate_partitions(i))
    pairs = {}  # one tuple per distinct (part, multiplicity) of the order
    for lam in kept:
        counts = tuple(pairs.setdefault(pair, pair) for pair in _count_parts(lam.parts))
        object.__setattr__(lam, "record", _record_of(counts))
    return kept


def _enumerate_partitions(i: int) -> list[IntegerPartition]:
    """The partitions of the int i >= 0, in reverse-lexicographic order.

    i = 0 yields the single empty partition.  Each partition is the
    successor of the one before (ZS1): the last part x > 1 drops to
    x - 1, and the ones after it, with the unit taken from x, are
    regrouped into as many parts x - 1 as fit and one remainder part.
    """
    of = IntegerPartition._of
    if i == 0:
        return [of(())]
    x = [1] * i          # x[:m + 1] is the current partition
    x[0] = i
    m = h = 0            # h indexes its last part greater than 1
    out = [of((i,))]
    while x[0] != 1:
        if x[h] == 2:
            m += 1
            x[h] = 1
            h -= 1
        else:
            r = x[h] - 1
            rest = m - h + 1   # the unit taken from x[h] and the ones after it
            x[h] = r
            while rest >= r:
                h += 1
                x[h] = r
                rest -= r
            if rest == 0:
                m = h
            else:
                m = h + 1
                if rest > 1:
                    h += 1
                    x[h] = rest
        out.append(of(tuple(x[:m + 1])))
    return out


def partition_coefficients(lam: IntegerPartition, i: int) -> tuple[int, int, int]:
    """The three factorial weights of a partition of i, as exact integers.

    Returns (d, d_tilde, c) with
        d       = i! / prod_j (j!)^{r_j} r_j!      (set-partition count)
        d_tilde = i! / prod_j r_j!                 (ordered-block weight)
        c       = i! / prod_j j^{r_j} r_j!         (cycle-class count)
    """
    i = integer(i, "i")
    if lam.size != i:
        raise ValidationError(f"{lam.parts} is not a partition of {i}")
    fact = math.factorial(i)
    den_d = den_td = den_c = 1
    for part, r in lam.counts:
        rf = math.factorial(r)
        den_d *= math.factorial(part) ** r * rf
        den_td *= rf
        den_c *= part ** r * rf
    return fact // den_d, fact // den_td, fact // den_c


# ---------------------------------------------------------------------------
# multi-index partitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiIndexPartition:
    """A partition of a multi-index into nonzero column vectors.

    `columns` holds the distinct columns in strictly increasing
    lexicographic order; `multiplicities` counts how often each occurs.
    """

    columns: tuple[tuple[int, ...], ...]
    multiplicities: tuple[int, ...]

    def __post_init__(self):
        columns = _integer_rows(self.columns, "columns")
        multiplicities = integer_tuple(self.multiplicities, "multiplicities")
        if len(columns) != len(multiplicities):
            raise ValidationError("columns/multiplicities length mismatch")
        if len({len(col) for col in columns}) > 1:
            raise ValidationError(f"columns must have one length: {columns}")
        if not all(any(col) for col in columns):
            raise ValidationError("zero column in multi-index partition")
        if any(a >= b for a, b in zip(columns, columns[1:])):
            raise ValidationError("columns must be strictly increasing")
        if not all(multiplicities):
            raise ValidationError("multiplicities must be positive")
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "multiplicities", multiplicities)

    @classmethod
    def _of(cls, columns, multiplicities) -> "MultiIndexPartition":
        """The partition with these fields, unchecked: for distinct nonzero
        int columns of one length in increasing order, positive counts."""
        self = object.__new__(cls)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "multiplicities", multiplicities)
        return self

    @property
    def target(self) -> tuple[int, ...]:
        """Componentwise sum of all columns with multiplicity."""
        if not self.columns:
            return ()
        m = len(self.columns[0])
        out = [0] * m
        for col, r in zip(self.columns, self.multiplicities):
            for k in range(m):
                out[k] += r * col[k]
        return tuple(out)

    @property
    def length(self) -> int:
        """Total number of columns, counted with multiplicity."""
        return sum(self.multiplicities)

    @property
    def counts(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The (column, multiplicity) pairs, as `IntegerPartition.counts`."""
        return tuple(zip(self.columns, self.multiplicities))

    @property
    def record(self) -> tuple:
        """The record `partition_sum` reads, (counts, length, prod r_j!),
        as `IntegerPartition.record` is, computed on each read."""
        return _record_of(self.counts)

    def part_counts(self) -> list[tuple[tuple[int, ...], int]]:
        """Distinct columns with multiplicities, in increasing order, as a
        new list."""
        return list(self.counts)

    def multiplicity_factorial(self) -> int:
        """m(lambda)! = prod_j r_j!"""
        out = 1
        for r in self.multiplicities:
            out *= math.factorial(r)
        return out

    def columns_factorial(self) -> int:
        """lambda! = prod over columns (with multiplicity) of the column factorial."""
        out = 1
        for col, r in zip(self.columns, self.multiplicities):
            cf = 1
            for v in col:
                cf *= math.factorial(v)
            out *= cf ** r
        return out

    def coefficient(self) -> int:
        """i! / (m(lambda)! lambda!), exact."""
        i_fact = 1
        for v in self.target:
            i_fact *= math.factorial(v)
        num, den = i_fact, self.multiplicity_factorial() * self.columns_factorial()
        q, r = divmod(num, den)
        if r:  # the weight is a multinomial count, always integral
            raise AssertionError(f"non-integral partition coefficient for {self}")
        return q


def multiindex_partitions(t) -> list[MultiIndexPartition]:
    """All partitions of the multi-index t, each exactly once.

    Recursion consumes candidate columns in decreasing lexicographic order,
    taking the highest multiplicity first, so the output order is the
    multi-index analogue of reverse-lexicographic.  A one-dimensional
    multi-index (i,) reproduces integer_partitions(i).  A column left out
    is the next turn of a loop, not a call, so the recursion is as deep as
    the columns a partition takes, at most |t|, and not as the candidates.

    t is read by `integer_tuple`; above the default joint-weight budget its
    partitions are counted first, and more than the fixed multi-index walk
    cap raise BudgetExceededError before any enumeration
    (`budgets.check_multiindex_walk`).
    """
    t = integer_tuple(t, "multi-index")
    check_multiindex_walk(t, f"multiindex_partitions({t})")
    if all(v == 0 for v in t):
        return [MultiIndexPartition._of((), ())]

    candidates = sorted(
        (c for c in itertools.product(*(range(v + 1) for v in t)) if any(c)),
        reverse=True,
    )
    out: list[MultiIndexPartition] = []
    chosen: list[tuple[tuple[int, ...], int]] = []

    def rec(start, remaining):
        if not any(remaining):
            cols = tuple(col for col, _ in reversed(chosen))
            mults = tuple(r for _, r in reversed(chosen))
            out.append(MultiIndexPartition._of(cols, mults))
            return
        for idx in range(start, len(candidates)):
            col = candidates[idx]
            cap = min(rem // c for rem, c in zip(remaining, col) if c)
            for mult in range(cap, 0, -1):
                chosen.append((col, mult))
                rec(idx + 1, tuple(r - mult * c for r, c in zip(remaining, col)))
                chosen.pop()

    rec(0, t)
    return out


# ---------------------------------------------------------------------------
# the partition-sum kernel
# ---------------------------------------------------------------------------

def _fsum(xs) -> float:
    """math.fsum, or the plain sum (inf or nan) where fsum raises on an
    overflowing partial sum or on inf - inf."""
    try:
        return math.fsum(xs)
    except (OverflowError, ValueError):
        return sum(xs)


def _complex_fsum(values: list) -> complex:
    """`complex_fsum` of a list of complex or float values, read through
    their .real and .imag with no complex() conversion: the terms of
    `partition_sum`."""
    return complex(_fsum([v.real for v in values]), _fsum([v.imag for v in values]))


def complex_fsum(values) -> complex:
    """Correctly rounded sum of complex values: math.fsum on the real and
    on the imaginary parts, each value converted by complex() first."""
    return _complex_fsum([complex(v) for v in values])


def partition_sum(partitions, base, weight):
    """sum over lambda of weight(l(lambda)) / prod_j r_j! * prod_j base[part_j]^{r_j},
    with (part_j, r_j) the distinct parts of lambda and their multiplicities.

    `partitions` is integer_partitions(i), with base indexed by the integer
    part, or multiindex_partitions(t), with base an array of shape t + 1
    on the grid of sub-indices, indexed by the column.  A
    sum weighted by d_lambda = i! / prod (j!)^{r_j} r_j! is i! times this
    sum on base[k] = x_k / k!.

    The walk reads each partition's `record`, (counts, length, prod r_j!),
    once: the record a kept integer partition carries, or computed on the
    read for any other.  Each term is weight(l), then each base[part] ** r
    in part order, divided by prod r_j!.  A weight depends on the length
    alone, so the walk calls it once per distinct length, at the first
    partition of that length, and keeps the value; an OverflowError it
    raises surfaces there.  The terms are complex or float, so the
    correctly rounded sum reads their .real and .imag without converting
    them by complex().

    Raises NumericalError when a term or the sum overflows.
    """
    def walk():
        terms, weights = [], {}
        for lam in partitions:
            counts, length, den = lam.record
            try:
                term = weights[length]
            except KeyError:
                term = weights[length] = weight(length)
            for part, r in counts:
                term = term * base[part] ** r
            terms.append(term / den)
        return _complex_fsum(terms)

    return finite_of(walk, "partition sum")


# ---------------------------------------------------------------------------
# the series kernel, and the grids kept across calls
# ---------------------------------------------------------------------------

def _shift_pairs(shape):
    """The (destination, source) flat-index pairs of a product with R on
    the grid of `shape`: destination d = source + u for every entry u and
    every d >= u.  They are the Cartesian product of one upper triangle
    (u_j <= d_j) per axis, earlier axes major, so each destination meets
    its entries u in C order.  A triangle lists its rows u = 0, 1, ... in
    turn, row u holding d = u, ..., size - 1, so d - u counts up from 0
    within each row; it is built by arithmetic on the row lengths."""
    import numpy as np

    dst = src = np.zeros(1, dtype=np.intp)
    for axis, size in enumerate(shape):
        stride = math.prod(shape[axis + 1:])
        lengths = np.arange(size, 0, -1)
        row_starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
        delta = np.arange(len(row_starts)) - row_starts
        d = delta + np.repeat(np.arange(size), lengths)
        dst = np.add.outer(dst, d * stride).ravel()
        src = np.add.outer(src, delta * stride).ravel()
    return dst, src


def compose_grid(table, kind, weight):
    """C[u] = [z^u] of sum_{l >= 1} weight(l) R(z)^l / l! for every
    sub-index u <= kind, where R(z) = sum_{u != 0} table[u] z^u: the array
    of shape kind + 1, 0 at the origin.  This is the one series kernel.

    `table` is an array of shape kind + 1 on the grid of sub-indices, its
    entry at the origin ignored, or ValidationError; a one-dimensional kind
    (i,) takes the sequence [_, x_1, ..., x_i].  Cell u is the partition
    sum of `partition_sum` over the partitions of u (the origin gives 0,
    not weight(0)): R^l / l! collects prod table[part]^r / prod r! over
    the partitions of length l.  It enumerates none of them.

    Each power R^l / l! is one row of the terms array: a scatter-add
    (`np.add.at`) of table[u] times the row before at d - u into each
    destination d >= u, over the pairs of `_shift_pairs` kept for the
    nonzero entries u, then a division by l.  The pairs run in C order of
    u, so each destination adds its terms in that order, and which terms
    they are does not depend on the grid's extent.  Cell u then adds
    weight(l) R^l[u] / l!, l = 1, ..., |u|, in order of l, correctly
    rounded as `complex_fsum` adds them.  So the grid of a larger kind,
    sliced to `kind`, is this one bit for bit.  A weight that overflows
    makes inf every cell that needs it; a cell that overflows holds inf or
    nan, and its reader sends it through `errors.finite`.
    """
    # numpy loads on first use: `necklaces` and the CLI's request checks
    # import this module and stay numpy-free
    import numpy as np

    kind = integer_tuple(kind, "kind")
    shape = tuple(v + 1 for v in kind)
    try:
        flat = np.array(table, dtype=complex)
        if flat.shape != shape:
            raise ValueError(f"shape {flat.shape}")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"table does not fit the grid of kind {kind}: {exc}") from exc
    flat = flat.reshape(-1)
    flat[0] = 0
    top = sum(kind)
    terms = np.zeros((top, flat.size), dtype=complex)  # terms[l - 1] = weight(l) R^l / l!
    with np.errstate(over="ignore", invalid="ignore"):
        if top:
            terms[0] = flat
        if top > 1:
            dst, src = _shift_pairs(shape)
            x = flat[dst - src]
            if not x.all():
                keep = np.flatnonzero(x)
                dst, src, x = dst[keep], src[keep], x[keep]
            products = np.empty_like(x)
            for l, (power, row) in enumerate(itertools.pairwise(terms), 2):
                power.take(src, out=products)
                # entry times power, in this order: numpy's complex multiply
                # rounds x * y and y * x differently
                np.multiply(x, products, out=products)
                np.add.at(row, dst, products)
                row /= l
        weights, finite_weights = np.empty((top, 1), dtype=complex), top
        for l in range(1, top + 1):
            try:
                weights[l - 1] = weight(l)
            except OverflowError:  # a Python power in `weight` raises where numpy gives inf
                finite_weights = l - 1
                break
        # weight times power, in this order, each row by its own weight
        np.multiply(weights[:finite_weights], terms[:finite_weights],
                    out=terms[:finite_weights])
        terms[finite_weights:] = math.inf
    # cell u adds only its terms l <= |u|: R^l[u] is 0 for l > |u|, but
    # weight(l) times it may be nan or -0, so those terms are set to +0,
    # which changes no correctly rounded sum
    levels = np.indices(shape).sum(axis=0).ravel()
    terms[np.arange(1, top + 1)[:, None] > levels] = 0
    out = np.empty(flat.size, dtype=complex)
    out.real = list(map(_fsum, terms.real.T.tolist()))
    out.imag = list(map(_fsum, terms.imag.T.tolist()))
    return out.reshape(shape)


class KeptGrid:
    """One slot that keeps the read-only arrays a route last computed on a
    grid of sub-indices, with the content key they were computed from.

    `value(key, kind, build, read)` answers a request for `kind`:
    - when the slot holds `key` and its grid covers kind, it reads slices
      of the kept arrays;
    - otherwise `build(grid)` computes the arrays on the componentwise max
      of kind and the kept grid when that grid has at most twice the cells
      of the two apart, is within the joint-weight budget and has weight
      at most `depth`; else on kind alone.  They replace the slot.
    `read` gets the arrays cut to kind, and its result is the answer.  A
    call in which `build` or `read` raises leaves the slot as it was.  The
    slot is one tuple, replaced whole by one assignment, so concurrent
    callers each read one consistent entry without a lock.  A session's
    nested requests grow one grid, while requests on disjoint axes, whose
    joint grid has the product of their cell counts, keep apart unless
    both are tiny.  `build` must compute each cell by the same operations
    whatever the grid's extent, so that no answer depends on which calls
    came before.
    """

    def __init__(self):
        self.entry = (None, (), ())  # (content key, grid, arrays)

    def value(self, key, kind, build, read, depth=None):
        last_key, kept, arrays = self.entry
        grid = kind
        if last_key == key:
            if all(c <= k for c, k in zip(kind, kept)):
                return read(*_cut(arrays, kind))
            union = tuple(map(max, kind, kept))
            if _cells(union) <= 2 * (_cells(kind) + _cells(kept)) and _fits(union, depth):
                grid = union
        arrays = build(grid)
        for a in arrays:
            a.flags.writeable = False
        answer = read(*_cut(arrays, kind))
        self.entry = (key, grid, arrays)
        return answer


def _cells(grid) -> int:
    return math.prod(c + 1 for c in grid)


def _fits(grid, depth) -> bool:
    try:
        check_joint_weight(sum(grid))
    except BudgetExceededError:
        return False
    return depth is None or sum(grid) <= depth


def _cut(arrays, kind) -> tuple:
    cut = tuple(slice(c + 1) for c in kind)
    return tuple(a[cut] for a in arrays)


# ---------------------------------------------------------------------------
# necklaces of fixed kind
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Necklace:
    """A rotation class of strings over {1..m}, holding its representative.

    The representative is the lexicographically smallest rotation;
    `block_length` is the smallest period, and `repetitions` times
    `block_length` equals the string length.  `repetitions == 1` iff the
    representative is a Lyndon word.
    """

    representative: tuple[int, ...]
    kind: tuple[int, ...]
    block_length: int
    repetitions: int

    def __post_init__(self):
        rep = integer_tuple(self.representative, "representative")
        kind = integer_tuple(self.kind, "kind")
        block = integer(self.block_length, "block_length")
        repetitions = integer(self.repetitions, "repetitions")
        n = len(rep)
        if not n:
            raise ValidationError("a necklace needs at least one symbol")
        if n != sum(kind) or kind != tuple(rep.count(k) for k in range(1, len(kind) + 1)):
            raise ValidationError(f"{rep} does not have kind {kind}")
        if block * repetitions != n:
            raise ValidationError(
                f"block_length {block} times repetitions {repetitions} is not {n}")
        rotations = [rep[r:] + rep[:r] for r in range(n)]
        if rep != min(rotations):
            raise ValidationError(f"{rep} is not its smallest rotation")
        if block != next(r for r in range(1, n + 1) if rotations[r % n] == rep):
            raise ValidationError(f"block_length {block} is not the period of {rep}")
        for name, value in (("representative", rep), ("kind", kind),
                            ("block_length", block), ("repetitions", repetitions)):
            object.__setattr__(self, name, value)

    @classmethod
    def _of(cls, representative, kind, block_length, repetitions) -> "Necklace":
        """The necklace with these fields, unchecked: for fields that
        already satisfy the invariants above."""
        self = object.__new__(cls)
        object.__setattr__(self, "representative", representative)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "block_length", block_length)
        object.__setattr__(self, "repetitions", repetitions)
        return self

    @property
    def word(self) -> str:
        return "".join(str(s) for s in self.representative)

    @property
    def is_lyndon(self) -> bool:
        return self.repetitions == 1


def necklaces_of_kind(kind) -> list[Necklace]:
    """Necklace representatives whose strings use symbol k exactly kind[k-1]
    times, in lexicographic order.

    Fixed-content FKM-style generation: depth-first over prenecklaces,
    tracking the prefix period p and emitting a[1..n] whenever p divides n.
    """
    kind = integer_tuple(kind, "kind")
    n = check_necklace_weight(sum(kind))
    m = len(kind)
    counts = list(kind)
    a = [0] * (n + 1)  # a[0] is the sentinel smallest symbol
    out: list[Necklace] = []

    def gen(t, p):
        if t > n:
            if n % p == 0:
                rep = tuple(s + 1 for s in a[1:])
                out.append(Necklace._of(rep, kind, p, n // p))
            return
        lo = a[t - p]
        for j in range(lo, m):
            if counts[j]:
                a[t] = j
                counts[j] -= 1
                gen(t + 1, p if j == lo else t)
                counts[j] += 1

    gen(1, 1)
    return out


def necklace_rotations(neck: Necklace) -> list[tuple[int, ...]]:
    """All distinct rotations of the representative (block_length many)."""
    rep = neck.representative
    return [rep[r:] + rep[:r] for r in range(neck.block_length)]


# ---------------------------------------------------------------------------
# permutations with explicit cycle structure
# ---------------------------------------------------------------------------

def cycles_of_images(images) -> list[tuple[int, ...]]:
    """Cycle decomposition of a permutation of {0..k-1} in one-line notation
    (images[j] is the image of j).  Each cycle starts at its smallest
    element; cycles are ordered by their smallest elements."""
    seen = [False] * len(images)
    cycles = []
    for s in range(len(images)):
        if seen[s]:
            continue
        c = []
        j = s
        while not seen[j]:
            seen[j] = True
            c.append(j)
            j = images[j]
        cycles.append(tuple(c))
    return cycles


@dataclass(frozen=True)
class CyclePermutation:
    """A permutation of {1..k} as canonically ordered disjoint cycles.

    Each cycle starts at its smallest element; cycles are sorted by their
    smallest elements.
    """

    cycles: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        cycles = _integer_rows(self.cycles, "cycles")
        elems = [e for c in cycles for e in c]
        if not all(cycles) or sorted(elems) != list(range(1, len(elems) + 1)):
            raise ValidationError(f"cycles must partition 1..k: {self.cycles}")
        canonical = []
        for c in cycles:
            start = c.index(min(c))
            canonical.append(c[start:] + c[:start])
        object.__setattr__(self, "cycles", tuple(sorted(canonical)))

    @classmethod
    def _of(cls, cycles) -> "CyclePermutation":
        """The permutation with these cycles, unchecked: for int cycles
        already in canonical order that partition 1..k."""
        self = object.__new__(cls)
        object.__setattr__(self, "cycles", cycles)
        return self

    @property
    def size(self) -> int:
        return sum(len(c) for c in self.cycles)

    @property
    def cycle_count(self) -> int:
        return len(self.cycles)

    @property
    def cycle_class(self) -> IntegerPartition:
        return IntegerPartition._of(tuple(sorted((len(c) for c in self.cycles), reverse=True)))

    def images(self) -> tuple[int, ...]:
        """One-line notation: images()[j-1] is the image of j."""
        img = [0] * self.size
        for c in self.cycles:
            for a, b in zip(c, c[1:] + c[:1]):
                img[a - 1] = b
        return tuple(img)

    @classmethod
    def from_images(cls, images) -> "CyclePermutation":
        """Build from one-line notation (1-based images), read through
        `integer_tuple`, so 2.0 counts as 2 but 1.7 and True are rejected."""
        images = integer_tuple(images, "permutation images")
        k = len(images)
        if sorted(images) != list(range(1, k + 1)):
            raise ValidationError(f"not a permutation of 1..{k}: {images}")
        return cls._of_images(images)

    @classmethod
    def _of_images(cls, images: tuple[int, ...]) -> "CyclePermutation":
        """`from_images` for images already known to permute 1..k."""
        cycles = cycles_of_images([v - 1 for v in images])
        return cls._of(tuple(tuple(j + 1 for j in c) for c in cycles))

    @classmethod
    def checked(cls, perm, size: int) -> "CyclePermutation":
        """`perm`, checked to be a CyclePermutation of {1..size}."""
        if not isinstance(perm, cls):
            raise ValidationError(f"the permutation must be a CyclePermutation: {perm!r}")
        if perm.size != size:
            raise DimensionMismatchError("permutation size must match len(h)")
        return perm


def permutations_by_cycles(k: int):
    """Iterate over all k! permutations of {1..k} with their cycle
    decompositions, in lexicographic one-line order."""
    k = check_permutation_degree(k)
    for images in itertools.permutations(range(1, k + 1)):
        yield CyclePermutation._of_images(images)


def permutation_sum(m: int, term, what: str) -> complex:
    """sum over the m! permutations tau of {0..m-1} of term(tau, cycles),
    with tau in one-line notation, in lexicographic order, and cycles its
    `cycles_of_images`: the one walk over S_m.

    The terms are added with `complex_fsum`, and the sum is returned
    through `errors.finite_of` labelled `what`, so a term that raises
    OverflowError (a Python power) makes the sum inf.  The caller checks
    its own budget on m.
    """
    return finite_of(lambda: complex_fsum(term(tau, cycles_of_images(tau))
                                          for tau in itertools.permutations(range(m))), what)


# ---------------------------------------------------------------------------
# polynomial families
# ---------------------------------------------------------------------------

def complete_bell(c) -> complex:
    """Complete exponential Bell polynomial Y_i(c_1, ..., c_i).

    The order i is len(c); an empty input gives Y_0 = 1.  Converts a
    cumulant sequence into the moment of the same order.  Evaluated by the
    recurrence Y_k = sum_{j=1..k} C(k-1, j-1) c_j Y_{k-j}, not by partition
    enumeration.
    """
    c = list(c)
    y = [1]
    for k in range(1, len(c) + 1):
        y.append(sum(math.comb(k - 1, j - 1) * c[j - 1] * y[k - j]
                     for j in range(1, k + 1)))
    return y[-1]


def cyclic_polynomial(a) -> complex:
    """Cyclic polynomial C_i(a_1, ..., a_i) = sum over cycle classes of
    c_lambda a_1^{r_1} ... a_i^{r_i}; the order i is len(a).

    Evaluated as C_i(a) = Y_i(a_1, 1! a_2, ..., (i-1)! a_i); on power sums,
    C_i(s_1, ..., s_i) = i! h_i.
    """
    a = list(a)
    if not a:
        raise ValidationError("cyclic polynomial needs order >= 1")
    return complete_bell([math.factorial(j) * v for j, v in enumerate(a)])


def complete_homogeneous(x, i: int) -> complex:
    """Complete homogeneous symmetric polynomial h_i(x_1, ..., x_p).

    Evaluated through the Newton-style recurrence
    i h_i = sum_{k=1..i} s_k h_{i-k} on power sums, not by monomial
    enumeration.
    """
    i = integer(i, "order")
    x = list(x)
    s = [sum(v ** k for v in x) for k in range(1, i + 1)]
    h = [1]
    for k in range(1, i + 1):
        h.append(sum(s[j - 1] * h[k - j] for j in range(1, k + 1)) / k)
    return h[i]


def falling_factorial(x, k: int):
    """x (x-1) ... (x-k+1); k = 0 gives 1.  Exact for integer x."""
    k = integer(k, "k")
    out = x ** 0  # 1 in the type of x
    for j in range(k):
        out = out * (x - j)
    return out
