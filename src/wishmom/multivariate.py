"""Joint moments and cumulants of (Tr[W H_1], ..., Tr[W H_m]).

The central building block is the pair of multivariate base moments

    rho[i] = necklace-grouped sum of Tr[prod_{k in word} (Sigma H_k)]
             over rotation classes of kind i (periodic classes weighted by
             1 / repetitions), equal to the plain sum over all strings of
             kind i divided by |i|;
    eta[i] = sum over every string k1 k2 ... of kind i of the same trace
             word led by the non-centrality, Tr[L H_k1 (Sigma H_k2) ...]
             (no cyclic grouping: the head breaks rotation invariance).

The head matrix L is where the sign convention enters, chosen in one
helper (`_heads`).  Under "paper" L = Sigma^-1 M Sigma = Omega Sigma, so
the word is Tr[Omega (Sigma H_k1)(Sigma H_k2)...], the source formulas
verbatim; it needs Omega, hence a nonsingular Sigma.  Under "standard"
L = M: the word Tr[Omega (H_k1 Sigma)(H_k2 Sigma)...] equals
Tr[M H_k1 (Sigma H_k2)...] by trace cyclicity, needs no inverse, and is
the expansion of the sampled distribution's generating function: already
the first moment E[Tr W H] = n Tr(Sigma H) + Tr(M H) forces this order
whenever Sigma and M do not commute.  The two coincide for H_k = I, so
univariate results never depend on it.

Production builds both from one recursion over the sub-indices v <= i of
the all-strings sums S[v] = sum_k S[v - e_k] (Sigma H_k), S[0] = I, held
as one array on the grid of sub-indices: rho[v] = Tr S[v] / |v| and
eta[v] = sum_k Tr(L H_k S[v - e_k]).  rho, eta and the cumulant table are
arrays of shape i + 1, 0 at the origin.  The recursion walks the flattened
grid in C order, where v - e_k lies one axis stride back, and each head's
eta term is one dot product per cell over a slice of S; a central model
(M = 0) has eta = 0 and forms no heads.  `rho_moment` and `eta_moment`
keep the paper's necklace-grouped form, eta_moment with the Omega-led,
convention-ordered words, and are the independent check on the
recursion; no other route enumerates necklaces or rotations.

The tables and the compositions are shared across calls, each in one
slot (`combinatorics.KeptGrid`) that keeps the read-only arrays of the
last content it computed, keyed by the exact bytes of the tables' content.
`_base_tables`, the one table source of `joint_moment`, `joint_cumulant`,
`joint_cumulant_randomized` and `eta_moment_strings`, keeps rho and eta
of the last (convention, Sigma, M, H_1, ..., H_m); n is not in the key,
since rho and eta do not depend on it.  `joint_cumulant_randomized` keeps
the composed levels R^l / l! of rho under the same key, and sign eta; the
index's cumulants are weights, which enter at the read, so a session's
later requests read the levels under any cumulants without composing
again.  A request inside a kept grid is a slice of it; any other grows the
grid to the componentwise max of the two when that has at most twice the
cells of the two grids apart and stays within the joint-weight budget, and
is computed alone otherwise.  Every cell of a grid is computed by the same
operations whatever the grid's extent, so a value is bit-identical
whatever calls came before.

Joint cumulants are kappa[u] = u! K[u], K[u] = n rho[u] + sign eta[u], and
a joint moment is the moment-cumulant formula on that one table (McCullagh,
Tensor Methods in Statistics, 1987): i! sum over the multi-index partitions
of i of prod K[col]^r / prod r!, through `combinatorics.partition_sum`.
The randomized joint cumulant is a composition, one truncated power series
on the grid of sub-indices whose levels are made for every cell at once
(`combinatorics.compose_levels`) and weighed at the one cell read
(`combinatorics.weigh_levels`), enumerating no partitions.  Joint moments
stay on the partition sum although the same whole-grid series, exp of the
cumulant series, would give every joint moment of a session at once: the
benchmark keeps every job's answer, so a faster moment route would read as
a larger peak RSS (ROADMAP.md).
The generalized moments, central and formal, and every term of their
central/formal expansion are one group-action sum over the positions of
sigma's cycles (`_group_action_sum`, one `combinatorics.permutation_sum`).
One pair of cycle values per call (`_cycle_values`) forms and traces each
distinct cycle word once.  The formal value, the head-led word summed over
the cycle's rotations, is the trace of the corner block of one product of
2p x 2p factors [[Sigma H_j, L H_j], [0, Sigma H_j]].  The necklace sums
are added with `combinatorics.complex_fsum`, a correctly rounded sum.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import matrix_core
from .budgets import (
    check_expansion_positions,
    check_joint_weight,
    check_product_factors,
    multi_index,
)
from .combinatorics import (
    CyclePermutation,
    KeptGrid,
    complex_fsum,
    compose_levels,
    cycles_of_images,
    multiindex_partitions,
    necklace_rotations,
    necklaces_of_kind,
    partition_sum,
    permutation_sum,
    weigh_levels,
)
from .errors import (
    InsufficientOrdersError,
    ValidationError,
    finite,
    finite_of,
)
from .model import CUMULANTS, MomentSequence, WishartParams


def _directions(params: WishartParams, h) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """([H_1, ..., H_m], [Sigma H_1, ..., Sigma H_m]) from one validation of h."""
    hs = matrix_core.square_matrices(h, params.p)
    return hs, [params.sigma @ hk for hk in hs]


def _head(params: WishartParams) -> np.ndarray:
    """L, the first factor of the non-centrality words, and the one place
    the sign convention orders a word: L = M under "standard", and
    L = Omega Sigma = Sigma^-1 M Sigma under "paper", whose solve needs a
    nonsingular Sigma.  L = M = 0 when M = 0, with no solve."""
    paper = params.convention == "paper" and not params.is_central
    return params.noncentrality() @ params.sigma if paper else params.m_matrix


def _heads(params: WishartParams, hs) -> list[np.ndarray]:
    """[L H_1, ..., L H_m] (`_head`)."""
    head = _head(params)
    return [head @ hk for hk in hs]


def _nonzero_kind(i, h, what: str) -> tuple[int, ...]:
    kind = multi_index(i, len(h))
    if sum(kind) < 1:
        raise ValidationError(f"{what} needs |i| >= 1")
    return kind


def _word_product(sh, word, left=None) -> np.ndarray:
    acc = left
    for sym in word:
        f = sh[sym - 1]
        acc = f if acc is None else acc @ f
    return acc


# ---------------------------------------------------------------------------
# base moments: the sub-index recursion and the necklace-grouped check
# ---------------------------------------------------------------------------

def _string_sums(factors, kind) -> np.ndarray:
    """S[v] = sum over every string of kind v of prod(word), for every
    sub-index v <= kind, as one array of shape kind + 1 + (p, p).

    The last letter of a string of kind v is some k with v_k > 0, so
    S[v] = sum_k S[v - e_k] @ factors[k], with S[0] = I.  The sub-indices
    come in lexicographic order, which is C order on the flattened grid,
    where v - e_k sits one axis stride before v: every S[v - e_k] exists
    before S[v].
    """
    p = len(factors[0])
    shape = tuple(c + 1 for c in kind)
    s = np.empty(shape + (p, p), dtype=complex)
    flat = s.reshape(-1, p, p)
    flat[0] = np.eye(p)
    strides = [math.prod(shape[k + 1:]) for k in range(len(kind))]
    cells = itertools.product(*(range(c + 1) for c in kind))
    next(cells)
    for f, v in enumerate(cells, 1):
        flat[f] = sum(flat[f - stride] @ a for c, stride, a in zip(v, strides, factors) if c)
    return s


def _tables(factors, heads, kind) -> tuple[np.ndarray, np.ndarray]:
    """(rho, eta) of every sub-index v <= kind, arrays of shape kind + 1
    with 0 at the origin, from one pass of the string sums S:
    rho[v] = Tr S[v] / |v|, and eta[v] = sum_k Tr(heads[k] S[v - e_k]),
    every string of kind v led by its first letter's head.  No heads give
    eta = 0 with no pass over S.  Each cell is computed by the same
    operations on the same inputs whatever `kind` is, so the tables of a
    larger kind, sliced to `kind`, are these bit for bit.  The caller holds
    `matrix_core.quiet`."""
    s = _string_sums(factors, kind)
    m, p = len(kind), len(factors[0])
    weight = sum(np.arange(c + 1).reshape((-1,) + (1,) * (m - 1 - k)) for k, c in enumerate(kind))
    rho = np.trace(s, axis1=-2, axis2=-1) / np.maximum(weight, 1)
    rho.flat[0] = 0
    eta = np.zeros_like(rho)
    for k, head in enumerate(heads):
        hi, lo = ((slice(None),) * k + (cut,) for cut in (slice(1, None), slice(-1)))
        words = s[lo]
        # Tr(head S) = sum_ab head[a, b] S[b, a], one dot product of p * p
        # entries per cell, whose bits do not depend on the grid's extent
        eta[hi] += np.vecdot(head.conj().T.ravel(), words.reshape(words.shape[:-2] + (p * p,)))
    return rho, eta


@matrix_core.quiet
def rho_table(factors, kind) -> np.ndarray:
    """rho of every sub-index of `kind` on the trace-word factors
    (Sigma H_1, ..., Sigma H_m): an array of shape kind + 1, with
    rho[v] = Tr S[v] / |v| and 0 at the origin.

    `kind` is read by `budgets.multi_index` against one factor per
    component and capped by `check_joint_weight`, the factors read by
    `matrix_core.square_matrices` (square matrices of numbers, of one
    size), or ValidationError / DimensionMismatchError."""
    kind = multi_index(kind, len(factors))
    check_joint_weight(sum(kind))
    return _tables(matrix_core.square_matrices(factors, None), (), kind)[0]


def _content(params: WishartParams, h) -> tuple[list[np.ndarray], tuple]:
    """(the validated [H_1, ..., H_m], the content key of the tables on
    them): the convention and the exact bytes of Sigma, M and each H_k.
    n is not in it: rho and eta do not depend on it."""
    hs = matrix_core.square_matrices(h, params.p)
    return hs, (params.convention, params.sigma.tobytes(), params.m_matrix.tobytes(),
                *(hk.tobytes() for hk in hs))


# the last tables built and the last randomized grid composed, each kept
# for its content (`combinatorics.KeptGrid`)
_kept_tables = KeptGrid()
_kept_randomized = KeptGrid()


def _base_tables(params: WishartParams, h, kind, content=None) -> tuple[np.ndarray, np.ndarray]:
    """(rho, eta) of every sub-index v <= kind on the directions h, with
    the heads of the sign convention, read-only; a central model has
    eta = 0 and forms no heads.

    h is validated on every call, by `_content` unless the caller passes
    its `content`.  The tables come from `_kept_tables`: a slice of the
    kept grid when it holds the same content and covers kind, else built
    on a grown grid or on kind alone, and kept.  `_tables` makes a slice
    equal a cold call bit for bit, so no value depends on which calls came
    before.
    """
    hs, key = content or _content(params, h)

    def build(grid):
        sh = [params.sigma @ hk for hk in hs]
        return _tables(sh, () if params.is_central else _heads(params, hs), grid)

    return _kept_tables.value(key, kind, build, lambda rho, eta: (rho, eta))


@matrix_core.quiet
def rho_moment(params: WishartParams, h, i) -> complex:
    """Central base moment rho[i], grouped over necklaces of kind i.

    The paper's form, and the independent check on `rho_table`.
    """
    kind = _nonzero_kind(i, h, "rho_moment")
    sh = _directions(params, h)[1]
    return finite(complex_fsum(np.trace(_word_product(sh, neck.representative)) / neck.repetitions
                               for neck in necklaces_of_kind(kind)), "rho moment")


@matrix_core.quiet
def rho_moment_strings(params: WishartParams, h, i) -> complex:
    """rho as (1/|i|) times the sum over all strings of kind i, read from
    `rho_table` (the sub-index recursion, no string enumeration)."""
    kind = _nonzero_kind(i, h, "rho_moment_strings")
    check_joint_weight(sum(kind))
    return finite(complex(rho_table(_directions(params, h)[1], kind)[kind]), "rho moment")


@matrix_core.quiet
def eta_moment(params: WishartParams, h, i) -> complex:
    """Non-centrality base moment eta[i] in the paper's form; needs Omega
    explicitly, under either convention.

    The trace words are Tr[Omega prod(Sigma H_k)] under the paper
    convention and Tr[Omega prod(H_k Sigma)] under the standard one (see
    the module docstring), summed over every rotation of every necklace of
    kind i: the independent check on the head-led recursion.
    """
    kind = _nonzero_kind(i, h, "eta_moment")
    hs, sh = _directions(params, h)
    factors = sh if params.convention == "paper" else [hk @ params.sigma for hk in hs]
    return finite(complex_fsum(np.trace(_word_product(factors, rot, left=params.noncentrality()))
                               for neck in necklaces_of_kind(kind)
                               for rot in necklace_rotations(neck)), "eta moment")


@matrix_core.quiet
def eta_moment_strings(params: WishartParams, h, i) -> complex:
    """eta as the sum over all strings of kind i, read from the head-led
    recursion (no string enumeration)."""
    kind = _nonzero_kind(i, h, "eta_moment_strings")
    check_joint_weight(sum(kind))
    return finite(complex(_base_tables(params, h, kind)[1][kind]), "eta moment")


# ---------------------------------------------------------------------------
# joint moments and cumulants
# ---------------------------------------------------------------------------

def _index_factorial(kind) -> int:
    return math.prod(math.factorial(v) for v in kind)


def _cumulant_table(params: WishartParams, h, kind, content=None) -> np.ndarray:
    """K[u] = kappa[u] / u! = n rho[u] + sign eta[u] of every u <= kind, an
    array of shape kind + 1, 0 at the origin."""
    rho, eta = _base_tables(params, h, kind, content)
    return params.n * rho + params.sign * eta


@matrix_core.quiet
def joint_moment(params: WishartParams, h, i) -> complex:
    """E[prod_j Tr(W H_j)^{i_j}].

    The moment-cumulant formula on K[u] = n rho[u] + sign eta[u]:
    i! times the partition sum of prod K[col]^r / prod r! over the
    multi-index partitions of i.  Under "paper" eta needs Omega, hence a
    nonsingular Sigma, unless M = 0; under "standard" any Sigma will do.
    Priced by `budgets.check_joint_moment`'s two steps, the weight and then
    the partitions, counted once in `multiindex_partitions` after h and the
    head are read, before any table: BudgetExceededError past the cap.
    """
    kind = multi_index(i, len(h))
    if check_joint_weight(sum(kind)) == 0:
        return 1.0 + 0.0j
    content = _content(params, h)
    _head(params)  # a singular Sigma is rejected before the walk, as h is
    partitions = multiindex_partitions(kind)
    return finite_of(lambda total: _index_factorial(kind) * total, "joint moment",
                     partition_sum(partitions, _cumulant_table(params, h, kind, content),
                                   lambda l: 1))


@matrix_core.quiet
def joint_cumulant(params: WishartParams, h, i) -> complex:
    """Cum_i(Tr[W H_1], ..., Tr[W H_m]) = i! (n rho[i] + sign eta[i]).

    Under "paper" eta needs Omega, hence a nonsingular Sigma, unless M = 0.
    """
    kind = _nonzero_kind(i, h, "joint cumulant")
    check_joint_weight(sum(kind))
    table = _cumulant_table(params, h, kind)
    return finite_of(lambda cell: _index_factorial(kind) * cell, "joint cumulant",
                     complex(table[kind]))


@matrix_core.quiet
def joint_cumulant_randomized(alpha_cumulants: MomentSequence,
                              params: WishartParams, h, i) -> complex:
    """Joint cumulant when the central block's index is randomized.

    `alpha_cumulants` carries the cumulant sequence c_k of the random index;
    the n^{l} head of the deterministic formula becomes the full partition
    sum with c_{l(lambda)} weights:
        i! ( sum_{lambda |= i} c_l / m! prod rho[col]^r + sign eta[i] ),
    evaluated as the series composition i! ([z^i] sum_l c_l R(z)^l / l!
    + sign eta[i]) with R(z) = sum_{u != 0} rho[u] z^u.  The levels
    R^l / l! are made for every sub-index at once
    (`combinatorics.compose_levels`) and kept with sign eta for the
    (convention, Sigma, M, H) content alone (`_kept_randomized`) under
    `_base_tables`' rule; a read weighs the cell at i by c_l
    (`combinatorics.weigh_levels`) and adds sign eta[i], so a session's
    later requests inside the grid, under any cumulants, are slices.

    Only the central part is randomized: the eta term enters once,
    unweighted, so conditionally on the index being k the object is
    W(k, Sigma, M) with the non-centrality held fixed.  (This differs from
    the univariate `randomized_moment`, a random sum whose summed
    non-centrality grows with the index.)
    """
    if alpha_cumulants.kind != CUMULANTS:
        raise ValidationError("alpha_cumulants must be a cumulant sequence")
    kind = _nonzero_kind(i, h, "joint cumulant")
    weight = check_joint_weight(sum(kind))
    if alpha_cumulants.depth < weight:
        raise InsufficientOrdersError(
            f"alpha carries {alpha_cumulants.depth} orders, need {weight}")
    hs, key = _content(params, h)

    def build(grid):
        rho, eta = _base_tables(params, hs, grid)
        return compose_levels(rho, grid), params.sign * eta

    def read(levels, signed_eta):
        cell = weigh_levels(levels, alpha_cumulants.order, kind) + signed_eta[kind]
        return finite_of(lambda cell: factorial * cell, "randomized joint cumulant",
                         complex(cell))

    factorial = _index_factorial(kind)
    return _kept_randomized.value(key, kind, build, read)


# ---------------------------------------------------------------------------
# generalized (multi-factor trace) moments
# ---------------------------------------------------------------------------

def _group_action_sum(base, sigma_cycles, cycle_value) -> complex:
    """sum over the permutations tau of the positions of sigma's cycles of
    base^{#cycles(sigma tau^-1)} times prod over the cycles c of tau of
    cycle_value(c), each c a tuple of positions: one `permutation_sum` on
    the positions relabelled 0..k-1 in increasing order, so every cycle
    still starts at its smallest position.  #cycles(sigma tau^-1) is read
    as #cycles(tau sigma^-1), its inverse's, with sigma^-1 built once."""
    positions = sorted(j for c in sigma_cycles for j in c)
    label = {j: k for k, j in enumerate(positions)}
    sigma_inverse = [0] * len(positions)
    for c in sigma_cycles:
        for a, b in zip(c, c[1:] + c[:1]):
            sigma_inverse[label[b]] = label[a]

    def term(tau, cycles):
        value = base ** len(cycles_of_images([tau[s] for s in sigma_inverse]))
        for c in cycles:
            value = value * cycle_value(tuple(positions[j] for j in c))
        return value

    return permutation_sum(len(positions), term, "generalized moment")


def _cycle_values(params: WishartParams, h):
    """(central, formal), the two cycle values of one call on the
    directions h, each kept per cycle (a tuple of 1-based positions), so
    every distinct cycle word is formed and traced once per call.

    central(c) = Tr prod_{j in c} Sigma H_j.  formal(c) is the head-led
    word summed over the cycle's rotations, sum_r Tr[L H_{c_r}
    (Sigma H_{c_r+1}) ...]; by trace cyclicity that is the sum over every
    placement of the one head in prod_{j in c} Sigma H_j, which the corner
    block of prod_{j in c} [[Sigma H_j, L H_j], [0, Sigma H_j]] collects.
    The heads, and so Omega, are formed when a formal value is first
    needed.
    """
    hs, sh = _directions(params, h)
    p = params.p

    @functools.cache
    def blocks():
        zero = np.zeros((p, p))
        return [np.block([[a, b], [zero, a]]) for a, b in zip(sh, _heads(params, hs))]

    @functools.cache
    def central(c):
        return np.trace(_word_product(sh, c))

    @functools.cache
    def formal(c):
        return np.trace(_word_product(blocks(), c)[:p, p:])

    return central, formal


@matrix_core.quiet
def central_product_moment(params: WishartParams, h, sigma_perm: CyclePermutation) -> complex:
    """E[prod over cycles c of sigma of Tr(prod_{j in c} W_central H_j)]."""
    sigma_perm = CyclePermutation.checked(sigma_perm, len(h))
    check_product_factors(sigma_perm.size)
    return _group_action_sum(params.n, sigma_perm.cycles, _cycle_values(params, h)[0])


@matrix_core.quiet
def a_product_moment(params: WishartParams, h, sigma_perm: CyclePermutation) -> complex:
    """Generalized moment of the formal non-centrality component A.

    The base of the alternating weight is the convention sign (-1 under
    "paper", +1 under "standard").  Under "paper" it needs Omega, hence a
    nonsingular Sigma, unless M = 0.
    """
    sigma_perm = CyclePermutation.checked(sigma_perm, len(h))
    check_product_factors(sigma_perm.size)
    return _group_action_sum(params.sign, sigma_perm.cycles, _cycle_values(params, h)[1])


# ---------------------------------------------------------------------------
# central/formal assignment expansion of generalized moments
# ---------------------------------------------------------------------------

CENTRAL_LETTER = "W"   # the central component W_hat
FORMAL_LETTER = "A"    # the formal non-centrality component


@dataclass(frozen=True)
class TraceFactor:
    """One cycle of the expansion: which component sits at each position.

    `assignment` spells the component letter per cycle position (W for the
    central part, A for the formal part); `cycle` lists the 1-based H
    indices in traversal order.  `value` is the single-trace expectation of
    a pure factor, None when the cycle mixes both components (symbolic).
    """

    assignment: str
    cycle: tuple[int, ...]
    value: complex | None

    @property
    def symbolic(self) -> bool:
        return self.value is None

    def canonical_word(self) -> tuple[tuple[str, int], ...]:
        """Rotation-canonical (letter, index) sequence, for merging factors
        that are equal by trace cyclicity."""
        pairs = tuple(zip(self.assignment, self.cycle))
        return min(pairs[r:] + pairs[:r] for r in range(len(pairs)))


@dataclass(frozen=True)
class ExpansionTerm:
    """One component assignment: per-cycle factors plus the term value.

    `value` is the exact expectation of the product of traces.  It is
    computed jointly (all pure-central cycles through one group-action sum,
    all pure-formal cycles through the other): the expectation does not
    factor per cycle because cycles share the same matrix.  The per-factor
    values are the single-cycle expectations and are informational.
    """

    factors: tuple[TraceFactor, ...]
    value: complex | None

    @property
    def symbolic(self) -> bool:
        return self.value is None


@dataclass(frozen=True)
class GeneralizedMomentExpansion:
    """Expansion of a generalized moment over component assignments.

    `evaluated_sum` totals the fully evaluated terms; `symbolic_factors`
    collects the distinct mixed-cycle factors (canonicalized by rotation)
    whose evaluation has no closed form here.
    """

    terms: tuple[ExpansionTerm, ...]
    evaluated_sum: complex
    symbolic_factors: tuple[TraceFactor, ...]

    @property
    def fully_evaluated(self) -> bool:
        return not self.symbolic_factors


@matrix_core.quiet
def generalized_moment_expansion(params: WishartParams, h,
                                 sigma_perm: CyclePermutation) -> GeneralizedMomentExpansion:
    """Expand E[prod over cycles of Tr(prod_j W H_j)] over all 2^k
    assignments of the central/formal components to the k positions.

    Terms whose cycles are all pure evaluate exactly; a cycle mixing both
    components yields a symbolic factor (the whole term is then symbolic).
    When M = 0 the formal component vanishes identically, every factor
    touching it evaluates to zero, and the expansion is fully evaluated.
    Under "paper" the formal words need Omega, hence a nonsingular Sigma,
    unless M = 0.
    """
    sigma_perm = CyclePermutation.checked(sigma_perm, len(h))
    m = check_expansion_positions(sigma_perm.size)
    central_value, formal_value = _cycle_values(params, h)
    central = params.is_central

    def central_sum(cycles):
        return _group_action_sum(params.n, cycles, central_value)

    def formal_sum(cycles):
        return _group_action_sum(params.sign, cycles, formal_value)

    # the single-cycle expectations of the pure-W and the pure-A factor
    pure = {cyc: (central_sum([cyc]), 0.0 + 0.0j if central else formal_sum([cyc]))
            for cyc in sigma_perm.cycles}

    terms = []
    evaluated = []
    symbolic: dict[tuple, TraceFactor] = {}
    for bits in itertools.product((CENTRAL_LETTER, FORMAL_LETTER), repeat=m):
        factors = []
        central_cycles, formal_cycles = [], []
        mixed = False
        for cyc in sigma_perm.cycles:
            letters = "".join(bits[j - 1] for j in cyc)
            if letters.count(CENTRAL_LETTER) == len(cyc):
                central_cycles.append(cyc)
                factors.append(TraceFactor(letters, cyc, pure[cyc][0]))
            elif letters.count(FORMAL_LETTER) == len(cyc):
                formal_cycles.append(cyc)
                factors.append(TraceFactor(letters, cyc, pure[cyc][1]))
            elif central:
                # mixed word, but the formal component is identically zero
                factors.append(TraceFactor(letters, cyc, 0.0 + 0.0j))
            else:
                mixed = True
                factors.append(TraceFactor(letters, cyc, None))

        if mixed:
            value = None
            for f in factors:
                if f.symbolic:
                    symbolic.setdefault(f.canonical_word(), f)
        elif central and any(b == FORMAL_LETTER for b in bits):
            value = 0.0 + 0.0j
        else:
            value = central_sum(central_cycles) * formal_sum(formal_cycles)
            evaluated.append(value)
        terms.append(ExpansionTerm(tuple(factors), value))

    total = finite(complex_fsum(evaluated), "generalized moment")
    return GeneralizedMomentExpansion(tuple(terms), total, tuple(symbolic.values()))
