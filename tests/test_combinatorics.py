import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wishmom import (
    BudgetExceededError,
    CyclePermutation,
    IntegerPartition,
    MultiIndexPartition,
    Necklace,
    NumericalError,
    ValidationError,
    complete_bell,
    complete_homogeneous,
    cyclic_polynomial,
    falling_factorial,
    integer_partitions,
    multiindex_partitions,
    necklace_rotations,
    necklaces_of_kind,
    partition_coefficients,
    permutations_by_cycles,
)
from wishmom import build, combinatorics
from wishmom.budgets import MAX_UNIVARIATE_ORDER
from wishmom.combinatorics import complex_fsum, partition_sum, permutation_sum

from brute_force import partitions_of, strings_of_kind
from conftest import rel_err


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def partition_count_table(n_max):
    """p(n) by the classical p(n, k) recurrence, independent of enumeration."""
    table = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    for k in range(n_max + 1):
        table[0][k] = 1
    for n in range(1, n_max + 1):
        for k in range(1, n_max + 1):
            table[n][k] = table[n][k - 1] + (table[n - k][k] if n >= k else 0)
    return [table[n][n_max] for n in range(n_max + 1)]


def bell_numbers(n_max):
    """Bell numbers by the Bell-triangle recurrence."""
    row = [1]
    out = [1]
    for _ in range(n_max):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        out.append(nxt[0])
        row = nxt
    return out


def burnside_necklace_count(m, j):
    """(1/j) sum over divisors d of j of phi(d) m^{j/d}."""
    def phi(d):
        return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)
    return sum(phi(d) * m ** (j // d) for d in range(1, j + 1) if j % d == 0) // j


def min_rotation(s):
    return min(tuple(s[r:] + s[:r]) for r in range(len(s)))


def assert_same_object(got, checked):
    # equal, and equal in repr: an enumerator's int field and a float or
    # bool one compare equal, but print differently
    assert got == checked and repr(got) == repr(checked)


# ---------------------------------------------------------------------------
# integer partitions
# ---------------------------------------------------------------------------

def test_partitions_of_zero_and_four():
    assert [p.parts for p in integer_partitions(0)] == [()]
    assert [p.parts for p in integer_partitions(4)] == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_successor_rule_matches_recursive_order():
    for n in range(26):
        assert [lam.parts for lam in integer_partitions(n)] == partitions_of(n)


def test_enumerated_partitions_equal_checked_ones():
    for n in range(16):
        for lam in integer_partitions(n):
            assert_same_object(lam, IntegerPartition(lam.parts))


def test_partition_counts_match_recurrence():
    table = partition_count_table(30)
    for n in range(31):
        assert len(integer_partitions(n)) == table[n]
    assert len(integer_partitions(20)) == 627


def test_kept_partitions_are_a_fresh_enumeration_in_a_new_list():
    # orders up to the default moment budget are enumerated once and kept;
    # each call still gets its own list, so mutating one changes no other
    for n in range(MAX_UNIVARIATE_ORDER + 1):
        first = integer_partitions(n)
        assert first == combinatorics._enumerate_partitions(n)
        first.reverse()
        first.append(IntegerPartition((1,)))
        second = integer_partitions(n)
        assert second is not first
        assert [lam.parts for lam in second] == partitions_of(n)
    assert integer_partitions(4.0) == integer_partitions(4)
    for bad in (-1, 2.5, True, "3"):
        with pytest.raises(ValidationError):
            integer_partitions(bad)


def test_orders_past_the_default_budget_are_never_kept(monkeypatch):
    from wishmom import univariate

    integer_partitions(MAX_UNIVARIATE_ORDER)
    kept = combinatorics._kept_partitions.cache_info().currsize
    assert len(integer_partitions(MAX_UNIVARIATE_ORDER + 2)) == 1002
    assert combinatorics._kept_partitions.cache_info().currsize == kept
    # the moment routes reach such an order only under a raised budget
    params, _ = build(3.0, np.diag([1.0, 2.0]), np.diag([0.5, 0.0]), "standard")
    order = MAX_UNIVARIATE_ORDER + 1
    with pytest.raises(BudgetExceededError):
        univariate.noncentral_moment(params, order)
    monkeypatch.setenv("WISHMOM_MAX_BUDGET", str(order))
    value = univariate.noncentral_moment(params, order)
    assert rel_err(value, univariate.noncentral_moment_bell(params, order)) < 1e-12
    # every order 0..order was asked for, and only 0..MAX_UNIVARIATE_ORDER are kept
    assert combinatorics._kept_partitions.cache_info().currsize == MAX_UNIVARIATE_ORDER + 1


def test_partition_fields():
    lam = IntegerPartition((3, 2, 2, 1))
    assert lam.size == 8
    assert lam.length == 4
    assert lam.multiplicities == (1, 2, 1)
    assert_same_object(IntegerPartition([2.0, np.int64(1)]), IntegerPartition((2, 1)))


@pytest.mark.parametrize("parts", [(1, 2), (0,), (2.5,), (True,), (2, -1), "21", None])
def test_partition_constructor_rejects(parts):
    with pytest.raises(ValidationError):
        IntegerPartition(parts)


def test_partition_coefficients_hand_values():
    assert partition_coefficients(IntegerPartition((1, 1)), 2) == (1, 1, 1)
    assert partition_coefficients(IntegerPartition((2,)), 2) == (1, 2, 1)
    assert partition_coefficients(IntegerPartition((2,)), 2.0) == (1, 2, 1)
    for bad in (3, 2.5, True, "2"):
        with pytest.raises(ValidationError):
            partition_coefficients(IntegerPartition((2,)), bad)


def test_cycle_class_coefficients_sum_to_factorial():
    for i in range(1, 9):
        total_c = sum(partition_coefficients(lam, i)[2] for lam in integer_partitions(i))
        assert total_c == math.factorial(i)


def test_set_partition_coefficients_sum_to_bell():
    bells = bell_numbers(8)
    for i in range(1, 9):
        total_d = sum(partition_coefficients(lam, i)[0] for lam in integer_partitions(i))
        assert total_d == bells[i]


# ---------------------------------------------------------------------------
# multi-index partitions
# ---------------------------------------------------------------------------

def test_kinds_must_be_integers():
    # neither truncated (1.5 -> 1) nor counted (True -> 1)
    for kind in ((1.5, 1), (True, 1), "21"):
        with pytest.raises(ValidationError):
            multiindex_partitions(kind)
        with pytest.raises(ValidationError):
            necklaces_of_kind(kind)
    assert multiindex_partitions((2.0, np.int64(1))) == multiindex_partitions((2, 1))
    assert necklaces_of_kind((2.0, np.int64(1))) == necklaces_of_kind((2, 1))


def test_multiindex_partitions_examples():
    def column_sets(t):
        out = []
        for lam in multiindex_partitions(t):
            cols = []
            for col, r in zip(lam.columns, lam.multiplicities):
                cols.extend([col] * r)
            out.append(tuple(sorted(cols)))
        return sorted(out)

    assert column_sets((1, 1)) == [((0, 1), (1, 0)), ((1, 1),)]
    assert column_sets((2, 0)) == [((1, 0), (1, 0)), ((2, 0),)]
    assert column_sets((1, 2)) == sorted([
        ((1, 2),),
        ((0, 1), (1, 1)),
        ((0, 2), (1, 0)),
        ((0, 1), (0, 1), (1, 0)),
    ])


# the kinds whose sub-indices the joint-moment sessions of the benchmark split
JOINT_MOMENT_KINDS = [(4,), (9,), (3, 3), (2, 1, 1), (3, 2, 2), (2, 2, 1, 1),
                      (1, 1, 1, 1, 1), (2, 1, 1, 1, 1, 1), (3, 3, 3)]


@pytest.mark.parametrize("kind", JOINT_MOMENT_KINDS)
def test_enumerated_multiindex_partitions_equal_checked_ones(kind):
    for lam in multiindex_partitions(kind):
        assert_same_object(lam, MultiIndexPartition(lam.columns, lam.multiplicities))


def test_multiindex_partition_constructor_normalizes():
    (lam,) = [l for l in multiindex_partitions((1, 1)) if l.length == 1]
    assert_same_object(MultiIndexPartition([(1.0, np.int64(1))], [1.0]), lam)


@pytest.mark.parametrize("columns, multiplicities", [
    (((0, 1), (1, 0)), (1,)),        # one count per column
    (((1,), (0, 1)), (1, 1)),        # columns of two lengths
    (((0, 0),), (1,)),               # a zero column
    (((1, 0), (0, 1)), (1, 1)),      # not increasing
    (((0, 1), (0, 1)), (1, 1)),      # not distinct
    (((0, 1),), (0,)),               # a zero count
    (((0, 1.5),), (1,)),
    (((0, True),), (1,)),
    (((0, -1), (1, 1)), (1, 1)),
    (((0, 1),), (True,)),
    ("12", (1,)),
    (5, (1,)),
])
def test_multiindex_partition_constructor_rejects(columns, multiplicities):
    with pytest.raises(ValidationError):
        MultiIndexPartition(columns, multiplicities)


def test_multiindex_partition_invariants():
    for lam in multiindex_partitions((2, 1, 1)):
        assert lam.target == (2, 1, 1)
        assert lam.length == sum(lam.multiplicities)
        assert lam.coefficient() >= 1


def test_one_dimensional_bijection_with_integer_partitions():
    for i in range(7):
        mip = multiindex_partitions((i,))
        ip = integer_partitions(i)
        assert len(mip) == len(ip)
        got = [tuple(sorted((c[0] for c, r in zip(l.columns, l.multiplicities)
                             for _ in range(r)), reverse=True)) for l in mip]
        want = [lam.parts for lam in ip]
        assert got == want  # same canonical (reverse-lexicographic) order


def test_multiindex_weights_match_scalar_weights():
    # for a 1-d multi-index the coefficient i!/(m! lambda!) equals d_lambda
    for i in range(1, 8):
        for lam in multiindex_partitions((i,)):
            parts = tuple(sorted((c[0] for c, r in zip(lam.columns, lam.multiplicities)
                                  for _ in range(r)), reverse=True))
            d, _, _ = partition_coefficients(IntegerPartition(parts), i)
            assert lam.coefficient() == d


# ---------------------------------------------------------------------------
# necklaces
# ---------------------------------------------------------------------------

def test_necklace_examples():
    words = [n.word for n in necklaces_of_kind((1, 1, 1))]
    assert words == ["123", "132"]
    (n300,) = necklaces_of_kind((3, 0, 0))
    assert n300.word == "111"
    assert n300.block_length == 1 and n300.repetitions == 3
    (n120,) = necklaces_of_kind((1, 2, 0))
    assert n120.word == "122" and n120.is_lyndon


def test_necklaces_weight_three_all_kinds():
    total = []
    for kind in itertools.product(range(4), repeat=3):
        if sum(kind) == 3:
            total.extend(necklaces_of_kind(kind))
    assert len(total) == 11  # all ternary necklaces of length 3


def test_enumerated_necklaces_equal_checked_ones():
    for m, weight in [(1, 4), (2, 6), (3, 5), (4, 4)]:
        for kind in itertools.product(range(weight + 1), repeat=m):
            if sum(kind) != weight:
                continue
            for n in necklaces_of_kind(kind):
                assert_same_object(
                    n, Necklace(n.representative, n.kind, n.block_length, n.repetitions))


def test_necklace_constructor_normalizes():
    (neck,) = necklaces_of_kind((1, 1))
    assert_same_object(Necklace([1.0, np.int64(2)], [1, 1.0], 2.0, 1), neck)


@pytest.mark.parametrize("fields", [
    ((1, 2), (1, 1), 5, 7),          # block_length * repetitions != length
    ((1, 2), (2, 0), 2, 1),          # not the symbol counts
    ((1, 3), (1, 1), 2, 1),          # a symbol outside 1..m
    ((2, 1), (1, 1), 2, 1),          # not the smallest rotation
    ((1, 2, 1, 2), (2, 2), 4, 1),    # not the smallest period
    ((), (), 0, 0),
    ((1.5, 2), (1, 1), 2, 1),
    ((1, 2), (1, 1), True, 2),
    ((1, 2), (1, 1), 2.5, 1),
    ("12", (1, 1), 2, 1),
])
def test_necklace_constructor_rejects(fields):
    with pytest.raises(ValidationError):
        Necklace(*fields)


def test_necklace_rotations_examples():
    (neck,) = necklaces_of_kind((2, 1))
    assert neck.word == "112"
    assert necklace_rotations(neck) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    (full,) = necklaces_of_kind((3,))
    assert necklace_rotations(full) == [(1, 1, 1)]
    periodic = [n for n in necklaces_of_kind((2, 2)) if n.repetitions == 2]
    assert len(periodic) == 1
    assert necklace_rotations(periodic[0]) == [(1, 2, 1, 2), (2, 1, 2, 1)]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_necklaces_match_canonicalization_oracle(m):
    for weight in range(1, 7 if m < 4 else 6):
        for kind in itertools.product(range(weight + 1), repeat=m):
            if sum(kind) != weight:
                continue
            reps = {min_rotation(list(s)) for s in strings_of_kind(kind)}
            got = {n.representative for n in necklaces_of_kind(kind)}
            assert got == reps
            for n in necklaces_of_kind(kind):
                assert n.representative == min_rotation(list(n.representative))
                period = n.block_length
                assert len(n.representative) % period == 0
                assert n.representative[:period] * n.repetitions == n.representative


def test_rotations_tile_all_strings():
    # disjoint union over representatives of the rotation classes = all strings
    for m, weight in [(2, 6), (3, 5)]:
        for kind in itertools.product(range(weight + 1), repeat=m):
            if sum(kind) != weight:
                continue
            seen = []
            for neck in necklaces_of_kind(kind):
                seen.extend(necklace_rotations(neck))
            assert len(seen) == len(set(seen))
            assert set(seen) == set(strings_of_kind(kind))


def test_burnside_totals():
    for m in (2, 3, 4):
        for j in range(1, 9):
            total = 0
            for kind in itertools.product(range(j + 1), repeat=m):
                if sum(kind) == j:
                    total += len(necklaces_of_kind(kind))
            assert total == burnside_necklace_count(m, j)


def test_burnside_example_m3_j4():
    assert burnside_necklace_count(3, 4) == 24


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

def test_permutations_k1_and_k4():
    perms = list(permutations_by_cycles(1))
    assert len(perms) == 1 and perms[0].cycle_count == 1
    assert len(list(permutations_by_cycles(4))) == 24


def test_permutation_cycle_class_counts_match_cycle_coefficients():
    counts = {}
    for perm in permutations_by_cycles(3):
        counts[perm.cycle_class.parts] = counts.get(perm.cycle_class.parts, 0) + 1
    assert counts == {(1, 1, 1): 1, (2, 1): 3, (3,): 2}
    for parts, count in counts.items():
        _, _, c = partition_coefficients(IntegerPartition(parts), 3)
        assert count == c


def test_permutation_images_round_trip():
    for perm in permutations_by_cycles(5):
        assert CyclePermutation.from_images(perm.images()) == perm


def test_enumerated_permutations_equal_checked_ones():
    for k in range(1, 7):
        for perm in permutations_by_cycles(k):
            assert_same_object(perm, CyclePermutation(perm.cycles))
            assert_same_object(perm.cycle_class, IntegerPartition(perm.cycle_class.parts))


@pytest.mark.parametrize("cycles, canonical", [
    (((1.0, 2.0),), ((1, 2),)),
    (((2, 1),), ((1, 2),)),
    (((3,), (2, 1)), ((1, 2), (3,))),
    (((3, 1, 2), (np.int64(4),)), ((1, 2, 3), (4,))),
    ([[2, 4], [3, 1]], ((1, 3), (2, 4))),
])
def test_cycle_constructor_puts_cycles_in_canonical_order(cycles, canonical):
    perm = CyclePermutation(cycles)
    assert_same_object(perm, CyclePermutation._of(canonical))
    assert_same_object(perm, CyclePermutation.from_images(perm.images()))


@pytest.mark.parametrize("cycles", [
    ((1, 1),), ((1, 3),), ((0, 1),), ((),), ((1.5, 2),), ((True, 2),),
    ((1, -2),), ("12",), "12", 5, None,
])
def test_cycle_constructor_rejects(cycles):
    with pytest.raises(ValidationError):
        CyclePermutation(cycles)


@pytest.mark.parametrize("images", [[1.7, 2], [True, 2], [2, 1.5], "21", [None, 1]])
def test_permutation_images_must_be_integers(images):
    # int() would read [1.7, 2] and [True, 2] as the identity on two points
    with pytest.raises(ValidationError):
        CyclePermutation.from_images(images)


def test_permutation_images_accept_integral_floats():
    assert CyclePermutation.from_images([2.0, 1]) == CyclePermutation(((1, 2),))


def test_permutation_budget():
    with pytest.raises(BudgetExceededError):
        list(permutations_by_cycles(11))


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("WISHMOM_MAX_BUDGET", "11")
    assert sum(1 for _ in permutations_by_cycles(4)) == 24
    monkeypatch.setenv("WISHMOM_MAX_BUDGET", "3")
    with pytest.raises(BudgetExceededError):
        list(permutations_by_cycles(4))
    monkeypatch.delenv("WISHMOM_MAX_BUDGET")
    monkeypatch.setenv("WISHART_MAX_BUDGET", "3")  # legacy spelling
    with pytest.raises(BudgetExceededError):
        list(permutations_by_cycles(4))


# ---------------------------------------------------------------------------
# the permutation-sum kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", range(1, 6))
def test_permutation_sum_matches_permutations_by_cycles(m):
    # the kernel's walk against a plain sum over `permutations_by_cycles`:
    # the same permutations and cycles, in the same order, so the same bits
    rng = np.random.default_rng(m)
    y = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    a = rng.normal(size=m + 1) + 1j * rng.normal(size=m + 1)
    seen = []

    def term(tau, cycles):
        seen.append((tau, cycles))
        value = complex(a[len(cycles)])
        for c in cycles:
            value *= y[c[0], tau[c[-1]]] ** len(c)
        for j, col in enumerate(tau):
            value *= y[j, col]
        return value

    got = permutation_sum(m, term, "test sum")
    walk = [(tuple(v - 1 for v in perm.images()),
             [tuple(j - 1 for j in c) for c in perm.cycles])
            for perm in permutations_by_cycles(m)]
    assert seen == walk
    assert len(seen) == math.factorial(m)
    seen.clear()
    assert got == complex_fsum(term(tau, cycles) for tau, cycles in walk)
    # S_0 holds the empty permutation, with no cycles, whose term is the sum
    assert permutation_sum(0, lambda tau, cycles: 2.5 + len(tau) + len(cycles), "x") == 2.5


def test_permutation_sum_overflow_is_a_numerical_error():
    with pytest.raises(NumericalError, match="^permanent overflows"):
        # a Python power that raises OverflowError
        permutation_sum(3, lambda tau, cycles: 1e200 ** len(cycles), "permanent")
    with pytest.raises(NumericalError, match="^generalized moment overflows"):
        # finite terms whose sum overflows
        permutation_sum(2, lambda tau, cycles: 1.7e308, "generalized moment")
    with pytest.raises(NumericalError, match="^generalized moment overflows"):
        permutation_sum(2, lambda tau, cycles: complex(math.inf, 0), "generalized moment")


def test_permutation_routes_walk_s_m_through_the_kernel(monkeypatch):
    # every route that sums over S_m calls the one kernel with its label,
    # and every walk over the permutations is the kernel's
    import wishmom
    from wishmom import (MomentSequence, a_product_moment, build, central_product_moment,
                         generalized_moment_expansion, permanent_alpha, permanent_d)

    calls, walks = [], []
    walk = itertools.permutations
    monkeypatch.setattr(itertools, "permutations",
                        lambda *args: walks.append(args) or walk(*args))

    def spy(m, term, what):
        calls.append((m, what))
        return permutation_sum(m, term, what)

    for module in (wishmom.multivariate, wishmom.applications):
        monkeypatch.setattr(module, "permutation_sum", spy)
    params, _ = build(4.0, np.diag([2.0, 1.0]), np.diag([0.5, 0.25]), "standard")
    h = [np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])]
    perm = CyclePermutation(((1, 2), (3,)))
    y = np.arange(9.0).reshape(3, 3)
    routes = {
        "central_product_moment": lambda: central_product_moment(params, h, perm),
        "a_product_moment": lambda: a_product_moment(params, h, perm),
        "generalized_moment_expansion": lambda: generalized_moment_expansion(params, h, perm),
        "permanent_d": lambda: permanent_d(y, 0.5),
        "permanent_alpha": lambda: permanent_alpha(y, MomentSequence.from_moments([1, 2, 5])),
    }
    for name, route in routes.items():
        calls.clear()
        walks.clear()
        route()
        label = "permanent" if name.startswith("permanent") else "generalized moment"
        assert calls and all(what == label for _, what in calls), name
        assert walks == [(range(m),) for m, _ in calls], name


# ---------------------------------------------------------------------------
# polynomial families
# ---------------------------------------------------------------------------

def test_complete_bell_examples():
    assert complete_bell([]) == 1
    assert complete_bell([7.0]) == 7.0
    assert complete_bell([1.0, 1.0]) == 2.0
    bells = bell_numbers(8)
    for i in range(1, 9):
        assert complete_bell([1] * i) == bells[i]


def test_cyclic_polynomial_examples():
    assert cyclic_polynomial([2.0, 3.0]) == 7.0
    assert cyclic_polynomial([1.0, 1.0, 1.0]) == 6.0
    for i in range(1, 9):
        assert cyclic_polynomial([1] * i) == math.factorial(i)


def test_cyclic_equals_factorial_times_homogeneous():
    rng = np.random.default_rng(0)
    x = rng.normal(size=4) + 1j * rng.normal(size=4)
    for i in range(1, 6):
        s = [complex(np.sum(x ** k)) for k in range(1, i + 1)]
        lhs = cyclic_polynomial(s)
        rhs = math.factorial(i) * complete_homogeneous(x, i)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_cyclic_equals_bell_with_factorial_rescaling():
    rng = np.random.default_rng(1)
    for i in range(1, 9):
        a = list(rng.normal(size=i) + 1j * rng.normal(size=i))
        lhs = cyclic_polynomial(a)
        rhs = complete_bell([a[k] * math.factorial(k) for k in range(i)])
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_complete_homogeneous_examples():
    assert complete_homogeneous([1.0, 1.0], 2) == 3.0
    assert complete_homogeneous([2.0, 5.0], 0) == 1.0
    assert complete_homogeneous([1.0, 2.0], 3) == 15.0


def test_complete_homogeneous_against_monomial_enumeration():
    rng = np.random.default_rng(2)
    x = rng.normal(size=3) + 1j * rng.normal(size=3)
    for i in range(5):
        direct = sum(
            np.prod([x[j] for j in combo])
            for combo in itertools.combinations_with_replacement(range(3), i))
        got = complete_homogeneous(x, i)
        assert abs(got - direct) <= 1e-12 * max(abs(direct), 1.0)


def test_falling_factorial():
    assert falling_factorial(5, 2) == 20
    assert falling_factorial(-1, 3) == -6
    assert falling_factorial(2, 3) == 0
    assert falling_factorial(2.5, 0) == 1.0
    assert falling_factorial(1 + 1j, 2) == (1 + 1j) * (1j)


def test_bell_recurrences_match_partition_enumeration():
    # the definitions: d_lambda and c_lambda weighted sums over partitions
    rng = np.random.default_rng(3)
    for i in range(1, 9):
        c = list(rng.normal(size=i) + 1j * rng.normal(size=i))
        want_bell = want_cyc = 0
        for lam in integer_partitions(i):
            d, _, c_lam = partition_coefficients(lam, i)
            prod = np.prod([c[part - 1] for part in lam.parts])
            want_bell += d * prod
            want_cyc += c_lam * prod
        assert abs(complete_bell(c) - want_bell) <= 1e-12 * abs(want_bell)
        assert abs(cyclic_polynomial(c) - want_cyc) <= 1e-12 * abs(want_cyc)


# ---------------------------------------------------------------------------
# the partition-sum kernel
# ---------------------------------------------------------------------------

def _units(z) -> tuple[int, int]:
    """z as a Gaussian integer in units of 2**-1074: exact, as every finite
    double is an integer multiple of the smallest subnormal."""
    z = complex(z)
    return (int(Fraction(z.real) * 2 ** 1074), int(Fraction(z.imag) * 2 ** 1074))


def series_coefficient(target, base, weight) -> tuple[Fraction, Fraction]:
    """Exact (re, im) coefficient of t^target in
    sum_l weight(l) (sum_v base[v] t^v)^l / l!, from truncated power-series
    products, with no partition enumeration.  The length-l power is kept
    as Gaussian integers in units of 2**(-1074 l), so nothing rounds."""
    base = {v: _units(x) for v, x in base.items()}
    power = {(0,) * len(target): (1, 0)}
    re = im = Fraction(0)
    for length in range(sum(target) + 1):
        if length:
            nxt = {}
            for u, (a, b) in power.items():
                for v, (c, d) in base.items():
                    w = tuple(x + y for x, y in zip(u, v))
                    if all(x <= y for x, y in zip(w, target)):
                        r, i = nxt.get(w, (0, 0))
                        nxt[w] = (r + a * c - b * d, i + a * d + b * c)
            power = nxt
        if target in power:
            (a, b), (c, d) = _units(weight(length)), power[target]
            unit = Fraction(1, math.factorial(length) * 2 ** (1074 * (length + 1)))
            re += (a * c - b * d) * unit
            im += (a * d + b * c) * unit
    return re, im


def underflow_units(partitions, base, weight) -> float:
    """c such that gradual underflow moves `partition_sum` by at most
    c * 2**-1074, counted from the rounding steps of its terms.

    Rounding to nearest, a real product or quotient in the subnormal range
    is off by at most half the smallest subnormal, 2**-1075, and a sum or
    difference that lands there is exact.  So a complex product, two real
    products per component, adds at most one unit (2**-1074) to each
    component and two to the modulus; the division of a term by the
    integer prod r_j! adds at most half a unit per component.  An error
    carried into a product is scaled by the modulus of the other factor.
    The steps are those of `partition_sum`: weight(l) times each
    base[part] ** r, which CPython raises to a small integer power by
    binary powering, then divided by prod r_j!.  The terms are added
    exactly when their sum is subnormal.
    """
    def mul(x, y):  # (computed value, bound on its underflow error in units)
        return x[0] * y[0], abs(x[0]) * y[1] + (abs(y[0]) + y[1]) * x[1] + 2

    def power(x, r):
        acc, mask = (1 + 0j, 0.0), 1
        while mask <= r:
            if r & mask:
                acc = mul(acc, x)
            x, mask = mul(x, x), mask << 1
        return acc

    c = 0.0
    for lam in partitions:
        term, den = (weight(lam.length), 0.0), 1
        for part, r in lam.part_counts():
            term = mul(term, power((base[part], 0.0), r))
            den *= math.factorial(r)
        c += term[1] / den + 1
    return c


def assert_matches_series(got, target, base, weights, c):
    """|got - exact| <= 1e-12 * scale + c * 2**-1074: the relative model on
    the same sum over absolute values (so cancellation in the alternating
    sums does not loosen or break the bound), plus the absolute error of
    gradual underflow, c from `underflow_units`."""
    want_re, want_im = series_coefficient(target, base, weights.__getitem__)
    scale, _ = series_coefficient(target, {v: abs(x) for v, x in base.items()},
                                  lambda length: abs(weights[length]))
    bound = Fraction(1e-12) * scale + Fraction(c) * Fraction(1, 2 ** 1074)
    miss_re, miss_im = Fraction(got.real) - want_re, Fraction(got.imag) - want_im
    assert miss_re ** 2 + miss_im ** 2 <= bound ** 2, (got, float(want_re), float(want_im))


VALUES = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


@st.composite
def integer_cases(draw):
    i = draw(st.integers(0, 12))
    x = draw(st.lists(VALUES, min_size=i, max_size=i))
    weights = draw(st.lists(VALUES, min_size=i + 1, max_size=i + 1))
    return i, x, weights


@settings(max_examples=60, deadline=None)
@given(integer_cases())
# subnormal cases that fail a purely relative bound: 5e-324 * 0.5 underflows
# to 0 in the first; the second missed the earlier float oracle by 7e-324
@example((3, [2 + 0j, 0.5 + 0j, 0j], [2 + 0j, -2 + 0j, 5e-324 + 0j, 0j]))
@example((3, [5e-324 + 0j, 1.5 + 0j, 1 + 0j], [5e-324 + 0j, -2.2e-313 + 0j, 2 + 0j, 5e-324 + 0j]))
def test_partition_sum_matches_series_on_integer_partitions(case):
    i, x, weights = case
    base = [0.0] + x
    got = partition_sum(integer_partitions(i), base, weights.__getitem__)
    c = underflow_units(integer_partitions(i), base, weights.__getitem__)
    assert_matches_series(got, (i,), {(k,): v for k, v in enumerate(x, 1)}, weights, c)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_partition_sum_matches_series_on_multiindex_partitions(data):
    m = data.draw(st.integers(1, 3))
    kind = tuple(data.draw(st.integers(0, cap)) for cap in (3, 3, 2)[:m])
    cols = [v for v in itertools.product(*(range(c + 1) for c in kind)) if any(v)]
    x = data.draw(st.lists(VALUES, min_size=len(cols), max_size=len(cols)))
    weights = data.draw(st.lists(VALUES, min_size=sum(kind) + 1, max_size=sum(kind) + 1))
    base = dict(zip(cols, x))
    got = partition_sum(multiindex_partitions(kind), base, weights.__getitem__)
    c = underflow_units(multiindex_partitions(kind), base, weights.__getitem__)
    assert_matches_series(got, kind, base, weights, c)


def test_complex_fsum_is_correctly_rounded():
    assert complex_fsum([1e16, 1.0, -1e16, 1j, 1e-16j]) == 1 + 1.0000000000000001j
    assert complex_fsum([]) == 0
    # where math.fsum raises, the plain IEEE sum is returned
    assert complex_fsum([1e308, 1e308]) == complex(math.inf, 0)
    assert math.isnan(complex_fsum([math.inf, -math.inf]).real)


def test_partition_sum_overflow_is_a_numerical_error():
    one = lambda l: 1
    # a power that overflows
    with pytest.raises(NumericalError):
        partition_sum(integer_partitions(3), {1: 1e200 + 0j, 2: 1.0, 3: 1.0}, one)
    # finite terms whose sum overflows
    with pytest.raises(NumericalError):
        partition_sum(integer_partitions(2), {1: 1e154 + 0j, 2: 1.7e308 + 0j}, one)
