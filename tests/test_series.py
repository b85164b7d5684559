"""The truncated power-series composition kernel, `compose_grid`, and the
routes built on it: permanents, randomized moments and cumulants, central
moments and normalized moments.

The tests named `compose_series` check the composition read at its one
cell, kind, through `errors.finite` (`series_cell`), as the univariate
compositions read it.

Each route is pinned against an exact Gaussian-rational composition of the
same inputs (`brute_force.exact_composition`) and against the partition
sums it replaced; the kernel's scatter-add is pinned against the slice-add
loop it replaced (`brute_force.shift_add_composition`), and its pair lists
against the `np.triu_indices` product (`brute_force.shift_pairs_by_triu`).
The float error is bounded relative to the scale of the sum, the same
composition on absolute values, so cancellation in the alternating weights
neither breaks nor loosens a bound.
"""

import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wishmom
from wishmom import (
    MomentSequence,
    NumericalError,
    ValidationError,
    build,
    central_moment,
    compose_normalized_moments,
    multiindex_partitions,
    normalized_cumulant_moments,
    permanent_master,
    randomized_moment,
    repeated_matrix,
)
from wishmom.combinatorics import _shift_pairs, compose_grid, partition_sum
from wishmom.errors import finite

from brute_force import (
    ERROR_BOUND,
    GaussianRational,
    exact_composition,
    exact_moments_from_cumulants,
    exact_permanent,
    exact_permanent_master,
    exact_trace_powers,
    master_rho,
    shift_add_composition,
    shift_pairs_by_triu,
)


def exact_scale(table, kind, weight) -> float:
    """The composition on absolute values: the scale of a float error."""
    if not isinstance(table, dict):
        table = {(k,): x for k, x in enumerate(table)}
    absolute = {u: abs(complex(x)) for u, x in table.items()}
    return float(exact_composition(absolute, kind, lambda l: abs(complex(weight(l)))).re)


def assert_exact(got, exact: GaussianRational, scale: float):
    assert exact.distance(got) <= ERROR_BOUND * scale, (got, complex(exact), scale)


def random_table(rng, kind) -> dict:
    cells = itertools.product(*(range(c + 1) for c in kind))
    return {u: complex(*rng.normal(size=2)) for u in cells if any(u)}


def series_cell(table, kind, weight) -> complex:
    """The composition's cell at kind, read as the univariate compositions
    read it: through `errors.finite`."""
    kind = tuple(kind)
    return finite(complex(compose_grid(table, kind, weight)[kind]), "series composition")


def grid(table, kind) -> np.ndarray:
    """The mapping `table` as the array of shape kind + 1 that
    `compose_grid` reads, 0 at the origin."""
    out = np.zeros(tuple(c + 1 for c in kind), dtype=complex)
    for u, x in table.items():
        out[u] = x
    return out


WEIGHTS = {
    "alternating": lambda l: (-1) ** l * (1 + l / 3),
    "complex": lambda l: complex(0.3, -0.9) ** l,
    "falling": lambda l: math.prod(2.5 - j for j in range(l)),
}


# ---------------------------------------------------------------------------
# the kernel
# ---------------------------------------------------------------------------

SMALL_KINDS = [(1,), (2,), (2, 1), (1, 0, 2)]


# every weight on every small kind, and on a weight-10 kind
@pytest.mark.parametrize("kind, weight", [
    *itertools.product(SMALL_KINDS, sorted(WEIGHTS)),
    ((10,), "falling"), ((5, 5), "alternating"), ((4, 3, 3), "complex"),
    ((2, 2, 1, 1, 1), "falling"), ((4, 3, 3), "alternating"),
])
def test_compose_series_matches_exact_composition(kind, weight):
    rng = np.random.default_rng(sum(kind) * 31 + len(kind))
    table, w = random_table(rng, kind), WEIGHTS[weight]
    assert_exact(series_cell(grid(table, kind), kind, w), exact_composition(table, kind, w),
                 exact_scale(table, kind, w))


def test_compose_series_takes_arrays_and_sequences():
    rng = np.random.default_rng(3)
    kind = (3, 2)
    table = grid(random_table(rng, kind), kind)
    w = WEIGHTS["complex"]
    want = series_cell(table, kind, w)
    table[0, 0] = 99.0  # the origin is ignored
    assert series_cell(table, kind, w) == want
    assert series_cell(table.tolist(), kind, w) == want
    x = [0.0, 1.5, -0.25, 2.0]
    assert series_cell(x, (3,), w) == series_cell(np.array(x), [3], w)
    assert series_cell([5.0], (0,), w) == 0
    # the one-partition case: weight(1) times the entry at kind
    assert series_cell([[0.0], [2.0]], (1, 0), lambda l: 3.0) == 6.0


def test_compose_series_rejects_malformed_requests():
    w = WEIGHTS["complex"]
    with pytest.raises(ValidationError):
        series_cell([0.0, 1.0], (2,), w)  # shape (2,) against grid (3,)
    with pytest.raises(ValidationError):
        series_cell(np.zeros((3, 2)), (2,), w)  # a 2-D grid for a 1-D kind
    with pytest.raises(ValidationError):
        series_cell({(1,): 1.0, (2,): 1.0}, (2,), w)  # a mapping is no grid
    with pytest.raises(ValidationError):
        series_cell([0, 1, 10 ** 400], (2,), w)  # no complex128 reads it
    with pytest.raises(ValidationError):
        series_cell([0.0], (-1,), w)
    with pytest.raises(ValidationError):
        series_cell([0.0, 1.0], (True,), w)
    with pytest.raises(ValidationError):
        series_cell([0.0, 1.0], (1.5,), w)


VALUES = st.one_of(
    st.just(0.0),
    st.floats(1e-3, 2.0).flatmap(lambda m: st.sampled_from([m, -m])),
)
COMPLEX = st.builds(complex, VALUES, VALUES)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_compose_series_matches_partition_sum(data):
    # nonzero parts are at least 1e-3 in magnitude, so no product of eight
    # of them underflows and both sums round relative to the scale
    m = data.draw(st.integers(1, 4))
    kind = tuple(data.draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)
                           .filter(lambda k: 1 <= sum(k) <= 8)))
    cells = [u for u in itertools.product(*(range(c + 1) for c in kind)) if any(u)]
    table = dict(zip(cells, data.draw(st.lists(COMPLEX, min_size=len(cells),
                                               max_size=len(cells)))))
    top = sum(kind)
    values = data.draw(st.lists(COMPLEX, min_size=top + 1, max_size=top + 1))
    if data.draw(st.booleans()):  # alternating
        values = [(-1) ** l * abs(v) for l, v in enumerate(values)]
    partitions = multiindex_partitions(kind)
    got = series_cell(grid(table, kind), kind, values.__getitem__)
    want = partition_sum(partitions, table, values.__getitem__)
    scale = partition_sum(partitions, {u: abs(x) for u, x in table.items()},
                          lambda l: abs(values[l]))
    assert abs(got - want) <= 1e-12 * scale.real


# the compositions of the benchmark's joint sessions, a scalar order, and
# the widest grids up to weight 10
SHIFT_ADD_KINDS = [
    (4,), (9,), (6,), (3, 3), (5, 4), (4, 3), (2, 1, 1), (3, 2, 2), (2, 2, 2), (3, 3, 3),
    (2, 2, 1, 1), (2, 2, 2, 2), (2, 2, 2, 1), (1, 1, 1, 1), (1, 1, 1, 1, 1),
    (2, 2, 1, 1, 1), (1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1, 1),
    (20,), (2, 2, 2, 2, 2), (1,) * 10,
]


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
@pytest.mark.parametrize("kind", SHIFT_ADD_KINDS, ids=str)
def test_compose_series_matches_shift_add_loop(kind, sparse):
    # the scatter-add against one slice-add per entry and power; a sparse
    # table leaves about half its entries 0, which both routes skip
    rng = np.random.default_rng(len(kind) * 100 + sum(kind))
    shape = tuple(c + 1 for c in kind)
    table = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    if sparse:
        table[rng.random(shape) < 0.5] = 0
    w = WEIGHTS["alternating"]
    want = shift_add_composition(table, kind, w)
    scale = shift_add_composition(np.abs(table), kind, lambda l: abs(w(l))).real
    assert abs(series_cell(table, kind, w) - want) <= ERROR_BOUND * scale


@pytest.mark.parametrize("kind", SHIFT_ADD_KINDS + [(2, 1), (0, 3), (3, 0, 1), (5, 5)], ids=str)
def test_shift_pairs_are_the_triangle_product(kind):
    # the pair lists built by arithmetic on the row lengths against the
    # product of `np.triu_indices` triangles: the same pairs in the same
    # order, so each destination still adds its entries in C order
    shape = tuple(c + 1 for c in kind)
    for got, want in zip(_shift_pairs(shape), shift_pairs_by_triu(shape)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# the whole grid
# ---------------------------------------------------------------------------

# d = -1 is the alternating series of the determinant's master theorem
GRID_WEIGHTS = {**WEIGHTS, "d = -1": lambda l: (-1) ** l}


def same_bits(a, b) -> bool:
    a, b = (np.ascontiguousarray(x, dtype=complex) for x in (a, b))
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("kind, weight", [
    *itertools.product([(3,), (2, 1), (1, 0, 2)], sorted(GRID_WEIGHTS)),
    ((8,), "d = -1"), ((3, 3), "d = -1"), ((2, 2, 1, 1), "d = -1"), ((3, 2, 2), "complex"),
    ((1, 1, 1, 1, 1), "falling"),
])
def test_compose_grid_matches_exact_composition_in_every_cell(kind, weight):
    rng = np.random.default_rng(sum(kind) * 37 + len(kind))
    table, w = random_table(rng, kind), GRID_WEIGHTS[weight]
    got = compose_grid(grid(table, kind), kind, w)
    assert got.shape == tuple(c + 1 for c in kind)
    for u in itertools.product(*(range(c + 1) for c in kind)):
        assert_exact(got[u], exact_composition(table, u, w), exact_scale(table, u, w))


@pytest.mark.parametrize("weight", sorted(GRID_WEIGHTS))
def test_compose_grid_cells_do_not_depend_on_the_extent(weight):
    # a cell's terms, and the order they are added in, are the same on
    # every grid that holds it, so a grid sliced from a larger one is the
    # smaller grid bit for bit
    rng = np.random.default_rng(sorted(GRID_WEIGHTS).index(weight))
    w = GRID_WEIGHTS[weight]
    for trial in range(40):
        m = int(rng.integers(1, 6))
        big = tuple(int(c) for c in rng.integers(0, 5, size=m))
        if not 1 <= sum(big) <= 10:
            continue
        shape = tuple(c + 1 for c in big)
        table = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if trial % 2:
            table[rng.random(shape) < 0.4] = 0
        whole = compose_grid(table, big, w)
        for _ in range(3):
            v = tuple(int(rng.integers(0, c + 1)) for c in big)
            cut = tuple(slice(c + 1) for c in v)
            assert same_bits(whole[cut], compose_grid(table[cut], v, w)), (big, v)


@pytest.mark.parametrize("kind", SHIFT_ADD_KINDS, ids=str)
def test_compose_grid_cell_at_kind_is_compose_series(kind):
    # the cell at kind against the shift-add oracle, a single-cell route
    # whose last power is one dot product where the grid's is a
    # scatter-add, under the determinant's alternating weight
    rng = np.random.default_rng(len(kind) * 100 + sum(kind) + 1)
    shape = tuple(c + 1 for c in kind)
    table = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    w = GRID_WEIGHTS["d = -1"]
    scale = shift_add_composition(np.abs(table), kind, lambda l: 1.0).real
    assert abs(series_cell(table, kind, w) - shift_add_composition(table, kind, w)) \
        <= ERROR_BOUND * scale


def test_compose_grid_memory_at_the_widest_grid():
    # (1,)*10 has 59,049 (destination, source) pairs; a dense
    # (entries x grid x axes) difference tensor would peak near 84 MB
    kind = (1,) * 10
    table = np.full((2,) * 10, 0.5 + 0.25j)
    tracemalloc.start()
    try:
        compose_grid(table, kind, WEIGHTS["complex"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6, peak


def test_compose_grid_overflows_cell_by_cell():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the cells alone report it
        # a weight that overflows from l = 2 on: only cells of weight >= 2
        got = compose_grid([0.0, 1.0, 1.0, 1.0], (3,), lambda l: 10.0 ** (200 * l))
        assert got[1] == 1e200
        assert not np.isfinite(got[2:]).any()
        # a power that overflows: (1e200)^2 / 2 at weight 2
        got = compose_grid([[0.0, 1.0], [1e200, 1.0], [0.0, 1.0]], (2, 1), lambda l: 1.0)
        assert np.isfinite(got[:2]).all()
        assert not np.isfinite(got[2]).any()
    assert np.array_equal(compose_grid([0.0, 2.0], (1,), lambda l: 3.0), [0, 6])
    assert np.array_equal(compose_grid([5.0], (0,), lambda l: 3.0), [0])
    for table, kind in (([0.0, 1.0], (2,)), (np.zeros((3, 2)), (2,)), ([0.0], (-1,))):
        with pytest.raises(ValidationError):
            compose_grid(table, kind, lambda l: 1.0)


def test_compose_series_overflow_is_a_numerical_error():
    one = lambda l: 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error alone reports it
        # a power that overflows: (1e200)^2 / 2
        with pytest.raises(NumericalError):
            series_cell([0.0, 1e200, 1.0], (2,), one)
        # a middle power that overflows on a grid
        with pytest.raises(NumericalError):
            series_cell([[0.0, 1e120], [1e120, 1.0], [0.0, 1.0]], (2, 1), one)
        # finite terms whose sum overflows
        with pytest.raises(NumericalError):
            series_cell([0.0, 1e154, 1.7e308], (2,), one)
        # a weight that overflows
        with pytest.raises(NumericalError):
            series_cell([0.0, 1.0, 1.0], (2,), lambda l: 10.0 ** (200 * l))


# ---------------------------------------------------------------------------
# permanents
# ---------------------------------------------------------------------------

def gaussian_integer_matrix(rng, m):
    return rng.integers(-2, 3, size=(m, m)) + 1j * rng.integers(-2, 3, size=(m, m))


D_VALUES = {
    "rational": Fraction(1, 3),
    "negative": Fraction(-5, 2),
    "gaussian": GaussianRational(Fraction(1, 3), Fraction(-2, 5)),
}


def test_exact_master_route_is_the_exact_permanent():
    # the oracle itself, against all p! permutations of T(i)
    rng = np.random.default_rng(41)
    t = gaussian_integer_matrix(rng, 3)
    for kind in ((1, 1, 1), (2, 1, 0), (2, 2, 1)):
        for d in D_VALUES.values():
            a = lambda l: GaussianRational.of(d) ** l
            want = exact_permanent(repeated_matrix(t, kind), a)
            assert exact_permanent_master(t, kind, a) == want


# every d on small kinds, and each d on a weight-10 kind
@pytest.mark.parametrize("kind, d", [
    *itertools.product([(2, 1), (1, 1, 1, 1)], sorted(D_VALUES)),
    ((5, 5), "negative"), ((4, 3, 3), "gaussian"), ((10,), "rational"),
    ((2, 2, 2, 1), "gaussian"),
])
def test_permanent_master_matches_exact(kind, d):
    rng = np.random.default_rng(len(kind) * 7 + sum(kind))
    t = gaussian_integer_matrix(rng, len(kind))
    d = D_VALUES[d]
    a = lambda l: GaussianRational.of(d) ** l
    exact = exact_permanent_master(t, kind, a)
    factorial = math.prod(math.factorial(v) for v in kind)
    scale = factorial * exact_scale(master_rho(np.abs(t), kind), kind,
                                    lambda l: abs(complex(d)) ** l)
    assert_exact(permanent_master(t, kind, d), exact, scale)


def test_permanent_master_with_alpha_matches_exact():
    rng = np.random.default_rng(43)
    t = gaussian_integer_matrix(rng, 3)
    kind = (3, 3, 2)
    alpha = MomentSequence.from_moments([(1 + 2 ** l + 3 ** l) / 3 for l in range(1, 9)])
    factorial = math.prod(math.factorial(v) for v in kind)
    exact = exact_permanent_master(t, kind, alpha.order)
    scale = factorial * exact_scale(master_rho(np.abs(t), kind), kind,
                                    lambda l: alpha.order(l).real)
    assert_exact(permanent_master(t, kind, alpha), exact, scale)


# ---------------------------------------------------------------------------
# univariate compositions
# ---------------------------------------------------------------------------

INTEGER_CASES = {
    "p2": ([[2, 1], [1, 3]], [[1, 0], [0, 0]]),
    "p3": ([[3, 1j, 0], [-1j, 2, 1], [0, 1, 2]], [[1, 1, 0], [0, 2, 1j], [1, 0, 0]]),
}


def exponential_table(x) -> list:
    return [0] + [GaussianRational.of(v) / math.factorial(k) for k, v in enumerate(x, 1)]


@pytest.mark.parametrize("convention", ["paper", "standard"])
@pytest.mark.parametrize("case", sorted(INTEGER_CASES))
def test_randomized_moment_matches_exact(case, convention):
    sigma, m_matrix = INTEGER_CASES[case]
    params, _ = build(4.0, sigma, m_matrix, convention)
    t, s = exact_trace_powers(sigma, m_matrix, 10)
    cums = [math.factorial(k - 1) * t[k - 1] + params.sign * math.factorial(k) * s[k - 1]
            for k in range(1, 11)]
    alpha = MomentSequence.from_moments([(1 + 2 ** l + 3 ** l) / 3 for l in range(1, 11)])
    for i in range(1, 11):
        table = exponential_table(cums[:i])
        exact = math.factorial(i) * exact_composition(table, (i,), alpha.order)
        scale = math.factorial(i) * exact_scale(table, (i,), lambda l: alpha.order(l).real)
        assert_exact(randomized_moment(alpha, params, i), exact, scale)


@pytest.mark.parametrize("n", [2.5, 7.0])
@pytest.mark.parametrize("case", sorted(INTEGER_CASES))
def test_central_moment_matches_exact(case, n):
    # the exact value from the cumulants n (k-1)! T_k, with no composition
    sigma, _ = INTEGER_CASES[case]
    params, _ = build(n, sigma)
    t, _ = exact_trace_powers(sigma, np.zeros_like(sigma), 10)
    moments = exact_moments_from_cumulants(
        [Fraction(n) * math.factorial(k - 1) * t[k - 1] for k in range(1, 11)])
    # the route composes the cyclic polynomials (the n = 1 moments) with
    # falling-factorial weights, which alternate in sign once l > n
    cyclic = exact_moments_from_cumulants([math.factorial(k - 1) * t[k - 1]
                                           for k in range(1, 11)])[1:]
    falling = lambda l: math.prod(n - j for j in range(l))
    for i in range(1, 11):
        scale = math.factorial(i) * exact_scale(exponential_table(cyclic[:i]), (i,), falling)
        assert_exact(central_moment(params, i), moments[i], scale)


@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_compose_normalized_moments_matches_exact(convention):
    sigma, m_matrix = INTEGER_CASES["p3"]
    params, _ = build(5.0, sigma, m_matrix, convention)
    e = normalized_cumulant_moments(params, 10)
    for i in range(1, 11):
        table = exponential_table([e.order(k) for k in range(1, i + 1)])
        power = lambda l: params.p ** l
        exact = math.factorial(i) * exact_composition(table, (i,), power)
        scale = math.factorial(i) * exact_scale(table, (i,), power)
        assert_exact(compose_normalized_moments(e, params.p, i), exact, scale)


def test_compose_normalized_moments_rejects_a_non_dimension():
    e = MomentSequence.from_moments([1.5, 2.5, 4.0])
    for p in (np.int64(2), 2.0):
        assert compose_normalized_moments(e, p, 2) == compose_normalized_moments(e, 2, 2)
    assert compose_normalized_moments(e, 2, 0) == 1
    for p in (0, -1, 2.5, True, "2", None):
        with pytest.raises(ValidationError):
            compose_normalized_moments(e, p, 2)


def test_compositions_enumerate_no_partitions(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("partition enumeration on a composition route")

    for module in (wishmom.combinatorics, wishmom.univariate, wishmom.multivariate,
                   wishmom.applications):
        for name in ("integer_partitions", "multiindex_partitions", "partition_sum"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    sigma, m_matrix = INTEGER_CASES["p3"]
    params, _ = build(4.0, sigma, m_matrix)
    h = [np.eye(3), np.diag([1.0, 2.0, 0.5])]
    cumulants = MomentSequence.from_cumulants([1.5, 0.5, 0.25, 0.125, 0.1])
    moments = MomentSequence.from_moments([2.0, 5.0, 15.0, 52.0, 203.0, 877.0])
    e = MomentSequence.from_moments([1.5, 2.5, 4.0, 7.0, 12.0, 20.0])
    assert np.isfinite(wishmom.joint_cumulant_randomized(cumulants, params, h, (3, 2)))
    assert np.isfinite(permanent_master(np.asarray(sigma), (2, 2, 1), 0.5))
    assert np.isfinite(permanent_master(np.asarray(sigma), (2, 2, 1), moments))
    assert np.isfinite(randomized_moment(moments, params, 6))
    assert np.isfinite(central_moment(params, 6))
    assert np.isfinite(compose_normalized_moments(e, 3, 6))
