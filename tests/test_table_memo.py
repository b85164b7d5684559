"""The tables and compositions shared across calls: one-slot memos
(`combinatorics.KeptGrid`) keyed by the content of their tables, whose
values do not depend on which calls came before.  The joint base tables
are keyed by (convention, Sigma, M, H); the randomized joint cumulants'
composed levels by the same; the master-theorem permanents' composed
levels by T alone.  The weights (d, or the moments or cumulants of alpha)
enter at the read, so they are in no key."""

import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import wishmom
from wishmom import (
    CONVENTIONS,
    DimensionMismatchError,
    InsufficientOrdersError,
    MomentSequence,
    NumericalError,
    SingularMatrixError,
    ValidationError,
    build,
    eta_moment_strings,
    joint_cumulant,
    joint_cumulant_randomized,
    joint_moment,
    permanent_d,
    permanent_master,
    repeated_matrix,
)
from wishmom import applications, cli, combinatorics, multivariate
from wishmom.combinatorics import KeptGrid
from wishmom.multivariate import _base_tables, _directions, _heads, _tables

from conftest import random_complex, random_psd

ALPHA = MomentSequence.from_cumulants([1.5, 0.5, 0.25, 0.125, 0.75, 1.0, 0.5, 0.25, 2.0, 1.0])
ROUTES = (
    joint_moment,
    joint_cumulant,
    lambda params, h, v: joint_cumulant_randomized(ALPHA, params, h, v),
    eta_moment_strings,
)


ALPHA_MOMENTS = MomentSequence.from_moments(
    [1.25, 2.0, 3.5, 6.0, 11.0, 20.0, 38.0, 72.0, 140.0, 270.0])
D = complex(0.8, -0.3)
# the routes that keep a composed grid: permanent_master with d or alpha
# weights, and joint_cumulant_randomized
COMPOSED = ("permanent d", "permanent alpha", "randomized")


def _composed(name, rng, m):
    """The call v -> value of route `name` on one random content."""
    if name == "randomized":
        params, h = _instance(rng, m, int(rng.integers(2, 5)), CONVENTIONS[m % 2], False)
        return lambda v: joint_cumulant_randomized(ALPHA, params, h, v)
    t = random_complex(rng, m)
    weights = ALPHA_MOMENTS if name == "permanent alpha" else D
    return lambda v: permanent_master(t, v, weights)


def _slot(name):
    return multivariate._kept_randomized if name == "randomized" else applications._kept_permanents


def _compositions(monkeypatch, name):
    """The list that records the grid of every composition route `name`
    makes from now on."""
    built = []
    module = multivariate if name == "randomized" else applications
    compose = module.compose_levels
    monkeypatch.setattr(module, "compose_levels", lambda table, grid: (
        built.append(tuple(grid)) or compose(table, grid)))
    return built


def _refuse_table_work(monkeypatch):
    """Make every table build and composition raise AssertionError."""
    def refuse(*args, **kwargs):
        raise AssertionError("table work")

    for module in (multivariate, applications):
        monkeypatch.setattr(module, "compose_levels", refuse)
    monkeypatch.setattr(multivariate, "_tables", refuse)


def _clear():
    multivariate._kept_tables = KeptGrid()
    multivariate._kept_randomized = KeptGrid()
    applications._kept_permanents = KeptGrid()


@pytest.fixture(autouse=True)
def empty_memo():
    _clear()
    yield
    _clear()


def _instance(rng, m, p, convention, central, n=4.0):
    sigma = random_psd(rng, p)
    m_matrix = None if central else random_psd(rng, p, 0.5)
    params, _ = build(n, sigma, m_matrix, convention)
    return params, [random_complex(rng, p) for _ in range(m)]


def _random_kind(rng, m, low, high):
    while True:
        kind = tuple(int(c) for c in rng.integers(0, 4, size=m))
        if low <= sum(kind) <= high:
            return kind


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _same_bits(a, b):
    return np.array_equal(_bits(np.asarray(a, dtype=complex)), _bits(np.asarray(b, dtype=complex)))


CASES = list(itertools.product(range(1, 6), CONVENTIONS, (False, True)))


@pytest.mark.parametrize("m, convention, central", CASES)
def test_tables_sliced_from_a_larger_grid_are_bit_identical(m, convention, central):
    rng = np.random.default_rng(100 + 10 * m + 2 * CONVENTIONS.index(convention) + central)
    for _ in range(6):
        params, h = _instance(rng, m, int(rng.integers(1, 7)), convention, central)
        hs, sh = _directions(params, h)
        heads = () if central else _heads(params, hs)
        big = _random_kind(rng, m, 1, 10)
        v = tuple(int(rng.integers(0, c + 1)) for c in big)
        cut = tuple(slice(c + 1) for c in v)
        for whole, alone in zip(_tables(sh, heads, big), _tables(sh, heads, v)):
            assert _same_bits(whole[cut], alone)


def _session(rng, m):
    """A session's requests: every sub-index of the top three weights of a
    kind, in lexicographic order, then one past the kind on its first axis
    (a grid extension), then for m >= 2 weight 10 on the last axis and the
    kind again (each past the weight budget when joined with the grid)."""
    kind = _random_kind(rng, m, max(m, 3), 6)
    top = sum(kind)
    calls = [v for v in itertools.product(*(range(c + 1) for c in kind))
             if sum(v) >= max(top - 2, 1)]
    calls.append((kind[0] + 1,) + kind[1:])
    if m >= 2:
        calls += [(0,) * (m - 1) + (10,), kind]
    return calls


@pytest.mark.parametrize("m, convention, central", CASES)
def test_a_session_equals_cold_calls_bit_for_bit(m, convention, central):
    rng = np.random.default_rng(200 + 10 * m + 2 * CONVENTIONS.index(convention) + central)
    params, h = _instance(rng, m, int(rng.integers(2, 6)), convention, central)
    # the same content under another n shares the tables
    other_n, _ = build(7.5, params.sigma, params.m_matrix, convention)
    calls = [(ROUTES[k % len(ROUTES)], (params, other_n)[k % 2], v)
             for k, v in enumerate(_session(rng, m))]
    cold = []
    for route, p, v in calls:
        _clear()
        cold.append(route(p, h, v))
    _clear()
    for (route, p, v), want in zip(calls, cold):
        assert _same_bits(route(p, h, v), want), v


SESSION_KINDS = ((5,), (3, 2), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1))


@pytest.mark.parametrize("name, kind", list(itertools.product(COMPOSED, SESSION_KINDS)))
def test_a_composed_session_equals_cold_calls_bit_for_bit(name, kind, monkeypatch):
    # the top three weights below kind by weight, then lexicographically,
    # as a benchmark session tabulates them, then the same in reverse, then
    # one past kind on its first axis, weight 10 on its last axis (past the
    # weight budget when joined with the grid) and kind again
    m = len(kind)
    rng = np.random.default_rng(300 + 10 * m + COMPOSED.index(name))
    call = _composed(name, rng, m)
    tabulation = sorted((v for v in itertools.product(*(range(c + 1) for c in kind))
                         if sum(v) >= sum(kind) - 2), key=lambda v: (sum(v), v))
    calls = tabulation + tabulation[::-1] + [
        (kind[0] + 1,) + kind[1:], (0,) * (m - 1) + (10,), kind]
    cold = []
    for v in calls:
        _clear()
        cold.append(call(v))
    _clear()
    built = _compositions(monkeypatch, name)
    grown = 0
    for v, want in zip(calls, cold):
        before = len(built)
        assert _same_bits(call(v), want), v
        grown += len(built) > before and built[-1] != v
    # both paths ran: requests answered by a slice, and grids grown past
    # their request (on one axis every grid that covers a request is its)
    assert len(built) < len(calls)
    assert grown or m == 1


def _covered(params, h):
    """The grid the table slot holds for this content, or None."""
    key, grid, tables = multivariate._kept_tables.entry
    if key != (params.convention, params.sigma.tobytes(), params.m_matrix.tobytes(),
               *(np.asarray(hk, dtype=complex).tobytes() for hk in h)):
        return None
    rho, eta = tables
    assert rho.shape == eta.shape == tuple(c + 1 for c in grid)
    return grid


def test_grids_extend_to_the_componentwise_max_within_the_budget():
    params, h = _instance(np.random.default_rng(1), 2, 3, "standard", False)
    joint_cumulant(params, h, (2, 1))
    assert _covered(params, h) == (2, 1)
    joint_cumulant(params, h, (1, 3))
    assert _covered(params, h) == (2, 3)
    joint_cumulant(params, h, (1, 1))
    assert _covered(params, h) == (2, 3)
    joint_cumulant(params, h, (0, 10))  # (2, 10) is over the weight budget
    assert _covered(params, h) == (0, 10)


TABULATED_KINDS = [(3, 3, 3), (1,) * 6, (2, 2, 1, 1, 1)]


@pytest.mark.parametrize("kind", TABULATED_KINDS)
def test_a_tabulation_grows_one_grid(kind, monkeypatch):
    # every sub-index in lexicographic order: each miss grows the grid, so
    # no request is computed twice and the last grid is the kind's
    built = []
    tables = multivariate._tables
    monkeypatch.setattr(multivariate, "_tables",
                        lambda *args: built.append(args[2]) or tables(*args))
    params, h = _instance(np.random.default_rng(8), len(kind), 2, "paper", False)
    for v in itertools.product(*(range(c + 1) for c in kind)):
        if any(v):
            joint_moment(params, h, v)
    assert _covered(params, h) == kind
    assert all(a <= b for grid, after in zip(built, built[1:]) for a, b in zip(grid, after))


@pytest.mark.parametrize("name", COMPOSED)
@pytest.mark.parametrize("kind", TABULATED_KINDS)
def test_a_composed_tabulation_grows_one_grid(kind, name, monkeypatch):
    built = _compositions(monkeypatch, name)
    call = _composed(name, np.random.default_rng(8), len(kind))
    for v in itertools.product(*(range(c + 1) for c in kind)):
        if any(v):
            call(v)
    assert _slot(name).entry[1] == built[-1] == kind
    assert all(a <= b for grid, after in zip(built, built[1:]) for a, b in zip(grid, after))


@pytest.mark.parametrize("first, second", [
    ((5, 0), (0, 5)),
    ((1,) * 5 + (0,) * 5, (0,) * 5 + (1,) * 5),
])
def test_disjoint_requests_do_not_grow_the_grid(first, second):
    # the union grid has over twice the cells of the two apart: (5, 5) has
    # 36 where (5, 0) and (0, 5) have 6 each, and 2^10 = 1,024 where each
    # half has 32
    rng = np.random.default_rng(9)
    params, h = _instance(rng, len(first), 2, "standard", False)
    want = joint_cumulant(params, h, second)
    _clear()
    joint_cumulant(params, h, first)
    assert _covered(params, h) == first
    assert _same_bits(joint_cumulant(params, h, second), want)
    assert _covered(params, h) == second


def test_a_covered_request_does_no_table_work(monkeypatch):
    params, h = _instance(np.random.default_rng(2), 3, 4, "paper", False)
    kind = (2, 2, 1)
    want = {v: joint_cumulant(params, h, v) for v in itertools.product(range(3), range(3), range(2))
            if any(v)}

    def refuse(*args, **kwargs):
        raise AssertionError("table work for a covered request")

    monkeypatch.setattr(multivariate, "_tables", refuse)
    monkeypatch.setattr(multivariate, "_heads", refuse)
    other_n, _ = build(9.0, params.sigma, params.m_matrix, "paper")
    copies = [hk.copy() for hk in h]
    for v, value in want.items():
        assert _same_bits(joint_cumulant(params, copies, v), value)
        assert np.isfinite(joint_moment(other_n, h, v))
    rho, eta = _base_tables(params, h, kind)
    for table in (rho, eta):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[1, 0, 0] = 0


def test_h_is_validated_on_every_call():
    params, h = _instance(np.random.default_rng(3), 2, 3, "standard", False)
    joint_cumulant(params, h, (2, 2))
    with pytest.raises(DimensionMismatchError):
        joint_cumulant(params, [h[0], np.eye(2)], (1, 1))
    with pytest.raises(ValidationError):
        joint_cumulant(params, [h[0], [["a", "b", "c"]] * 3], (1, 1))
    with pytest.raises(ValidationError):
        joint_cumulant(params, [h[0], np.full((3, 3), np.nan)], (1, 1))


def test_the_key_is_the_content():
    params, h = _instance(np.random.default_rng(4), 2, 3, "standard", False)
    base = joint_cumulant(params, h, (2, 1))
    nudged = [h[0] * (1 + 2.0 ** -52), h[1]]
    assert not np.array_equal(nudged[0], h[0])
    keys = {multivariate._kept_tables.entry[0]}
    for other_params, other_h in ((params, nudged), (params.with_convention("paper"), h)):
        joint_cumulant(other_params, other_h, (2, 1))
        keys.add(multivariate._kept_tables.entry[0])
        assert _covered(params, h) is None
    assert len(keys) == 3
    assert _same_bits(joint_cumulant(params, h, (2, 1)), base)
    entry = multivariate._kept_tables.entry
    joint_cumulant(params, [hk.copy() for hk in h], (1, 1))
    assert multivariate._kept_tables.entry is entry


def test_the_composed_keys_are_the_content(monkeypatch):
    # the composed slots keep the levels of T, or of (Sigma, H), alone: the
    # same content under new weights composes nothing, a content nudged by
    # one ulp composes again, and every value is its cold call's
    rng = np.random.default_rng(10)
    t = random_complex(rng, 2)
    nudged_t = t * (1 + 2.0 ** -52)
    nudged_alpha = MomentSequence.from_moments(ALPHA_MOMENTS.values[1:-1] + (270.5,))
    d_powers = MomentSequence.from_moments([D ** k for k in range(1, 11)])
    # (T, weights, whether the request composes)
    requests = [(t, D, True), (t, 0.0, False), (t, -0.0, False),
                (t, D * (1 + 2.0 ** -52), False), (t, ALPHA_MOMENTS, False),
                (t, nudged_alpha, False), (t, d_powers, False), (nudged_t, D, True),
                (t, D, True)]
    cold = []
    for t_k, weights, _ in requests:
        _clear()
        cold.append(permanent_master(t_k, (2, 1), weights))
    _clear()
    built = _compositions(monkeypatch, "permanent d")
    for (t_k, weights, composes), want in zip(requests, cold):
        before = len(built)
        assert _same_bits(permanent_master(t_k, (2, 1), weights), want)
        assert len(built) == before + composes
    # a copy of the last content is a hit
    permanent_master(t.copy(), (1, 1), complex(D))
    assert len(built) == 3
    # the randomized levels are keyed by (convention, Sigma, M, H) alone
    params, h = _instance(rng, 2, 3, "paper", False)
    nudged_h = [h[0] * (1 + 2.0 ** -52), h[1]]
    other = MomentSequence.from_cumulants(ALPHA.values[1:-1] + (-0.0,))
    requests = [(ALPHA, h, True), (other, h, False), (ALPHA, h, False), (other, nudged_h, True)]
    cold = []
    for alpha, h_k, _ in requests:
        _clear()
        cold.append(joint_cumulant_randomized(alpha, params, h_k, (2, 1)))
    _clear()
    built = _compositions(monkeypatch, "randomized")
    for (alpha, h_k, composes), want in zip(requests, cold):
        before = len(built)
        assert _same_bits(joint_cumulant_randomized(alpha, params, h_k, (2, 1)), want)
        assert len(built) == before + composes


def test_a_raising_composition_leaves_the_slot_as_it_was():
    t = random_complex(np.random.default_rng(11), 2)
    want = permanent_master(t, (1, 2), 1e100)
    _clear()
    permanent_master(t, (2, 1), 1e100)
    entry = applications._kept_permanents.entry
    # a grown grid whose requested cell overflows: d^4 = 1e400
    with pytest.raises(NumericalError):
        permanent_master(t, (2, 2), 1e100)
    # new content that overflows
    with pytest.raises(NumericalError):
        permanent_master(t * 1e200, (2, 1), 1e100)
    # too few orders of alpha, refused before any table work
    with pytest.raises(InsufficientOrdersError):
        permanent_master(t, (3, 3), MomentSequence.from_moments([1.5, 2.5]))
    assert applications._kept_permanents.entry is entry
    # and the kept grid still answers its content
    assert _same_bits(permanent_master(t, (1, 2), 1e100), want)
    assert abs(want / permanent_d(repeated_matrix(t, (1, 2)), 1e100) - 1) < 1e-12


@pytest.mark.parametrize("name", COMPOSED[1:])
def test_growth_does_not_depend_on_alpha_depth(name, monkeypatch):
    # the levels take no weight, so a grid grows to the componentwise max
    # within the joint-weight budget whatever alpha's depth, and a read past
    # alpha's depth is refused before any table work
    rng = np.random.default_rng(12)
    t = random_complex(rng, 2)
    params, h = _instance(rng, 2, 3, "standard", False)
    for depth in (4, 5):
        if name == "randomized":
            alpha = MomentSequence.from_cumulants(ALPHA.values[1:depth + 1])
            call = lambda v: joint_cumulant_randomized(alpha, params, h, v)
        else:
            alpha = MomentSequence.from_moments(ALPHA_MOMENTS.values[1:depth + 1])
            call = lambda v: permanent_master(t, v, alpha)
        want = call((3, 1))
        _clear()
        call((2, 2))
        # (3, 2) has weight 5, past an alpha of depth 4, and it is kept
        assert _same_bits(call((3, 1)), want)
        assert _slot(name).entry[1] == (3, 2)
    entry = _slot(name).entry
    with monkeypatch.context() as patch:
        _refuse_table_work(patch)
        shallow = MomentSequence.from_moments(ALPHA_MOMENTS.values[1:5])
        if name == "randomized":
            shallow = MomentSequence.from_cumulants(ALPHA.values[1:5])
        for v in ((3, 2), (4, 2)):  # inside the kept grid, and past it
            with pytest.raises(InsufficientOrdersError):
                if name == "randomized":
                    joint_cumulant_randomized(shallow, params, h, v)
                else:
                    permanent_master(t, v, shallow)
    assert _slot(name).entry is entry


def test_a_permanent_session_over_three_d_composes_once(monkeypatch):
    t = random_complex(np.random.default_rng(13), 3)
    kind = (2, 2, 1)
    calls = [(kind, d) for d in (D, -1.0, 2.5)]
    calls += [(v, d) for _, d in calls
              for v in itertools.product(*(range(c + 1) for c in kind)) if any(v)]
    cold = []
    for v, d in calls:
        _clear()
        cold.append(permanent_master(t, v, d))
    _clear()
    built = _compositions(monkeypatch, "permanent d")
    for (v, d), want in zip(calls, cold):
        assert _same_bits(permanent_master(t, v, d), want), (v, d)
    assert built == [kind]


def test_randomized_cumulants_over_two_alphas_compose_once(monkeypatch):
    params, h = _instance(np.random.default_rng(14), 2, 3, "paper", False)
    other = MomentSequence.from_cumulants([2.0, -0.5, 0.75, 0.0, 1.25, 0.5])
    kind = (3, 2)
    calls = [(alpha, v) for alpha in (ALPHA, other)
             for v in [kind] + [v for v in itertools.product(range(4), range(3)) if any(v)]]
    cold = []
    for alpha, v in calls:
        _clear()
        cold.append(joint_cumulant_randomized(alpha, params, h, v))
    _clear()
    built = _compositions(monkeypatch, "randomized")
    for (alpha, v), want in zip(calls, cold):
        assert _same_bits(joint_cumulant_randomized(alpha, params, h, v), want), v
    assert built == [kind]


def test_the_memo_keeps_only_the_last_content(monkeypatch):
    built = []
    tables = multivariate._tables
    monkeypatch.setattr(multivariate, "_tables",
                        lambda *args: built.append(args[2]) or tables(*args))
    rng = np.random.default_rng(5)
    first, second = (_instance(rng, 2, 2, "standard", central) for central in (False, True))
    for instance, v in ((first, (2, 1)), (first, (1, 1)), (second, (1, 1)), (first, (1, 0))):
        joint_cumulant(*instance, v)
    assert built == [(2, 1), (1, 1), (1, 0)]
    assert _covered(*first) == (1, 0)
    assert len(multivariate._kept_tables.entry[2]) == 2


def test_a_singular_sigma_leaves_no_entry():
    rng = np.random.default_rng(6)
    h = [random_complex(rng, 2) for _ in range(2)]
    m_matrix = np.array([[1 + 1j, 2], [-1j, 3 - 1j]])
    paper, _ = build(3, np.diag([2.0, 0.0]), m_matrix, "paper")
    for route in ROUTES:
        with pytest.raises(SingularMatrixError):
            route(paper, h, (2, 1))
        assert multivariate._kept_tables.entry[0] is None
        assert multivariate._kept_randomized.entry[0] is None
    standard = paper.with_convention("standard")
    joint_cumulant(standard, h, (2, 1))
    with pytest.raises(SingularMatrixError):
        joint_cumulant(paper, h, (1, 1))
    assert _covered(standard, h) == (2, 1)


def test_concurrent_calls_get_the_cold_values():
    rng = np.random.default_rng(7)
    requests = []  # calls with no arguments
    for m, convention, central in ((2, "paper", False), (3, "standard", False),
                                   (2, "standard", True)):
        params, h = _instance(rng, m, 3, convention, central)
        kind = _random_kind(rng, m, 4, 5)
        requests += [lambda k=k, v=v, params=params, h=h: ROUTES[k % len(ROUTES)](params, h, v)
                     for k, v in enumerate(itertools.product(*(range(c + 1) for c in kind)))
                     if any(v)]
    for name in ("permanent d", "permanent alpha"):
        call = _composed(name, rng, 3)
        kind = _random_kind(rng, 3, 4, 5)
        requests += [lambda v=v, call=call: call(v)
                     for v in itertools.product(*(range(c + 1) for c in kind)) if any(v)]
    cold = []
    for request in requests:
        _clear()
        cold.append(request())
    _clear()
    order = [int(j) for j in rng.permutation(3 * len(requests)) % len(requests)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda j: requests[j](), order, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == len(order)
    assert all(_same_bits(value, cold[j]) for j, value in zip(order, got))
    for slot in (multivariate._kept_tables, multivariate._kept_randomized,
                 applications._kept_permanents):
        key, grid, arrays = slot.entry
        for a in arrays:
            # a level array has a leading axis of levels before the grid's
            assert a.shape[a.ndim - len(grid):] == tuple(c + 1 for c in grid)
            assert not a.flags.writeable


def test_the_memo_has_no_knob():
    # no public name, environment variable or CLI option sizes or switches it
    modules = (multivariate, applications, combinatorics)
    names = [name for module in modules for name in dir(module) if not name.startswith("_")]
    assert not [name for name in names + list(wishmom.__all__) if "memo" in name.lower()]
    assert not [module for module in modules if hasattr(module, "os")]
    assert not [name for name in vars(KeptGrid()) if name != "entry"]
    options = [action.dest for action in cli._build_parser()._actions]
    assert not [name for name in options if "memo" in name or "cache" in name]
