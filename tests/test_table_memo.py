"""The joint base tables shared across calls: a one-slot memo keyed by the
content of (convention, Sigma, M, H), whose values do not depend on which
calls came before."""

import itertools
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import wishmom
from wishmom import (
    CONVENTIONS,
    DimensionMismatchError,
    MomentSequence,
    SingularMatrixError,
    ValidationError,
    build,
    eta_moment_strings,
    joint_cumulant,
    joint_cumulant_randomized,
    joint_moment,
)
from wishmom import cli, multivariate
from wishmom.multivariate import _base_tables, _directions, _heads, _tables

from conftest import random_complex, random_psd

ALPHA = MomentSequence.from_cumulants([1.5, 0.5, 0.25, 0.125, 0.75, 1.0, 0.5, 0.25, 2.0, 1.0])
ROUTES = (
    joint_moment,
    joint_cumulant,
    lambda params, h, v: joint_cumulant_randomized(ALPHA, params, h, v),
    eta_moment_strings,
)


def _clear():
    multivariate._last_tables = (None, None, None)


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


def _covered(params, h):
    """The grid the slot holds for this content, or None."""
    key, rho, eta = multivariate._last_tables
    if key != (params.convention, params.sigma.tobytes(), params.m_matrix.tobytes(),
               *(np.asarray(hk, dtype=complex).tobytes() for hk in h)):
        return None
    assert rho.shape == eta.shape
    return tuple(s - 1 for s in rho.shape)


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


@pytest.mark.parametrize("kind", [(3, 3, 3), (1,) * 6, (2, 2, 1, 1, 1)])
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
    keys = {multivariate._last_tables[0]}
    for other_params, other_h in ((params, nudged), (params.with_convention("paper"), h)):
        joint_cumulant(other_params, other_h, (2, 1))
        keys.add(multivariate._last_tables[0])
        assert _covered(params, h) is None
    assert len(keys) == 3
    assert _same_bits(joint_cumulant(params, h, (2, 1)), base)
    key = multivariate._last_tables[0]
    joint_cumulant(params, [hk.copy() for hk in h], (1, 1))
    assert multivariate._last_tables[0] is key


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
    assert len(multivariate._last_tables) == 3


def test_a_singular_sigma_leaves_no_entry():
    rng = np.random.default_rng(6)
    h = [random_complex(rng, 2) for _ in range(2)]
    m_matrix = np.array([[1 + 1j, 2], [-1j, 3 - 1j]])
    paper, _ = build(3, np.diag([2.0, 0.0]), m_matrix, "paper")
    for route in ROUTES:
        with pytest.raises(SingularMatrixError):
            route(paper, h, (2, 1))
        assert multivariate._last_tables == (None, None, None)
    standard = paper.with_convention("standard")
    joint_cumulant(standard, h, (2, 1))
    with pytest.raises(SingularMatrixError):
        joint_cumulant(paper, h, (1, 1))
    assert _covered(standard, h) == (2, 1)


def test_concurrent_calls_get_the_cold_values():
    rng = np.random.default_rng(7)
    requests = []
    for m, convention, central in ((2, "paper", False), (3, "standard", False),
                                   (2, "standard", True)):
        params, h = _instance(rng, m, 3, convention, central)
        kind = _random_kind(rng, m, 4, 5)
        requests += [(k % len(ROUTES), params, h, v) for k, v in enumerate(
            itertools.product(*(range(c + 1) for c in kind))) if any(v)]
    cold = []
    for k, params, h, v in requests:
        _clear()
        cold.append(ROUTES[k](params, h, v))
    _clear()
    order = [int(j) for j in rng.permutation(3 * len(requests)) % len(requests)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda j: ROUTES[requests[j][0]](*requests[j][1:]), order,
                                timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == len(order)
    assert all(_same_bits(value, cold[j]) for j, value in zip(order, got))
    key, rho, eta = multivariate._last_tables
    assert rho.shape == eta.shape and not rho.flags.writeable and not eta.flags.writeable


def test_the_memo_has_no_knob():
    # no public name, environment variable or CLI option sizes or switches it
    names = [name for name in dir(multivariate) if not name.startswith("_")]
    assert not [name for name in names + list(wishmom.__all__) if "memo" in name.lower()]
    assert not hasattr(multivariate, "os")
    options = [action.dest for action in cli._build_parser()._actions]
    assert not [name for name in options if "memo" in name or "cache" in name]
