import hashlib
import math
import re
import time

import numpy as np
import pytest

from wishmom import (
    BudgetExceededError,
    DimensionMismatchError,
    InsufficientOrdersError,
    MomentSequence,
    NumericalError,
    ValidationError,
    binomial_convolution_check,
    build,
    central_cumulant,
    central_moment,
    complete_bell,
    compose_normalized_moments,
    cyclic_polynomial,
    falling_factorial,
    moment_sequence,
    noncentral_cumulant,
    noncentral_cumulant_eigen,
    noncentral_moment,
    noncentral_moment_bell,
    normalized_cumulant_moments,
    randomized_moment,
)

from brute_force import touchard
from conftest import PAPER_M, PAPER_N, PAPER_SIGMA, random_psd, rel_err


def paper_params(convention="paper"):
    params, _ = build(PAPER_N, PAPER_SIGMA, PAPER_M, convention)
    return params


def random_params(seed, p=3, n=4.0, convention="standard", central=False):
    rng = np.random.default_rng(seed)
    sigma = random_psd(rng, p)
    m = None if central else random_psd(rng, p, 0.6)
    params, _ = build(n, sigma, m, convention)
    return params


# ---------------------------------------------------------------------------
# central distribution
# ---------------------------------------------------------------------------

def test_central_moment_low_orders():
    params = random_params(0, central=True)
    t1 = params.trace_cache(2).t_power(1)
    t2 = params.trace_cache(2).t_power(2)
    n = params.n
    assert central_moment(params, 0) == 1
    assert rel_err(central_moment(params, 1), n * t1) < 1e-14
    assert rel_err(central_moment(params, 2), n ** 2 * t1 ** 2 + n * t2) < 1e-13


def test_central_moment_reads_every_cyclic_polynomial_from_one_grid():
    # one composition of T_k / k with weight 1 gives C_1 / 1!, ..., C_20 / 20!,
    # each the value of a fresh per-order `cyclic_polynomial`, and every
    # central moment is the value of composing the per-order C_j
    from wishmom import univariate
    from wishmom.combinatorics import compose_grid

    for seed, p, convention in ((0, 1, "paper"), (1, 3, "standard"), (2, 6, "paper")):
        params = random_params(seed, p=p, n=p + 1.5, convention=convention, central=True)
        cache = params.trace_cache(20)
        t = [cache.t_power(k) for k in range(1, 21)]
        per_order = [cyclic_polynomial(t[:j]) for j in range(1, 21)]
        grid = compose_grid([0.0] + [v / k for k, v in enumerate(t, 1)], (20,), lambda l: 1)
        for j in range(1, 21):
            assert rel_err(math.factorial(j) * grid[j], per_order[j - 1]) < 1e-13
        weight = lambda l: falling_factorial(params.n, l)
        for i in range(1, 21):
            table = univariate._exponential_table(per_order[:i])
            want = univariate._exponential_composition(table, i, weight, "moment")
            assert rel_err(central_moment(params, i), want) < 1e-12


def test_central_moment_past_170_is_a_number_or_an_overflow_at_once(monkeypatch):
    # no factorial is formed before the final 172!: a moment in the float
    # range is that number, one past it an overflow, both from two grid
    # compositions (CPU time, which a busy host does not inflate)
    monkeypatch.setenv("WISHMOM_MAX_BUDGET", "200")
    small, _ = build(2, np.diag([0.01, 0.02]), None, "paper")
    large, _ = build(2, np.diag([1.0, 2.0]), None, "paper")
    for params in (small, large):
        params.trace_cache(172)
    start = time.process_time()
    assert np.isfinite(central_moment(small, 172))
    with pytest.raises(NumericalError, match="central moment of order 172 overflows"):
        central_moment(large, 172)
    assert time.process_time() - start < 0.5


def test_unit_scalar_central_moments_are_factorials():
    params, _ = build(1, np.eye(1))
    for i in range(9):
        assert rel_err(central_moment(params, i), math.factorial(i)) < 1e-12


def test_central_cumulant_formula():
    params = random_params(1, central=True)
    cache = params.trace_cache(4)
    assert rel_err(central_cumulant(params, 1), params.n * cache.t_power(1)) < 1e-14
    assert rel_err(central_cumulant(params, 2), params.n * cache.t_power(2)) < 1e-14
    assert rel_err(central_cumulant(params, 4), 6 * params.n * cache.t_power(4)) < 1e-14


def test_central_bell_bridge():
    params = random_params(2, central=True)
    for i in range(1, 9):
        cums = [central_cumulant(params, k) for k in range(1, i + 1)]
        assert rel_err(complete_bell(cums), central_moment(params, i)) < 1e-11


# ---------------------------------------------------------------------------
# non-central distribution, reference fixture
# ---------------------------------------------------------------------------

def test_reference_cumulants_recomputed():
    params = paper_params()
    cum1 = noncentral_cumulant(params, 1)
    cum2 = noncentral_cumulant(params, 2)
    assert abs(cum1 - 0.09629) < 1e-5
    assert abs(cum1.imag) < 1e-12
    assert abs(cum2.real - 1.24e-3) < 1e-5
    assert abs(cum2.imag - 2.85e-4) < 1e-6


def test_reference_printed_value_regressions():
    # the printed source values carry known slips; pin the relationships
    params = paper_params()
    cache = params.trace_cache(2)
    cum1 = noncentral_cumulant(params, 1)
    # printed 0.03143 equals T1 - S1, i.e. the n factor was dropped there
    assert abs((cache.t_power(1) - cache.s_power(1)) - 0.03143) < 1e-12
    assert abs(cum1 - 0.03143) > 0.06
    # printed Cum2 imaginary 0.0028 is a tenfold decimal shift of ours
    cum2 = noncentral_cumulant(params, 2)
    assert abs(cum2.imag * 10 - 0.0028) < 1e-4
    assert abs(cum2.real - 0.0012) < 1e-4  # real part agrees as printed


def test_standard_convention_flips_noncentral_sign():
    pp = paper_params("paper")
    ps = paper_params("standard")
    cache = pp.trace_cache(3)
    for i in (1, 2, 3):
        central_part = pp.n * math.factorial(i - 1) * cache.t_power(i)
        assert rel_err(noncentral_cumulant(ps, i) + noncentral_cumulant(pp, i),
                       2 * central_part) < 1e-12


# ---------------------------------------------------------------------------
# route equivalences
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("convention", ["paper", "standard"])
@pytest.mark.parametrize("seed,p", [(3, 2), (4, 3), (5, 6), (None, 2)])
def test_eigen_route_matches_trace_route(seed, p, convention):
    if seed is None:  # a singular Sigma: the eigen route needs no Omega
        params, _ = build(3.5, np.diag([2.0, 0.0]), [[1.0, 0.5j], [0.25, 0.75]], convention)
    else:
        params = random_params(seed, p=p, convention=convention)
    for i in range(1, 7):
        assert rel_err(noncentral_cumulant_eigen(params, i),
                       noncentral_cumulant(params, i)) < 1e-8


def test_scalar_eigen_route():
    # p = 1: (i-1)! (n + sign * i * m / s) s^i
    params, _ = build(2.0, np.array([[0.5]]), np.array([[0.3]]), "paper")
    for i in range(1, 5):
        want = math.factorial(i - 1) * (2.0 - i * 0.3 / 0.5) * 0.5 ** i
        assert rel_err(noncentral_cumulant_eigen(params, i), want) < 1e-12


@pytest.mark.parametrize("convention", ["paper", "standard"])
@pytest.mark.parametrize("seed,p", [(6, 2), (7, 4)])
def test_moment_routes_agree(seed, p, convention):
    params = random_params(seed, p=p, convention=convention)
    for i in range(9):
        assert rel_err(noncentral_moment(params, i),
                       noncentral_moment_bell(params, i)) < 1e-11


def test_central_reduction():
    params = random_params(8, central=True)
    for i in range(9):
        assert rel_err(noncentral_moment(params, i), central_moment(params, i)) < 1e-11


# ---------------------------------------------------------------------------
# invariance properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_cumulant_homogeneity(convention):
    rng = np.random.default_rng(9)
    sigma = random_psd(rng, 3)
    m = random_psd(rng, 3, 0.5)
    c = 0.75
    base, _ = build(2.5, sigma, m, convention)
    scaled, _ = build(2.5, c * sigma, c * m, convention)
    for i in range(1, 7):
        assert rel_err(noncentral_cumulant(scaled, i),
                       c ** i * noncentral_cumulant(base, i)) < 1e-12
        assert rel_err(noncentral_moment(scaled, i),
                       c ** i * noncentral_moment(base, i)) < 1e-12


def test_cumulant_additivity_in_blocks():
    rng = np.random.default_rng(10)
    sigma = random_psd(rng, 3)
    m1, m2 = random_psd(rng, 3, 0.4), random_psd(rng, 3, 0.7)
    whole, _ = build(5.0, sigma, m1 + m2, "standard")
    a, _ = build(2.0, sigma, m1, "standard")
    b, _ = build(3.0, sigma, m2, "standard")
    for i in range(1, 7):
        assert rel_err(noncentral_cumulant(whole, i),
                       noncentral_cumulant(a, i) + noncentral_cumulant(b, i)) < 1e-12


def test_order_budget(monkeypatch):
    monkeypatch.delenv("WISHMOM_MAX_BUDGET", raising=False)
    params = random_params(11)
    with pytest.raises(BudgetExceededError):
        noncentral_moment(params, 21)
    with pytest.raises(BudgetExceededError):
        noncentral_cumulant(params, 21)
    # the forward expansion reads its order by the same rule
    e = MomentSequence.from_moments([1.0] * 180)
    assert np.isfinite(compose_normalized_moments(e, 2, 20))
    with pytest.raises(BudgetExceededError, match="moment order=21 exceeds budget 20"):
        compose_normalized_moments(e, 2, 21)
    monkeypatch.setenv("WISHMOM_MAX_BUDGET", "5")
    with pytest.raises(BudgetExceededError, match="set by WISHMOM_MAX_BUDGET"):
        compose_normalized_moments(e, 2, 6)
    monkeypatch.setenv("WISHMOM_MAX_BUDGET", "200")
    assert np.isfinite(compose_normalized_moments(e, 2, 60))
    # 171! is past the float range, yet only the final 171! multiplies a
    # number: e_k = 1 at p = 2 composes to the Touchard value T_171(2)
    want = float(touchard(171, 2))
    assert abs(compose_normalized_moments(e, 2, 171) - want) <= 1e-12 * want
    # a moment past the float range is an overflow, not a builtin error
    with pytest.raises(NumericalError, match="^moment of order 171 overflows"):
        compose_normalized_moments(MomentSequence.from_moments([100.0] * 171), 2, 171)


@pytest.mark.parametrize("sequence, per_order", [("moment_sequence", "noncentral_moment"),
                                                 ("cumulant_sequence", "noncentral_cumulant")])
def test_sequence_budget_is_checked_before_any_order(monkeypatch, sequence, per_order):
    # the cumulants are one per-order call each; the moments are one pass
    # of the Sheffer parts A_0..A_K, R_0..R_K, one walk per order for R_j,
    # so a sequence to order K makes the K + 1 partition walks of its
    # order-K moment alone, not one pass per order
    from wishmom import univariate

    calls = []
    if sequence == "moment_sequence":
        real = univariate.partition_sum
        monkeypatch.setattr(univariate, "partition_sum",
                            lambda *args: calls.append(args) or real(*args))
    else:
        real = getattr(univariate, per_order)
        monkeypatch.setattr(univariate, per_order,
                            lambda params, k: calls.append(k) or real(params, k))
    params = random_params(11)
    with pytest.raises(BudgetExceededError):
        getattr(univariate, sequence)(params, 25)
    assert calls == []
    if sequence == "cumulant_sequence":
        assert getattr(univariate, sequence)(params, 3).depth == 3
        assert calls == [1, 2, 3]
        return
    for k_max in (3, 20):
        calls.clear()
        assert univariate.moment_sequence(params, k_max).depth == k_max
        assert len(calls) == k_max + 1
        assert all(len(args) == 3 for args in calls)  # (partitions, R's base, R's weight)
        calls.clear()
        getattr(univariate, per_order)(params, k_max)
        assert len(calls) == k_max + 1


@pytest.mark.parametrize("route", ["moment_sequence", "noncentral_moment"])
def test_one_partition_list_per_order_feeds_both_sheffer_parts(monkeypatch, route):
    # a pass to order K enumerates the partitions of 0..K once each, K + 1
    # lists for R's walks, and none for A, which is one series pass
    from wishmom import univariate

    calls = []
    real = univariate.integer_partitions
    monkeypatch.setattr(univariate, "integer_partitions",
                        lambda j: calls.append(j) or real(j))
    params = random_params(11)
    for k_max in (1, 3, 20):
        calls.clear()
        getattr(univariate, route)(params, k_max)
        assert calls == list(range(k_max + 1))


@pytest.mark.parametrize("convention", ["paper", "standard"])
@pytest.mark.parametrize("central", [False, True])
def test_series_pass_gives_sheffer_part_a(convention, central):
    # A_0..A_20 from one series pass match the one-sum partition walk on
    # the S-table with weights sign^l, within 1e-12 of the same sum over
    # absolute values; a central law's A is the exact umbral unit
    from wishmom import univariate
    from wishmom.combinatorics import integer_partitions, partition_sum

    params = random_params(41, p=4, n=5.5, convention=convention, central=central)
    a_part, _ = univariate._sheffer_parts(params, 20)
    if central:
        assert repr(a_part) == repr([1 + 0j] + [0j] * 20)
        return
    cache = params.trace_cache(20)
    s_base = [0.0] + [cache.s_power(k) for k in range(1, 21)]
    abs_base = [abs(s) for s in s_base]
    assert repr(a_part[0]) == repr(1 + 0j)
    for j in range(1, 21):
        partitions = integer_partitions(j)
        want = partition_sum(partitions, s_base, lambda l: params.sign ** l)
        scale = partition_sum(partitions, abs_base, lambda l: 1.0).real
        assert abs(a_part[j] - want) <= 1e-12 * scale, (j, a_part[j], want)


@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_a_sheffer_pass_makes_the_same_calls_whatever_m(monkeypatch, convention):
    # a pass to order K is one series pass for A and one one-sum walk per
    # order for R, on its own list, central or not: the public calls do
    # not depend on a per-law draw of M
    from wishmom import univariate

    calls = []
    for name in ("compose_grid", "integer_partitions", "partition_sum"):
        real = getattr(univariate, name)
        monkeypatch.setattr(univariate, name, lambda *args, name=name, real=real:
                            calls.append((name, len(args))) or real(*args))
    for central in (True, False):
        params = random_params(41, p=4, n=5.5, convention=convention, central=central)
        for k_max in (1, 3, 20):
            calls.clear()
            a_part, r_part = univariate._sheffer_parts(params, k_max)
            assert len(a_part) == len(r_part) == k_max + 1
            assert calls.count(("compose_grid", 3)) == 1
            assert calls.count(("integer_partitions", 1)) == k_max + 1
            assert calls.count(("partition_sum", 3)) == k_max + 1
            assert len(calls) == 2 * k_max + 3


def test_orders_past_the_partition_walk_cap_are_rejected_before_any_walk(monkeypatch):
    # a raised order budget admits order 171, but the fixed partition-walk
    # cap rejects it from the partition counts alone, at once (CPU time)
    from wishmom import combinatorics

    monkeypatch.setenv("WISHMOM_MAX_BUDGET", "200")
    params = random_params(11)
    routes = {
        "moment of order 171": lambda: noncentral_moment(params, 171),
        "moment sequence to order 171": lambda: moment_sequence(params, 171),
        "normalized moments to order 40": lambda: normalized_cumulant_moments(params, 40),
        "binomial convolution check to order 43":
            lambda: binomial_convolution_check(params, 1.0, 2.0, 43),
        "integer_partitions(61)": lambda: combinatorics.integer_partitions(61),
    }
    for what, route in routes.items():
        start = time.process_time()
        with pytest.raises(BudgetExceededError, match=f"^{re.escape(what)} walks more than "):
            route()
        assert time.process_time() - start < 0.1


def _sheffer_digest():
    """sha256 over repr of every Sheffer-route value on four inputs: both
    conventions, central and not, p from 1 to 6."""
    digest = hashlib.sha256()
    for seed, (p, convention, central) in enumerate(
            ((1, "paper", True), (2, "standard", False), (4, "paper", False),
             (6, "standard", True))):
        params = random_params(100 + seed, p=p, n=p + 0.5, convention=convention,
                               central=central)
        values = list(moment_sequence(params, 20).values)
        values += [noncentral_moment(params, i) for i in range(1, 21)]
        values += list(normalized_cumulant_moments(params, 12).values)
        values += list(binomial_convolution_check(params, 1.5, 2.5, 20).values())
        for v in values:
            digest.update(repr(v).encode())
    return digest.hexdigest()


def test_kept_partitions_keep_every_sheffer_value_bit_for_bit(monkeypatch):
    # the kept partition lists reach `partition_sum` in the order of a fresh
    # enumeration, so every moment has the bits it has with no table
    from wishmom import combinatorics, univariate

    kept = _sheffer_digest()
    monkeypatch.setattr(univariate, "integer_partitions", combinatorics._enumerate_partitions)
    assert _sheffer_digest() == kept


@pytest.mark.parametrize("sequence", ["moment_sequence", "cumulant_sequence"])
def test_sequence_overflow_is_a_numerical_error(sequence):
    # p = 1, Sigma = M = 1e15: every Sheffer part up to order 20 is finite,
    # and only the order-20 convolution 20! sum_j A_j R_{20-j} overflows
    from wishmom import NumericalError, univariate

    params, _ = build(1, np.array([[1e15]]), np.array([[1e15]]), "standard")
    with pytest.raises(NumericalError, match="moment of order 20 overflows"):
        noncentral_moment(params, 20)
    with pytest.raises(NumericalError, match="of order 20 overflows"):
        getattr(univariate, sequence)(params, 20)


@pytest.mark.parametrize("central", [False, True])
@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_one_pass_keeps_every_per_order_bit(convention, central):
    # moment_sequence and binomial_convolution_check read their orders from
    # one pass of the Sheffer parts; each value must be the one that
    # noncentral_moment gives for its order alone, bit for bit
    from wishmom import moment_sequence

    k_max, n1, n2 = 20, 1.5, 2.5
    params = random_params(22, convention=convention, central=central)
    per_order = [noncentral_moment(params, k) for k in range(k_max + 1)]
    seq = moment_sequence(params, k_max)
    assert [seq.order(k) for k in range(k_max + 1)] == per_order

    sigma, m = params.sigma, params.m_matrix
    whole, _ = build(n1 + n2, sigma, m, convention)
    left, _ = build(n1, sigma, m, convention)
    right, _ = build(n2, sigma, np.zeros_like(m), convention)
    wm, lm, rm = ([noncentral_moment(prm, k) for k in range(k_max + 1)]
                  for prm in (whole, left, right))
    want = {}
    for i in range(1, k_max + 1):
        rhs = sum(math.comb(i, k) * lm[k] * rm[i - k] for k in range(i + 1))
        want[i] = abs(wm[i] - rhs) / max(abs(wm[i]), abs(rhs), 1e-300)
    assert binomial_convolution_check(params, n1, n2, k_max) == want


# ---------------------------------------------------------------------------
# randomized degrees of freedom
# ---------------------------------------------------------------------------

def poisson_moments(rate, depth):
    # Touchard: E[N^k] is the complete Bell polynomial at constant rate
    return MomentSequence.from_moments(
        [complete_bell([rate] * k) for k in range(1, depth + 1)])


def point_mass_moments(n, depth):
    return MomentSequence.from_moments([float(n) ** k for k in range(1, depth + 1)])


@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_randomized_point_mass_matches_fixed_draws(convention):
    # N fixed at n: n draws, each carrying the same mean row,
    # so the summed non-centrality is n * M
    rng = np.random.default_rng(12)
    sigma = random_psd(rng, 2, 0.3)
    m = random_psd(rng, 2, 0.2)
    per_draw, _ = build(1.0, sigma, m, convention)
    n = 3
    fixed, _ = build(float(n), sigma, n * m, convention)
    alpha = point_mass_moments(n, 6)
    for i in range(6):
        assert rel_err(randomized_moment(alpha, per_draw, i),
                       noncentral_moment(fixed, i)) < 1e-11


def test_randomized_poisson_against_mixture_oracle():
    rng = np.random.default_rng(13)
    sigma = random_psd(rng, 2, 0.25)
    m = random_psd(rng, 2, 0.2)
    per_draw, _ = build(1.0, sigma, m, "standard")
    rate = 2.0
    alpha = poisson_moments(rate, 5)
    for i in range(1, 5):
        mixture = 0.0
        for k in range(1, 41):
            weight = math.exp(-rate) * rate ** k / math.factorial(k)
            params_k, _ = build(float(k), sigma, k * m, "standard")
            mixture += weight * noncentral_moment(params_k, i)
        assert rel_err(randomized_moment(alpha, per_draw, i), mixture) < 1e-10


def test_randomized_first_moment_multiplicative():
    params = random_params(14, convention="standard")
    alpha = poisson_moments(1.7, 3)
    single, _ = build(1.0, params.sigma, params.m_matrix, "standard")
    assert rel_err(randomized_moment(alpha, params, 1),
                   1.7 * noncentral_moment(single, 1)) < 1e-12


def test_randomized_validation():
    params = random_params(15)
    assert randomized_moment(point_mass_moments(2, 3), params, 0) == 1
    with pytest.raises(InsufficientOrdersError):
        randomized_moment(point_mass_moments(2, 2), params, 3)
    cums = MomentSequence.from_cumulants([1.0, 2.0])
    with pytest.raises(ValidationError):
        randomized_moment(cums, params, 1)


# ---------------------------------------------------------------------------
# dimension-normalized moments
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_normalized_moments_head_and_round_trip(convention):
    params = random_params(16, convention=convention)
    seq = normalized_cumulant_moments(params, 6)
    assert rel_err(seq.order(1), noncentral_moment(params, 1) / params.p) < 1e-12
    for i in range(1, 7):
        assert rel_err(compose_normalized_moments(seq, params.p, i),
                       noncentral_moment(params, i)) < 1e-10


def test_normalized_moments_scalar_dimension():
    params = random_params(17, p=1)
    seq = normalized_cumulant_moments(params, 5)
    for i in range(1, 6):
        assert rel_err(compose_normalized_moments(seq, 1, i),
                       noncentral_moment(params, i)) < 1e-10


# ---------------------------------------------------------------------------
# convolution identities
# ---------------------------------------------------------------------------

def test_binomial_convolution_central():
    params = random_params(18, central=True)
    report = binomial_convolution_check(params, 2.0, 3.0, 5)
    assert report[1] < 1e-13  # additivity of means
    assert all(dev < 1e-11 for dev in report.values())


def test_binomial_convolution_m_split():
    rng = np.random.default_rng(19)
    sigma = random_psd(rng, 3)
    m1, m2 = random_psd(rng, 3, 0.3), random_psd(rng, 3, 0.6)
    params, _ = build(4.0, sigma, m1 + m2, "standard")
    report = binomial_convolution_check(params, 1.5, 2.5, 5, m_split=(m1, m2))
    assert all(dev < 1e-11 for dev in report.values())


def test_binomial_convolution_validation():
    params = random_params(20)
    with pytest.raises(ValidationError):
        binomial_convolution_check(params, -1.0, 2.0, 3)
    for n1, n2, name in (("3", 1.0, "n1"), (1.0, None, "n2"), (True, 1.0, "n1"),
                         (1.0, 2 + 0j, "n2"), (math.inf, 1.0, "n1")):
        with pytest.raises(ValidationError, match=f"^{name} must be a positive finite real"):
            binomial_convolution_check(params, n1, n2, 3)
    with pytest.raises(ValidationError):
        binomial_convolution_check(params, 1.0, 2.0, 3,
                                   m_split=(params.m_matrix, params.m_matrix))


def test_binomial_convolution_m_split_shape(monkeypatch):
    # a split that is not a pair of p x p matrices is rejected before any
    # parameters are built, not by numpy's broadcast or an IndexError
    from wishmom import univariate

    def no_build(*args):
        raise AssertionError("built parameters before checking m_split")

    params = random_params(20)  # p = 3
    monkeypatch.setattr(univariate, "build", no_build)
    for split in ((np.eye(2), np.eye(2)), (params.m_matrix, np.eye(2))):
        with pytest.raises(DimensionMismatchError, match="m_split M[12] shape"):
            binomial_convolution_check(params, 1.0, 2.0, 3, m_split=split)
    for split in ((np.eye(3),), (params.m_matrix, 0 * params.m_matrix, np.eye(3)), 7):
        with pytest.raises(ValidationError, match="m_split must be a pair"):
            binomial_convolution_check(params, 1.0, 2.0, 3, m_split=split)


# ---------------------------------------------------------------------------
# moment sequences
# ---------------------------------------------------------------------------

def test_moment_sequence_validation():
    with pytest.raises(ValidationError):
        MomentSequence((2.0, 1.0), "moments")
    with pytest.raises(ValidationError):
        MomentSequence((1.0,), "weird")
    seq = MomentSequence.from_moments([1.5, 2.5])
    assert seq.depth == 2 and seq.order(0) == 1
    with pytest.raises(InsufficientOrdersError):
        seq.order(3)
    # every entry is read as a finite number: no builtin error escapes, and
    # a bool or a digit string is no number
    for bad in ([10 ** 400], ["a"], [None], [[1, 2]], ["2"], [True], [np.bool_(False)],
                [math.inf], [complex(0, math.nan)]):
        for make in (MomentSequence.from_moments, MomentSequence.from_cumulants):
            with pytest.raises(ValidationError):
                make(bad)
    seq = MomentSequence.from_cumulants([2, 2.5, 1 - 1j, np.float64(3.0), np.int64(4)])
    assert [seq.order(k) for k in range(1, 6)] == [2, 2.5, 1 - 1j, 3, 4]


def test_sequence_helpers_match_scalar_ops():
    from wishmom import cumulant_sequence, moment_sequence
    params = random_params(21)
    cums = cumulant_sequence(params, 5)
    moms = moment_sequence(params, 5)
    assert cums.kind == "cumulants" and moms.kind == "moments"
    for i in range(1, 6):
        assert cums.order(i) == noncentral_cumulant(params, i)
        assert moms.order(i) == noncentral_moment(params, i)
    assert rel_err(complete_bell([cums.order(k) for k in range(1, 5)]),
                   moms.order(4)) < 1e-12
