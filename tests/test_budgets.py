"""The one reading of a request's integers (`budgets.integer`), through
every entry point that takes an order, an index, a count, a size or a
seed, and the one reading of its degrees of freedom and sign convention."""

import itertools
import math
import re

import numpy as np
import pytest

from wishmom import (
    BudgetExceededError,
    CyclePermutation,
    DimensionMismatchError,
    IntegerPartition,
    MomentSequence,
    MultiIndexPartition,
    Necklace,
    PolykaySample,
    RngStream,
    SingularMatrixError,
    ValidationError,
    WishartParams,
    binomial_convolution_check,
    build,
    central_cumulant,
    central_moment,
    complete_homogeneous,
    compose_normalized_moments,
    cumulant_sequence,
    estimate_joint_moment,
    estimate_trace_cumulants,
    falling_factorial,
    haar_compression,
    haar_power_sums,
    haar_unitary,
    integer_partitions,
    joint_cumulant,
    joint_moment,
    moment_sequence,
    noncentral_cumulant,
    noncentral_cumulant_eigen,
    noncentral_moment,
    noncentral_moment_bell,
    normalized_cumulant_moments,
    partition_coefficients,
    permanent_master,
    permutations_by_cycles,
    polykay,
    randomized_moment,
    repeated_matrix,
)
from wishmom.budgets import convention, integer, integer_tuple, positive_real

from conftest import random_complex, random_psd

_RNG = np.random.default_rng(13)
_PARAMS, _ = build(3, random_psd(_RNG, 2) + np.eye(2), random_psd(_RNG, 2, 0.5), "standard")
_ALPHA = MomentSequence.from_moments([1.5, 2.5, 4.0])
_T = random_complex(_RNG, 2)
_X = np.diag([1.0, 2.0, 3.0])
_SAMPLE = PolykaySample(4, (1.0, 2.0, 3.0, 4.0))

# each entry point with the integer argument under test as v; a random
# stream is made afresh per call, so equal arguments give equal draws
_ENTRY_POINTS = {
    "noncentral_moment": lambda v: noncentral_moment(_PARAMS, v),
    "central_moment": lambda v: central_moment(_PARAMS, v),
    "noncentral_moment_bell": lambda v: noncentral_moment_bell(_PARAMS, v),
    "noncentral_cumulant": lambda v: noncentral_cumulant(_PARAMS, v),
    "noncentral_cumulant_eigen": lambda v: noncentral_cumulant_eigen(_PARAMS, v),
    "central_cumulant": lambda v: central_cumulant(_PARAMS, v),
    "moment_sequence": lambda v: moment_sequence(_PARAMS, v),
    "cumulant_sequence": lambda v: cumulant_sequence(_PARAMS, v),
    "normalized_cumulant_moments": lambda v: normalized_cumulant_moments(_PARAMS, v),
    "randomized_moment": lambda v: randomized_moment(_ALPHA, _PARAMS, v),
    "compose_normalized_moments p": lambda v: compose_normalized_moments(_ALPHA, v, 2),
    "compose_normalized_moments i": lambda v: compose_normalized_moments(_ALPHA, 2, v),
    "binomial_convolution_check": lambda v: binomial_convolution_check(_PARAMS, 1.0, 2.0, v),
    "repeated_matrix": lambda v: repeated_matrix(_T, (v, 1)),
    "haar_compression": lambda v: haar_compression(_X, v, RngStream(1)),
    "haar_power_sums m": lambda v: haar_power_sums(_X, v, 3, RngStream(1)),
    "haar_power_sums count": lambda v: haar_power_sums(_X, 2, v, RngStream(1)),
    "haar_unitary": lambda v: haar_unitary(v, RngStream(1)),
    "RngStream seed": lambda v: (RngStream(v), RngStream(v).generator().standard_normal(2)),
    "RngStream stream_id": lambda v: (RngStream(1, v),
                                      RngStream(1, v).generator().standard_normal(2)),
    "estimate_trace_cumulants": lambda v: estimate_trace_cumulants(
        _PARAMS, v, 100, RngStream(1)),
    "polykay": lambda v: polykay(_SAMPLE, v),
    "PolykaySample": lambda v: PolykaySample(v, (1.0, 2.0, 3.0, 4.0)),
    "MomentSequence.order": lambda v: _ALPHA.order(v),
    "permutations_by_cycles": lambda v: list(permutations_by_cycles(v)),
    "integer_partitions": lambda v: integer_partitions(v),
    "falling_factorial": lambda v: falling_factorial(5, v),
    "complete_homogeneous": lambda v: complete_homogeneous([1.0, 2.0], v),
    "joint_moment": lambda v: joint_moment(_PARAMS, [np.eye(2)], (v,)),
    "partition_coefficients": lambda v: partition_coefficients(IntegerPartition((2,)), v),
    "IntegerPartition": lambda v: IntegerPartition((v, 1)),
    "MultiIndexPartition": lambda v: MultiIndexPartition(((0, 1), (v, 0)), (1, v)),
    "CyclePermutation": lambda v: CyclePermutation(((3,), (v, 1))),
    "Necklace": lambda v: Necklace((1, v), (1, 1), v, 1),
    "WishartParams.trace_cache": lambda v: WishartParams(3, np.eye(2)).trace_cache(v),
}


def _bits(value):
    """The exact bits of a result, and its type: equal only for results
    that are identical bit for bit (repr round-trips every float)."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [_bits(v) for v in value]
    return repr(value)


@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_every_integer_argument_is_read_by_one_rule(entry):
    # 2.0 and a numpy integer count as 2; a bool is not counted, 2.5 not
    # truncated, a digit string not parsed, and none of them reaches
    # Python's or numpy's own TypeError or ValueError
    run = _ENTRY_POINTS[entry]
    want = _bits(run(2))
    for same in (2.0, np.int64(2)):
        assert _bits(run(same)) == want, same
    for bad in (True, 2.5, -1, "2", None, math.inf):
        with pytest.raises(ValidationError):
            run(bad)


def test_the_rule_reads_integral_values_and_names_the_argument():
    assert integer(np.float32(3.0), "k") == 3 and type(integer(np.int8(3), "k")) is int
    assert integer_tuple([2.0, np.uint8(0), 7], "kind") == (2, 0, 7)
    for bad in (np.bool_(True), math.nan, 1 + 0j, "", b"2"):
        with pytest.raises(ValidationError, match="^k must be a non-negative integer"):
            integer(bad, "k")
    for bad in ("12", "", 3, None, [1, "2"]):
        with pytest.raises(ValidationError, match="^kind must be a list"):
            integer_tuple(bad, "kind")


def test_degrees_of_freedom_are_read_by_one_rule():
    assert positive_real(3, "n") == positive_real(np.int64(3), "n") == 3.0
    assert type(positive_real(np.float32(0.5), "n")) is float
    for bad in (True, np.bool_(True), "3", 3 + 0j, None, 0, -1.5, math.inf, math.nan,
                10 ** 400, [3]):
        with pytest.raises(ValidationError, match="^n must be a positive finite real"):
            positive_real(bad, "n")


def test_a_sign_convention_is_read_by_one_rule():
    assert [convention(c) for c in ("paper", "standard")] == ["paper", "standard"]
    sigma = np.eye(2)
    for bad in ("sideways", "Paper", "", 3, None, True, ["paper"], {"paper": 1}):
        message = f"convention must be one of ('paper', 'standard'): {bad!r}"
        with pytest.raises(ValidationError) as read:
            convention(bad)
        with pytest.raises(ValidationError) as built:
            WishartParams(3, sigma, None, bad)
        assert str(read.value) == str(built.value) == message


@pytest.mark.parametrize("override", [None, "1000000000000"])
def test_the_monte_carlo_cap_is_fixed(monkeypatch, override):
    # a cost, not an order: the order budgets' variable does not raise it
    from wishmom import BudgetExceededError, budgets

    monkeypatch.delenv("WISHMOM_MAX_BUDGET", raising=False)
    if override:
        monkeypatch.setenv("WISHMOM_MAX_BUDGET", override)
    cap = budgets.MAX_MC_VARIATES
    assert budgets.check_mc_variates(cap, "a call") == cap
    with pytest.raises(BudgetExceededError,
                       match=f"^a call draws {cap + 1} random variates, over the "
                             f"Monte Carlo cap {cap}$"):
        budgets.check_mc_variates(cap + 1, "a call")


@pytest.mark.parametrize("override", [None, "1000000000000"])
def test_the_partition_walk_cap_is_fixed(monkeypatch, override):
    # a cost, like the Monte Carlo cap: counted from p(i) before the
    # enumeration, and the order budgets' variable does not raise it
    from wishmom import budgets

    monkeypatch.delenv("WISHMOM_MAX_BUDGET", raising=False)
    if override:
        monkeypatch.setenv("WISHMOM_MAX_BUDGET", override)
    cap = budgets.MAX_PARTITION_WALK
    # Euler's pentagonal recurrence, up to the first p(k) over the cap,
    # against the enumeration and p(60), p(61) of OEIS A000041
    numbers = budgets._PARTITION_NUMBERS
    assert list(numbers[:31]) == [len(integer_partitions(j)) for j in range(31)]
    assert numbers[60:] == (966467, 1121505)
    walk = budgets.check_partition_walk
    walk((60,), "p(60)")  # 966,467
    message = f"^{{}} walks more than {cap} integer partitions, over the partition-walk cap$"
    for orders, what in (((61,), "p(61)"), (itertools.repeat(0), "endless empty partitions"),
                         ((10 ** 12,), "p(10^12)")):
        with pytest.raises(BudgetExceededError, match=message.format(re.escape(what))):
            walk(orders, what)


@pytest.mark.parametrize("override", ["200", "1000000000000"])
def test_the_sheffer_pass_rule_is_fixed(monkeypatch, override):
    # the order, read by the moment budget, then the partition-walk cap on
    # the passes, each to order K walking p(0) + ... + p(K) partitions:
    # the variable raises the order, not the cap
    from wishmom import budgets

    monkeypatch.setenv("WISHMOM_MAX_BUDGET", override)
    cap, top = budgets.MAX_PARTITION_WALK, int(override)
    walks = budgets._SHEFFER_WALKS
    assert list(walks) == [sum(budgets._PARTITION_NUMBERS[:k + 1]) for k in range(len(walks))]
    assert walks[20] == 2714  # one pass at the default moment budget
    rule = budgets.check_sheffer_passes
    every, three = (lambda k: range(1, k + 1)), (lambda k: (k,) * 3)
    assert rule(48, "a pass to") == 48  # 918,220
    assert rule(39, "passes to", every) == 39  # 963,319
    assert rule(42, "three passes to", three) == 42  # 939,195
    message = f"^{{}} walks more than {cap} integer partitions, over the partition-walk cap$"
    for order, what, passes in ((49, "a pass to", None), (40, "passes to", every),
                                (43, "three passes to", three), (top, "a pass to", None),
                                (0, "endless passes to", itertools.repeat)):
        named = re.escape(f"{what} order {order}")
        with pytest.raises(BudgetExceededError, match=message.format(named)):
            rule(order, what) if passes is None else rule(order, what, passes)
    with pytest.raises(BudgetExceededError, match=f"^moment order={top + 1} exceeds budget"):
        rule(top + 1, "a pass to")


@pytest.mark.parametrize("override", [None, "200"])
def test_the_multiindex_walk_cap_is_fixed(monkeypatch, override):
    # counted from the index alone before any walk, only above the default
    # joint weight, and the order budgets' variable does not raise it
    import time

    from wishmom import budgets, multiindex_partitions

    monkeypatch.delenv("WISHMOM_MAX_BUDGET", raising=False)
    if override:
        monkeypatch.setenv("WISHMOM_MAX_BUDGET", override)
    cap = budgets.MAX_MULTIINDEX_WALK
    over = budgets._multiindex_partitions_over
    # the count against the enumeration, on both sides of it
    for t in itertools.chain.from_iterable(
            itertools.product(range(4), repeat=m) for m in range(1, 4)):
        count = len(multiindex_partitions(t))
        assert over(t, count - 1) and not over(t, count), t
    assert not over((1,) * 5, 52) and over((1,) * 5, 51)  # Bell(5)
    # every index within the default joint weight fits: Bell(10) is the most
    assert not over((1,) * 10, 115975) and over((1,) * 10, 115974)
    assert cap >= 115975
    walk = budgets.check_multiindex_walk
    walk((1,) * 10)  # Bell(10)
    walk((5, 5, 5))  # 58,616
    message = (f"^index {{}} has more than {cap} multi-index partitions, "
               "over the multi-index walk cap$")
    for t in ((6, 6, 6), (7, 7, 7), (1,) * 11, (30, 30), (10 ** 12,), (1,) * 10 ** 5):
        start = time.process_time()
        with pytest.raises(BudgetExceededError) as raised:
            walk(t)
        assert time.process_time() - start < 0.5
        assert re.match(message.format(re.escape(str(t))), str(raised.value))
    if override:
        # the enumerator, the joint moment and the joint-moment rule give
        # one rejection, worded for the index alone
        want = "index (7, 7, 7) has more than 115975 multi-index partitions"
        for call in (lambda: multiindex_partitions((7, 7, 7)),
                     lambda: joint_moment(build(3, np.eye(2))[0], [np.eye(2)] * 3, (7, 7, 7)),
                     lambda: budgets.check_joint_moment((7, 7, 7))):
            with pytest.raises(BudgetExceededError, match=re.escape(want)):
                call()


def test_joint_moment_counts_its_partitions_once(monkeypatch):
    # the count inside `multiindex_partitions` is the call's one count, an
    # index over the cap is rejected before any table is built, and a
    # wrong direction or a singular Sigma under "paper" before the walk
    from wishmom import budgets, multivariate

    monkeypatch.setenv("WISHMOM_MAX_BUDGET", "200")
    counted = []
    count = budgets._multiindex_partitions_over
    monkeypatch.setattr(budgets, "_multiindex_partitions_over",
                        lambda t, cap: counted.append(t) or count(t, cap))
    params, h = build(3, np.eye(2))[0], [np.eye(2)] * 3
    joint_moment(params, h, (4, 4, 3))
    assert counted == [(4, 4, 3)]

    def refuse(*args):
        raise AssertionError("work on a rejected request")

    monkeypatch.setattr(multivariate, "_tables", refuse)
    with pytest.raises(BudgetExceededError, match="multi-index walk cap"):
        joint_moment(params, h, (6, 6, 6))
    monkeypatch.setattr(multivariate, "multiindex_partitions", refuse)
    with pytest.raises(DimensionMismatchError, match="must match params dimension"):
        joint_moment(params, [np.eye(3)] * 3, (4, 4, 3))
    singular = build(3, np.diag([1.0, 0.0]), np.diag([0.0, 0.5]), "paper")[0]
    with pytest.raises(SingularMatrixError):
        joint_moment(singular, h, (4, 4, 3))


def test_a_wrong_length_index_is_one_dimension_mismatch(tmp_path):
    # three entries against two directions (or a 2 x 2 matrix): one reader,
    # `budgets.multi_index`, for every route and the CLI
    import json

    from wishmom.cli import run

    message = "index has 3 components, expected 2"
    h, t = [np.eye(2), np.eye(2)], np.eye(2)
    for call in (lambda: joint_moment(_PARAMS, h, (1, 1, 1)),
                 lambda: joint_cumulant(_PARAMS, h, (1, 1, 1)),
                 lambda: permanent_master(t, (1, 1, 1), 1.0),
                 lambda: repeated_matrix(t, (1, 1, 1)),
                 lambda: estimate_joint_moment(_PARAMS, h, (1, 1, 1), 10, RngStream(1))):
        with pytest.raises(DimensionMismatchError) as raised:
            call()
        assert str(raised.value) == message
    path = tmp_path / "joint.json"
    eye = {"re": np.eye(2).tolist()}
    path.write_text(json.dumps({"n": 3, "sigma": eye, "h": [eye, eye]}))
    assert run(["joint-moments", str(path), "--index", "1,1,1"]) == (
        2, f"validation error: {message}\n")


def test_the_budget_variable_is_a_plain_decimal(monkeypatch):
    from wishmom import budgets

    monkeypatch.setenv("WISHMOM_MAX_BUDGET", "4")
    assert budgets.check_moment_order(4) == 4
    with pytest.raises(BudgetExceededError, match="set by WISHMOM_MAX_BUDGET"):
        budgets.check_moment_order(5)
    monkeypatch.setenv("WISHMOM_MAX_BUDGET", "0")
    assert budgets.check_moment_order(0) == 0
    for bad in ("-1", " 1_0 ", "10 ", "+4", "1.5", "ten", "", "0x10", "\u0664",
                "9" * 5000):
        monkeypatch.setenv("WISHMOM_MAX_BUDGET", bad)
        with pytest.raises(ValidationError,
                           match="^WISHMOM_MAX_BUDGET must be a non-negative decimal integer"):
            budgets.check_moment_order(1)
