import math

import numpy as np
import pytest

import wishmom.model
from wishmom import (
    BudgetExceededError,
    DimensionMismatchError,
    NotHermitianError,
    SingularMatrixError,
    ValidationError,
    build,
    cumulant_sequence,
    noncentral_moment_bell,
    noncentrality,
    normalized_cumulant_moments,
)

from wishmom.budgets import MAX_UNIVARIATE_ORDER
from wishmom.model import DEFAULT_DEPTH

from brute_force import product_trace, trace_cache_by_powers
from conftest import PAPER_M, PAPER_N, PAPER_SIGMA, random_complex, random_psd, rel_err


def test_central_cache_s_vanishes():
    params, _ = build(4, PAPER_SIGMA, None)
    assert all(s == 0 for s in params.trace_cache(14).s)


def test_paper_cache_values():
    _, cache = build(PAPER_N, PAPER_SIGMA, PAPER_M)
    assert abs(cache.s_power(1) - 0.001) < 1e-15
    assert abs(cache.s_power(2) - (5.734e-4 - 1.425e-4j)) < 1e-6
    assert abs(cache.t_power(1) - 0.03243) < 1e-15


def test_scaled_identity_cache():
    c = 0.5 - 0.0j
    _, cache = build(2, c.real * np.eye(4), None)
    for i in range(1, 6):
        assert abs(cache.t_power(i) - 4 * c ** i) < 1e-15


def test_s_matches_omega_route():
    rng = np.random.default_rng(0)
    sigma = random_psd(rng, 4)
    m = random_psd(rng, 4)
    params, cache = build(3, sigma, m)
    omega = noncentrality(params)
    for i in range(1, 7):
        via_omega = product_trace([omega] + [sigma] * i)
        assert rel_err(via_omega, cache.s_power(i)) < 1e-9


def test_convention_does_not_change_caches():
    params, cache_p = build(PAPER_N, PAPER_SIGMA, PAPER_M, "paper")
    _, cache_s = build(PAPER_N, PAPER_SIGMA, PAPER_M, "standard")
    assert cache_p == cache_s
    flipped = params.with_convention("standard")
    assert flipped.sign == 1.0 and params.sign == -1.0
    assert flipped.trace_cache(16) == params.trace_cache(16)


def test_paper_noncentrality_entry():
    params, _ = build(PAPER_N, PAPER_SIGMA, PAPER_M)
    omega = params.noncentrality()
    assert abs(omega[0, 0] - (-5.16 - 7.45j)) < 2e-2
    assert params.noncentrality() is omega  # cached


def test_noncentrality_trivial_cases():
    params, _ = build(2, PAPER_SIGMA, None)
    assert np.abs(params.noncentrality()).max() == 0
    m = np.diag([1.0, 2.0, 3.0]).astype(complex)
    params, _ = build(2, np.eye(3), m)
    assert np.allclose(params.noncentrality(), m)


def test_validation_errors():
    with pytest.raises(NotHermitianError):
        build(1, np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(DimensionMismatchError):
        build(1, np.eye(2), np.eye(3))
    with pytest.raises(ValidationError):
        build(0, np.eye(2))
    # n is read by one rule: not parsed from a string, not counted from a
    # bool, and a complex does not escape as Python's own TypeError
    for bad in ("3", True, 3 + 0j, None, math.nan, -1.0):
        with pytest.raises(ValidationError, match="^n must be a positive finite real"):
            build(bad, np.eye(2))
    assert build(np.int64(3), np.eye(2))[0].n == build(3.0, np.eye(2))[0].n == 3.0
    with pytest.raises(ValidationError):
        build(1, np.eye(2), None, "weird")


def test_non_hermitian_m_flagged_not_rejected():
    params, _ = build(PAPER_N, PAPER_SIGMA, PAPER_M)
    assert not params.m_is_hermitian
    params2, _ = build(2, np.eye(2), np.eye(2))
    assert params2.m_is_hermitian


def test_singular_sigma_keeps_univariate_paths():
    sigma = np.diag([1.0, 0.0]).astype(complex)
    m = np.eye(2, dtype=complex)
    params, cache = build(2, sigma, m)
    assert cache.t_power(2) == 1.0  # caches fine
    with pytest.raises(SingularMatrixError):
        params.noncentrality()


def test_cache_extension_monotone():
    params, cache = build(2, PAPER_SIGMA, PAPER_M)
    assert cache.depth == DEFAULT_DEPTH
    deeper = params.trace_cache(DEFAULT_DEPTH + 5)
    assert deeper.depth == DEFAULT_DEPTH + 5
    assert deeper.t[:DEFAULT_DEPTH] == cache.t
    assert params.trace_cache(2).depth == DEFAULT_DEPTH + 5  # kept


@pytest.mark.parametrize("p", range(1, 9))
def test_cache_is_the_per_power_loop(p):
    # the stacked pass gives the bits of one power and one trace at a time
    rng = np.random.default_rng(p)
    sigma = random_psd(rng, p)
    for m in (random_complex(rng, p), np.zeros((p, p), dtype=complex)):
        params, _ = build(2, sigma, m)
        cache = params.trace_cache(MAX_UNIVARIATE_ORDER)
        assert (cache.t, cache.s) == trace_cache_by_powers(
            params.sigma, params.m_matrix, MAX_UNIVARIATE_ORDER)


@pytest.mark.parametrize("sequence", [
    cumulant_sequence, normalized_cumulant_moments, noncentral_moment_bell])
def test_sequences_extend_the_cache_once(sequence, monkeypatch):
    # a per-order loop extends the cache to its top order before it loops,
    # not once per order beyond DEFAULT_DEPTH
    params, _ = build(PAPER_N, PAPER_SIGMA, PAPER_M)
    calls = []

    def counting(*args):
        calls.append(args[-1])
        return compute(*args)

    compute = wishmom.model._compute_cache
    monkeypatch.setattr(wishmom.model, "_compute_cache", counting)
    sequence(params, 20)
    assert calls == [20]


def test_depths_are_read_by_the_integer_rule():
    # not Python's TypeError from range(), outside the package's errors
    params, _ = build(2, PAPER_SIGMA, PAPER_M)
    with pytest.raises(ValidationError, match="moment order"):
        params.trace_cache(13.5)
    assert params.trace_cache(np.int64(13)).depth == 13


def test_trace_cache_depth_is_budgeted(monkeypatch):
    # a depth is a moment order: one budget caps both, and moves with the
    # override
    params, _ = build(2, PAPER_SIGMA, PAPER_M)
    assert params.trace_cache(MAX_UNIVARIATE_ORDER).depth == MAX_UNIVARIATE_ORDER
    with pytest.raises(BudgetExceededError, match="moment order"):
        params.trace_cache(MAX_UNIVARIATE_ORDER + 1)
    with pytest.raises(BudgetExceededError):
        params.trace_cache(10 ** 5)
    monkeypatch.setenv("WISHMOM_MAX_BUDGET", "4")
    with pytest.raises(BudgetExceededError, match="WISHMOM_MAX_BUDGET"):
        params.trace_cache(5)
    assert params.trace_cache(4).depth == MAX_UNIVARIATE_ORDER  # already deeper


def test_params_are_read_only():
    params, _ = build(2, PAPER_SIGMA, PAPER_M)
    with pytest.raises(ValueError):
        params.sigma[0, 0] = 1.0


def test_noncentrality_racing_readers_share_one_value():
    import threading

    params, _ = build(2, PAPER_SIGMA, PAPER_M)
    seen = []
    barrier = threading.Barrier(8)

    def worker():
        barrier.wait()
        seen.append(params.noncentrality())
        seen.append(params.trace_cache(20))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    omegas = [s for s in seen if isinstance(s, np.ndarray)]
    assert all(o is omegas[0] for o in omegas)
    caches = [s for s in seen if not isinstance(s, np.ndarray)]
    assert all(c.depth >= 20 for c in caches)


def test_central_params_share_one_read_only_zero():
    import gc
    import tracemalloc

    from wishmom import RngStream, binomial_convolution_check, estimate_trace_cumulants
    from wishmom.mc import sample_wishart

    p = 8
    sigma = random_psd(np.random.default_rng(30), p) + 0.1 * np.eye(p)
    params, _ = build(3, sigma)
    zero = params.m_matrix
    assert zero.shape == (p, p) and not zero.flags.writeable
    assert zero.tobytes() == np.zeros((p, p), dtype=complex).tobytes()
    with pytest.raises(ValueError):
        zero[0, 0] = 1.0
    # an explicit +0 M and the other convention's copy hold the same zero,
    # with the values of the one they copy
    standard = params.with_convention("standard")
    for other in (build(3, sigma, np.zeros((p, p)))[0], standard):
        assert other.is_central and other.m_matrix is zero
    assert cumulant_sequence(standard, 6) == cumulant_sequence(build(3, sigma, None, "standard")[0], 6)
    # a -0 entry is not +0: that M keeps its own bytes
    signed = build(3, sigma, -0.0 * np.eye(p))[0]
    assert signed.is_central and signed.m_matrix is not zero
    assert signed.m_matrix.tobytes() == np.array(-0.0 * np.eye(p), dtype=complex).tobytes()
    # 1,000 central parameter sets hold no p x p zero and no lock of their
    # own: about 1,850 bytes a set at p = 8, where a dense zero would add
    # 1,024 bytes and a lock of its own about 115 (the bound allows 32%
    # over the 1,850)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [build(3, sigma)[0] for _ in range(1000)]
        gc.collect()
        per_set = (tracemalloc.get_traced_memory()[0] - before) / len(kept)
    finally:
        tracemalloc.stop()
    assert per_set < 2440, per_set
    # the default split puts a central second block on the shared zero,
    # with the bits of an explicit zero split
    noncentral, _ = build(3, sigma, 0.3 * random_psd(np.random.default_rng(31), p))
    split = (noncentral.m_matrix, np.zeros((p, p)))
    assert (repr(binomial_convolution_check(noncentral, 1.5, 2.5, 8))
            == repr(binomial_convolution_check(noncentral, 1.5, 2.5, 8, m_split=split)))
    # the central samplers draw no mean rows: zero means give the same bits
    draw = sample_wishart(params, rng=np.random.default_rng(5))
    assert np.array_equal(draw, sample_wishart(params, np.zeros((3, p)), np.random.default_rng(5)))
    estimates = estimate_trace_cumulants(params, 3, 2000, RngStream(7))
    again = estimate_trace_cumulants(params.with_convention("paper"), 3, 2000, RngStream(7))
    assert repr(estimates) == repr(again)
