import math
import tracemalloc

import numpy as np
import pytest

from wishmom import (
    CyclePermutation,
    DimensionMismatchError,
    Estimate,
    NonIntegerNError,
    NotHermitianError,
    NotPSDError,
    RngStream,
    ValidationError,
    build,
    central_moment,
    central_product_moment,
    distribution_identity_check,
    estimate_generalized_moment,
    estimate_joint_moment,
    estimate_trace_cumulants,
    haar_compression,
    haar_power_sums,
    haar_unitary,
    noncentral_cumulant,
    polykay,
    sample_wishart,
)
from wishmom.mc import (
    _CHUNK_ENTRIES,
    _HAAR_CHUNK,
    _estimate,
    _gram,
    _mean_rows,
    _power_sums,
    _psd_factor,
    _row_batches,
    _row_direction_traces,
    _trace_batches,
    _trace_law,
)

from conftest import random_complex, random_hermitian, random_psd


def standard_params(seed, p=2, n=4, central=False, scale=1.0):
    rng = np.random.default_rng(seed)
    sigma = random_psd(rng, p, scale)
    m = None if central else random_psd(rng, p, 0.5 * scale)
    params, _ = build(n, sigma, m, "standard")
    return params


# ---------------------------------------------------------------------------
# streams and estimates
# ---------------------------------------------------------------------------

def test_reproducibility_bit_exact():
    params = standard_params(0)
    h = [np.eye(2)]
    a = estimate_joint_moment(params, h, (2,), 5000, RngStream(7, 3))
    b = estimate_joint_moment(params, h, (2,), 5000, RngStream(7, 3))
    assert a == b
    c = estimate_joint_moment(params, h, (2,), 5000, RngStream(7, 4))
    assert c.mean != a.mean


def test_stream_independence_cross_correlation():
    params = standard_params(1, central=True)
    n_draws = 4000
    traces = []
    for sid in (0, 1):
        gen = RngStream(11, sid).generator()
        vals = []
        for w in _batches(params, gen, n_draws):
            vals.append(np.einsum("saa->s", w).real)
        traces.append(np.concatenate(vals))
    a, b = traces
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) <= 4 / math.sqrt(n_draws)


def _batches(params, gen, n, means=None):
    """Stacked draws W = X^H X, one chunk of rows at a time."""
    return (_gram(x) for x in _row_batches(params, means, gen, n))


def test_welford_merge_matches_single_pass():
    rng = np.random.default_rng(2)
    values = rng.normal(size=10_000) + 1j * rng.normal(size=10_000)
    merged = Estimate(0j, 0.0, 0)
    for chunk in np.array_split(values, 7):
        merged = merged.merge(_estimate(chunk))
    single = _estimate(values)
    assert abs(merged.mean - single.mean) <= 1e-12 * abs(single.mean)
    assert abs(merged.std_error - single.std_error) <= 1e-12 * single.std_error
    assert merged.n_samples == single.n_samples


def test_estimate_merge_associative():
    parts = [Estimate(1.0 + 1.0j, 0.1, 50), Estimate(2.0, 0.2, 80),
             Estimate(0.5 - 1.0j, 0.05, 30)]
    left = parts[0].merge(parts[1]).merge(parts[2])
    right = parts[0].merge(parts[1].merge(parts[2]))
    assert abs(left.mean - right.mean) < 1e-12
    assert abs(left.std_error - right.std_error) < 1e-12


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sampler_mean_matches_model():
    params = standard_params(3, p=2, n=4)
    gen = RngStream(5).generator()
    total = np.zeros((2, 2), dtype=complex)
    n_draws = 30_000
    for w in _batches(params, gen, n_draws):
        total += w.sum(axis=0)
    mean = total / n_draws
    want = params.n * params.sigma + params.m_matrix
    scatter = 4 * np.abs(want).max() / math.sqrt(n_draws)
    assert np.abs(mean - want).max() < scatter * 4


def test_scalar_central_trace_mean_and_variance():
    params, _ = build(5, np.eye(1), None, "standard")
    gen = RngStream(6).generator()
    vals = []
    for w in _batches(params, gen, 40_000):
        vals.append(np.einsum("saa->s", w).real)
    tr = np.concatenate(vals)
    assert abs(tr.mean() - 5) < 4 * tr.std() / math.sqrt(tr.size)
    # complex chi-square: variance n
    assert abs(tr.var() - 5) < 0.2


def test_sampler_validation():
    sigma = np.eye(2)
    params, _ = build(2.5, sigma, None, "standard")
    with pytest.raises(NonIntegerNError):
        sample_wishart(params, rng=RngStream(0))
    bad, _ = build(2, np.diag([1.0, -1.0]), None, "standard")
    with pytest.raises(NotPSDError):
        sample_wishart(bad, rng=RngStream(0))
    # non-Hermitian M cannot be split into mean rows
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    skew, _ = build(2, sigma, m, "standard")
    with pytest.raises(NotPSDError):
        sample_wishart(skew, rng=RngStream(0))
    # rank(M) larger than n
    big, _ = build(1, sigma, np.eye(2), "standard")
    with pytest.raises(ValidationError):
        sample_wishart(big, rng=RngStream(0))


def _semidefinite_params():
    """Rank-2 Sigma at p = 3 with its null vector u, and M in Sigma's range."""
    v = np.array([1.0, 1j, 0.5])
    sigma = np.outer(v, v.conj()) + np.diag([0.0, 0.0, 1.0])
    w = v + np.array([0.0, 0.0, 1.0])
    params, _ = build(3, sigma, 0.3 * np.outer(w, w.conj()), "standard")
    return params, np.array([1j, 1.0, 0.0])


def test_sampler_semidefinite_sigma():
    # M lies in Sigma's range, so every draw W must annihilate the null
    # vector u of Sigma
    params, u = _semidefinite_params()
    sigma, m = params.sigma, params.m_matrix
    assert np.abs(sigma @ u).max() < 1e-15
    gen = RngStream(9).generator()
    total = np.zeros((3, 3), dtype=complex)
    total_sq = np.zeros((3, 3))
    n_draws = 20_000
    for draws in _batches(params, gen, n_draws):
        assert np.abs(draws @ u).max() <= 1e-12 * np.abs(draws).max()
        total += draws.sum(axis=0)
        total_sq += (np.abs(draws) ** 2).sum(axis=0)
    mean = total / n_draws
    se = np.sqrt(np.maximum(total_sq / n_draws - np.abs(mean) ** 2, 0.0) / n_draws)
    want = params.n * sigma + m
    off = np.abs(mean - want)
    assert np.all(off <= 4 * se + 1e-12)


def test_sampler_explicit_means_override():
    params, _ = build(2, np.eye(2), None, "standard")
    means = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
    gen = RngStream(8).generator()
    total = np.zeros((2, 2), dtype=complex)
    n_draws = 20_000
    count = 0
    for w in _batches(params, gen, n_draws, means):
        total += w.sum(axis=0)
        count += w.shape[0]
    mean = total / count
    want = 2 * np.eye(2) + means.conj().T @ means
    assert np.abs(mean - want).max() < 0.2


def test_single_draw_shape_and_hermiticity():
    params = standard_params(4, p=3, n=5)
    w = sample_wishart(params, rng=RngStream(9))
    assert w.shape == (3, 3)
    assert np.abs(w - w.conj().T).max() < 1e-12
    assert np.linalg.eigvalsh(w).min() > -1e-12


def _one_call_rows(params, gen, n_draws):
    """Rows X of every draw as the sampler's stream defines them: the first
    2 n p N standard normals, drawn in one call and read as a complex
    (N, n, p) array, times the eigen factor F of Sigma over sqrt(2), minus
    the mean rows."""
    n, p = int(params.n), params.p
    factor, _ = _psd_factor(params.sigma, "sigma")
    means = _mean_rows(params, n)
    g = gen.standard_normal((n_draws, n, 2 * p)).view(complex)
    x = (g.reshape(n_draws * n, p) @ (factor / math.sqrt(2.0))).reshape(n_draws, n, p)
    return x if means is None else x - means


@pytest.mark.parametrize("central", [True, False])
@pytest.mark.parametrize("p", [2, 8])
@pytest.mark.parametrize("n_draws", [10_000, 8193, 1])
def test_chunked_rows_keep_the_stream(n_draws, p, central):
    # the sampler yields cache-sized chunks from reused buffers; the rows
    # themselves are those of one call for all the normals, bit for bit
    params = standard_params(50 + p, p=p, n=p + 1, central=central)
    stream = RngStream(51, p)
    chunks = [x.copy() for x in _row_batches(params, None, stream.generator(), n_draws)]
    assert len(chunks) == -(-n_draws // (_CHUNK_ENTRIES // p ** 2))
    rows = np.concatenate(chunks)
    assert np.array_equal(rows, _one_call_rows(params, stream.generator(), n_draws))


@pytest.mark.parametrize("central", [True, False])
def test_single_draw_is_the_first_of_a_run(central):
    params = standard_params(52, p=3, n=4, central=central)
    stream = RngStream(53)
    first = next(_batches(params, stream.generator(), 2000))[0]
    assert np.array_equal(sample_wishart(params, rng=stream), first)


def test_row_estimator_memory_is_one_chunk():
    # the rows are drawn a chunk at a time: a p = 8, 10,000-draw estimate
    # holds two 0.5 MB chunk buffers and their products (1.6 MB at peak),
    # never all the normals (6.2 MB with 8,192 draws of normals held whole)
    rng = np.random.default_rng(54)
    v = rng.normal(size=8) + 1j * rng.normal(size=8)
    params, _ = build(4, random_psd(rng, 8), np.outer(v, v.conj()), "standard")
    h = [np.eye(8)]
    tracemalloc.start()
    try:
        estimate_joint_moment(params, h, (2,), 10_000, RngStream(55))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000, peak


def _formed_traces(params, stream, n_draws, h):
    """Tr W and Tr(W H_k) per draw, from the W formed from the rows."""
    ws = np.concatenate(list(_batches(params, stream.generator(), n_draws)))
    return (np.trace(ws, axis1=1, axis2=2).real,
            [np.trace(ws @ hk, axis1=1, axis2=2) for hk in h])


def _trace_cases(p, central):
    """Parameters at p for each case of M: M = 0 when central, else rank
    one (n = p + 1) and rank n = p // 2 + 1 <= p, so that every mean row
    is nonzero.  At p = 3, Sigma is the rank-2 semidefinite one of
    test_sampler_semidefinite_sigma."""
    rng = np.random.default_rng(30 + p)
    sigma = _semidefinite_params()[0].sigma if p == 3 else random_psd(rng, p)
    if central:
        return [build(p + 1, sigma, None, "standard")[0]]
    cases = []
    for n, rank in ((p + 1, 1), (p // 2 + 1, p // 2 + 1)):
        v = rng.normal(size=(rank, p)) + 1j * rng.normal(size=(rank, p))
        cases.append(build(n, sigma, v.conj().T @ v / p, "standard")[0])
    return cases


def test_power_sums_match_pow():
    # the running product against numpy's pow, summed per batch: each power
    # carries at most a few ulp more rounding, relative to sum |x|^k
    rng = np.random.default_rng(41)
    batches = [rng.gamma(3.0, 2.0, size=8192), rng.normal(size=1000), np.array([0.0, -2.5])]
    got = _power_sums(iter(batches), 8)
    for k in range(9):
        want = sum(float(np.sum(vals ** k)) for vals in batches)
        scale = sum(float(np.sum(np.abs(vals) ** k)) for vals in batches)
        assert abs(got[k] - want) <= 1e-14 * scale
    assert got[0] == 8192 + 1000 + 2


def _law_cumulant(params, k) -> float:
    """Cum_k of Tr W from the trace sampler's law: (k-1)! sum_j
    (n theta_j^k + k d_j theta_j^{k-1}), plus the offset at k = 1."""
    n, theta, d, offset = _trace_law(params)
    total = float(np.sum(n * theta ** k + k * d * theta ** (k - 1)))
    return math.factorial(k - 1) * total + (offset if k == 1 else 0.0)


@pytest.mark.parametrize("central", [True, False])
@pytest.mark.parametrize("p", [2, 3, 4, 8])
def test_trace_law_reproduces_exact_cumulants(p, central):
    # the (theta, d) the trace sampler draws from give the closed-form
    # cumulants n (k-1)! T_k + k! S_k exactly; at p = 3 Sigma is semidefinite
    # and M is a general PSD matrix, so part of it sits in Sigma's null space
    cases = _trace_cases(p, central)
    if p == 3 and not central:
        cases.append(_semidefinite_params()[0])  # M in Sigma's range
    for params in cases:
        for k in range(1, 9):
            want = noncentral_cumulant(params, k)
            assert abs(want.imag) <= 1e-12 * abs(want)
            assert abs(_law_cumulant(params, k) - want.real) <= 1e-12 * abs(want), k


def _two_sample_z(a, b, k) -> float:
    """z of mean(a^k) - mean(b^k) for independent samples a and b."""
    ak, bk = a ** k, b ** k
    se = math.sqrt(ak.var(ddof=1) / ak.size + bk.var(ddof=1) / bk.size)
    return float((ak.mean() - bk.mean()) / se)


def _check_trace_sampler(params, tr_rows, stream, n_draws) -> list[float]:
    """The trace sampler's Tr W on `stream` against the rows' Tr W drawn on
    another stream (raw moments 1..4), and its cumulants 1..3 against the
    exact ones; every |z| <= 4.  Returns the z values.

    The cumulant estimates are also the sample cumulants of the same draws:
    the estimator goes through raw power sums, so its rounding is relative
    to the raw moment of the same order."""
    got = np.concatenate(list(_trace_batches(params, stream.generator(), n_draws)))
    assert got.shape == tr_rows.shape
    zs = [_two_sample_z(got, tr_rows, k) for k in range(1, 5)]
    ests = estimate_trace_cumulants(params, 3, n_draws, stream)
    n, dev = got.size, got - got.mean()
    sample = [got.mean(), got.var(ddof=1), n ** 2 / ((n - 1) * (n - 2)) * np.mean(dev ** 3)]
    for k, (e, want) in enumerate(zip(ests, sample), start=1):
        assert abs(e.mean - want) <= 1e-12 * np.mean(got ** k), k
    zs += [float((e.mean - noncentral_cumulant(params, k).real) / e.std_error)
           for k, e in enumerate(ests, start=1)]
    assert max(abs(z) for z in zs) <= 4.0, zs
    return zs


@pytest.mark.parametrize("central", [True, False])
@pytest.mark.parametrize("p", [2, 3, 4, 8])
def test_row_traces_match_formed_w(p, central):
    # the rows give Tr(W H) without forming W = X^H X, and match the W formed
    # from the same stream, over 8,193 draws (several chunks); a complex H also
    # catches a conjugate on the wrong factor.  The trace sampler draws Tr W
    # from its own law, so it is pinned to the rows' Tr W in distribution
    h = random_complex(np.random.default_rng(p), p)
    stream = RngStream(31, p)
    n_draws = 8193
    for params in _trace_cases(p, central):
        tr, (tr_h,) = _formed_traces(params, stream, n_draws, [h])
        got_h = np.concatenate([_row_direction_traces(x, h) for x in
                                _row_batches(params, None, stream.generator(), n_draws)])
        assert np.abs(got_h - tr_h).max() <= 1e-12 * np.abs(tr_h).max()
        _check_trace_sampler(params, tr, RngStream(32, p), n_draws)


@pytest.mark.parametrize("central", [True, False])
@pytest.mark.parametrize("p", [2, 4, 8])
def test_row_estimators_match_formed_w(p, central):
    params = standard_params(40 + p, p=p, n=p + 1, central=central)
    rng = np.random.default_rng(p)
    h = [random_complex(rng, p), random_hermitian(rng, p)]
    n_draws = 3000
    stream = RngStream(41, p)
    tr, (tr_a, tr_b) = _formed_traces(params, stream, n_draws, h)

    vals = tr_a ** 2 * tr_b
    est = estimate_joint_moment(params, h, (2, 1), n_draws, stream)
    assert abs(est.mean - vals.mean()) <= 1e-12 * np.abs(vals).mean()

    _check_trace_sampler(params, tr, RngStream(42, p), n_draws)


@pytest.mark.parametrize("p", [2, 3, 8])
def test_trace_chunks_bounded_and_equal(p):
    # the trace sampler never holds more than _CHUNK_ENTRIES variates, and two
    # parameter sets of one p give chunks of equal size (the identity checks
    # add them pairwise)
    sigma = random_psd(np.random.default_rng(p), p)
    central, _ = build(2, sigma, None, "standard")
    shifted, _ = build(p + 1, sigma, np.eye(p), "standard")
    n_draws = 3 * _CHUNK_ENTRIES // p + 5
    sizes = [[len(tr) for tr in _trace_batches(params, RngStream(1).generator(), n_draws)]
             for params in (central, shifted)]
    assert sizes[0] == sizes[1]
    assert sum(sizes[0]) == n_draws
    assert max(sizes[0]) * p <= _CHUNK_ENTRIES


def _formed_generalized_moment(params, h, sigma_perm, n_draws, stream) -> Estimate:
    """The formed-W route: for each chunk of draws, W, one flat GEMM per
    factor W H_j, the stacked product along each cycle, and np.trace."""
    est = Estimate(0j, 0.0, 0)
    for w in _batches(params, stream.generator(), n_draws):
        b, p, _ = w.shape
        flat = w.reshape(b * p, p)
        vals = np.ones(b, dtype=complex)
        for cyc in sigma_perm.cycles:
            prod = None
            for j in cyc:
                step = (flat @ h[j - 1]).reshape(b, p, p)
                prod = step if prod is None else prod @ step
            vals *= np.trace(prod, axis1=1, axis2=2)
        est = est.merge(_estimate(vals))
    return est


@pytest.mark.parametrize("cycles", [((1,), (2,), (3,)), ((1, 2), (3,)), ((1, 2, 3),),
                                    ((1, 2, 3, 4),)])
@pytest.mark.parametrize("p", [2, 4, 8])
@pytest.mark.parametrize("n_offset", [-1, 1])
def test_generalized_moment_matches_formed_w(cycles, p, n_offset):
    # 1-cycles come from the rows and each longer cycle's trace from one
    # contraction; the formed-W loop on the same draws is the oracle
    rng = np.random.default_rng(60 + p)
    v = rng.normal(size=p) + 1j * rng.normal(size=p)
    params, _ = build(p + n_offset, random_psd(rng, p), 0.5 * np.outer(v, v.conj()),
                      "standard")
    perm = CyclePermutation(cycles)
    h = [random_complex(rng, p) for _ in range(perm.size)]
    stream = RngStream(61, p)
    n_draws = 1500  # more than one chunk of draws at p = 8
    est = estimate_generalized_moment(params, h, perm, n_draws, stream)
    want = _formed_generalized_moment(params, h, perm, n_draws, stream)
    # rounding is relative to the sample values, whose root mean square is
    # sqrt(|mean|^2 + n se^2)
    rms = math.sqrt(abs(want.mean) ** 2 + n_draws * want.std_error ** 2)
    assert abs(est.mean - want.mean) <= 1e-12 * rms
    assert abs(est.std_error - want.std_error) <= 1e-12 * want.std_error
    assert est.n_samples == want.n_samples


@pytest.mark.parametrize("index", [(1.5,), (True,), (-1,)])
def test_joint_estimator_index_must_be_non_negative_integers(index):
    # (1.5,) must not run as order 1, True as 1, nor -1 as 1 / Tr(W H)
    params = standard_params(70)
    with pytest.raises(ValidationError):
        estimate_joint_moment(params, [np.eye(2)], index, 100, RngStream(1))


@pytest.mark.parametrize("count", [12.5, True, "12"])
@pytest.mark.parametrize("estimator", ["joint", "generalized", "cumulants", "identity",
                                       "draw loop", "haar"])
def test_non_integral_sample_counts_rejected(estimator, count):
    # a count of 12.5 must not quietly run 12 draws, nor True one draw; a
    # string is a ValidationError, not numpy's or Python's TypeError
    params = standard_params(70)
    block, _ = build(2, params.sigma, None, "standard")
    h = [np.eye(2)]
    run = {
        "joint": lambda: estimate_joint_moment(params, h, (1,), count, RngStream(1)),
        "generalized": lambda: estimate_generalized_moment(
            params, h, CyclePermutation(((1,),)), count, RngStream(1)),
        "cumulants": lambda: estimate_trace_cumulants(params, 1, count, RngStream(1)),
        "identity": lambda: distribution_identity_check(params, block, "sheffer", count,
                                                        RngStream(1)),
        "draw loop": lambda: next(_row_batches(params, None, RngStream(1).generator(), count)),
        "haar": lambda: haar_power_sums(params.sigma, 1, count, RngStream(1)),
    }[estimator]
    with pytest.raises(ValidationError):
        run()


@pytest.mark.parametrize("estimator", ["joint", "generalized"])
def test_estimators_reject_directions_of_another_size(estimator, monkeypatch):
    # a 3 x 3 H on p = 4 is the error the exact routes raise, before any
    # draw, not numpy's matmul ValueError
    from wishmom import mc, multivariate

    def no_draws(*args):
        raise AssertionError("drew rows before checking the directions")

    monkeypatch.setattr(mc, "_row_batches", no_draws)
    params, _ = build(4, np.eye(4), None, "standard")
    h = [np.eye(3)]
    run = {
        "joint": lambda: estimate_joint_moment(params, h, (1,), 100, RngStream(1)),
        "generalized": lambda: estimate_generalized_moment(
            params, h, CyclePermutation(((1,),)), 100, RngStream(1)),
    }[estimator]
    message = "direction matrices must match params dimension"
    with pytest.raises(DimensionMismatchError, match=message):
        run()
    with pytest.raises(DimensionMismatchError, match=message):
        multivariate.joint_moment(params, h, (1,))


# ---------------------------------------------------------------------------
# estimators against exact formulas
# ---------------------------------------------------------------------------

def test_estimate_joint_moment_trivial_index():
    params = standard_params(5)
    est = estimate_joint_moment(params, [np.eye(2)], (0,), 2000, RngStream(1))
    assert est.mean == 1.0 and est.std_error == 0.0


def test_estimate_central_second_moment():
    params = standard_params(6, central=True)
    cache = params.trace_cache(2)
    want = params.n ** 2 * cache.t_power(1) ** 2 + params.n * cache.t_power(2)
    est = estimate_joint_moment(params, [np.eye(2)], (2,), 200_000, RngStream(2))
    assert abs(est.mean - want) < 3 * est.std_error


def test_estimate_noncentral_fourth_moment():
    from wishmom import noncentral_moment
    params = standard_params(11, n=3)
    want = noncentral_moment(params, 4)
    est = estimate_joint_moment(params, [np.eye(2)], (4,), 400_000, RngStream(13))
    assert abs(est.mean - want) < 3.5 * est.std_error


def test_estimate_trace_cumulants_against_formulas():
    params = standard_params(7, n=5)
    ests = estimate_trace_cumulants(params, 3, 300_000, RngStream(3))
    for i, est in enumerate(ests, start=1):
        want = noncentral_cumulant(params, i)
        assert abs(est.mean - want) < 3.5 * est.std_error


def test_estimate_joint_moment_complex_directions():
    # non-Hermitian directions give genuinely complex values; the standard
    # error covers both components
    params = standard_params(9, n=4)
    rng = np.random.default_rng(1)
    h = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2)]
    from wishmom import joint_moment
    want = joint_moment(params, h, (1, 1))
    assert abs(want.imag) > 1e-6
    est = estimate_joint_moment(params, h, (1, 1), 200_000, RngStream(12))
    assert abs(est.mean - want) < 4 * est.std_error


def test_estimate_generalized_moment_central():
    params = standard_params(8, central=True)
    rng = np.random.default_rng(0)
    h = [random_hermitian(rng, 2), random_hermitian(rng, 2)]
    perm = CyclePermutation(((1, 2),))
    from wishmom import central_product_moment
    want = central_product_moment(params, h, perm)
    est = estimate_generalized_moment(params, h, perm, 200_000, RngStream(4))
    assert abs(est.mean - want) < 3 * est.std_error


def test_generalized_moment_mixed_residual_reported():
    # MC value minus the evaluated pure terms isolates the mixed-cycle
    # contribution of the assignment expansion; reported, not asserted
    from wishmom import generalized_moment_expansion
    params = standard_params(10, n=4)
    rng = np.random.default_rng(5)
    h = [random_hermitian(rng, 2), random_hermitian(rng, 2)]
    perm = CyclePermutation(((1, 2),))
    expansion = generalized_moment_expansion(params, h, perm)
    assert not expansion.fully_evaluated
    est = estimate_generalized_moment(params, h, perm, 300_000, RngStream(6))
    residual = est.mean - expansion.evaluated_sum
    print(f"mixed-term residual for the 2-cycle: {residual:.6g} "
          f"(se {est.std_error:.3g}, {len(expansion.symbolic_factors)} symbolic factors)")


# ---------------------------------------------------------------------------
# Haar compressions
# ---------------------------------------------------------------------------

def test_haar_unitary_is_unitary():
    u = haar_unitary(5, RngStream(10))
    assert np.abs(u @ u.conj().T - np.eye(5)).max() < 1e-12


def test_haar_first_entry_modulus():
    p = 4
    gen = RngStream(11).generator()
    vals = np.array([abs(haar_unitary(p, gen)[0, 0]) ** 2 for _ in range(20_000)])
    se = vals.std() / math.sqrt(vals.size)
    assert abs(vals.mean() - 1 / p) < 3 * se


def test_full_compression_is_conjugation():
    rng = np.random.default_rng(12)
    x = random_hermitian(rng, 4)
    sample = haar_compression(x, 4, RngStream(13))
    # four power sums fix a spectrum of four values
    theta = np.linalg.eigvalsh(x)
    want = [np.sum(theta ** k) for k in range(1, 5)]
    assert sample.size == 4
    for got, w in zip(sample.power_sums, want):
        assert abs(got - w) < 1e-9 * max(abs(w), 1.0)
    assert abs(polykay(sample, 1) - theta.mean()) < 1e-9


def test_haar_compression_validation():
    rng = np.random.default_rng(14)
    x = random_hermitian(rng, 4)
    with pytest.raises(ValidationError):
        haar_compression(x, 5, RngStream(0))
    with pytest.raises(NotHermitianError):
        haar_compression(np.triu(np.ones((3, 3))), 2, RngStream(0))
    with pytest.raises(ValidationError):
        haar_power_sums(x, 0, 10, RngStream(0))
    for count in (-1, 2.5):
        with pytest.raises(ValidationError):
            haar_power_sums(x, 2, count, RngStream(0))
    with pytest.raises(NotHermitianError):
        haar_power_sums(np.triu(np.ones((3, 3))), 2, 10, RngStream(0))
    assert haar_power_sums(x, 2, 0, RngStream(0)).shape == (0, 4)


def test_batched_haar_matches_one_draw_calls():
    # one stacked QR per chunk of draws gives the power sums of as many
    # successive one-draw compressions on a twin generator, bit for bit
    rng = np.random.default_rng(24)
    x = random_hermitian(rng, 8)
    count = _HAAR_CHUNK + 37
    batched = haar_power_sums(x, 4, count, RngStream(25))
    gen = RngStream(25).generator()
    one_by_one = np.array([haar_compression(x, 4, gen).power_sums for _ in range(count)])
    assert batched.shape == (count, 4)
    assert np.array_equal(batched, one_by_one)


def test_one_draw_compression_is_checked_against_the_monte_carlo_cap(monkeypatch):
    # a one-draw compression is row 0 of a batch of one, so it draws the
    # 2 p^2 normals of one Haar frame under the batch's cap
    from wishmom import BudgetExceededError, budgets

    x = np.diag([1.0, 2.0, 3.0])
    monkeypatch.setattr(budgets, "MAX_MC_VARIATES", 17)
    with pytest.raises(BudgetExceededError, match="^haar_power_sums draws 18 random variates"):
        haar_compression(x, 2, RngStream(0))
    monkeypatch.setattr(budgets, "MAX_MC_VARIATES", 18)
    assert haar_compression(x, 2, RngStream(0)).size == 2


def test_polykay_inheritance_under_compression_quick():
    # every order is inherited: the mean polykay of Haar compressions is the
    # whole matrix's polykay.  k1-k3 on 4000 compressions of a 6 x 6 matrix
    # to m = 3, and k4 on 4000 compressions of a spiked spectrum to m = 4,
    # each batch drawn by `haar_power_sums` (the draws of as many
    # `haar_compression` calls)
    from wishmom import PolykaySample

    def compressions(x, m, seed):
        rows = haar_power_sums(x, m, 4000, RngStream(seed).generator())
        return ([PolykaySample(m, tuple(row)) for row in rows],
                PolykaySample.from_eigenvalues(np.linalg.eigvalsh(x)))

    def z(samples, whole, k):
        """z of the mean of k over the samples against k of the whole, by
        the sample standard error."""
        series = np.array([k(sample) for sample in samples])
        return (series.mean() - k(whole)) / (series.std() / math.sqrt(series.size))

    samples, whole = compressions(random_hermitian(np.random.default_rng(15), 6), 3, 16)
    for order in (1, 2, 3):
        assert abs(z(samples, whole, lambda s: polykay(s, order))) < 3.5, order
    samples, whole = compressions(np.diag([0.0, 0.0, 0.0, 0.0, 1.0, 3.0]), 4, 17)
    assert abs(z(samples, whole, lambda s: polykay(s, 4))) < 3.5
    # the gate has power: the order-4 polykay before its fix, today's
    # value divided by the sample size, is not inherited and fails it
    assert abs(z(samples, whole, lambda s: polykay(s, 4) / s.size)) > 3.5


def test_principal_submatrix_inheritance_reported():
    # the literal principal-minor variant of the inheritance statement: the
    # 2 x 2 minor of W(n, Sigma) is W(n, Sigma_11), so the mean polykays of
    # its eigenvalues are the exact k1 = n Tr Sigma_11 / 2 and
    # k2 = (2 E[Tr W_11^2] - E[(Tr W_11)^2]) / 6 of that law
    params = standard_params(18, p=4, n=6, central=True)
    gen = RngStream(19).generator()
    from wishmom import PolykaySample
    k1, k2 = [], []
    for w in _batches(params, gen, 2000):
        for k in range(w.shape[0]):
            sample = PolykaySample.from_eigenvalues(np.linalg.eigvalsh(w[k][:2, :2]))
            k1.append(polykay(sample, 1))
            k2.append(polykay(sample, 2))
    minor, _ = build(params.n, params.sigma[:2, :2], None, "standard")
    square = central_product_moment(minor, [np.eye(2)] * 2, CyclePermutation(((1, 2),)))
    want1 = params.n * np.trace(minor.sigma).real / 2
    want2 = (2 * square - central_moment(minor, 2)).real / 6
    for series, want in ((np.array(k1), want1), (np.array(k2), want2)):
        se = series.std(ddof=1) / math.sqrt(series.size)
        assert abs(series.mean() - want) <= 4 * se, (series.mean(), want, se)


# ---------------------------------------------------------------------------
# the Monte Carlo cap
# ---------------------------------------------------------------------------

def _capped_calls():
    """Each capped call on p = 2, n = 4 as (name, run(count, gen), variates
    per count): 2 n p normals a row draw, p variates an exact trace draw,
    three trace samples in an identity check, 2 p^2 normals a Haar frame."""
    params = standard_params(40, central=True)
    h = [np.eye(2), np.diag([1.0, -1.0])]
    return [
        ("estimate_joint_moment",
         lambda k, gen: estimate_joint_moment(params, h, (1, 1), k, gen), 16),
        ("estimate_generalized_moment",
         lambda k, gen: estimate_generalized_moment(
             params, h, CyclePermutation(((1, 2),)), k, gen), 16),
        ("estimate_trace_cumulants",
         lambda k, gen: estimate_trace_cumulants(params, 2, k, gen), 2),
        ("distribution_identity_check",
         lambda k, gen: distribution_identity_check(
             params, params, "df-additivity", k, RngStream(41)), 6),
        ("haar_power_sums", lambda k, gen: haar_power_sums(np.diag([1.0, 2.0]), 1, k, gen), 8),
    ]


@pytest.mark.parametrize("index", range(5))
def test_the_monte_carlo_cap_is_checked_before_any_draw(monkeypatch, index):
    from wishmom import BudgetExceededError, budgets

    name, run, per = _capped_calls()[index]
    # at the real cap: one count over it raises, and the generator is untouched
    over = budgets.MAX_MC_VARIATES // per + 1
    gen = np.random.Generator(np.random.Philox(42))
    with pytest.raises(BudgetExceededError,
                       match=f"^{name} draws {per * over} random variates, over the "
                             f"Monte Carlo cap {budgets.MAX_MC_VARIATES}$"):
        run(over, gen)
    fresh = np.random.Generator(np.random.Philox(42))
    assert np.array_equal(gen.standard_normal(8), fresh.standard_normal(8))
    # at a small cap: a call that draws exactly the cap runs, one more count raises
    monkeypatch.setattr(budgets, "MAX_MC_VARIATES", per * 40)
    run(40, np.random.Generator(np.random.Philox(43)))
    with pytest.raises(BudgetExceededError):
        run(41, np.random.Generator(np.random.Philox(43)))


# ---------------------------------------------------------------------------
# distribution identities
# ---------------------------------------------------------------------------

def test_identity_checks_quick():
    rng = np.random.default_rng(20)
    sigma = random_psd(rng, 2)
    m1 = random_psd(rng, 2, 0.4)
    m2 = random_psd(rng, 2, 0.3)
    cases = [
        ("df-additivity", None, None),
        ("sheffer", m1, None),
        ("m-split", m1, m2),
    ]
    for identity, ma, mb in cases:
        p1, _ = build(3, sigma, ma, "standard")
        p2, _ = build(2, sigma, mb, "standard")
        report = distribution_identity_check(p1, p2, identity, 150_000, RngStream(21))
        assert report["identity"] == identity
        assert report["max_abs_z"] <= 4.0, report


@pytest.mark.parametrize("n, m_matrix, error, message", [
    (2, np.diag([1.0, -0.5]), NotPSDError, "m_matrix"),
    (1, np.eye(2), ValidationError, "rank 2 > n = 1"),
    (2.5, None, NonIntegerNError, "integer degrees of freedom"),
])
def test_trace_routes_keep_the_sampling_contracts(n, m_matrix, error, message):
    params, _ = build(n, np.eye(2), m_matrix, "standard")
    central, _ = build(1, np.eye(2), None, "standard")
    with pytest.raises(error, match=message):
        estimate_trace_cumulants(params, 3, 1000, RngStream(0))
    with pytest.raises(error, match=message):
        distribution_identity_check(params, central, "m-split", 1000, RngStream(0))


def test_identity_check_rejects_mismatched_p():
    small, _ = build(2, np.eye(2), None, "standard")
    large, _ = build(2, np.eye(3), None, "standard")
    for p1, p2 in ((small, large), (large, small)):
        with pytest.raises(DimensionMismatchError):
            distribution_identity_check(p1, p2, "df-additivity", 1000, RngStream(0))


def test_identity_check_validation():
    rng = np.random.default_rng(22)
    sigma = random_psd(rng, 2)
    m = random_psd(rng, 2)
    p1, _ = build(2, sigma, m, "standard")
    p2, _ = build(2, sigma, None, "standard")
    with pytest.raises(ValidationError):
        distribution_identity_check(p1, p2, "df-additivity", 1000, RngStream(0))
    with pytest.raises(ValidationError):
        distribution_identity_check(p1, p2, "nope", 1000, RngStream(0))
