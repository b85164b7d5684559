import itertools

import numpy as np
import pytest

from wishmom import (
    BudgetExceededError,
    CyclePermutation,
    DegenerateSampleSizeError,
    InsufficientOrdersError,
    MomentSequence,
    NumericalError,
    PolykaySample,
    ValidationError,
    build,
    central_product_moment,
    integer_partitions,
    permanent_alpha,
    permanent_d,
    permanent_master,
    polykay,
    repeated_matrix,
)

from conftest import random_complex, rel_err


# ---------------------------------------------------------------------------
# d-permanents
# ---------------------------------------------------------------------------

def test_permanent_two_by_two():
    y = np.array([[2.0, 3.0], [5.0, 7.0]], dtype=complex)
    d = 1.5 + 0.5j
    # identity permutation has two cycles, the swap has one
    want = d ** 2 * 2 * 7 + d * 3 * 5
    assert rel_err(permanent_d(y, d), want) < 1e-14
    assert permanent_d(np.ones((2, 2)), 1.0) == 2.0
    assert rel_err(permanent_d(y, -1.0), 2 * 7 - 3 * 5) < 1e-14


@pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
def test_permanent_minus_one_is_signed_determinant(p):
    rng = np.random.default_rng(p)
    y = random_complex(rng, p)
    got = permanent_d(y, -1.0) * (-1.0) ** p
    want = np.linalg.det(y)  # LU determinant oracle
    assert rel_err(got, want) < 1e-10


def test_permanent_row_multilinearity():
    rng = np.random.default_rng(10)
    y = random_complex(rng, 4)
    scaled = y.copy()
    t = 2.0 - 1.0j
    scaled[2] *= t
    for d in (1.0, -1.0, 0.5 + 0.5j):
        assert rel_err(permanent_d(scaled, d), t * permanent_d(y, d)) < 1e-12


def test_permanent_budget():
    with pytest.raises(BudgetExceededError):
        permanent_d(np.eye(11), 1.0)


def test_permanent_alpha_specializations():
    rng = np.random.default_rng(11)
    y = random_complex(rng, 3)
    d = 0.7 - 0.2j
    powers = MomentSequence.from_moments([d ** k for k in range(1, 4)])
    assert rel_err(permanent_alpha(y, powers), permanent_d(y, d)) < 1e-13
    ones = MomentSequence.from_moments([1.0] * 3)
    assert rel_err(permanent_alpha(y, ones), permanent_d(y, 1.0)) < 1e-13


def test_permanent_alpha_two_by_two_expansion():
    y = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    a = MomentSequence.from_moments([5.0, 11.0])
    want = 11.0 * 1 * 4 + 5.0 * 2 * 3
    assert rel_err(permanent_alpha(y, a), want) < 1e-14


def test_permanent_alpha_needs_enough_orders():
    with pytest.raises(InsufficientOrdersError):
        permanent_alpha(np.eye(3), MomentSequence.from_moments([1.0, 1.0]))


# ---------------------------------------------------------------------------
# master theorem route
# ---------------------------------------------------------------------------

def test_repeated_matrix_doubles_rows_and_columns():
    t = np.arange(9, dtype=float).reshape(3, 3).astype(complex)
    rep = repeated_matrix(t, (2, 1, 0))
    assert rep.shape == (3, 3)
    want = np.array([
        [t[0, 0], t[0, 0], t[0, 1]],
        [t[0, 0], t[0, 0], t[0, 1]],
        [t[1, 0], t[1, 0], t[1, 1]],
    ])
    assert np.allclose(rep, want)


def master_vs_brute_tol(brute, master, weight, t):
    # at d = -1 repeated rows zero the permanent exactly; compare on the
    # permanent's natural magnitude scale in that case
    import math
    scale = math.factorial(weight) * float(np.abs(t).max()) ** weight
    return abs(master - brute) <= 1e-10 * max(abs(brute), abs(master), 1e-4 * scale)


@pytest.mark.parametrize("d", [1.0, -1.0, 2.0, 0.5 + 0.5j])
def test_master_equals_brute_force_small(d):
    rng = np.random.default_rng(12)
    t = random_complex(rng, 3)
    for kind in itertools.product(range(3), repeat=3):
        if not 1 <= sum(kind) <= 4:
            continue
        brute = permanent_d(repeated_matrix(t, kind), d)
        assert master_vs_brute_tol(brute, permanent_master(t, kind, d), sum(kind), t)


def test_master_full_index_is_the_plain_permanent():
    rng = np.random.default_rng(13)
    t = random_complex(rng, 3)
    assert rel_err(permanent_master(t, (1, 1, 1), 1.0), permanent_d(t, 1.0)) < 1e-12


def test_master_univariate_reduction():
    # one nonzero entry: the k-fold repetition of a single diagonal block
    rng = np.random.default_rng(14)
    t = random_complex(rng, 3)
    for k in (1, 2, 3, 4):
        kind = (k, 0, 0)
        brute = permanent_d(repeated_matrix(t, kind), 2.0)
        assert rel_err(permanent_master(t, kind, 2.0), brute) < 1e-11


def test_master_with_alpha_sequence():
    rng = np.random.default_rng(15)
    t = random_complex(rng, 2)
    d = 1.3 - 0.4j
    alpha = MomentSequence.from_moments([d ** k for k in range(1, 5)])
    for kind in [(1, 1), (2, 1), (2, 2)]:
        assert rel_err(permanent_master(t, kind, alpha),
                       permanent_master(t, kind, d)) < 1e-12


def test_master_trivial_and_errors():
    assert permanent_master(np.eye(2), (0, 0), 2.0) == 1
    with pytest.raises(ValidationError):
        permanent_master(np.eye(2), (1,), 1.0)
    with pytest.raises(BudgetExceededError):
        permanent_master(np.eye(2), (6, 5), 1.0)


# ---------------------------------------------------------------------------
# spectral polykays
# ---------------------------------------------------------------------------

def test_polykay_constant_sample():
    sample = PolykaySample.from_eigenvalues([2.5] * 5)
    assert abs(polykay(sample, 1) - 2.5) < 1e-14
    assert abs(polykay(sample, 2)) < 1e-14


def test_polykay_two_point_sample():
    sample = PolykaySample.from_eigenvalues([0.0, 2.0])
    assert polykay(sample, 1) == 1.0
    assert abs(polykay(sample, 2) - 2.0 / 3.0) < 1e-14


def test_polykay_degenerate_sizes():
    one = PolykaySample.from_eigenvalues([3.0])
    assert polykay(one, 1) == 3.0
    with pytest.raises(DegenerateSampleSizeError):
        polykay(one, 2)
    three = PolykaySample.from_eigenvalues([1.0, 2.0, 3.0])
    with pytest.raises(DegenerateSampleSizeError):
        polykay(three, 4)
    with pytest.raises(ValidationError):
        polykay(three, 5)


def test_polykay_overflow_is_a_numerical_error():
    # finite eigenvalues whose fourth power overflows
    with pytest.raises(NumericalError):
        PolykaySample.from_eigenvalues([1e200, 1.0])
    # finite sums that overflow only when added
    with pytest.raises(NumericalError):
        PolykaySample.from_eigenvalues([1e77, 1e77])
    with pytest.raises(ValidationError):
        PolykaySample.from_eigenvalues([float("inf")])
    # finite power sums whose polykay overflows: s1^4 = 1e312
    sample = PolykaySample.from_eigenvalues([1e76] * 100)
    assert polykay(sample, 1) == pytest.approx(1e76)
    with pytest.raises(NumericalError):
        polykay(sample, 4)


def test_polykay_shift_semi_invariance():
    rng = np.random.default_rng(16)
    y = rng.normal(size=6)
    c = 1.7
    base = PolykaySample.from_eigenvalues(y)
    shifted = PolykaySample.from_eigenvalues(y + c)
    assert abs(polykay(shifted, 1) - (polykay(base, 1) + c)) < 1e-9
    for j in (2, 3, 4):
        denom = max(abs(polykay(base, j)), 1.0)
        assert abs(polykay(shifted, j) - polykay(base, j)) < 1e-9 * denom


def test_polykay_homogeneity():
    rng = np.random.default_rng(17)
    y = rng.normal(size=5)
    c = -2.25
    base = PolykaySample.from_eigenvalues(y)
    scaled = PolykaySample.from_eigenvalues(c * y)
    for j in (1, 2, 3, 4):
        want = c ** j * polykay(base, j)
        assert abs(polykay(scaled, j) - want) < 1e-9 * max(abs(want), 1.0)


def test_polykay_sample_consistency_check():
    for size, sums in ((0, (0.0, 0.0, 0.0, 0.0)),
                       (2, (3.0, 5.0, 9.0, float("nan"))),
                       (2, (3.0, 5.0, 9.0))):
        with pytest.raises(ValidationError):
            PolykaySample(size, sums)
    ok = PolykaySample(2, (3.0, 5.0, 9.0, 17.0))
    assert ok.size == 2
    assert PolykaySample.from_eigenvalues([1.0, 2.0]) == ok


def _cycle_type(parts):
    """The permutation of 1..sum(parts) whose cycles are consecutive blocks
    of these lengths."""
    cycles, start = [], 1
    for part in parts:
        cycles.append(tuple(range(start, start + part)))
        start += part
    return CyclePermutation(tuple(cycles))


def _expected_polykay(params, order):
    """E[k_order] of the spectrum of W ~ params, with no sampling.

    The polykay is a linear combination of the power-sum products
    s_lambda, |lambda| = order; its coefficients are read off `polykay`
    itself at as many generic samples.  E[s_lambda] = E[prod Tr W^part] is
    the generalized moment with every H = I and a permutation of cycle
    type lambda."""
    lambdas = [lam.parts for lam in integer_partitions(order)]
    points = np.random.default_rng(order).uniform(1.0, 2.0, size=(len(lambdas), 4))
    design = [[np.prod([s[part - 1] for part in lam]) for lam in lambdas] for s in points]
    values = [polykay(PolykaySample(params.p, tuple(s)), order) for s in points]
    coefficients = np.linalg.solve(design, values)
    eye = [np.eye(params.p)] * order
    moments = [central_product_moment(params, eye, _cycle_type(lam)).real for lam in lambdas]
    return float(coefficients @ moments)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_polykays_are_inherited_by_principal_minors_exactly(order):
    # W(7, 0.7 I_6) is unitarily invariant, so the spectrum of its 4 x 4
    # principal minor, W(7, 0.7 I_4) in law, is a Haar compression of its
    # spectrum: an inherited polykay has the same expectation on both, and
    # on W(n, c I_p) that expectation is n (r-1)! c^r whatever p
    whole, _ = build(7, 0.7 * np.eye(6), None, "standard")
    minor, _ = build(7, 0.7 * np.eye(4), None, "standard")
    full, part = _expected_polykay(whole, order), _expected_polykay(minor, order)
    assert rel_err(part, full) < 1e-12, (full, part)
    targets = {1: 4.9, 2: 3.43, 3: 4.802, 4: 10.0842}
    assert rel_err(full, targets[order]) < 1e-12
