import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wishmom
from wishmom import (
    CONVENTIONS,
    BudgetExceededError,
    CyclePermutation,
    DimensionMismatchError,
    MomentSequence,
    SingularMatrixError,
    RngStream,
    ValidationError,
    a_product_moment,
    build,
    central_product_moment,
    estimate_generalized_moment,
    eta_moment,
    eta_moment_strings,
    generalized_moment_expansion,
    joint_cumulant,
    joint_cumulant_randomized,
    joint_moment,
    multiindex_partitions,
    noncentral_moment,
    permanent_master,
    rho_moment,
    rho_moment_strings,
)
from wishmom.combinatorics import complex_fsum, cycles_of_images, integer_partitions
from wishmom.multivariate import (
    CENTRAL_LETTER,
    FORMAL_LETTER,
    _base_tables,
    _directions,
    _heads,
    _string_sums,
    rho_table,
)

from brute_force import (
    ERROR_BOUND,
    exact_composition,
    exact_joint_moment,
    exact_joint_tables,
    product_trace,
    string_sums_by_tuples,
    tables_by_moveaxis,
)
from conftest import random_complex, random_psd, rel_err


def make_instance(seed, p=3, n=4.0, m=2, convention="standard", central=False,
                  m_scale=0.5):
    rng = np.random.default_rng(seed)
    sigma = random_psd(rng, p)
    m_matrix = None if central else random_psd(rng, p, m_scale)
    params, _ = build(n, sigma, m_matrix, convention)
    h = [random_complex(rng, p) for _ in range(m)]
    return params, h


# a singular Sigma with Gaussian-integer M and directions: the standard
# convention's words need no Omega, so its tables are exact here
SINGULAR_SIGMA = np.diag([2.0, 0.0])
SINGULAR_M = np.array([[1 + 1j, 2], [-1j, 3 - 1j]])


def singular_instance(m, convention="standard"):
    rng = np.random.default_rng(60 + m)
    params, _ = build(3, SINGULAR_SIGMA, SINGULAR_M, convention)
    return params, [gaussian_integers(rng, 2) for _ in range(m)]


def nonzero_kinds(m, max_weight):
    for kind in itertools.product(range(max_weight + 1), repeat=m):
        if 1 <= sum(kind) <= max_weight:
            yield kind


# ---------------------------------------------------------------------------
# base moments
# ---------------------------------------------------------------------------

def test_rho_closed_forms():
    params, h = make_instance(0, m=2)
    sigma = params.sigma
    # single letter: the fully periodic word contributes Tr(Sigma^j)/j
    for j in (1, 2, 3):
        want = product_trace([sigma] * j) / j
        assert rel_err(rho_moment(params, [np.eye(3)], (j,)), want) < 1e-13
    # (1,1): one Lyndon word
    want = product_trace([sigma @ h[0], sigma @ h[1]])
    assert rel_err(rho_moment(params, h, (1, 1)), want) < 1e-13
    # (2,2): Lyndon 1122 plus half of the periodic 1212
    s1, s2 = sigma @ h[0], sigma @ h[1]
    want = product_trace([s1, s1, s2, s2]) + product_trace([s1, s2, s1, s2]) / 2
    assert rel_err(rho_moment(params, h, (2, 2)), want) < 1e-13


@pytest.mark.parametrize("m", [1, 2, 3])
def test_rho_matches_strings_oracle(m):
    params, h = make_instance(m, m=m)
    for kind in nonzero_kinds(m, 6 if m < 3 else 5):
        assert rel_err(rho_moment(params, h, kind),
                       rho_moment_strings(params, h, kind)) < 1e-12


@pytest.mark.parametrize("convention", ["paper", "standard"])
@pytest.mark.parametrize("m", [2, 3])
def test_eta_matches_strings_oracle(m, convention):
    params, h = make_instance(10 + m, m=m, convention=convention)
    for kind in nonzero_kinds(m, 8 if m == 2 else 6):
        assert rel_err(eta_moment(params, h, kind),
                       eta_moment_strings(params, h, kind)) < 1e-12
    if m == 3:  # full-budget spot checks
        for kind in [(3, 3, 2), (4, 2, 2), (1, 3, 4)]:
            assert rel_err(eta_moment(params, h, kind),
                           eta_moment_strings(params, h, kind)) < 1e-12


def _sub_indices(kind):
    return [v for v in itertools.product(*(range(c + 1) for c in kind)) if any(v)]


@pytest.mark.parametrize("convention", ["paper", "standard"])
@pytest.mark.parametrize("kind", [(5, 5), (4, 3, 3)])
def test_base_tables_match_necklace_sums_at_weight_ten(kind, convention):
    # the recursion's tables against the necklace-grouped sums at every
    # sub-index, beyond the weight the *_strings budget allows
    params, h = make_instance(30 + len(kind), m=len(kind), convention=convention)
    rho, eta = _base_tables(params, h, kind)
    for v in _sub_indices(kind):
        assert rel_err(rho[v], rho_moment(params, h, v)) < 1e-12
        assert rel_err(eta[v], eta_moment(params, h, v)) < 1e-12


def test_production_routes_enumerate_no_necklaces(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("necklace enumeration on a production route")

    for module in (wishmom.multivariate, wishmom.combinatorics):
        monkeypatch.setattr(module, "necklaces_of_kind", refuse)
        monkeypatch.setattr(module, "necklace_rotations", refuse)
    kind = (2, 1, 1)
    alpha = MomentSequence.from_cumulants([1.5, 0.5, 0.25, 0.125])
    for convention in ("paper", "standard"):
        params, h = make_instance(40, m=3, convention=convention)
        assert np.isfinite(joint_moment(params, h, kind))
        assert np.isfinite(joint_cumulant(params, h, kind))
        assert np.isfinite(joint_cumulant_randomized(alpha, params, h, kind))
        assert rho_table([params.sigma @ hk for hk in h], kind).shape == (3, 2, 2)
    t = random_complex(np.random.default_rng(41), 3)
    assert np.isfinite(permanent_master(t, kind, 0.5))


# the benchmark's joint session kinds, then kinds with a zero component,
# the widest two-axis grid at weight 10 and the five-axis (2, 2, 2, 2, 2)
KERNEL_KINDS = [
    (2, 1), (4,), (9,), (6,), (3, 3), (5, 4), (4, 3), (2, 1, 1), (3, 2, 2), (2, 2, 2),
    (3, 3, 3), (2, 2, 1, 1), (2, 2, 2, 2), (2, 2, 2, 1), (1, 1, 1, 1), (1, 1, 1, 1, 1),
    (2, 2, 1, 1, 1), (1, 1, 1, 1, 1, 1), (2, 1, 1, 1, 1, 1),
    (0, 3), (3, 0, 1), (5, 5), (2, 2, 2, 2, 2),
]


@pytest.mark.parametrize("kind", KERNEL_KINDS, ids=str)
def test_tables_are_the_tuple_index_loop_bit_for_bit(kind):
    # the flat-view string sums and the slice-read traces against the
    # tuple-indexed loop and the moveaxis reader: the same operations in
    # the same order, so the same bits
    for p, convention, central in itertools.product((2, 3, 6), CONVENTIONS, (False, True)):
        params, h = make_instance(70 + p, p=p, m=len(kind), convention=convention,
                                  central=central)
        hs, sh = _directions(params, h)
        want_rho, want_eta = tables_by_moveaxis(sh, _heads(params, hs), kind)
        rho, eta = _base_tables(params, h, kind)
        assert np.array_equal(_string_sums(sh, kind), string_sums_by_tuples(sh, kind))
        assert np.array_equal(rho, want_rho)
        assert np.array_equal(eta, want_eta)
        assert np.array_equal(rho_table(sh, kind), want_rho)


def test_central_tables_form_no_heads(monkeypatch):
    # M = 0 makes every head M H_k (or Omega Sigma H_k) zero: the routes
    # read eta = 0 without forming one, under either convention
    def refuse(*args, **kwargs):
        raise AssertionError("a head product for a central model")

    monkeypatch.setattr(wishmom.multivariate, "_heads", refuse)
    kind = (2, 1, 1)
    alpha = MomentSequence.from_cumulants([1.5, 0.5, 0.25, 0.125])
    for convention in CONVENTIONS:
        params, h = make_instance(44, m=3, convention=convention, central=True)
        rho, eta = _base_tables(params, h, kind)
        assert not np.any(eta)
        assert joint_cumulant(params, h, kind) == 2 * (params.n * rho[kind])
        assert np.isfinite(joint_moment(params, h, kind))
        assert np.isfinite(joint_cumulant_randomized(alpha, params, h, kind))


@pytest.mark.parametrize("factors, kind, error", [
    ([np.eye(2)], (-1,), ValidationError),
    ([np.eye(2)], (2.5,), ValidationError),
    ([np.eye(2)], (True,), ValidationError),
    ([np.ones((2, 3))], (2,), DimensionMismatchError),
    ([np.ones((2, 2, 2))], (2,), DimensionMismatchError),
    ([np.eye(2), np.eye(3)], (1, 1), DimensionMismatchError),
    ([np.eye(2), np.eye(2)], (2,), DimensionMismatchError),
    ([np.eye(2)], (1, 1), DimensionMismatchError),
    ([], (), DimensionMismatchError),
    ([np.eye(2)], (11,), BudgetExceededError),
    ([[[1.0, 0.0], [0.0]]], (1,), ValidationError),
    ([[["a", "b"], ["c", "d"]]], (1,), ValidationError),
], ids=["negative", "fraction", "bool", "non-square", "three-axis", "two-sizes",
        "extra-factor", "missing-factor", "no-factor", "over-budget", "ragged", "strings"])
def test_rho_table_checks_its_request_before_any_numeric_work(monkeypatch, factors, kind,
                                                              error):
    def refuse(*args, **kwargs):
        raise AssertionError("numeric work on a rejected request")

    monkeypatch.setattr(wishmom.multivariate, "_tables", refuse)
    with pytest.raises(error):
        rho_table(factors, kind)


@pytest.mark.parametrize("central", [False, True])
@pytest.mark.parametrize("convention", CONVENTIONS)
def test_tables_live_on_the_sub_index_grid(convention, central):
    # rho and eta: one array of shape kind + 1 each, 0 at the origin, and
    # the joint cumulants read from the same grid
    kind = (2, 0, 3)
    params, h = make_instance(43, m=3, convention=convention, central=central)
    rho, eta = _base_tables(params, h, kind)
    assert rho.shape == eta.shape == (3, 1, 4)
    assert rho.dtype == eta.dtype == complex
    assert rho[0, 0, 0] == eta[0, 0, 0] == 0
    assert not central or not np.any(eta)
    for v in _sub_indices(kind):
        want = params.n * rho[v] + params.sign * eta[v]
        assert rel_err(joint_cumulant(params, h, v),
                       math.prod(map(math.factorial, v)) * want) < 1e-15


def test_eta_closed_forms_paper_convention():
    params, h = make_instance(1, m=2, convention="paper")
    sigma, omega = params.sigma, params.noncentrality()
    s1, s2 = sigma @ h[0], sigma @ h[1]
    # single letter, identity direction: the S_j cache values
    cache = params.trace_cache(3)
    for j in (1, 2, 3):
        got = eta_moment(params, [np.eye(3)], (j,))
        assert rel_err(got, cache.s_power(j)) < 1e-10
    # kind (1,1): both rotations of the word 12
    want = product_trace([omega, s1, s2]) + product_trace([omega, s2, s1])
    assert rel_err(eta_moment(params, h, (1, 1)), want) < 1e-13
    # kind (1,2): the three rotations of 122
    want = (product_trace([omega, s1, s2, s2])
            + product_trace([omega, s2, s1, s2])
            + product_trace([omega, s2, s2, s1]))
    assert rel_err(eta_moment(params, h, (1, 2)), want) < 1e-13


def test_eta_closed_forms_standard_convention():
    # standard-order words place M directly before the first direction
    params, h = make_instance(2, m=2, convention="standard")
    sigma, m_mat = params.sigma, params.m_matrix
    want = (product_trace([m_mat, h[0], sigma, h[1]])
            + product_trace([m_mat, h[1], sigma, h[0]]))
    assert rel_err(eta_moment(params, h, (1, 1)), want) < 1e-13
    # first moment of Tr W H must be n Tr(Sigma H) + Tr(M H)
    got = joint_moment(params, h[:1], (1,))
    want1 = params.n * np.trace(sigma @ h[0]) + np.trace(m_mat @ h[0])
    assert rel_err(got, want1) < 1e-13


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), convention=st.sampled_from(["paper", "standard"]))
def test_joint_unitary_conjugation_invariance(seed, convention):
    # Sigma, M and every H_k -> U . U^H leaves every trace word unchanged
    params, h = make_instance(seed, convention=convention)
    u, _ = np.linalg.qr(random_complex(np.random.default_rng(seed + 1), 3))
    turned, _ = build(params.n, u @ params.sigma @ u.conj().T,
                      u @ params.m_matrix @ u.conj().T, convention)
    h_turned = [u @ hk @ u.conj().T for hk in h]
    for kind in [(2, 1), (1, 2)]:
        assert rel_err(joint_moment(turned, h_turned, kind),
                       joint_moment(params, h, kind)) < 1e-11
        assert rel_err(joint_cumulant(turned, h_turned, kind),
                       joint_cumulant(params, h, kind)) < 1e-11


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_conventions_agree_when_central(seed):
    # the conventions differ only in the sign and word order of the eta
    # terms, which vanish with M
    paper, h = make_instance(seed, central=True, convention="paper")
    standard, _ = build(paper.n, paper.sigma, None, "standard")
    for kind in [(2, 1), (1, 2)]:
        assert rel_err(joint_moment(paper, h, kind), joint_moment(standard, h, kind)) < 1e-13
        assert rel_err(joint_cumulant(paper, h, kind),
                       joint_cumulant(standard, h, kind)) < 1e-13


def test_eta_identity_direction_is_convention_independent():
    pp, h = make_instance(3, m=1, convention="paper")
    ps, _ = build(pp.n, pp.sigma, pp.m_matrix, "standard")
    eye = [np.eye(3)]
    for j in (1, 2, 3, 4):
        assert rel_err(eta_moment(pp, eye, (j,)), eta_moment(ps, eye, (j,))) < 1e-12


def test_base_moment_validation():
    params, h = make_instance(4, m=2)
    with pytest.raises(ValidationError):
        rho_moment(params, h, (0, 0))
    # the string routes read the tables under joint_cumulant's weight cap
    assert rel_err(rho_moment_strings(params, h, (5, 5)), rho_moment(params, h, (5, 5))) < 1e-12
    with pytest.raises(BudgetExceededError):
        rho_moment_strings(params, h, (6, 5))
    sigma = np.diag([1.0, 0.0, 2.0]).astype(complex)
    singular, _ = build(2, sigma, np.eye(3))
    with pytest.raises(SingularMatrixError):
        eta_moment(singular, h, (1, 1))


# ---------------------------------------------------------------------------
# joint moments and cumulants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_joint_specializes_to_univariate(convention):
    params, _ = make_instance(5, convention=convention)
    eye = [np.eye(3)]
    for i in range(7):
        assert rel_err(joint_moment(params, eye, (i,)),
                       noncentral_moment(params, i)) < 1e-11


def test_joint_moment_trivial_and_budget():
    params, h = make_instance(6)
    assert joint_moment(params, h, (0, 0)) == 1
    with pytest.raises(BudgetExceededError):
        joint_moment(params, h, (6, 5))


def test_index_components_must_be_integers():
    # neither truncated (1.5 -> 1) nor counted (True -> 1)
    params, h = make_instance(6)
    alpha = MomentSequence.from_cumulants([1.5, 0.5, 0.25])
    t = random_complex(np.random.default_rng(6), 2)
    routes = (lambda i: joint_moment(params, h, i),
              lambda i: joint_cumulant(params, h, i),
              lambda i: joint_cumulant_randomized(alpha, params, h, i),
              lambda i: permanent_master(t, i, 0.5))
    for route in routes:
        for bad in ((1.5, 1), (True, 1), (1, np.float32(0.5)), (None, 1), "21"):
            with pytest.raises(ValidationError):
                route(bad)
        assert route((2.0, np.int64(1))) == route((2, 1))
    eye = [np.eye(3)]
    with pytest.raises(ValidationError):
        joint_moment(params, eye, (1.5,))


def test_joint_moment_singular_sigma():
    sigma = np.diag([1.0, 0.0]).astype(complex)
    h = [np.eye(2), np.eye(2)]
    noncentral, _ = build(2, sigma, np.eye(2))
    with pytest.raises(SingularMatrixError):
        joint_moment(noncentral, h, (1, 1))
    central, _ = build(2, sigma, None)
    assert np.isfinite(joint_moment(central, h, (1, 1)).real)


def test_joint_relabeling_symmetry():
    params, h = make_instance(7, m=3)
    base = joint_moment(params, h, (2, 1, 0))
    assert joint_moment(params, [h[1], h[0], h[2]], (1, 2, 0)) == base
    assert joint_moment(params, [h[2], h[1], h[0]], (0, 1, 2)) == base


def test_joint_cumulant_central_pair():
    params, h = make_instance(8, central=True)
    want = params.n * product_trace([params.sigma @ h[0], params.sigma @ h[1]])
    assert rel_err(joint_cumulant(params, h, (1, 1)), want) < 1e-13


def test_joint_cumulant_reference_shape_paper_convention():
    # order (1,2): 2! { n Tr[SH1 (SH2)^2] - the three rotation words }
    params, h = make_instance(9, convention="paper")
    s1, s2 = params.sigma @ h[0], params.sigma @ h[1]
    omega = params.noncentrality()
    want = 2 * (params.n * product_trace([s1, s2, s2])
                - product_trace([omega, s1, s2, s2])
                - product_trace([omega, s2, s1, s2])
                - product_trace([omega, s2, s2, s1]))
    assert rel_err(joint_cumulant(params, h, (1, 2)), want) < 1e-13


def test_joint_cumulant_univariate_specialization():
    from wishmom import noncentral_cumulant
    params, _ = make_instance(10, convention="paper")
    eye = [np.eye(3)]
    for i in range(1, 6):
        assert rel_err(joint_cumulant(params, eye, (i,)),
                       noncentral_cumulant(params, i)) < 1e-12


def test_joint_cumulant_direction_homogeneity():
    params, h = make_instance(11)
    c = 0.5 + 1.25j
    scaled = [c * h[0], h[1]]
    i = (2, 1)
    assert rel_err(joint_cumulant(params, scaled, i),
                   c ** 2 * joint_cumulant(params, h, i)) < 1e-12
    # Sigma -> c Sigma and M -> c M scale order-|i| moments and cumulants by c^|i|
    c = 0.75
    both, _ = build(params.n, c * params.sigma, c * params.m_matrix, params.convention)
    for i in [(2, 1), (1, 3)]:
        assert rel_err(joint_moment(both, h, i), c ** sum(i) * joint_moment(params, h, i)) < 1e-12
        assert rel_err(joint_cumulant(both, h, i),
                       c ** sum(i) * joint_cumulant(params, h, i)) < 1e-12


def joint_cumulant_from_moments(params, h, kind):
    """Moebius route: Cum_i = sum over partitions of
    (-1)^{l-1} (l-1)! d_lambda prod of joint moments."""
    total = 0.0
    for lam in multiindex_partitions(kind):
        term = lam.coefficient() * (-1) ** (lam.length - 1) * math.factorial(lam.length - 1)
        for col, r in zip(lam.columns, lam.multiplicities):
            term = term * joint_moment(params, h, col) ** r
        total += term
    return total


@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_joint_cumulant_consistent_with_moments(convention):
    params, h = make_instance(12, convention=convention)
    for kind in [(1, 1), (2, 0), (1, 2), (2, 2)]:
        assert rel_err(joint_cumulant(params, h, kind),
                       joint_cumulant_from_moments(params, h, kind)) < 1e-10


def joint_moment_from_cumulants(params, h, kind):
    """Unity-sequence expansion: mom_i = sum over partitions of
    d_lambda prod of joint cumulants."""
    total = 0.0
    for lam in multiindex_partitions(kind):
        term = complex(lam.coefficient())
        for col, r in zip(lam.columns, lam.multiplicities):
            term = term * joint_cumulant(params, h, col) ** r
        total += term
    return total


@pytest.mark.parametrize("convention", ["paper", "standard"])
def test_joint_moment_from_cumulant_expansion(convention):
    params, h = make_instance(13, convention=convention)
    for kind in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]:
        assert rel_err(joint_moment(params, h, kind),
                       joint_moment_from_cumulants(params, h, kind)) < 1e-10


def test_joint_moment_enumerates_only_the_partitions_of_its_kind(monkeypatch):
    calls = []
    enumerate_partitions = wishmom.multivariate.multiindex_partitions

    def counting(t):
        calls.append(tuple(t))
        return enumerate_partitions(t)

    monkeypatch.setattr(wishmom.multivariate, "multiindex_partitions", counting)
    kind = (2, 1, 1)
    for central in (True, False):
        params, h = make_instance(42, m=3, central=central)
        calls.clear()
        assert np.isfinite(joint_moment(params, h, kind))
        assert calls == [kind], central


def gaussian_integers(rng, p, bound=2):
    return (rng.integers(-bound, bound + 1, size=(p, p))
            + 1j * rng.integers(-bound, bound + 1, size=(p, p)))


@pytest.mark.parametrize("central", [False, True])
@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("kind", [(3, 2), (2, 2, 1), (1, 1, 1, 1)])
def test_joint_moment_matches_the_exact_split_convolution(kind, convention, central):
    # Gaussian-integer Sigma, M and H make the oracle's tables exact; under
    # the paper convention Sigma is real diagonal, so Omega = Sigma^-1 M is
    # exact too.  The bound scales with the same sum on |K|.
    rng = np.random.default_rng(50 + 7 * len(kind))
    p, n = 3, 3.5
    if convention == "paper":
        sigma = np.diag(rng.integers(1, 4, size=p)).astype(complex)
    else:
        a = gaussian_integers(rng, p)
        sigma = a @ a.conj().T + p * np.eye(p)
    m_matrix = np.zeros((p, p)) if central else gaussian_integers(rng, p)
    h = [gaussian_integers(rng, p) for _ in kind]
    params, _ = build(n, sigma, m_matrix, convention)
    rho, eta = exact_joint_tables(sigma, m_matrix, h, kind, convention)
    exact = exact_joint_moment(n, params.sign, rho, eta, kind)
    absolute = {u: abs(complex(n * rho[u] + params.sign * eta[u])) for u in rho}
    scale = math.prod(map(math.factorial, kind)) * float(
        exact_composition(absolute, kind, lambda l: 1).re)
    assert exact.distance(joint_moment(params, h, kind)) <= ERROR_BOUND * scale


@pytest.mark.parametrize("kind", [(2, 1), (1, 2, 1)])
def test_standard_tables_are_exact_at_a_singular_sigma(kind):
    # Gaussian-integer inputs and a singular Sigma: the standard words
    # Tr[M H_k1 (Sigma H_k2) ...] need no inverse, so rho and eta equal the
    # exact oracle's to the last bit, and the joint moment and cumulants
    # follow from them within the exact bound
    params, h = singular_instance(len(kind))
    rho_exact, eta_exact = exact_joint_tables(SINGULAR_SIGMA, SINGULAR_M, h, kind, "standard")
    rho, eta = _base_tables(params, h, kind)
    for v in _sub_indices(kind):
        assert rho[v] == complex(rho_exact[v]) and eta[v] == complex(eta_exact[v]), v
        exact = math.prod(map(math.factorial, v)) * (3 * rho_exact[v] + eta_exact[v])
        assert exact.distance(joint_cumulant(params, h, v)) <= ERROR_BOUND * abs(complex(exact))
    exact = exact_joint_moment(3, 1, rho_exact, eta_exact, kind)
    absolute = {u: abs(complex(3 * rho_exact[u] + eta_exact[u])) for u in rho_exact}
    scale = math.prod(map(math.factorial, kind)) * float(
        exact_composition(absolute, kind, lambda l: 1).re)
    assert exact.distance(joint_moment(params, h, kind)) <= ERROR_BOUND * scale
    # the paper words need Omega
    paper, _ = singular_instance(len(kind), "paper")
    for route in (joint_moment, joint_cumulant):
        with pytest.raises(SingularMatrixError):
            route(paper, h, kind)


# ---------------------------------------------------------------------------
# randomized joint cumulants
# ---------------------------------------------------------------------------

def test_randomized_degenerate_index():
    params, h = make_instance(14, convention="paper")
    n = int(params.n)
    point = MomentSequence.from_cumulants([float(n), 0.0, 0.0, 0.0])
    for kind in [(1, 0), (1, 1), (1, 2), (2, 2)]:
        assert rel_err(joint_cumulant_randomized(point, params, h, kind),
                       joint_cumulant(params, h, kind)) < 1e-13


def test_randomized_weight_one():
    params, h = make_instance(15, convention="standard")
    alpha = MomentSequence.from_cumulants([1.3, 0.7])
    got = joint_cumulant_randomized(alpha, params, h, (1, 0))
    want = (1.3 * np.trace(params.sigma @ h[0])
            + np.trace(params.m_matrix @ h[0]))
    assert rel_err(got, want) < 1e-12


def test_randomized_poisson_against_mixture_oracle():
    # randomization touches the central block only: conditional on the index
    # being k, the object is W(k, Sigma, M) with the non-centrality fixed
    rng = np.random.default_rng(16)
    sigma = random_psd(rng, 2, 0.3)
    m = random_psd(rng, 2, 0.2)
    h = [random_complex(rng, 2) for _ in range(2)]
    per_draw, _ = build(1.0, sigma, m, "standard")
    rate = 1.5
    poisson = MomentSequence.from_cumulants([rate] * 4)

    def formal_moment(kind):
        # index 0 leaves the bare non-centrality block: i! sum over
        # partitions of 1/m! prod eta[col]^r
        total = 0.0
        for lam in multiindex_partitions(kind):
            term = 1.0 / math.prod(math.factorial(r) for r in lam.multiplicities)
            for col, r in zip(lam.columns, lam.multiplicities):
                term = term * eta_moment(per_draw, h, col) ** r
            total += term
        return total * math.prod(math.factorial(v) for v in kind)

    def mixture_moment(kind):
        total = math.exp(-rate) * formal_moment(kind)
        for k in range(1, 41):
            weight = math.exp(-rate) * rate ** k / math.factorial(k)
            params_k, _ = build(float(k), sigma, m, "standard")
            total += weight * joint_moment(params_k, h, kind)
        return total

    for kind in [(1, 1), (1, 2)]:
        total = 0.0
        for lam in multiindex_partitions(kind):
            term = lam.coefficient() * (-1) ** (lam.length - 1) * math.factorial(lam.length - 1)
            for col, r in zip(lam.columns, lam.multiplicities):
                term = term * mixture_moment(col) ** r
            total += term
        got = joint_cumulant_randomized(poisson, per_draw, h, kind)
        assert rel_err(got, total) < 1e-9


# ---------------------------------------------------------------------------
# generalized product moments
# ---------------------------------------------------------------------------

def test_central_product_moment_closed_forms():
    params, h = make_instance(17, central=True)
    sigma, n = params.sigma, params.n
    e1 = CyclePermutation(((1,),))
    assert rel_err(central_product_moment(params, h[:1], e1),
                   n * np.trace(sigma @ h[0])) < 1e-13
    e2 = CyclePermutation(((1,), (2,)))
    want = (n ** 2 * np.trace(sigma @ h[0]) * np.trace(sigma @ h[1])
            + n * product_trace([sigma @ h[0], sigma @ h[1]]))
    assert rel_err(central_product_moment(params, h, e2), want) < 1e-13
    # identity permutation = the plain central joint moment at (1, 1)
    assert rel_err(central_product_moment(params, h, e2),
                   joint_moment(params, h, (1, 1))) < 1e-13


def test_product_moments_need_a_cycle_permutation():
    # one-line images are not read as a permutation: ValidationError, not
    # AttributeError on the tuple's missing `size`
    params, h = make_instance(27, convention="standard")
    routes = (central_product_moment, a_product_moment, generalized_moment_expansion,
              lambda params, h, perm: estimate_generalized_moment(
                  params, h, perm, 100, RngStream(1)))
    for route in routes:
        with pytest.raises(ValidationError, match="CyclePermutation"):
            route(params, h, (2, 1))


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("images", [(2, 3, 1, 4), (2, 1, 4, 3), (1, 2, 3, 4),
                                    (3, 1, 2, 5, 4)])
def test_generalized_moments_are_invariant_under_relabeling(images, convention):
    # relabeling the positions by pi (h'_{pi(j)} = h_j, sigma' = pi sigma
    # pi^-1) permutes the factors of every cycle's trace word cyclically and
    # leaves each moment as it is
    m = len(images)
    params, h = make_instance(28 + m, p=2, m=m, convention=convention)
    sigma = CyclePermutation.from_images(images)
    want = (central_product_moment(params, h, sigma), a_product_moment(params, h, sigma),
            generalized_moment_expansion(params, h, sigma).evaluated_sum)
    rng = np.random.default_rng(m)
    for pi in (np.roll(np.arange(m), 1), np.arange(m)[::-1], rng.permutation(m)):
        h2, images2 = [None] * m, [0] * m
        for j in range(m):
            h2[pi[j]] = h[j]
            images2[pi[j]] = pi[images[j] - 1] + 1
        sigma2 = CyclePermutation.from_images(images2)
        got = (central_product_moment(params, h2, sigma2),
               a_product_moment(params, h2, sigma2),
               generalized_moment_expansion(params, h2, sigma2).evaluated_sum)
        for g, w in zip(got, want):
            assert rel_err(g, w) <= 1e-12, (pi, g, w)


def test_a_product_moment_single():
    params, h = make_instance(18, convention="paper")
    e1 = CyclePermutation(((1,),))
    want = -product_trace([params.noncentrality(), params.sigma @ h[0]])
    assert rel_err(a_product_moment(params, h[:1], e1), want) < 1e-13
    # identity direction reduces to -Tr(M)
    got = a_product_moment(params, [np.eye(3)], e1)
    assert rel_err(got, -np.trace(params.m_matrix)) < 1e-12


@pytest.mark.parametrize("convention, singular", [
    ("paper", False), ("standard", False), ("standard", True),
], ids=["paper", "standard", "standard-singular-sigma"])
@pytest.mark.parametrize("m", [2, 3])
def test_singleton_assignment_decomposition(m, convention, singular):
    # product over subsets of the two pure formulas = joint moment at (1,..,1)
    if singular:
        params, h = singular_instance(m)
    else:
        params, h = make_instance(19 + m, m=m, convention=convention)
    total = 0.0
    for mask in itertools.product((0, 1), repeat=m):
        w_pos = [j for j in range(m) if mask[j] == 0]
        a_pos = [j for j in range(m) if mask[j] == 1]
        w_val = central_product_moment(
            params, [h[j] for j in w_pos],
            CyclePermutation(tuple((k + 1,) for k in range(len(w_pos))))) if w_pos else 1.0
        a_val = a_product_moment(
            params, [h[j] for j in a_pos],
            CyclePermutation(tuple((k + 1,) for k in range(len(a_pos))))) if a_pos else 1.0
        total += w_val * a_val
    want = joint_moment(params, h, (1,) * m)
    assert rel_err(total, want) < 1e-12


# ---------------------------------------------------------------------------
# assignment expansion
# ---------------------------------------------------------------------------

def test_expansion_singletons_fully_evaluated():
    params, h = make_instance(22, convention="standard")
    perm = CyclePermutation(((1,), (2,)))
    expansion = generalized_moment_expansion(params, h, perm)
    assert expansion.fully_evaluated
    assert len(expansion.terms) == 4
    assert rel_err(expansion.evaluated_sum, joint_moment(params, h, (1, 1))) < 1e-12


def test_expansion_central_collapse():
    params, h = make_instance(23, m=3, central=True)
    for cycles in [((1,), (2,), (3,)), ((1, 2), (3,)), ((1, 2, 3),)]:
        perm = CyclePermutation(cycles)
        expansion = generalized_moment_expansion(params, h, perm)
        assert expansion.fully_evaluated
        want = central_product_moment(params, h, perm)
        assert rel_err(expansion.evaluated_sum, want) < 1e-12


def test_expansion_two_cycle_symbolic_factors():
    params, h = make_instance(24, convention="standard")
    perm = CyclePermutation(((1, 2),))
    expansion = generalized_moment_expansion(params, h, perm)
    assert not expansion.fully_evaluated
    assert len(expansion.symbolic_factors) == 2
    symbolic_terms = [t for t in expansion.terms if t.symbolic]
    assert len(symbolic_terms) == 2
    for term in symbolic_terms:
        (factor,) = term.factors
        assert factor.symbolic
        assert sorted(factor.assignment) == ["A", "W"]
    # the evaluated part holds the two pure assignments
    pure = [t for t in expansion.terms if not t.symbolic]
    assert len(pure) == 2


def test_product_moment_of_a_normalized_permutation():
    # integral floats and a non-canonical cycle name the same transposition
    params, h = make_instance(25, convention="standard")
    want = central_product_moment(params, h, CyclePermutation(((1, 2),)))
    for cycles in (((1.0, 2.0),), ((2, 1),)):
        assert central_product_moment(params, h, CyclePermutation(cycles)) == want


def test_expansion_pure_factor_values_are_single_cycle_expectations():
    params, h = make_instance(25, convention="standard")
    perm = CyclePermutation(((1, 2),))
    expansion = generalized_moment_expansion(params, h, perm)
    for term in expansion.terms:
        for factor in term.factors:
            if factor.assignment == "WW":
                want = central_product_moment(params, h, perm)
                assert rel_err(factor.value, want) < 1e-12
            if factor.assignment == "AA":
                want = a_product_moment(params, h, perm)
                assert rel_err(factor.value, want) < 1e-12


# the plain per-permutation loop, the oracle of the group-action sums: an
# inverse built for every tau, #cycles(sigma tau^-1) counted on the composed
# images, every cycle of every tau traced afresh, and each formal cycle value
# the complex_fsum of its head-led word over the cycle's rotations

def _oracle_sum(base, images, cycle_value):
    m = len(images)
    terms = []
    for tau in itertools.permutations(range(m)):
        inverse = [0] * m
        for a, b in enumerate(tau):
            inverse[b] = a
        value = base ** len(cycles_of_images([images[inverse[j]] for j in range(m)]))
        for c in cycles_of_images(tau):
            value = value * cycle_value(c)
        terms.append(value)
    return complex_fsum(terms)


def oracle_product_moment(params, h, cycles, formal=False):
    """The central (or formal) generalized moment of the cycles over 1-based
    positions, relabelled 0..k-1 in increasing order, by the plain loop."""
    positions = sorted(j for c in cycles for j in c)
    label = {j: k for k, j in enumerate(positions)}
    images = [0] * len(positions)
    for c in cycles:
        for a, b in zip(c, c[1:] + c[:1]):
            images[label[a]] = label[b]
    hs = [np.asarray(h[j - 1], dtype=complex) for j in positions]
    sh, heads = [params.sigma @ hk for hk in hs], _heads(params, hs)

    def word(first, rest):
        return np.trace(functools.reduce(np.matmul, [first] + [sh[j] for j in rest]))

    def rotations(c):
        return complex_fsum(word(heads[c[r]], c[r + 1:] + c[:r]) for r in range(len(c)))

    if formal:
        return _oracle_sum(params.sign, images, rotations)
    return _oracle_sum(params.n, images, lambda c: word(sh[c[0]], c[1:]))


def _labelled(cycle_type, seed):
    """A permutation of the cycle type on randomly labelled positions."""
    labels = np.random.default_rng(seed).permutation(sum(cycle_type)) + 1
    cuts = np.cumsum((0,) + cycle_type)
    return CyclePermutation(tuple(tuple(int(v) for v in labels[a:b])
                                  for a, b in zip(cuts, cuts[1:])))


def _oracle_cases():
    """Every cycle type up to m = 5 under both conventions, central and
    not; at m = 6, whose oracle loop is the slow one, each of the 11 types
    under one of those four cases in turn."""
    cases = list(itertools.product(CONVENTIONS, ("noncentral", "central")))
    types = [lam.parts for m in range(1, 7) for lam in integer_partitions(m)]
    for k, cycle_type in enumerate(types):
        for convention, central in cases if sum(cycle_type) <= 5 else [cases[k % 4]]:
            yield pytest.param(cycle_type, convention, central == "central",
                               id=f"{cycle_type}-{convention}-{central}")


@pytest.mark.parametrize("cycle_type, convention, central", _oracle_cases())
def test_group_action_sums_match_the_per_permutation_loop(cycle_type, convention, central):
    # central values equal the loop bit for bit; formal values, one block
    # product per cycle in place of a sum over its rotations, to rounding
    m = sum(cycle_type)
    params, h = make_instance(70 + m, p=2, m=m, convention=convention, central=central)
    sigma = _labelled(cycle_type, m)

    @functools.cache
    def oracle(cycles, formal=False):
        return oracle_product_moment(params, h, cycles, formal)

    assert central_product_moment(params, h, sigma) == oracle(sigma.cycles)
    assert rel_err(a_product_moment(params, h, sigma), oracle(sigma.cycles, True)) <= 1e-12
    expansion = generalized_moment_expansion(params, h, sigma)
    if central:
        assert expansion.evaluated_sum == oracle(sigma.cycles)
    for term in expansion.terms:
        for f in term.factors:
            if f.assignment == CENTRAL_LETTER * len(f.cycle):
                assert f.value == oracle((f.cycle,))
            elif f.assignment == FORMAL_LETTER * len(f.cycle) and not central:
                assert rel_err(f.value, oracle((f.cycle,), True)) <= 1e-12
        if term.symbolic or (central and any(FORMAL_LETTER in f.assignment for f in term.factors)):
            continue
        w_cycles = tuple(f.cycle for f in term.factors if f.assignment[0] == CENTRAL_LETTER)
        a_cycles = tuple(f.cycle for f in term.factors if f.assignment[0] == FORMAL_LETTER)
        want = oracle(w_cycles) * oracle(a_cycles, True)
        if a_cycles:
            assert rel_err(term.value, want) <= 1e-12
        else:
            assert term.value == want


@pytest.mark.parametrize("route", [central_product_moment, a_product_moment,
                                   generalized_moment_expansion])
def test_each_distinct_cycle_word_is_formed_once_per_call(monkeypatch, route):
    # S_5 has 274 cycles over its 120 permutations, but only 89 distinct
    # ones (sum_k C(5, k) (k-1)!): one word each per call, central or formal
    from wishmom import multivariate

    words = []
    real = multivariate._word_product

    def spy(factors, word, left=None):
        words.append((len(factors[0]), tuple(word)))
        return real(factors, word, left)

    monkeypatch.setattr(multivariate, "_word_product", spy)
    params, h = make_instance(75, p=2, m=5, convention="paper")
    route(params, h, CyclePermutation(((1, 3, 5), (2, 4))))
    assert len(words) == len(set(words))
    counts = {size: sum(1 for p, _ in words if p == size) for size in (2, 4)}
    want = {central_product_moment: {2: 89, 4: 0}, a_product_moment: {2: 0, 4: 89},
            generalized_moment_expansion: {2: 89, 4: 89}}[route]
    assert counts == want


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_generalized_moments_at_a_singular_sigma(monkeypatch, convention):
    # the central words need no Omega; the formal words need it under
    # "paper" with M != 0, and under "standard" they lead with M itself
    from wishmom import model

    solves = []
    real = model.matrix_core.solve
    monkeypatch.setattr(model.matrix_core, "solve",
                        lambda *args: solves.append(args) or real(*args))
    sigma = CyclePermutation(((1, 2), (3,)))
    params, h = singular_instance(3, convention)
    assert np.isfinite(central_product_moment(params, h, sigma))
    assert not solves
    routes = (lambda: a_product_moment(params, h, sigma),
              lambda: generalized_moment_expansion(params, h, sigma).evaluated_sum)
    for route in routes:
        if convention == "paper":
            with pytest.raises(SingularMatrixError):
                route()
        else:
            assert np.isfinite(route())
    assert bool(solves) == (convention == "paper")


def test_expansion_budget():
    params, h = make_instance(26, m=7)
    perm = CyclePermutation(tuple((k,) for k in range(1, 8)))
    with pytest.raises(BudgetExceededError):
        generalized_moment_expansion(params, h, perm)
