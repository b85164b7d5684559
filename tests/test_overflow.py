"""The one overflow rule: a public route whose closed form or Monte Carlo
estimate overflows on finite inputs raises NumericalError, and numpy
prints no warning."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from wishmom import (
    CyclePermutation,
    MomentSequence,
    NumericalError,
    RngStream,
    build,
    central_cumulant,
    central_moment,
    central_product_moment,
    compose_normalized_moments,
    cumulant_sequence,
    distribution_identity_check,
    estimate_generalized_moment,
    estimate_joint_moment,
    estimate_trace_cumulants,
    eta_moment_strings,
    generalized_moment_expansion,
    joint_cumulant,
    joint_cumulant_randomized,
    noncentral_cumulant,
    noncentral_cumulant_eigen,
    noncentral_moment,
    noncentral_moment_bell,
    permanent_alpha,
    permanent_d,
    permanent_master,
    randomized_moment,
    repeated_matrix,
    rho_moment,
    rho_moment_strings,
)

from brute_force import touchard

I2 = np.eye(2)
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
HUGE = np.diag([1e200, 1.0])  # Sigma^2 overflows
M = np.diag([0.5, 0.2])
Y = repeated_matrix([[1e200, 1.0], [1.0, 1.0]], (2, 1))


def _params(sigma, m=None, convention="paper", n=3):
    return build(n, sigma, m, convention)[0]


CASES = {
    "noncentral_moment": lambda: noncentral_moment(
        _params(np.array([[1e15]]), np.array([[1e15]]), "standard", n=1), 20),
    "noncentral_moment_bell": lambda: noncentral_moment_bell(_params(HUGE), 3),
    "noncentral_cumulant": lambda: noncentral_cumulant(_params(HUGE), 3),
    "central_cumulant": lambda: central_cumulant(_params(HUGE), 3),
    "noncentral_cumulant_eigen": lambda: noncentral_cumulant_eigen(_params(HUGE), 3),
    "eta_moment_strings": lambda: eta_moment_strings(
        _params(HUGE, M, "standard"), [I2, SWAP], (2, 1)),
    "joint_cumulant-noncentral": lambda: joint_cumulant(
        _params(HUGE, M, "standard"), [I2, SWAP], (2, 1)),
    "permanent_d": lambda: permanent_d(Y, 1),
    "permanent_alpha": lambda: permanent_alpha(Y, MomentSequence.from_moments([1, 1, 1])),
    # a Python power that raises OverflowError, not a non-finite value
    "central_product_moment-huge-n": lambda: central_product_moment(
        _params(I2, n=1e200), [I2, I2], CyclePermutation(((1,), (2,)))),
    "permanent_d-huge-d": lambda: permanent_d(np.eye(4), 1e100),
}
# the Monte Carlo estimators on sampled draws: Tr W ~ 1e200, so its square
# and every higher power overflow
CASES.update({
    "estimate_joint_moment": lambda: estimate_joint_moment(
        _params(HUGE, None, "standard"), [I2], (2,), 100, RngStream(1)),
    "estimate_generalized_moment": lambda: estimate_generalized_moment(
        _params(HUGE, M, "standard"), [I2, SWAP], CyclePermutation(((1, 2),)), 100,
        RngStream(1)),
    "estimate_trace_cumulants": lambda: estimate_trace_cumulants(
        _params(HUGE, M, "standard"), 3, 100, RngStream(1)),
    "distribution_identity_check": lambda: distribution_identity_check(
        _params(HUGE, None, "standard"), _params(HUGE, None, "standard", n=2),
        "df-additivity", 100, RngStream(1)),
    # finite draws whose Python float powers raise OverflowError: the square
    # of a 1e200 central moment, and of the gap between two chunks' means
    "estimate_trace_cumulants-python-power": lambda: estimate_trace_cumulants(
        _params(np.diag([1e100, 1.0]), None, "standard"), 2, 100, RngStream(1)),
    "estimate_joint_moment-merge": lambda: estimate_joint_moment(
        _params(np.diag([1e40, 1.0]), None, "standard"), [I2], (4,), 40_000, RngStream(1)),
})
CASES.update({
    f"{route.__name__}-{conv}":
        lambda route=route, conv=conv: route(_params(HUGE, None, conv), [I2, SWAP], (2, 1))
    for route in (rho_moment, rho_moment_strings, joint_cumulant)
    for conv in ("paper", "standard")})
CASES.update({
    f"{route.__name__}-{cycles}":
        lambda route=route, cycles=cycles: route(_params(HUGE, M, "standard"), [I2, I2],
                                                 CyclePermutation(cycles))
    for route in (central_product_moment, generalized_moment_expansion)
    for cycles in (((1,), (2,)), ((1, 2),))})


@pytest.mark.parametrize("route", CASES.values(), ids=CASES.keys())
def test_overflow_raises_numerical_error_without_a_warning(route):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="overflows"):
            route()


# orders past 170 under a raised budget: each needs k! for some k >= 171,
# an int past the float range.  Python raises OverflowError on it, and the
# overflow rule then computes the product exactly, so a route whose value
# is in the float range returns it: within 1e-12 of an exact evaluation in
# rationals of the same formula on Sigma = diag(1/100, 2/100),
# M = diag(1/1000, 0), n = 2 (the paper sign), which differs from the
# float inputs by about 1e-15 relative.  The compositions form no k!
# before their final i!: their tables hold T_k / k (and S_k), or divide
# by k! exactly past 170.  No builtin error escapes.
A, B, M0 = Fraction(1, 100), Fraction(2, 100), Fraction(1, 1000)


def _exact_cumulant(k, n=2):
    # n (k-1)! T_k - k! S_k, T_k = a^k + b^k, S_k = m a^(k-1)
    return n * math.factorial(k - 1) * (A ** k + B ** k) - math.factorial(k) * M0 * A ** (k - 1)


def _exact_moment_bell(k, n=2):
    y = [Fraction(1)]
    kappa = [None] + [_exact_cumulant(j, n) for j in range(1, k + 1)]
    for r in range(1, k + 1):
        y.append(sum(math.comb(r - 1, j - 1) * kappa[j] * y[r - j] for j in range(1, r + 1)))
    return y[k]


PAST_170 = {
    "noncentral_cumulant-171": (lambda params: noncentral_cumulant(params, 171),
                                lambda: _exact_cumulant(171)),
    "cumulant_sequence-171": (lambda params: cumulant_sequence(params, 171).values[-1],
                              lambda: _exact_cumulant(171)),
    "noncentral_moment_bell-171": (lambda params: noncentral_moment_bell(params, 171),
                                   lambda: _exact_moment_bell(171)),
    # N = 1 almost surely: the moment of one draw, n = 1
    "randomized_moment-171": (lambda params: randomized_moment(
        MomentSequence.from_moments([1.0] * 171), params, 171),
        lambda: _exact_moment_bell(171, n=1)),
    # the central cumulant is n (k-1)! T_k, and the eigenvalue form adds
    # k! sum_j d_j theta_j^(k-1), here m a^171 k!: below 1e-30
    "central_cumulant-172": (lambda params: central_cumulant(params, 172),
                             lambda: 2 * math.factorial(171) * (A ** 172 + B ** 172)),
    "noncentral_cumulant_eigen-172": (lambda params: noncentral_cumulant_eigen(params, 172),
                                      lambda: _exact_cumulant(172)),
    # Tr W = a G_1 + b G_2 with G_1, G_2 independent Gamma(2): the moment
    # is 172! [z^172] (1 - a z)^-2 (1 - b z)^-2
    "central_moment-172": (lambda params: central_moment(params, 172),
                           lambda: math.factorial(172) * sum(
                               (j + 1) * (173 - j) * A ** j * B ** (172 - j) for j in range(173))),
    # with h = [I], kappa_k = k! (n T_k / k - S_k), the trace cumulant
    "joint_cumulant-171": (lambda params: joint_cumulant(params, [I2], (171,)),
                           lambda: _exact_cumulant(171)),
    # every cumulant of the index 1: the central part is k! [z^k] exp R(z),
    # R = sum_u T_u z^u / u, that is k! h_k(a, b) = k! (b^(k+1) - a^(k+1)) / (b - a)
    "joint_cumulant_randomized-171": (lambda params: joint_cumulant_randomized(
        MomentSequence.from_cumulants([1.0] * 171), params, [I2], (171,)),
        lambda: math.factorial(171) * ((B ** 172 - A ** 172) / (B - A) - M0 * A ** 170)),
    # e_k = c 2^-k, c = 0.01 as a float: p R(z) = 2 c (e^(z/2) - 1), so the
    # moment is 2^-171 times the Touchard value T_171(2 c)
    "compose_normalized_moments-171": (lambda params: compose_normalized_moments(
        MomentSequence.from_moments([0.01 * 2.0 ** -k for k in range(1, 172)]), 2, 171),
        lambda: Fraction(1, 2 ** 171) * touchard(171, 2 * Fraction(0.01))),
    # per_d of the k x k matrix of halves: (1/2)^k d (d + 1) ... (d + k - 1)
    "permanent_master-171": (lambda params: permanent_master(np.array([[0.5]]), (171,), 0.5),
                             lambda: Fraction(1, 2) ** 171 * math.prod(
                                 Fraction(2 * j + 1, 2) for j in range(171))),
}


@pytest.mark.parametrize("case", PAST_170, ids=PAST_170)
def test_orders_past_170_are_a_number_or_an_overflow(monkeypatch, case):
    route, exact = PAST_170[case]
    monkeypatch.setenv("WISHMOM_MAX_BUDGET", "200")
    params = _params(np.diag([0.01, 0.02]), np.diag([0.001, 0.0]), n=2)
    want = float(exact())
    value = route(params)
    assert abs(value - want) <= 1e-12 * abs(want), (value, want)
