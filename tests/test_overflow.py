"""The one overflow rule: a public route whose closed form or Monte Carlo
estimate overflows on finite inputs raises NumericalError, and numpy
prints no warning."""

import warnings

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
# an int past the float range, and reads Python's OverflowError on it as an
# overflow; no builtin error escapes
PAST_170 = {
    "noncentral_cumulant-171": lambda params: noncentral_cumulant(params, 171),
    "cumulant_sequence-171": lambda params: cumulant_sequence(params, 171).values[-1],
    "noncentral_moment_bell-171": lambda params: noncentral_moment_bell(params, 171),
    "randomized_moment-171": lambda params: randomized_moment(
        MomentSequence.from_moments([1.0] * 171), params, 171),
    "central_cumulant-172": lambda params: central_cumulant(params, 172),
    "noncentral_cumulant_eigen-172": lambda params: noncentral_cumulant_eigen(params, 172),
    "central_moment-172": lambda params: central_moment(params, 172),
    "joint_cumulant-171": lambda params: joint_cumulant(params, [I2], (171,)),
    "joint_cumulant_randomized-171": lambda params: joint_cumulant_randomized(
        MomentSequence.from_cumulants([1.0] * 171), params, [I2], (171,)),
    "permanent_master-171": lambda params: permanent_master(np.array([[0.5]]), (171,), 0.5),
}


@pytest.mark.parametrize("route", PAST_170.values(), ids=PAST_170.keys())
def test_orders_past_170_are_a_number_or_an_overflow(monkeypatch, route):
    monkeypatch.setenv("WISHMOM_MAX_BUDGET", "200")
    params = _params(np.diag([0.01, 0.02]), np.diag([0.001, 0.0]), n=2)
    try:
        value = route(params)
    except NumericalError as exc:
        assert "overflows" in str(exc)
    else:
        assert np.isfinite(value)
