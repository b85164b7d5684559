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
    central_product_moment,
    distribution_identity_check,
    estimate_generalized_moment,
    estimate_joint_moment,
    estimate_trace_cumulants,
    eta_moment_strings,
    generalized_moment_expansion,
    joint_cumulant,
    noncentral_cumulant,
    noncentral_cumulant_eigen,
    noncentral_moment,
    noncentral_moment_bell,
    permanent_alpha,
    permanent_d,
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
