import numpy as np
import pytest

from wishmom import (
    DimensionMismatchError,
    NotHermitianError,
    SingularMatrixError,
    ValidationError,
    build,
)
from wishmom.matrix_core import (
    as_matrix,
    hermitian_eigen,
    is_hermitian,
    mat_norm,
    solve,
    trace,
)

from brute_force import power_traces, product_trace
from conftest import PAPER_M, PAPER_SIGMA, random_complex, random_hermitian


def test_trace_examples():
    assert trace(np.eye(3)) == 3
    assert abs(trace(PAPER_SIGMA) - 0.03243) < 1e-12
    rng = np.random.default_rng(0)
    a, b = random_complex(rng, 4), random_complex(rng, 4)
    assert abs(trace(a @ b) - trace(b @ a)) <= 1e-12 * abs(trace(a @ b))


def test_product_trace_single_and_cyclic():
    rng = np.random.default_rng(1)
    a = random_complex(rng, 4)
    assert product_trace([a]) == trace(a)
    for length in range(2, 7):
        factors = [random_complex(rng, 3) for _ in range(length)]
        base = product_trace(factors)
        for shift in range(1, length):
            rotated = factors[shift:] + factors[:shift]
            assert abs(product_trace(rotated) - base) <= 1e-12 * abs(base)


def test_product_trace_validation():
    with pytest.raises(ValidationError):
        product_trace([])
    with pytest.raises(DimensionMismatchError):
        product_trace([np.eye(2), np.eye(3)])


def test_as_matrix_rejects_empty_and_non_square():
    for bad in (np.zeros((0, 0)), np.zeros((2, 3)), np.zeros(3)):
        with pytest.raises(ValidationError):
            as_matrix(bad)
    with pytest.raises(ValidationError):
        build(2, np.zeros((0, 0)))


@pytest.mark.parametrize("bad", ["a", [["1", "x"]], [[1, 2], [3]], {"a": 1}, [[10 ** 400]]],
                         ids=["string", "strings", "ragged", "mapping", "huge-int"])
def test_matrices_numpy_cannot_read_are_validation_errors(bad):
    # numpy's own ValueError, TypeError or OverflowError stays inside the
    # package's error hierarchy, on every route that reads a matrix
    from wishmom import binomial_convolution_check, haar_compression, joint_moment, permanent_d
    from wishmom.mc import RngStream

    params, _ = build(2, np.eye(2), np.eye(2))
    routes = (lambda: as_matrix(bad),
              lambda: build(2, bad),
              lambda: build(2, np.eye(2), bad),
              lambda: joint_moment(params, [bad], (1,)),
              lambda: permanent_d(bad, 1.0),
              lambda: haar_compression(bad, 1, RngStream(1)),
              lambda: binomial_convolution_check(params, 1.0, 2.0, 2, m_split=(bad, bad)))
    for route in routes:
        with pytest.raises(ValidationError):
            route()


def test_product_trace_paper_sigma_squared():
    # Hermitian Sigma: Tr(Sigma^2) equals the sum of squared entry moduli
    entrywise = float(np.sum(np.abs(PAPER_SIGMA) ** 2))
    assert abs(product_trace([PAPER_SIGMA, PAPER_SIGMA]) - entrywise) < 1e-7
    assert abs(entrywise - 7.9646e-4) < 1e-7


def test_power_traces():
    assert power_traces(np.eye(4), 3) == [4, 4, 4]
    assert power_traces(np.array([[2.0]]), 4) == [2, 4, 8, 16]
    got = power_traces(PAPER_SIGMA, 2)
    assert abs(got[0] - 0.03243) < 1e-12
    assert abs(got[1] - 7.9646e-4) < 1e-7


def test_power_traces_match_eigenvalue_sums():
    rng = np.random.default_rng(2)
    a = random_hermitian(rng, 5)
    vals, _ = hermitian_eigen(a)
    for k, tk in enumerate(power_traces(a, 4), start=1):
        want = np.sum(vals ** k)
        assert abs(tk - want) <= 1e-8 * max(abs(want), 1e-30)


def test_solve_identity_and_residual():
    rng = np.random.default_rng(3)
    b = random_complex(rng, 4)
    assert np.allclose(solve(np.eye(4), b), b)
    a = random_complex(rng, 4) + 4 * np.eye(4)
    x = solve(a, b)
    assert np.abs(a @ x - b).max() <= 1e-10 * mat_norm(b)
    # against the library oracle
    assert np.abs(x - np.linalg.solve(a, b)).max() <= 1e-9 * np.abs(x).max()


def test_solve_vector_rhs():
    rng = np.random.default_rng(4)
    a = random_complex(rng, 3) + 3 * np.eye(3)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    x = solve(a, v)
    assert x.shape == (3,)
    assert np.abs(a @ x - v).max() <= 1e-10


def test_solve_paper_noncentrality_corner():
    omega = solve(PAPER_SIGMA, PAPER_M)
    assert abs(omega[2, 2] - (269.96 - 174.11j)) < 2e-2
    assert np.abs(PAPER_SIGMA @ omega - PAPER_M).max() <= 1e-10 * mat_norm(PAPER_M)


def test_solve_singular():
    a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(SingularMatrixError):
        solve(a, np.eye(2))


def test_eigen_diagonal_order():
    vals, q = hermitian_eigen(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(vals, [3.0, 2.0, 1.0])
    assert np.abs(q.conj().T @ q - np.eye(3)).max() < 1e-12


def test_eigen_random_hermitian():
    rng = np.random.default_rng(5)
    for p in (2, 3, 5, 8):
        a = random_hermitian(rng, p)
        vals, q = hermitian_eigen(a)
        scale = mat_norm(a)
        assert np.abs(a @ q - q @ np.diag(vals)).max() <= 1e-9 * scale
        assert np.abs(q.conj().T @ q - np.eye(p)).max() <= 1e-9
        assert np.all(np.diff(vals) <= 1e-12 * scale)
        # trace identities
        assert abs(np.sum(vals) - trace(a).real) <= 1e-9 * scale
        assert abs(np.sum(vals ** 2) - trace(a @ a).real) <= 1e-9 * scale ** 2
        # against the library oracle
        assert np.abs(np.sort(vals) - np.linalg.eigvalsh(a)).max() <= 1e-9 * scale


def test_eigen_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_is_hermitian_tolerance():
    assert is_hermitian(PAPER_SIGMA)
    assert not is_hermitian(PAPER_M)


def test_mat_norm():
    assert mat_norm(np.array([[0.0, -2.0], [1.0, 0.0]])) == 4.0
