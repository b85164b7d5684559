"""Brute-force kernels that only the tests use, as independent oracles for
the production routes: every string of a kind, and traces of explicitly
multiplied matrix products."""

import numpy as np

from wishmom import DimensionMismatchError, ValidationError
from wishmom.matrix_core import as_matrix


def strings_of_kind(kind):
    """Yield every string over {1..m} of the given kind, in lexicographic
    order."""
    kind = tuple(int(v) for v in kind)
    n = sum(kind)
    counts = list(kind)
    prefix: list[int] = []

    def rec():
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for j in range(len(counts)):
            if counts[j]:
                counts[j] -= 1
                prefix.append(j + 1)
                yield from rec()
                prefix.pop()
                counts[j] += 1

    yield from rec()


def product_trace(factors) -> complex:
    """Tr(F_1 F_2 ... F_s), multiplied left to right.

    Invariant under cyclic rotation of the factor list.
    """
    factors = [as_matrix(f) for f in factors]
    if not factors:
        raise ValidationError("product_trace needs at least one factor")
    p = factors[0].shape[0]
    if any(f.shape[0] != p for f in factors):
        raise DimensionMismatchError("product_trace factors differ in dimension")
    acc = factors[0]
    for f in factors[1:]:
        acc = acc @ f
    return complex(np.trace(acc))


def power_traces(a, k_max: int) -> list[complex]:
    """[Tr(A), Tr(A^2), ..., Tr(A^k_max)] via repeated multiplication."""
    if k_max < 1:
        raise ValidationError(f"k_max must be >= 1: {k_max}")
    a = as_matrix(a)
    out = []
    acc = a
    for _ in range(k_max):
        out.append(complex(np.trace(acc)))
        acc = acc @ a
    return out
