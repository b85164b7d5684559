"""Validated parameter bundle for a non-central complex Wishart distribution.

A `WishartParams` holds (n, Sigma, M) plus the sign convention; `build`
also returns the derived `TraceCache` with T_i = Tr(Sigma^i) and
S_i = Tr(M Sigma^{i-1}), both read from one stacked array of powers and
kept as the two rows of one (2, depth) complex array.  The
S_i are computed without ever forming Sigma^{-1}: by trace cyclicity
Tr(Omega Sigma^i) = Tr(M Sigma^{i-1}).

Sign convention:

* ``"paper"`` (default): every contribution of the non-centrality part
  enters with a minus sign, reproducing the source formulas verbatim
  (e.g. Cum_i = n (i-1)! T_i - i! S_i).
* ``"standard"``: the same contribution enters with a plus sign, which is
  what matches Monte Carlo sampling of the defining sum of outer products.

`WishartParams` reads its convention by `budgets.convention`, the rule the
CLI reads a request's convention by, and this module exports that rule's
`CONVENTIONS`.  The convention affects no value in this module; it is
consumed by the moment/cumulant engines downstream.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

from . import budgets, matrix_core
from .budgets import CONVENTIONS, check_moment_order, positive_real
from .errors import DimensionMismatchError

DEFAULT_DEPTH = 12

# the one lock behind every parameter set's cache extension and Omega
# solve: both are rare, and neither takes the lock while holding it
_LOCK = threading.Lock()


@dataclass(frozen=True, eq=False, slots=True)
class TraceCache:
    """Power-trace caches T_i = Tr(Sigma^i) and S_i = Tr(M Sigma^{i-1}).

    Both sequences are the rows of one read-only (2, depth) complex array,
    `traces`, 16 bytes a trace: row 0 holds T_1..T_depth and row 1
    S_1..S_depth.  `t_power` and `s_power` read one entry as a Python
    complex with the array's bits, and `t` and `s` give a whole row as a
    tuple.  Two caches are equal when their traces are.
    """

    traces: np.ndarray

    @property
    def depth(self) -> int:
        return self.traces.shape[1]

    @property
    def t(self) -> tuple[complex, ...]:
        """(T_1, ..., T_depth)."""
        return tuple(self.traces[0].tolist())

    @property
    def s(self) -> tuple[complex, ...]:
        """(S_1, ..., S_depth)."""
        return tuple(self.traces[1].tolist())

    def t_power(self, i: int) -> complex:
        """T_i, 1-based."""
        return self.traces.item(0, i - 1)

    def s_power(self, i: int) -> complex:
        """S_i, 1-based; S_1 = Tr(M)."""
        return self.traces.item(1, i - 1)

    def __eq__(self, other):
        if not isinstance(other, TraceCache):
            return NotImplemented
        return np.array_equal(self.traces, other.traces)


@matrix_core.quiet
def _compute_cache(sigma: np.ndarray, m_matrix: np.ndarray, depth: int) -> TraceCache:
    """T_1..T_depth and S_1..S_depth in one stacked pass.

    powers[0, k] = Sigma^(k+1) and powers[1, k] = M Sigma^k are one
    (2, depth, p, p) array: each step multiplies both previous powers by
    Sigma in one `np.matmul` into the next slot, and one `np.trace` over
    the stack reads every T_i and S_i into the cache's (2, depth) array.
    """
    powers = np.empty((2, depth) + sigma.shape, dtype=complex)
    powers[0, 0], powers[1, 0] = sigma, m_matrix
    for k in range(1, depth):
        np.matmul(powers[:, k - 1], sigma, out=powers[:, k])
    traces = np.trace(powers, axis1=2, axis2=3)
    traces.flags.writeable = False
    return TraceCache(traces)


@functools.lru_cache(maxsize=16)
def _zero(p: int) -> np.ndarray:
    """The read-only p x p complex zero that central parameter sets of
    dimension p share: a zero-stride view of one complex zero, so it holds
    no p x p buffer, and its `tobytes()` are those of a dense zero.  The
    cache keeps at most 16 dimensions, each entry a view of a few hundred
    bytes."""
    return np.broadcast_to(np.zeros((), dtype=complex), (p, p))


class WishartParams:
    """Immutable parameters (n, Sigma, M, convention) with lazy derived data.

    `n` may be any positive real for formula evaluation; sampling requires
    an integer.  Sigma must be Hermitian; M may be non-Hermitian (the
    `m_is_hermitian` flag records which) since only its trace products
    enter the univariate formulas.  `is_central` records whether M = 0.
    An M that is None or +0 in every entry is held as the read-only zero
    that every central parameter set of its dimension shares (`_zero`),
    not as a dense p x p array of its own.

    The trace cache grows monotonically on demand and the non-centrality
    matrix is computed at most once, both under the one module-level lock
    that every parameter set shares (`_LOCK`), so concurrent readers are
    safe and a set holds no lock of its own.  An extension or a solve is
    rare, and neither runs inside the other.
    """

    __slots__ = ("n", "sigma", "m_matrix", "convention", "p", "m_is_hermitian", "is_central",
                 "_cache", "_omega")

    def __init__(self, n, sigma, m_matrix=None, convention: str = "paper"):
        n = positive_real(n, "n")
        sigma = matrix_core.hermitian_matrix(sigma, "sigma must be Hermitian")
        if m_matrix is None:
            m_matrix = _zero(len(sigma))
        else:
            m_matrix = matrix_core.as_matrix(m_matrix)
            if m_matrix.shape != sigma.shape:
                raise DimensionMismatchError(
                    f"m_matrix shape {m_matrix.shape} != sigma shape {sigma.shape}")
            if not (m_matrix.any() or np.signbit(m_matrix.view(float)).any()):
                m_matrix = _zero(len(sigma))  # every entry +0: the same bytes
        convention = budgets.convention(convention)

        sigma.flags.writeable = False
        m_matrix.flags.writeable = False
        self.n = n
        self.sigma = sigma
        self.m_matrix = m_matrix
        self.convention = convention
        self.p = sigma.shape[0]
        self.m_is_hermitian = matrix_core.is_hermitian(m_matrix)
        self.is_central = not np.any(m_matrix)
        self._cache = _compute_cache(sigma, m_matrix, DEFAULT_DEPTH)
        self._omega = None

    @property
    def sign(self) -> float:
        """Sign carried by every non-centrality contribution."""
        return -1.0 if self.convention == "paper" else 1.0

    def trace_cache(self, min_depth: int = 0) -> TraceCache:
        """The cache, extended (and kept) if shallower than min_depth.

        An extension recomputes every power up to min_depth in one stacked
        pass (`_compute_cache`), so a loop over orders asks once for its
        top order before it loops.  min_depth is read as a moment order,
        so it is capped by the same budget (`budgets.check_moment_order`).
        """
        min_depth = check_moment_order(min_depth)
        cache = self._cache
        if cache.depth >= min_depth:
            return cache
        with _LOCK:
            if self._cache.depth < min_depth:
                self._cache = _compute_cache(self.sigma, self.m_matrix, min_depth)
            return self._cache

    def noncentrality(self) -> np.ndarray:
        """Omega = Sigma^{-1} M via linear solve, cached after first use.

        Raises SingularMatrixError when Sigma is numerically singular; the
        univariate formulas (which only need the S_i) remain available.
        """
        if self._omega is None:
            with _LOCK:
                if self._omega is None:
                    omega = matrix_core.solve(self.sigma, self.m_matrix)
                    omega.flags.writeable = False
                    self._omega = omega
        return self._omega

    def with_convention(self, convention: str) -> "WishartParams":
        """A copy under the other sign convention; its trace cache extends
        on demand, like any other."""
        return WishartParams(self.n, self.sigma, self.m_matrix, convention)

    def __repr__(self):
        return (f"WishartParams(n={self.n}, p={self.p}, "
                f"convention={self.convention!r}, central={self.is_central})")


def build(n, sigma, m_matrix=None,
          convention: str = "paper") -> tuple[WishartParams, TraceCache]:
    """Validate parameters and precompute the trace caches to
    DEFAULT_DEPTH; later requests extend them on demand.

    The non-centrality matrix is *not* computed here; see
    `WishartParams.noncentrality`.
    """
    params = WishartParams(n, sigma, m_matrix, convention)
    return params, params.trace_cache()


def noncentrality(params: WishartParams) -> np.ndarray:
    """Omega = Sigma^{-1} M (module-level alias of the cached accessor)."""
    return params.noncentrality()
