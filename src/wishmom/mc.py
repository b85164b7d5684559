"""Monte Carlo ground truth: Wishart sampling, Haar compressions, and
estimators with standard errors.

Complex Gaussian convention: a standard complex Gaussian entry has unit
total variance (real and imaginary parts each of variance 1/2), so a single
row x satisfies E[x^dag x] = Sigma.  Under this convention the central
formulas match sampling exactly, and the non-central ones match under the
"standard" sign convention; paper-convention non-central values are *not*
comparable to samples.

Randomness is counter-based (Philox) keyed by (seed, stream_id): identical
keys reproduce identical draws bit-exactly, and disjoint stream_ids give
independent streams.

Two samplers, each the one production route for what it draws:

- rows: `_row_batches` turns the stream into the n rows X of each draw,
  so W = X^H X.  The rows of N draws are the first 2 n p N standard
  normals of the stream read as a complex (N, n, p) array, times the eigen
  factor F of Sigma scaled by 1/sqrt(2), minus the mean rows; they are
  made in chunks of 65,536 / p^2 draws (1,024 at p = 8) in reused
  buffers, and the chunking does not change them.  Estimators
  that need Tr(W H) = sum conj(X) * (X H) read it from the rows and never
  form W.  The generalized (cycle-product) moments read 1-cycles from the
  rows too, and form W at most once per chunk, for the cycles of length 2
  or more.
- traces: `_trace_batches` draws Tr W alone from its exact law.  In the
  eigenbasis of Sigma, Tr W = sum_j theta_j G_j with independent
  G_j = chi'^2_{2n}(2 d_j / theta_j) / 2 and d_j = (Q^H M Q)_jj, so each
  draw costs one non-central chi-square variate per direction with
  theta_j > 0, not 2 n p normals.  The trace cumulants and
  both sides of the distribution identity checks read it.

The two samplers consume their streams differently, so a trace draw is
not the trace of a row draw on the same stream; the tests pin the trace
sampler's law against the rows' Tr W on independent streams.

Haar compressions are batched: one stacked QR per chunk of draws, then
the power sums Tr Y^k, k <= 4, of each Y, read from Y and Y^2 with no
eigensolve.  `haar_unitary` and `haar_compression` are the one-draw case
of the same kernel, so a batch reproduces the same number of one-draw
calls on the same generator bit for bit.

Every estimator and `haar_power_sums` counts the random variates it will
draw from its request and checks that count against the fixed Monte Carlo
cap (`budgets.check_mc_variates`) before any draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import matrix_core
from .budgets import IDENTITIES, check_mc_variates, integer, integer_tuple
from .errors import (
    DimensionMismatchError,
    NonIntegerNError,
    NotPSDError,
    ValidationError,
    finite,
)
from .model import WishartParams, build

if TYPE_CHECKING:
    from .applications import PolykaySample
    from .combinatorics import CyclePermutation

_CHUNK_ENTRIES = 65536  # p * p * draws per chunk of rows: a 1 MB stack of W
_HAAR_CHUNK = 1024  # draws per stacked QR


@dataclass(frozen=True)
class RngStream:
    """A reproducible, splittable random stream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", integer(self.seed, "seed"))
        object.__setattr__(self, "stream_id", integer(self.stream_id, "stream_id"))

    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(np.random.SeedSequence((self.seed, self.stream_id))))

    def substreams(self, k: int) -> list[np.random.Generator]:
        """k independent child generators, deterministic in (seed, stream_id)."""
        seq = np.random.SeedSequence((self.seed, self.stream_id))
        return [np.random.Generator(np.random.Philox(child)) for child in seq.spawn(k)]


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise ValidationError("rng must be an RngStream or numpy Generator")


# ---------------------------------------------------------------------------
# running estimates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Estimate:
    """Sample mean with its standard error.

    For complex-valued samples the standard error is the root of the total
    scatter E|x - mean|^2 / ((n-1) n), covering both components.
    """

    mean: complex
    std_error: float
    n_samples: int

    def _m2(self) -> float:
        return self.std_error ** 2 * self.n_samples * max(self.n_samples - 1, 0)

    def merge(self, other: "Estimate") -> "Estimate":
        """Pooled estimate of two disjoint sample batches (Welford merge);
        associative up to floating-point roundoff."""
        na, nb = self.n_samples, other.n_samples
        if nb == 0:
            return self
        if na == 0:
            return other
        n = na + nb
        delta = other.mean - self.mean
        mean = self.mean + delta * nb / n
        m2 = self._m2() + other._m2() + abs(delta) ** 2 * na * nb / n
        return Estimate(mean, _std_error(m2, n), n)


def _std_error(m2: float, n: int) -> float:
    return math.sqrt(m2 / (n - 1) / n) if n > 1 else 0.0


def _estimate(values: np.ndarray) -> Estimate:
    """The Estimate of one non-empty batch of complex values; batches pool
    through Estimate.merge."""
    n, mean = values.size, complex(values.mean())
    m2 = float((np.abs(values - mean) ** 2).sum())
    return Estimate(mean, _std_error(m2, n), n)


def _checked(est: Estimate, what: str) -> Estimate:
    """`est` when its mean and standard error are finite; otherwise
    NumericalError "<what> overflows" (`errors.finite`)."""
    finite(est.mean, what)
    finite(est.std_error, f"the standard error of the {what}")
    return est


def _pooled(batches, what: str) -> Estimate:
    """The Estimate pooled over batches of values by Estimate.merge, through
    `_checked`.  The caller holds `matrix_core.quiet`."""
    est = Estimate(0j, 0.0, 0)
    try:
        for values in batches:
            est = est.merge(_estimate(values))
    except OverflowError:  # a float power raises where a product gives inf
        est = Estimate(complex(math.inf), math.inf, est.n_samples)
    return _checked(est, what)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _integer_n(params: WishartParams) -> int:
    n = params.n
    if abs(n - round(n)) > 1e-9:
        raise NonIntegerNError(f"sampling needs integer degrees of freedom, got {n}")
    return int(round(n))


def _psd_eigen(a: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray, int]:
    """(theta, Q, rank) from a = Q diag(theta) Q^H, eigenvalues descending,
    so the rank positive ones come first.  Eigenvalues within
    tol = tolerance(a, 1e-12) of zero are clipped to zero, so a's null space
    gets exactly zero weight (the root of a rounding-level eigenvalue would
    leak ~1e-8 into it); one below -tol raises NotPSDError.
    """
    vals, vecs = matrix_core.hermitian_eigen(a)
    tol = matrix_core.tolerance(a, 1e-12)
    if vals[-1] < -tol:
        raise NotPSDError(f"{name} has negative eigenvalue {vals[-1]:.3e}")
    positive = vals > tol
    return np.where(positive, vals, 0.0), vecs, int(np.count_nonzero(positive))


def _psd_factor(a: np.ndarray, name: str) -> tuple[np.ndarray, int]:
    """(F, rank): F = diag(sqrt(theta)) Q^H from the clipped `_psd_eigen`,
    so F^H F = a, with the rank nonzero rows first and zero rows that
    annihilate a's null space."""
    theta, vecs, rank = _psd_eigen(a, name)
    return np.sqrt(theta)[:, None] * vecs.conj().T, rank


def _mean_rows(params: WishartParams, n: int) -> np.ndarray | None:
    """Rows m_1..m_n with sum of outer products equal to M (None when M=0).

    Requires M Hermitian PSD with rank at most n; the rows are those of
    M's eigen factor with positive eigenvalues, padded with zero rows.
    """
    if params.is_central:
        return None
    if not params.m_is_hermitian:
        raise NotPSDError("sampling needs a Hermitian PSD non-centrality contribution")
    factor, rank = _psd_factor(params.m_matrix, "m_matrix")
    if rank > n:
        raise ValidationError(
            f"m_matrix has rank {rank} > n = {n}; cannot split into n rows")
    rows = np.zeros((n, params.p), dtype=complex)
    rows[:rank] = factor[:rank]
    return rows


def _row_batches(params: WishartParams, means, gen, n_samples):
    """Yield stacked rows X of shape (c, n, p); each draw is W = X^H X.

    The rows of N draws are the first 2 n p N standard normals of `gen`,
    read as a complex (N, n, p) array G (real and imaginary parts
    interleaved), then X = G F / sqrt(2) minus the mean rows, with F the
    eigen factor of Sigma.  They are made c = _CHUNK_ENTRIES // p^2 draws
    at a time (1,024 at p = 8), the first chunk of full size: one
    standard_normal fills the float view of one reused buffer, one 2-D
    GEMM over the c * n rows fills a second, and the mean rows are
    subtracted there.  numpy's Generator gives the same normals in one
    call or many, so the chunking does not change the rows; a yielded X
    is valid until the next one is requested.
    """
    n = _integer_n(params)
    p = params.p
    factor, _ = _psd_factor(params.sigma, "sigma")
    factor /= math.sqrt(2.0)
    if means is None:
        means = _mean_rows(params, n)
    else:
        means = np.array(means, dtype=complex)
        if means.shape != (n, p):
            raise DimensionMismatchError(
                f"means must have shape ({n}, {p}), got {means.shape}")
    remaining = integer(n_samples, "n_samples")
    size = max(1, min(_CHUNK_ENTRIES // p ** 2, remaining))
    g = np.empty((size, n, p), dtype=complex)
    x = np.empty_like(g)
    while remaining > 0:
        c = min(size, remaining)
        gc, xc = g[:c], x[:c]
        gen.standard_normal(out=gc.view(np.float64))
        np.matmul(gc.reshape(c * n, p), factor, out=xc.reshape(c * n, p))
        if means is not None:
            xc -= means
        yield xc
        remaining -= c


def _check_row_draws(params: WishartParams, n_samples: int, what: str) -> None:
    """The Monte Carlo cap on `n_samples` row draws, 2 n p normals each."""
    check_mc_variates(2 * _integer_n(params) * params.p * n_samples, what)


def _trace_law(params: WishartParams) -> tuple[int, np.ndarray, np.ndarray, float]:
    """(n, theta, d, offset) with Tr W = sum_j theta_j G_j + offset in law.

    theta are Sigma's r positive eigenvalues, from the clipped `_psd_eigen`,
    and the G_j are independent, G_j = chi'^2_{2n}(2 d_j / theta_j) / 2
    (Gamma(n, 1) where d_j = 0, so everywhere when M = 0).  With Q the
    eigenvectors and m_i the mean rows, d_j = sum_i |(m_i Q)_j|^2 =
    (Q^H M Q)_jj; the directions with theta_j = 0 carry no noise and add
    their d_j to the offset.  So Cum_k = (k-1)! sum_j (n theta_j^k + k d_j theta_j^{k-1}),
    plus the offset at k = 1.
    """
    n = _integer_n(params)
    theta, vecs, rank = _psd_eigen(params.sigma, "sigma")
    means = _mean_rows(params, n)
    if means is None:
        return n, theta[:rank], np.zeros(rank), 0.0
    d = (np.abs(means @ vecs) ** 2).sum(axis=0)
    return n, theta[:rank], d[:rank], float(d[rank:].sum())


def _trace_batches(params: WishartParams, gen, n_samples):
    """Yield independent draws of Tr W from its exact law (`_trace_law`),
    one array per chunk of up to _CHUNK_ENTRIES // p draws.

    Each chunk is one noncentral_chisquare(2n, 2 d / theta) call of shape
    (c, r), reduced against theta / 2: O(p) variates per draw.  numpy draws
    a zero non-centrality as 2 standard_gamma(n), so M = 0 needs no branch.
    The chunk sizes depend only on p and n_samples, so two parameter sets
    of one p give equal chunks.
    """
    n, theta, d, offset = _trace_law(params)
    remaining = n_samples
    size = max(1, _CHUNK_ENTRIES // params.p)
    r = len(theta)
    while remaining > 0:
        c = min(size, remaining)
        tr = gen.noncentral_chisquare(2 * n, 2.0 * d / theta, (c, r)) @ (0.5 * theta)
        tr += offset
        yield tr
        remaining -= c


def _gram(x: np.ndarray) -> np.ndarray:
    """W = X^H X per draw, from stacked rows (c, n, p)."""
    return x.conj().transpose(0, 2, 1) @ x


def _row_direction_traces(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Tr(W H) = sum conj(X) * (X H) per draw, from stacked rows (b, n, p)."""
    b, n, p = x.shape
    xh = x.reshape(b * n, p) @ h
    return np.vecdot(x.reshape(b, -1), xh.reshape(b, -1))


def sample_wishart(params: WishartParams, means=None, rng=None) -> np.ndarray:
    """One draw of the p x p Wishart matrix.

    Each of the n rows is a standard complex Gaussian row times the eigen
    factor F of Sigma (F^H F = Sigma), shifted by its mean row.  When
    `means` is given (an (n, p) array) it overrides params.m_matrix for this
    draw; otherwise mean rows are derived from M, which must then be
    Hermitian PSD of rank <= n.
    """
    return _gram(next(_row_batches(params, means, _as_generator(rng), 1)))[0]


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

@matrix_core.quiet
def estimate_joint_moment(params: WishartParams, h, i, n_samples, rng) -> Estimate:
    """Sample mean and standard error of prod_j Tr(W H_j)^{i_j}.

    Intended for n_samples in the thousands or more; the estimate is
    reproducible bit-exactly for a fixed (seed, stream_id, n_samples).
    A mean or standard error that overflows raises NumericalError.
    """
    n_samples = integer(n_samples, "n_samples")
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    hs = matrix_core.square_matrices(h, params.p)
    kind = integer_tuple(i, "index")
    if len(kind) != len(hs):
        raise DimensionMismatchError("index length must match len(h)")
    factors = [((hk,), ik) for hk, ik in zip(hs, kind) if ik]
    return _row_estimate(params, factors, n_samples, rng, "estimate_joint_moment",
                         "joint moment estimate")


@matrix_core.quiet
def estimate_generalized_moment(params: WishartParams, h,
                                sigma_perm: CyclePermutation,
                                n_samples, rng) -> Estimate:
    """Sample mean of prod over cycles c of sigma of Tr(prod_{j in c} W H_j).

    W itself is samplable even though its formal non-centrality component
    alone is not, so this estimates the full quantity that the symbolic
    expansion decomposes.  A mean or standard error that overflows raises
    NumericalError.
    """
    n_samples = integer(n_samples, "n_samples")
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    from .combinatorics import CyclePermutation

    hs = matrix_core.square_matrices(h, params.p)
    sigma_perm = CyclePermutation.checked(sigma_perm, len(hs))
    factors = [([hs[j - 1] for j in cyc], 1) for cyc in sigma_perm.cycles]
    return _row_estimate(params, factors, n_samples, rng, "estimate_generalized_moment",
                         "generalized moment estimate")


def _row_estimate(params: WishartParams, factors, n_samples: int, rng, name: str,
                  what: str) -> Estimate:
    """The pooled Estimate of prod over (word, power) in `factors` of
    Tr(prod_{H in word} W H)^power over n_samples row draws, after the
    Monte Carlo cap on those draws (labelled `name`).  A one-matrix word is
    read from the rows; a longer one from W, formed at most once per chunk.
    The caller holds `matrix_core.quiet`."""
    _check_row_draws(params, n_samples, name)
    gen = _as_generator(rng)

    def batches():
        for x in _row_batches(params, None, gen, n_samples):
            vals = np.ones(x.shape[0], dtype=complex)
            w = None
            for word, power in factors:
                if len(word) == 1:
                    trace = _row_direction_traces(x, word[0])
                else:
                    if w is None:
                        w = _gram(x)
                    trace = _cycle_trace(w, word)
                vals *= trace ** power
            yield vals

    return _pooled(batches(), what)


def _cycle_trace(w: np.ndarray, factors) -> np.ndarray:
    """Tr(W F_1 W F_2 ... W F_k) per draw, k >= 2, from stacked W (b, p, p).

    Each W F_j is one flat GEMM; the first k - 1 are multiplied stacked, and
    the trace of that product with the last is one contraction,
    Tr(A B) = sum_ab A[a, b] B[b, a], with no product formed.
    """
    b, p, _ = w.shape
    flat = w.reshape(b * p, p)
    steps = [(flat @ f).reshape(b, p, p) for f in factors]
    prod = steps[0]
    for step in steps[1:-1]:
        prod = prod @ step
    return np.einsum("sab,sba->s", prod, steps[-1])


def _power_sums(batches_of_values, k_max: int) -> np.ndarray:
    """Raw power sums sum x^k, k = 0..k_max, over every value of every batch.

    Each power is the previous one times x (a running product, not pow)."""
    raw = np.zeros(k_max + 1)
    for vals in batches_of_values:
        raw[0] += vals.size
        power = np.ones_like(vals)
        for k in range(1, k_max + 1):
            power *= vals
            raw[k] += float(np.sum(power))
    return raw


@matrix_core.quiet
def estimate_trace_cumulants(params: WishartParams, i_max: int,
                             n_samples, rng) -> list[Estimate]:
    """MC estimates of Cum_1..Cum_{i_max} of Tr W (i_max <= 3).

    Cumulants are estimated through bias-corrected central moments of the
    (real) trace samples, with large-sample delta-method standard errors.
    An estimate or standard error that overflows raises NumericalError.
    """
    i_max = integer(i_max, "i_max")
    if not 1 <= i_max <= 3:
        raise ValidationError("estimate_trace_cumulants supports orders 1..3")
    n_samples = integer(n_samples, "n_samples")
    if n_samples < 10:
        raise ValidationError("n_samples too small for cumulant estimation")
    check_mc_variates(params.p * n_samples, "estimate_trace_cumulants")
    gen = _as_generator(rng)
    raw = _power_sums(_trace_batches(params, gen, n_samples), 6)
    n = raw[0]
    mean = raw[1] / n
    # central moments m_k = E[(x - mean)^k], numpy scalars like every
    # number below: an overflow gives inf or nan, never OverflowError
    cm = [1.0, 0.0]
    for k in range(2, 7):
        cm.append(sum(math.comb(k, j) * raw[j] / n * (-mean) ** (k - j) for j in range(k + 1)))
    out = [Estimate(mean, math.sqrt(max(cm[2], 0.0) / n), int(n))]
    if i_max >= 2:
        k2 = n / (n - 1) * cm[2]
        var_k2 = max(cm[4] - cm[2] ** 2, 0.0) / n
        out.append(Estimate(k2, math.sqrt(var_k2), int(n)))
    if i_max >= 3:
        k3 = n ** 2 / ((n - 1) * (n - 2)) * cm[3]
        var_k3 = max(cm[6] - cm[3] ** 2 - 6 * cm[2] * cm[4] + 9 * cm[2] ** 3, 0.0) / n
        out.append(Estimate(k3, math.sqrt(var_k3), int(n)))
    return [_checked(est, f"trace cumulant {k} estimate") for k, est in enumerate(out, 1)]


# ---------------------------------------------------------------------------
# Haar compressions
# ---------------------------------------------------------------------------

def _haar_unitaries(p: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """`count` stacked Haar-distributed p x p unitaries: for each draw a
    Ginibre matrix (its real parts, then its imaginary parts), then one
    stacked QR with the phase fix that makes each R's diagonal positive
    real (Mezzadri, Notices AMS 54, 2007)."""
    g = gen.standard_normal((count, 2, p, p))
    q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / math.sqrt(2))
    d = r.diagonal(axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def haar_unitary(p: int, rng) -> np.ndarray:
    """Haar-distributed p x p unitary: Ginibre then QR, with the phase fix
    that makes R's diagonal positive real."""
    return _haar_unitaries(integer(p, "p"), 1, _as_generator(rng))[0]


def _compression_input(x, m: int) -> tuple[np.ndarray, int]:
    """(x as a validated Hermitian matrix, m read as an int with
    1 <= m <= p checked)."""
    x = matrix_core.hermitian_matrix(x, "a Haar compression needs a Hermitian matrix")
    m = integer(m, "m")
    if not 1 <= m <= x.shape[0]:
        raise ValidationError(f"compressed size must satisfy 1 <= m <= p: {m}")
    return x, m


def _compression_sums(x: np.ndarray, m: int, frames: np.ndarray) -> tuple:
    """(Tr Y, Tr Y^2, Tr Y^3, Tr Y^4), each one value per unitary, for
    Y = H X H^dag with H the first m rows of each stacked unitary."""
    h = frames[:, :m]
    y = h @ x @ h.conj().mT
    y2 = y @ y
    flat, flat2 = y.reshape(len(y), -1), y2.reshape(len(y), -1)
    # Y and Y^2 are Hermitian, so Tr(A B) = vecdot(B, A) for B in {Y, Y^2}
    return (np.einsum("sii->s", y).real, np.vecdot(flat, flat).real,
            np.vecdot(flat2, flat).real, np.vecdot(flat2, flat2).real)


def haar_power_sums(x, m: int, count: int, rng) -> np.ndarray:
    """Power sums Tr Y^k, k = 1..4, of `count` independent compressions
    Y = H X H^dag by Haar m x p frames H: a (count, 4) array, one row per
    draw.  The draws run in chunks, one stacked QR each.

    Row s equals the power sums of the s-th of `count` successive
    `haar_compression(x, m, gen)` calls on the same generator, bit for bit.
    """
    x, m = _compression_input(x, m)
    count = integer(count, "count")
    check_mc_variates(2 * x.shape[0] ** 2 * count, "haar_power_sums")
    gen = _as_generator(rng)
    out = np.empty((count, 4))
    for lo in range(0, count, _HAAR_CHUNK):
        c = min(_HAAR_CHUNK, count - lo)
        sums = _compression_sums(x, m, _haar_unitaries(x.shape[0], c, gen))
        out[lo:lo + c] = np.column_stack(sums)
    return out


def haar_compression(x, m: int, rng) -> PolykaySample:
    """Spectral sample of Y = H X H^dag for a Haar m x p frame H: the power
    sums Tr Y^k, k = 1..4, row 0 of `haar_power_sums(x, m, 1, rng)`."""
    from .applications import PolykaySample

    return PolykaySample(m, tuple(map(float, haar_power_sums(x, m, 1, rng)[0])))


# ---------------------------------------------------------------------------
# distributional identity checks
# ---------------------------------------------------------------------------

@matrix_core.quiet
def distribution_identity_check(params1: WishartParams, params2: WishartParams,
                                identity: str, n_samples, rng) -> dict:
    """Compare Tr W(n1+n2, Sigma, M1+M2) against the independent sum
    Tr W(params1) + Tr W(params2) on empirical moments of orders 1..4.

    identity selects the claimed decomposition: "df-additivity" requires
    both sides central, "sheffer" a central second block, "m-split" allows
    any split of M.  Returns a JSON-ready report with per-order z-scores
    of lhs - rhs, and each side's standard error so that either side can
    also be tested against the exact moments of Tr W(n1+n2, Sigma, M1+M2).
    A number of the report that overflows raises NumericalError.
    """
    if identity not in IDENTITIES:
        raise ValidationError(f"identity must be one of {IDENTITIES}: {identity!r}")
    if params1.p != params2.p:
        raise DimensionMismatchError(
            f"both parameter sets must share p: {params1.p} != {params2.p}")
    if np.abs(params1.sigma - params2.sigma).max() > matrix_core.tolerance(
            params1.sigma, 1e-12, 1e-300):
        raise ValidationError("both parameter sets must share Sigma")
    if identity == "df-additivity" and not (params1.is_central and params2.is_central):
        raise ValidationError("df-additivity requires central parameters")
    if identity == "sheffer" and not params2.is_central:
        raise ValidationError("sheffer requires a central second block")
    if not isinstance(rng, RngStream):
        raise ValidationError("identity checks need an RngStream for substreams")
    n_samples = integer(n_samples, "n_samples")
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")

    n1, n2 = _integer_n(params1), _integer_n(params2)
    # three trace samples of n_samples draws each: the whole and both blocks
    check_mc_variates(3 * params1.p * n_samples, "distribution_identity_check")
    whole, _ = build(n1 + n2, params1.sigma,
                     params1.m_matrix + params2.m_matrix, "standard")
    gen_l, gen_a, gen_b = rng.substreams(3)

    raw_l = _power_sums(_trace_batches(whole, gen_l, n_samples), 8)
    # one p and one n_samples: both streams yield chunks of equal size
    raw_r = _power_sums((tr_a + tr_b for tr_a, tr_b in zip(
        _trace_batches(params1, gen_a, n_samples),
        _trace_batches(params2, gen_b, n_samples))), 8)

    orders = []
    for k in range(1, 5):
        # numpy scalars: an overflow gives inf or nan here, never OverflowError
        ml, mr = raw_l[k] / n_samples, raw_r[k] / n_samples
        vl = max(raw_l[2 * k] / n_samples - ml ** 2, 0.0) / n_samples
        vr = max(raw_r[2 * k] / n_samples - mr ** 2, 0.0) / n_samples
        se = math.sqrt(vl + vr)
        orders.append({
            "order": k,
            "lhs_mean": ml,
            "rhs_mean": mr,
            "lhs_std_error": math.sqrt(vl),
            "rhs_std_error": math.sqrt(vr),
            "std_error": se,
            "z": (ml - mr) / se if se > 0 else 0.0,
        })
        for key, value in orders[-1].items():
            finite(value, f"identity check {key} of order {k}")
    return {
        "identity": identity,
        "convention": "standard",
        "rng": "philox",
        "seed": rng.seed,
        "stream_id": rng.stream_id,
        "n_samples": n_samples,
        "orders": orders,
        "max_abs_z": max(abs(o["z"]) for o in orders),
    }
