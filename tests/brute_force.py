"""Brute-force kernels that only the tests use, as independent oracles for
the production routes: every string of a kind, every partition of an
integer by recursion, traces of explicitly multiplied matrix products, the
power traces and the float series composition one step at a time, the
string sums and base tables on tuple indices, the series' pair lists from
`np.triu_indices`, and exact (Gaussian-rational) compositions, permanents
and moments, and the Touchard polynomials."""

import itertools
import math
from collections.abc import Mapping
from fractions import Fraction

import numpy as np

from wishmom import DimensionMismatchError, ValidationError
from wishmom.combinatorics import complex_fsum
from wishmom.matrix_core import as_matrix

# |float - exact| <= ERROR_BOUND * scale on every route pinned against an
# exact value, with the scale the same sum on absolute values.  The worst
# case seen over the tests is 2.3e-16 * scale, about one unit of 2**-52.
ERROR_BOUND = 1e-14


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


def partitions_of(n):
    """Every partition of n as a tuple of parts, in reverse-lexicographic
    order: a recursion that extends a prefix by each part no larger than
    its last, largest first.  The order oracle of `integer_partitions`."""
    out = []
    prefix: list[int] = []

    def rec(remaining, cap):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part)
            prefix.pop()

    rec(n, n)
    return out


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


def trace_cache_by_powers(sigma, m_matrix, depth) -> tuple[tuple, tuple]:
    """(T_1..T_depth, S_1..S_depth) with T_i = Tr(Sigma^i) and
    S_i = Tr(M Sigma^{i-1}), one power and one trace at a time."""
    t, s = [], []
    pow_sigma, m_pow = sigma, m_matrix
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(depth):
            t.append(complex(np.trace(pow_sigma)))
            s.append(complex(np.trace(m_pow)))
            pow_sigma = pow_sigma @ sigma
            m_pow = m_pow @ sigma
    return tuple(t), tuple(s)


def string_sums_by_tuples(factors, kind) -> np.ndarray:
    """S[v] = sum over every string of kind v of prod(word), for every
    sub-index v <= kind (shape kind + 1 + (p, p)): S[v] = sum_k
    S[v - e_k] @ factors[k], each v - e_k spelled out as a tuple index."""
    p = factors[0].shape[0]
    s = np.empty(tuple(c + 1 for c in kind) + (p, p), dtype=complex)
    s[(0,) * len(kind)] = np.eye(p)
    for v in itertools.islice(itertools.product(*(range(c + 1) for c in kind)), 1, None):
        s[v] = sum(s[v[:k] + (c - 1,) + v[k + 1:]] @ factors[k] for k, c in enumerate(v) if c)
    return s


def tables_by_moveaxis(factors, heads, kind) -> tuple[np.ndarray, np.ndarray]:
    """(rho, eta) on the grid of sub-indices from `string_sums_by_tuples`:
    rho[v] = Tr S[v] / |v| with |v| from `np.indices`, and eta[v] =
    sum_k Tr(heads[k] S[v - e_k]), each head's term added with axis k moved
    to the front of eta and of S, as the dot product of head^T with each
    S[v - e_k], both flattened."""
    s = string_sums_by_tuples(factors, kind)
    p = s.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        weight = np.indices(s.shape[:-2]).sum(axis=0)
        rho = np.trace(s, axis1=-2, axis2=-1) / np.maximum(weight, 1)
        rho.flat[0] = 0
        eta = np.zeros_like(rho)
        for k, head in enumerate(heads):
            words = np.moveaxis(s, k, 0)[:-1]
            np.moveaxis(eta, k, 0)[1:] += np.vecdot(
                head.T.conj().reshape(-1), words.reshape(words.shape[:-2] + (p * p,)))
    return rho, eta


def shift_pairs_by_triu(shape) -> tuple[np.ndarray, np.ndarray]:
    """The (destination, source) flat-index pairs of a product with the
    series on the grid of `shape`: the Cartesian product, earlier axes
    major, of one `np.triu_indices` triangle (u_j <= d_j) per axis."""
    dst = src = np.zeros(1, dtype=np.intp)
    for axis, size in enumerate(shape):
        stride = math.prod(shape[axis + 1:])
        u, d = np.triu_indices(size)
        dst = np.add.outer(dst, d * stride).ravel()
        src = np.add.outer(src, (d - u) * stride).ravel()
    return dst, src


def shift_add_composition(table, kind, weight) -> complex:
    """[z^kind] of sum_{l >= 1} weight(l) R(z)^l / l! in floats, R(z) the
    grid `table` (shape kind + 1, origin ignored): each product with R adds,
    per nonzero entry u in C order, that multiple of the previous power
    shifted by u, one slice pair per entry."""
    shape = tuple(v + 1 for v in kind)
    top = sum(kind)
    r = np.array(table, dtype=complex)
    flat = r.reshape(-1)
    flat[0] = 0
    if top == 0:
        return 0j
    terms = [weight(1) * flat[-1]]
    if top > 1:
        dst = itertools.product(*([slice(x, None) for x in range(s)] for s in shape))
        src = itertools.product(*([slice(0, s - x) for x in range(s)] for s in shape))
        shifts = [shift for shift in zip(dst, src, flat.tolist()) if shift[2]]
        power, buffers = r, (np.empty_like(r), np.empty_like(r))
        for l in range(2, top):
            out = buffers[l % 2]
            out.fill(0)
            for d, s, x in shifts:
                out[d] += x * power[s]
            out /= l
            power = out
            terms.append(weight(l) * power.flat[-1])
        # C order: reversing the flat grid reverses every axis
        terms.append(weight(top) * np.dot(flat, power.reshape(-1)[::-1]) / top)
    return complex_fsum(terms)


# ---------------------------------------------------------------------------
# exact arithmetic: compositions, permanents and moments in Fractions
# ---------------------------------------------------------------------------

class GaussianRational:
    """An exact complex number re + i im with Fraction parts.  A float or a
    complex converts exactly: every finite double is a rational."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @classmethod
    def of(cls, z) -> "GaussianRational":
        if isinstance(z, GaussianRational):
            return z
        if isinstance(z, (int, Fraction)):
            return cls(z)
        z = complex(z)
        return cls(Fraction(z.real), Fraction(z.imag))

    def __add__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + -GaussianRational.of(other)

    def __mul__(self, other):
        other = GaussianRational.of(other)
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, q):
        """Division by a rational."""
        return GaussianRational(self.re / q, self.im / q)

    def __pow__(self, k: int):
        out = GaussianRational(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        other = GaussianRational.of(other)
        return self.re == other.re and self.im == other.im

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def distance(self, z) -> float:
        """|self - z| for a float or complex z, from the exact difference."""
        diff = self - z
        return math.sqrt(float(diff.re ** 2 + diff.im ** 2))


def exact_composition(table, kind, weight) -> GaussianRational:
    """Exact [z^kind] of sum_{l >= 1} weight(l) R(z)^l / l!, where
    R(z) = sum_{u != 0} table[u] z^u.

    `table` maps sub-indices to values, or is a sequence [_, x_1, .., x_i]
    for a one-dimensional kind.  The entries are brought to one common
    denominator D, so the powers D^l R^l are dictionaries of Gaussian
    integers, multiplied term by term: no numpy and no partitions.
    """
    kind = tuple(kind)
    if not isinstance(table, Mapping):
        table = {(k,): x for k, x in enumerate(table)}
    entries = {u: GaussianRational.of(x) for u, x in table.items() if any(u) and x != 0}
    den = math.lcm(1, *(q.denominator for z in entries.values() for q in (z.re, z.im)))
    r = {u: (int(z.re * den), int(z.im * den)) for u, z in entries.items()}
    power = {(0,) * len(kind): (1, 0)}
    total = GaussianRational(0)
    for length in range(1, sum(kind) + 1):
        nxt = {}
        for u, (a, b) in power.items():
            for v, (c, d) in r.items():
                w = tuple(x + y for x, y in zip(u, v))
                if all(x <= k for x, k in zip(w, kind)):
                    re, im = nxt.get(w, (0, 0))
                    nxt[w] = (re + a * c - b * d, im + a * d + b * c)
        power = nxt
        if kind in power:
            scale = den ** length * math.factorial(length)
            re, im = power[kind]
            total = total + GaussianRational.of(weight(length)) * GaussianRational(
                Fraction(re, scale), Fraction(im, scale))
    return total


def exact_matrix(a) -> list:
    """A matrix of exact entries from a nested list or an array."""
    return [[GaussianRational.of(x) for x in row] for row in np.asarray(a).tolist()]


def _exact_matmul(a, b) -> list:
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), GaussianRational(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def master_rho(t, kind) -> dict:
    """rho[v] = Tr S[v] / |v| of every nonzero v <= kind on the master
    theorem's factors F_k: T with every column but column k zeroed.
    S[v] = sum_k S[v - e_k] F_k with S[0] = I.

    Exact (Gaussian-rational values, Python integers throughout) when T
    has Gaussian-integer entries; complex floats otherwise.
    """
    t = np.asarray(t, dtype=complex)
    exact = bool(np.all(t.real == np.round(t.real)) and np.all(t.imag == np.round(t.imag)))
    re, im = (t.real, t.imag) if not exact else (
        t.real.astype(int).astype(object), t.imag.astype(int).astype(object))
    m = t.shape[0]
    factors = []
    for k in range(m):
        keep = np.zeros((m, m), dtype=int)
        keep[:, k] = 1
        factors.append((re * keep, im * keep))
    eye = np.eye(m, dtype=int).astype(re.dtype)
    s = {}
    for v in itertools.product(*(range(c + 1) for c in kind)):
        if not any(v):
            s[v] = (eye, eye * 0)
            continue
        acc_re = acc_im = 0
        for k, c in enumerate(v):
            if c:
                (a, b), (f, g) = s[v[:k] + (c - 1,) + v[k + 1:]], factors[k]
                acc_re = acc_re + a @ f - b @ g
                acc_im = acc_im + a @ g + b @ f
        s[v] = (acc_re, acc_im)
    out = {}
    for v, (a, b) in s.items():
        if any(v):
            tr_re, tr_im = np.trace(a), np.trace(b)
            out[v] = (GaussianRational(Fraction(int(tr_re), sum(v)), Fraction(int(tr_im), sum(v)))
                      if exact else complex(tr_re, tr_im) / sum(v))
    return out


def exact_permanent_master(t, kind, weight) -> GaussianRational:
    """per_a[T(kind)] exactly for a Gaussian-integer T: kind! times the
    composition of the exact rho table with cycle-count weights
    a_l = weight(l)."""
    return math.prod(math.factorial(v) for v in kind) * exact_composition(
        master_rho(t, kind), kind, weight)


def exact_permanent(y, weight) -> GaussianRational:
    """sum over permutations s of weight(#cycles(s)) prod_j y[j, s(j)],
    exactly, over all p! permutations."""
    y = exact_matrix(y)
    total = GaussianRational(0)
    for perm in itertools.permutations(range(len(y))):
        seen, cycles = set(), 0
        for start in range(len(perm)):
            if start not in seen:
                cycles += 1
                j = start
                while j not in seen:
                    seen.add(j)
                    j = perm[j]
        term = GaussianRational.of(weight(cycles))
        for j, col in enumerate(perm):
            term = term * y[j][col]
        total = total + term
    return total


def exact_trace_powers(sigma, m_matrix, k_max) -> tuple[list, list]:
    """([T_1..T_k_max], [S_1..S_k_max]) exactly: T_k = Tr(Sigma^k) and
    S_k = Tr(M Sigma^(k-1))."""
    sigma, acc = exact_matrix(sigma), exact_matrix(m_matrix)
    p = len(sigma)
    t, s = [], []
    power = sigma
    for _ in range(k_max):
        t.append(sum((power[a][a] for a in range(p)), GaussianRational(0)))
        s.append(sum((acc[a][a] for a in range(p)), GaussianRational(0)))
        power, acc = _exact_matmul(power, sigma), _exact_matmul(acc, sigma)
    return t, s


def exact_moments_from_cumulants(kappa) -> list:
    """[m_0, .., m_i] from [kappa_1, .., kappa_i] by the recursion
    m_k = sum_j C(k-1, j-1) kappa_j m_{k-j}, exactly."""
    m = [GaussianRational(1)]
    for k in range(1, len(kappa) + 1):
        m.append(sum((math.comb(k - 1, j - 1) * kappa[j - 1] * m[k - j]
                      for j in range(1, k + 1)), GaussianRational(0)))
    return m


def touchard(i, x):
    """The Touchard polynomial sum_k S(i, k) x^k, exact on an exact x,
    with the Stirling numbers of the second kind S(i, k) from the
    recurrence S(m, k) = S(m-1, k-1) + k S(m-1, k): i! [z^i] of
    exp(x (e^z - 1)), the moment of order i of a Poisson law of mean x."""
    row = [1]  # S(0, 0)
    for m in range(1, i + 1):
        row = [0] + [row[k - 1] + (k * row[k] if k < m else 0) for k in range(1, m + 1)]
    return sum(s * x ** k for k, s in enumerate(row))


def _exact_word_trace(heads, factors, word) -> GaussianRational:
    """Tr[heads[s1] factors[s2] ... factors[sl]] for the word (s1, .., sl)."""
    acc = heads[word[0] - 1]
    for sym in word[1:]:
        acc = _exact_matmul(acc, factors[sym - 1])
    return sum((acc[j][j] for j in range(len(acc))), GaussianRational(0))


def exact_joint_tables(sigma, m_matrix, h, kind, convention) -> tuple[dict, dict]:
    """Exact (rho, eta) of every nonzero v <= kind, summed over every
    string s of kind v (`strings_of_kind`), for Gaussian-integer matrices:
        rho[v] = (1/|v|) sum_s Tr[(Sigma H_s1) ... (Sigma H_sl)],
        eta[v] = sum_s Tr[Omega (Sigma H_s1) ... (Sigma H_sl)]   ("paper"),
        eta[v] = sum_s Tr[M H_s1 (Sigma H_s2) ... (Sigma H_sl)]  ("standard").
    The standard word is Tr[Omega (H_s1 Sigma) ... (H_sl Sigma)] by trace
    cyclicity, so it needs no inverse.  The paper word needs
    Omega = Sigma^-1 M, exact here because Sigma must be real diagonal.
    """
    sigma_exact, m_exact = exact_matrix(sigma), exact_matrix(m_matrix)
    sh = [_exact_matmul(sigma_exact, exact_matrix(hk)) for hk in h]
    if convention == "paper":
        diagonal = np.diag(np.diag(sigma).real)
        if np.any(np.asarray(sigma) != diagonal):
            raise ValidationError("the exact paper-convention eta needs a real diagonal Sigma")
        omega = [[z / Fraction(float(d)) for z in row]
                 for d, row in zip(np.diag(diagonal), m_exact)]
        heads = [_exact_matmul(omega, f) for f in sh]
    else:
        heads = [_exact_matmul(m_exact, exact_matrix(hk)) for hk in h]
    rho, eta = {}, {}
    for v in itertools.product(*(range(c + 1) for c in kind)):
        if any(v):
            words = list(strings_of_kind(v))
            rho[v] = sum((_exact_word_trace(sh, sh, w) for w in words),
                         GaussianRational(0)) / sum(v)
            eta[v] = sum((_exact_word_trace(heads, sh, w) for w in words), GaussianRational(0))
    return rho, eta


def exact_joint_moment(n, sign, rho, eta, kind) -> GaussianRational:
    """E[prod_j Tr(W H_j)^{i_j}] exactly, as the binomial convolution over
    the splits kind = t1 + t2 of A(t1), the composition of eta with sign^l
    weights, and R(t2), the composition of rho with n^l weights (both 1 at
    the zero index): kind! sum_{t2 <= kind} A(kind - t2) R(t2)."""
    def part(table, t, base):
        if not any(t):
            return GaussianRational(1)
        return exact_composition(table, t, lambda l: Fraction(base) ** l)

    total = GaussianRational(0)
    for t2 in itertools.product(*(range(c + 1) for c in kind)):
        t1 = tuple(a - b for a, b in zip(kind, t2))
        total = total + part(eta, t1, sign) * part(rho, t2, n)
    return math.prod(math.factorial(v) for v in kind) * total
