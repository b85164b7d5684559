"""Independent routes that check the benchmark's job answers.

None of these shares a code path with the production route it checks.
Base moments come from a dynamic-programming sum over all strings (no
necklaces), moments from cumulants by the multivariate moment-cumulant
recursion (no multi-index partitions), and the randomized cumulants by
composing truncated power series.  Omega is solved with numpy.linalg, not
with the library's LU.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def sub_indices(kind) -> list[tuple[int, ...]]:
    """Every v <= kind componentwise, ordered by weight, then lexicographically."""
    box = itertools.product(*(range(c + 1) for c in kind))
    return sorted(box, key=lambda v: (sum(v), v))


def index_factorial(v) -> int:
    out = 1
    for c in v:
        out *= math.factorial(c)
    return out


def close(a, b, rtol: float) -> bool:
    a, b = complex(a), complex(b)
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _string_sums(factors, kind, left):
    """S[v] = sum over all strings of kind v of left @ (ordered product).

    S[v] = sum_k S[v - e_k] @ factors[k]: the last letter of the string is k.
    """
    s = {}
    for v in sub_indices(kind):
        if not any(v):
            s[v] = left
            continue
        acc = 0
        for k, c in enumerate(v):
            if c:
                acc = acc + s[v[:k] + (c - 1,) + v[k + 1:]] @ factors[k]
        s[v] = acc
    return s


def base_tables(sigma, m_matrix, h, kind, convention):
    """rho[v] and eta[v] for every nonzero v <= kind.

    rho[v] = Tr S[v] / |v| on the factors Sigma H_k; eta[v] = Tr(Omega S'[v])
    on Sigma H_k (paper) or H_k Sigma (standard).  Equal to the necklace
    forms because the all-strings sum is |v| times the necklace sum.
    """
    sigma = np.asarray(sigma, dtype=complex)
    eye = np.eye(sigma.shape[0], dtype=complex)
    sh = [sigma @ hk for hk in h]
    rho_s = _string_sums(sh, kind, eye)
    rho = {v: complex(np.trace(rho_s[v])) / sum(v) for v in rho_s if any(v)}
    eta = dict.fromkeys(rho, 0j)
    if np.any(m_matrix):
        omega = np.linalg.solve(sigma, np.asarray(m_matrix, dtype=complex))
        factors = sh if convention == "paper" else [hk @ sigma for hk in h]
        eta_s = _string_sums(factors, kind, omega)
        eta = {v: complex(np.trace(eta_s[v])) for v in rho}
    return rho, eta


def joint_cumulants(n, sign, rho, eta) -> dict:
    """kappa[v] = v! (n rho[v] + sign eta[v])."""
    return {v: index_factorial(v) * (n * rho[v] + sign * eta[v]) for v in rho}


def moments_from_cumulants(kappa, kind) -> dict:
    """Joint moments mu[i] for every i <= kind by the recursion

        mu[i] = sum_{v <= i - e_k} C(i - e_k, v) kappa[v + e_k] mu[i - e_k - v]

    with k the first nonzero component of i.
    """
    mu = {}
    for i in sub_indices(kind):
        if not any(i):
            mu[i] = 1.0 + 0.0j
            continue
        k = next(j for j, c in enumerate(i) if c)
        base = i[:k] + (i[k] - 1,) + i[k + 1:]
        total = 0.0 + 0.0j
        for v in sub_indices(base):
            coef = 1
            for b, x in zip(base, v):
                coef *= math.comb(b, x)
            rest = tuple(b - x for b, x in zip(base, v))
            total += coef * kappa[v[:k] + (v[k] + 1,) + v[k + 1:]] * mu[rest]
        mu[i] = total
    return mu


def _series_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two multivariate power series truncated to a's box."""
    out = np.zeros_like(a)
    for u in itertools.product(*(range(s) for s in a.shape)):
        if a[u] == 0:
            continue
        dst = tuple(slice(x, None) for x in u)
        src = tuple(slice(0, s - x) for s, x in zip(a.shape, u))
        out[dst] += a[u] * b[src]
    return out


def compose(weights, table, kind) -> np.ndarray:
    """[z^v] sum_{l >= 1} weights[l] R(z)^l / l! for every v <= kind,
    where R(z) = sum_{u != 0} table[u] z^u.

    R^l / l! sums prod table[u] / prod r! over multisets of l columns, which
    is the partition sum sum_lambda w_l / m! prod table[col]^r.
    """
    shape = tuple(c + 1 for c in kind)
    r = np.zeros(shape, dtype=complex)
    for u, val in table.items():
        r[u] = val
    power = np.zeros(shape, dtype=complex)
    power[(0,) * len(kind)] = 1.0
    out = np.zeros(shape, dtype=complex)
    for l in range(1, sum(kind) + 1):
        power = _series_mul(power, r) / l
        out += weights[l] * power
    return out
