"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as the
criteria execute.  Monte Carlo criteria use the standard sign convention
(the one that matches sampling) and fixed seeds.
"""

import itertools
import math
import time

import numpy as np

import wishmom as wm

from conftest import (
    PAPER_M,
    PAPER_N,
    PAPER_SIGMA,
    random_complex,
    random_hermitian,
    random_psd,
    rel_err,
)


def report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {description}" + (f" [{detail}]" if detail else ""))
    assert ok, f"criterion {num} failed: {description} {detail}"


def nonzero_kinds(m, max_weight):
    for kind in itertools.product(range(max_weight + 1), repeat=m):
        if 1 <= sum(kind) <= max_weight:
            yield kind


# ---------------------------------------------------------------------------

def test_criterion_01_necklace_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    checks = 0
    for m, copies in ((1, 4), (2, 8), (3, 8)):  # 20 instances total
        for _ in range(copies):
            sigma = random_psd(rng, 3)
            params, _ = wm.build(2.0, sigma)
            h = [random_complex(rng, 3) for _ in range(m)]
            for kind in nonzero_kinds(m, 8):
                grouped = wm.rho_moment(params, h, kind)
                brute = wm.rho_moment_strings(params, h, kind)
                worst = max(worst, rel_err(grouped, brute))
                checks += 1
    elapsed = time.perf_counter() - start
    report(1, "necklace-grouped rho equals the all-strings sum",
           worst <= 1e-12 and elapsed < 30.0,
           f"{checks} checks, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_univariate_route_equivalence():
    rng = np.random.default_rng(102)
    worst_mom, worst_cum = 0.0, 0.0
    for p in (2, 3, 4, 5, 6):
        sigma = random_psd(rng, p)
        m_mat = random_psd(rng, p, 0.5)
        for convention in ("paper", "standard"):
            params, _ = wm.build(3.5, sigma, m_mat, convention)
            for i in range(9):
                worst_mom = max(worst_mom, rel_err(
                    wm.noncentral_moment(params, i),
                    wm.noncentral_moment_bell(params, i)))
            for i in range(1, 7):
                worst_cum = max(worst_cum, rel_err(
                    wm.noncentral_cumulant(params, i),
                    wm.noncentral_cumulant_eigen(params, i)))
    report(2, "moment and cumulant routes agree (partition sum vs Bell, trace vs eigen)",
           worst_mom <= 1e-8 and worst_cum <= 1e-8,
           f"worst moment {worst_mom:.2e}, worst cumulant {worst_cum:.2e}")


def test_criterion_03_joint_specializes_to_univariate():
    rng = np.random.default_rng(103)
    worst = 0.0
    for p in (2, 3, 4):
        sigma = random_psd(rng, p)
        m_mat = random_psd(rng, p, 0.4)
        for convention in ("paper", "standard"):
            params, _ = wm.build(2.5, sigma, m_mat, convention)
            eye = [np.eye(p)]
            for i in range(7):
                worst = max(worst, rel_err(wm.joint_moment(params, eye, (i,)),
                                           wm.noncentral_moment(params, i)))
    report(3, "joint moment at m=1, H=I equals the univariate moment",
           worst <= 1e-11, f"worst rel err {worst:.2e}")


def test_criterion_04_monte_carlo_agreement():
    rng = np.random.default_rng(104)
    sigma = random_psd(rng, 2)
    m_mat = random_psd(rng, 2, 0.6)
    params, _ = wm.build(5, sigma, m_mat, "standard")
    h = [random_hermitian(rng, 2), random_hermitian(rng, 2)]
    n_samples = 1_000_000
    start = time.perf_counter()
    zs = {}
    cums = wm.estimate_trace_cumulants(params, 3, n_samples, wm.RngStream(2024, 0))
    for i, est in enumerate(cums, start=1):
        want = wm.noncentral_cumulant(params, i)
        zs[f"cum{i}"] = abs(est.mean - want) / est.std_error
    for k, kind in enumerate([(1, 1), (1, 2), (2, 2)]):
        est = wm.estimate_joint_moment(params, h, kind, n_samples,
                                       wm.RngStream(2024, k + 1))
        want = wm.joint_moment(params, h, kind)
        zs[str(kind)] = abs(est.mean - want) / est.std_error
    elapsed = time.perf_counter() - start
    worst = max(zs.values())
    report(4, "cumulants 1..3 and joint moments match 1e6-sample MC within 3 s.e.",
           worst <= 3.0 and elapsed < 120.0,
           f"worst z {worst:.2f}, {elapsed:.1f}s, zs " +
           " ".join(f"{k}={v:.2f}" for k, v in zs.items()))


def test_criterion_05_reference_fixture():
    params, cache = wm.build(PAPER_N, PAPER_SIGMA, PAPER_M, "paper")
    cum1 = wm.noncentral_cumulant(params, 1)
    cum2 = wm.noncentral_cumulant(params, 2)
    # the formulas themselves: 3 T1 - S1 and 3 T2 - 2 S2
    ok = (abs(cum1 - (3 * cache.t_power(1) - cache.s_power(1))) <= 1e-15
          and abs(cum2 - (3 * cache.t_power(2) - 2 * cache.s_power(2))) <= 1e-15)
    ok = (ok and abs(cum1 - 0.09629) <= 1e-5
          and abs(cum2.real - 1.24e-3) <= 1e-5
          and abs(cum2.real - 0.0012) <= 1e-4)
    # known-typo regressions: the printed first cumulant equals T1 - S1
    # (its n factor dropped) and the printed second imaginary part is a
    # tenfold decimal shift of the recomputed one
    printed_cum1 = cache.t_power(1) - cache.s_power(1)
    ok = ok and abs(printed_cum1 - 0.03143) <= 1e-12
    ok = ok and abs(cum1 - printed_cum1) > 0.06
    ok = ok and abs(10 * cum2.imag - 0.0028) <= 1e-4
    report(5, "reference fixture reproduced with documented print-typo regressions",
           ok, f"cum1 {cum1.real:.5f}, cum2 {cum2.real:.4e}{cum2.imag:+.3e}i")


def test_criterion_06_master_theorem():
    rng = np.random.default_rng(106)
    t = random_complex(rng, 3)
    t_max = float(np.abs(t).max())
    worst = 0.0
    checks = 0
    for kind in nonzero_kinds(3, 6):
        rep = wm.repeated_matrix(t, kind)
        weight = sum(kind)
        scale = math.factorial(weight) * t_max ** weight
        for d in (-1.0, 1.0, 2.0, 0.5 + 0.5j):
            brute = wm.permanent_d(rep, d)
            master = wm.permanent_master(t, kind, d)
            err = abs(master - brute) / max(abs(brute), abs(master), 1e-4 * scale)
            worst = max(worst, err)
            checks += 1
    report(6, "master-theorem permanents equal brute force on repeated matrices",
           worst <= 1e-10, f"{checks} checks, worst rel err {worst:.2e}")


def test_criterion_07_polykay_properties_and_inheritance():
    rng = np.random.default_rng(107)
    # shift semi-invariance and homogeneity
    worst = 0.0
    for _ in range(5):
        y = rng.normal(size=6) * 3
        c = rng.normal()
        base = wm.PolykaySample.from_eigenvalues(y)
        shifted = wm.PolykaySample.from_eigenvalues(y + c)
        scaled = wm.PolykaySample.from_eigenvalues(c * y)
        worst = max(worst, abs(wm.polykay(shifted, 1) - (wm.polykay(base, 1) + c)))
        for j in (2, 3, 4):
            ref = max(abs(wm.polykay(base, j)), 1.0)
            worst = max(worst, abs(wm.polykay(shifted, j) - wm.polykay(base, j)) / ref)
            want = c ** j * wm.polykay(base, j)
            worst = max(worst, abs(wm.polykay(scaled, j) - want) / max(abs(want), 1.0))
    ok_alg = worst <= 1e-9

    # inheritance of kappa_1, kappa_2 under Haar compression of a fixed matrix
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    x = (a + a.conj().T) / 2
    full = np.linalg.eigvalsh(x)
    want1 = wm.polykay(wm.PolykaySample.from_eigenvalues(full), 1)
    want2 = wm.polykay(wm.PolykaySample.from_eigenvalues(full), 2)
    gen = wm.RngStream(2025, 0).generator()
    n_comp = 100_000
    k1 = np.empty(n_comp)
    k2 = np.empty(n_comp)
    for s, sums in enumerate(wm.haar_power_sums(x, 4, n_comp, gen).tolist()):
        sample = wm.PolykaySample(4, tuple(sums))
        k1[s] = wm.polykay(sample, 1)
        k2[s] = wm.polykay(sample, 2)
    z1 = abs(k1.mean() - want1) / (k1.std(ddof=1) / math.sqrt(n_comp))
    z2 = abs(k2.mean() - want2) / (k2.std(ddof=1) / math.sqrt(n_comp))
    report(7, "polykay shift/homogeneity laws and compression inheritance of k1, k2",
           ok_alg and z1 <= 3.0 and z2 <= 3.0,
           f"alg err {worst:.2e}, z1 {z1:.2f}, z2 {z2:.2f} over {n_comp} compressions")


def test_criterion_08_distribution_identities():
    rng = np.random.default_rng(108)
    sigma = random_psd(rng, 2)
    m1 = random_psd(rng, 2, 0.4)
    m2 = random_psd(rng, 2, 0.3)
    n_samples = 1_000_000
    zs, side_zs = {}, {}
    cases = [
        ("df-additivity", None, None, 3, 2),
        ("sheffer", m1, None, 3, 2),
        ("m-split", m1, m2, 2, 3),
    ]
    for k, (identity, ma, mb, n1, n2) in enumerate(cases):
        p1, _ = wm.build(n1, sigma, ma, "standard")
        p2, _ = wm.build(n2, sigma, mb, "standard")
        rep = wm.distribution_identity_check(p1, p2, identity, n_samples,
                                             wm.RngStream(2026, k))
        zs[identity] = rep["max_abs_z"]
        # each side against the exact moments of the whole block
        whole, _ = wm.build(n1 + n2, sigma, p1.m_matrix + p2.m_matrix, "standard")
        worst_side = 0.0
        for o in rep["orders"]:
            exact = wm.noncentral_moment(whole, o["order"]).real
            for side in ("lhs", "rhs"):
                z = (o[f"{side}_mean"] - exact) / o[f"{side}_std_error"]
                worst_side = max(worst_side, abs(z))
        side_zs[identity] = worst_side
    worst = max(*zs.values(), *side_zs.values())
    report(8, "trace distribution identities hold and each side matches the exact "
           "moments (orders 1..4, |z| <= 4)",
           worst <= 4.0,
           " ".join(f"{k}={v:.2f}" for k, v in zs.items()) + ", per side "
           + " ".join(f"{k}={v:.2f}" for k, v in side_zs.items()))


def test_criterion_09_combinatorial_counts():
    # partition counts against the classical recurrence
    table = [[0] * 31 for _ in range(31)]
    for k in range(31):
        table[0][k] = 1
    for n in range(1, 31):
        for k in range(1, 31):
            table[n][k] = table[n][k - 1] + (table[n - k][k] if n >= k else 0)
    ok = all(len(wm.integer_partitions(n)) == table[n][30] for n in range(31))

    # necklace totals against the Burnside average
    def phi(d):
        return sum(1 for j in range(1, d + 1) if math.gcd(j, d) == 1)

    for m in (2, 3, 4):
        for j in range(1, 9):
            total = sum(len(wm.necklaces_of_kind(kind))
                        for kind in itertools.product(range(j + 1), repeat=m)
                        if sum(kind) == j)
            want = sum(phi(d) * m ** (j // d) for d in range(1, j + 1) if j % d == 0) // j
            ok = ok and total == want
    report(9, "partition counts match p(n) and necklace totals match Burnside, exactly", ok)


def test_criterion_10_generalized_moment_decomposition():
    rng = np.random.default_rng(110)
    sigma = random_psd(rng, 2)
    params, _ = wm.build(4, sigma, None, "standard")
    worst_exact, worst_z = 0.0, 0.0
    cases = [
        (1, ((1,),)),
        (2, ((1,), (2,))),
        (2, ((1, 2),)),
        (3, ((1, 2), (3,))),
        (3, ((1, 2, 3),)),
    ]
    for m, cycles in cases:
        h = [random_hermitian(rng, 2) for _ in range(m)]
        perm = wm.CyclePermutation(cycles)
        expansion = wm.generalized_moment_expansion(params, h, perm)
        assert expansion.fully_evaluated
        want = wm.central_product_moment(params, h, perm)
        worst_exact = max(worst_exact, rel_err(expansion.evaluated_sum, want))
        est = wm.estimate_generalized_moment(params, h, perm, 300_000,
                                             wm.RngStream(2027, m * 10 + len(cycles)))
        worst_z = max(worst_z, abs(est.mean - want) / est.std_error)
    report(10, "central generalized-moment expansion fully evaluates, matches exact and MC",
           worst_exact <= 1e-12 and worst_z <= 3.0,
           f"worst exact {worst_exact:.2e}, worst z {worst_z:.2f}")
