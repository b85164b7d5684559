"""The benchmark's workloads: seeded rounds of jobs, each with its check.

A round is a fixed list of job shapes (which function, which order, kind,
p, sample count); the seed and the round number only draw the numbers
(n, Sigma, M, H, T, d) and the order of the jobs.  Every round of every
seed therefore does the same amount of work, so a loop that runs whole
rounds has a fixed job mix and its counts per job repeat exactly.

Job closures look library functions up through their modules when they
run, so a tracer installed between rounds sees every call.  `check` runs
outside the timed region and returns None when the answer is right, or a
reason when it is not.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from wishmom import applications, matrix_core, mc, model, multivariate, univariate
from wishmom.combinatorics import CyclePermutation, necklaces_of_kind
from wishmom.univariate import MomentSequence

import oracles

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Relative tolerances of the exact checks: over 25 seeded rounds the worst
# errors were 6e-12 (scalar) and 2e-12 (joint), so both keep a factor of
# 5000 or more.  The CLI prints 17 significant digits of the same values.
SCALAR_RTOL = 1e-7
JOINT_RTOL = 1e-8
CLI_RTOL = 1e-12
# Monte Carlo: every estimate must lie within Z_GATE standard errors of the
# exact value.
Z_GATE = 6.0


@dataclass
class Job:
    key: str                                   # what is computed on which inputs
    run: Callable[[], object]
    check: Callable[[object], "str | None"]   # None when the answer is right
    probe: str = "interp"                      # the speed probe that scales it (speed.py)


def _rng(workload: str, seed: int, r: int, warm: bool) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(workload.encode()), seed, r, int(warm)])


def _fingerprint(*arrays) -> str:
    crc = 0
    for a in arrays:
        crc = zlib.crc32(np.ascontiguousarray(a).tobytes(), crc)
    return f"{crc:08x}"


def random_psd(rng, p, scale=1.0):
    """Well-conditioned Hermitian positive definite matrix."""
    a = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
    return scale * ((a @ a.conj().T) / p + 0.2 * np.eye(p))


def rank_one_psd(rng, p, scale=1.0):
    v = rng.normal(size=p) + 1j * rng.normal(size=p)
    return scale * np.outer(v, v.conj()) / p


def random_hermitian(rng, p, scale=1.0):
    a = rng.normal(size=(p, p)) + 1j * rng.normal(size=(p, p))
    return scale * (a + a.conj().T) / (2 * math.sqrt(p))


def _mismatch(what, got, want, rtol) -> "str | None":
    if oracles.close(got, want, rtol):
        return None
    return f"{what}: got {complex(got):.12g}, want {complex(want):.12g}"


# ---------------------------------------------------------------------------
# scalar: univariate sequences with fresh (n, Sigma, M) per job
# ---------------------------------------------------------------------------

SCALAR_JOBS = ("moment_sequence", "cumulant_sequence", "randomized_moment",
               "normalized_cumulant_moments")
SCALAR_ORDERS = tuple(range(8, 21))


def _scalar_job(rng, label, order) -> Job:
    p = int(rng.integers(2, 9))
    n = float(rng.uniform(p, 3 * p))
    convention = str(rng.choice(model.CONVENTIONS))
    sigma = random_psd(rng, p)
    m_matrix = random_psd(rng, p, 0.3) if rng.random() < 0.5 else None
    params, _ = model.build(n, sigma, m_matrix, convention)
    key = (f"{label} order={order} p={p} central={m_matrix is None} "
           f"convention={convention} inputs={_fingerprint(sigma, n)}")

    def bell(k, prm=params):
        return univariate.noncentral_moment_bell(prm, k)

    if label == "moment_sequence":
        def check(seq):
            for k in range(1, order + 1):
                bad = _mismatch(f"moment {k}", seq.order(k), bell(k), SCALAR_RTOL)
                if bad:
                    return bad
            return None
        return Job(key, lambda: univariate.moment_sequence(params, order), check)

    if label == "cumulant_sequence":
        def check(seq):
            for k in range(1, order + 1):
                want = univariate.noncentral_cumulant_eigen(params, k)
                bad = _mismatch(f"cumulant {k}", seq.order(k), want, SCALAR_RTOL)
                if bad:
                    return bad
            return None
        return Job(key, lambda: univariate.cumulant_sequence(params, order), check)

    if label == "randomized_moment":
        # N fixed at the integer n0 equals n0 draws with non-centrality n0 M
        n0 = int(rng.integers(1, 7))
        alpha = MomentSequence.from_moments([float(n0) ** k for k in range(1, order + 1)])
        m_n0 = None if m_matrix is None else n0 * m_matrix
        fixed, _ = model.build(n0, sigma, m_n0, convention)
        return Job(key + f" n0={n0}",
                   lambda: univariate.randomized_moment(alpha, params, order),
                   lambda got: _mismatch(f"moment {order}", got, bell(order, fixed),
                                         SCALAR_RTOL))

    def check(e):
        # reinserting the normalized sequence must give the trace moments
        for k in range(1, order + 1):
            got = univariate.compose_normalized_moments(e, p, k)
            bad = _mismatch(f"moment {k}", got, bell(k), SCALAR_RTOL)
            if bad:
                return bad
        return None
    return Job(key, lambda: univariate.normalized_cumulant_moments(params, order), check)


def scalar_round(seed, r, warm=False, tracer=None) -> list[Job]:
    rng = _rng("scalar", seed, r, warm)
    orders = SCALAR_ORDERS[:1] if warm else SCALAR_ORDERS
    shapes = [(label, order) for label in SCALAR_JOBS for order in orders]
    return [_scalar_job(rng, *shapes[k]) for k in rng.permutation(len(shapes))]


# ---------------------------------------------------------------------------
# joint: sessions tabulating the sub-indices of one kind on one (params, H)
# ---------------------------------------------------------------------------

# (job, kind, p, central); p and central are unused by permanent_master
JOINT_SESSIONS = (
    ("joint_moment", (4,), 3, False),
    ("joint_moment", (9,), 4, True),
    ("joint_moment", (3, 3), 6, False),
    ("joint_moment", (2, 1, 1), 3, True),
    ("joint_moment", (3, 2, 2), 4, False),
    ("joint_moment", (2, 2, 1, 1), 6, True),
    ("joint_moment", (1, 1, 1, 1, 1), 3, False),
    ("joint_moment", (2, 1, 1, 1, 1, 1), 4, True),
    ("joint_moment", (3, 3, 3), 6, True),
    ("joint_cumulant", (9,), 3, False),
    ("joint_cumulant", (5, 4), 4, False),
    ("joint_cumulant", (2, 2, 2, 2), 6, False),
    ("joint_cumulant", (2, 2, 1, 1, 1), 3, True),
    ("joint_cumulant", (1, 1, 1, 1, 1, 1), 4, False),
    ("joint_cumulant_randomized", (6,), 6, False),
    ("joint_cumulant_randomized", (2, 2, 2), 3, False),
    ("joint_cumulant_randomized", (3, 3, 3), 4, False),
    ("joint_cumulant_randomized", (1, 1, 1, 1), 6, True),
    ("permanent_master", (4, 3), None, None),
    ("permanent_master", (2, 2, 2, 1), None, None),
    ("permanent_master", (1, 1, 1, 1, 1), None, None),
    ("permanent_master", (2, 2, 1, 1, 1), None, None),
)
JOINT_WARM_SESSIONS = (
    ("joint_moment", (2, 1), 3, False),
    ("joint_cumulant", (2, 1), 3, False),
    ("joint_cumulant_randomized", (2, 1), 3, False),
    ("permanent_master", (2, 1), None, None),
)


def session_indices(kind) -> list[tuple[int, ...]]:
    """The sub-indices a session tabulates: the top three weights below kind."""
    top = sum(kind)
    return [v for v in oracles.sub_indices(kind) if sum(v) >= max(top - 2, 1)]


def _permanent_session(rng, kind) -> list[Job]:
    m = len(kind)
    t = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    d = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
    key = f"permanent_master kind={kind} inputs={_fingerprint(t, d)}"

    def check(got, v):
        want = applications.permanent_d(applications.repeated_matrix(t, v), d)
        return _mismatch(f"per_d[T{v}]", got, want, JOINT_RTOL)

    return [Job(f"{key} v={v}",
                lambda v=v: applications.permanent_master(t, v, d),
                lambda got, v=v: check(got, v))
            for v in session_indices(kind)]


def _joint_session(rng, label, kind, p, central) -> list[Job]:
    if label == "permanent_master":
        return _permanent_session(rng, kind)
    n = float(rng.uniform(2.0, 8.0))
    convention = str(rng.choice(model.CONVENTIONS))
    sigma = random_psd(rng, p)
    m_matrix = None if central else random_psd(rng, p, 0.4)
    h = [random_hermitian(rng, p) for _ in kind]
    params, _ = model.build(n, sigma, m_matrix, convention)
    sign = -1.0 if convention == "paper" else 1.0
    alpha = MomentSequence.from_cumulants(rng.uniform(0.5, 3.0, size=sum(kind)))
    key = (f"{label} kind={kind} p={p} central={central} convention={convention} "
           f"inputs={_fingerprint(sigma, *h)}")

    want = {}  # the session's oracle table, built at the first check

    def expected(v):
        if not want:
            zero = np.zeros((p, p))
            rho, eta = oracles.base_tables(sigma, zero if central else m_matrix,
                                           h, kind, convention)
            if label == "joint_cumulant_randomized":
                weights = alpha.values
                central_part = oracles.compose(weights, rho, kind)
                want.update({u: oracles.index_factorial(u) * (central_part[u] + sign * eta[u])
                             for u in rho})
            else:
                kappa = oracles.joint_cumulants(n, sign, rho, eta)
                want.update(kappa if label == "joint_cumulant"
                            else oracles.moments_from_cumulants(kappa, kind))
        return want[v]

    if label == "joint_moment":
        def run(v):
            return multivariate.joint_moment(params, h, v)
    elif label == "joint_cumulant":
        def run(v):
            return multivariate.joint_cumulant(params, h, v)
    else:
        def run(v):
            return multivariate.joint_cumulant_randomized(alpha, params, h, v)

    return [Job(f"{key} v={v}", lambda v=v: run(v),
                lambda got, v=v: _mismatch(f"{label}{v}", got, expected(v), JOINT_RTOL))
            for v in session_indices(kind)]


def joint_round(seed, r, warm=False, tracer=None) -> list[Job]:
    rng = _rng("joint", seed, r, warm)
    sessions = JOINT_WARM_SESSIONS if warm else JOINT_SESSIONS
    jobs = []
    for k in rng.permutation(len(sessions)):
        jobs += _joint_session(rng, *sessions[k])
    return jobs


# ---------------------------------------------------------------------------
# mc: Monte Carlo estimators and Haar-compression polykay batches
# ---------------------------------------------------------------------------

MC_P = (2, 4, 8)
MC_N = 4
MC_SAMPLES = 10_000
HAAR_BATCHES = 6
HAAR_SIZE = 30
HAAR_P, HAAR_M = 8, 4


def _z_check(what, est, exact) -> "str | None":
    z = abs(complex(est.mean) - complex(exact)) / est.std_error if est.std_error > 0 else math.inf
    return None if z <= Z_GATE else f"{what}: |z| = {z:.2f} > {Z_GATE}"


def _estimator_jobs(rng, p, samples, stream) -> list[Job]:
    sigma = random_psd(rng, p)
    m_matrix = rank_one_psd(rng, p, 0.5)
    h = [random_hermitian(rng, p) for _ in range(3)]
    params, _ = model.build(MC_N, sigma, m_matrix, "standard")
    central, _ = model.build(MC_N, sigma, None, "standard")
    whole, _ = model.build(2 * MC_N, sigma, m_matrix, "standard")
    block, _ = model.build(MC_N, sigma, None, "standard")
    perm = CyclePermutation(((1, 2), (3,)))
    key = f"p={p} samples={samples} inputs={_fingerprint(sigma, m_matrix, *h)}"
    seeds = [mc.RngStream(stream, k) for k in range(4)]

    def joint_check(est):
        return _z_check("joint moment (2,1)", est,
                        multivariate.joint_moment(params, h[:2], (2, 1)))

    def cumulant_check(ests):
        for k, est in enumerate(ests, start=1):
            bad = _z_check(f"cumulant {k}", est, univariate.noncentral_cumulant(params, k))
            if bad:
                return bad
        return None

    def generalized_check(est):
        return _z_check("generalized moment", est,
                        multivariate.central_product_moment(central, h, perm))

    def identity_check(report):
        if report["max_abs_z"] > Z_GATE:
            return f"identity |z| = {report['max_abs_z']:.2f} > {Z_GATE}"
        for row in report["orders"]:
            exact = univariate.noncentral_moment(whole, row["order"]).real
            side_se = row["std_error"] / math.sqrt(2.0)  # both sides share a law
            for side in ("lhs_mean", "rhs_mean"):
                z = abs(row[side] - exact) / side_se
                if not z <= Z_GATE:
                    return f"{side} order {row['order']}: |z| = {z:.2f} > {Z_GATE}"
        return None

    return [
        Job(f"estimate_joint_moment {key}",
            lambda: mc.estimate_joint_moment(params, h[:2], (2, 1), samples, seeds[0]),
            joint_check, "mixed"),
        Job(f"estimate_trace_cumulants {key}",
            lambda: mc.estimate_trace_cumulants(params, 3, samples, seeds[1]),
            cumulant_check, "mixed"),
        Job(f"estimate_generalized_moment {key}",
            lambda: mc.estimate_generalized_moment(central, h, perm, samples, seeds[2]),
            generalized_check, "mixed"),
        Job(f"distribution_identity_check {key}",
            lambda: mc.distribution_identity_check(params, block, "sheffer", samples,
                                                   seeds[3]),
            identity_check, "mixed"),
    ]


def _haar_job(rng, size, stream) -> Job:
    x = random_hermitian(rng, HAAR_P)

    def run():
        gen = mc.RngStream(stream, 0).generator()
        out = np.empty((size, 4))
        for s in range(size):
            sample = mc.haar_compression(x, HAAR_M, gen)
            out[s] = [applications.polykay(sample, k) for k in range(1, 5)]
        return out

    def check(out):
        if not np.all(np.isfinite(out)):
            return "non-finite polykay"
        full = applications.PolykaySample.from_eigenvalues(np.linalg.eigvalsh(x))
        for k in (1, 2):  # the orders inherited exactly under Haar compression
            want = applications.polykay(full, k)
            se = out[:, k - 1].std(ddof=1) / math.sqrt(size)
            z = abs(out[:, k - 1].mean() - want) / se
            if not z <= Z_GATE:
                return f"polykay {k}: |z| = {z:.2f} > {Z_GATE}"
        return None

    return Job(f"haar_compression {HAAR_P}->{HAAR_M} x{size} inputs={_fingerprint(x)}",
               run, check)


def mc_round(seed, r, warm=False, tracer=None) -> list[Job]:
    rng = _rng("mc", seed, r, warm)
    samples, batches, size = (500, 1, 5) if warm else (MC_SAMPLES, HAAR_BATCHES, HAAR_SIZE)
    jobs = []
    for p in MC_P:
        jobs += _estimator_jobs(rng, p, samples, int(rng.integers(2**62)))
    jobs += [_haar_job(rng, size, int(rng.integers(2**62))) for _ in range(batches)]
    return [jobs[k] for k in rng.permutation(len(jobs))]


# ---------------------------------------------------------------------------
# cli: one `python -m wishmom.cli` process per request
# ---------------------------------------------------------------------------

CLI_TIMEOUT_S = 60
EXIT_OK, EXIT_VALIDATION, EXIT_NUMERICAL, EXIT_BUDGET = 0, 2, 3, 4


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def _cmat(a) -> dict:
    a = np.asarray(a, dtype=complex)
    return {"re": a.real.tolist(), "im": a.imag.tolist()}


def run_cli(args, stdin: bytes, env=None, tracer=None) -> CliResult:
    """One CLI request in a fresh interpreter.  With a tracer, the request
    runs under traced_cli.py and its spans join the current job."""
    environ = dict(os.environ, PYTHONPATH=str(SRC), **(env or {}))
    if tracer is None:
        cmd = [sys.executable, "-m", "wishmom.cli", *args]
    else:
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"cli-spans-{os.getpid()}.jsonl"
        span_file.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(span_file), *args]
    proc = subprocess.run(cmd, input=stdin, capture_output=True, env=environ,
                          timeout=CLI_TIMEOUT_S, check=False)
    if tracer is not None and span_file.exists():
        tracer.adopt(span_file)
        span_file.unlink()
    return CliResult(proc.returncode, proc.stdout.decode(), proc.stderr.decode())


def _params_doc(rng, p, n, central=False, m_rank_one=False, convention="paper"):
    sigma = random_psd(rng, p)
    doc = {"n": n, "sigma": _cmat(sigma), "convention": convention}
    m_matrix = None
    if not central:
        m_matrix = rank_one_psd(rng, p, 0.5) if m_rank_one else random_psd(rng, p, 0.3)
        doc["m_matrix"] = _cmat(m_matrix)
    return doc, sigma, m_matrix


def _values_match(rows, want) -> "str | None":
    for row, w in zip(rows, want, strict=True):
        v = row["value"]
        got = complex(v["re"], v["im"]) if isinstance(v, dict) else v
        bad = _mismatch(f"order {row['order']}", got, w, CLI_RTOL)
        if bad:
            return bad
    return None


def _cli_success_specs(rng):
    """(label, args, doc, check(result document)) for all nine subcommands."""
    conv = str(rng.choice(model.CONVENTIONS))
    specs = []

    doc, sigma, m = _params_doc(rng, 3, float(rng.uniform(2, 6)), convention=conv)
    prm, _ = model.build(doc["n"], sigma, m, conv)
    specs.append(("moments", ["moments", "-", "--order", "8"], doc,
                  lambda res, prm=prm: _values_match(
                      res["orders"], [univariate.noncentral_moment(prm, k) for k in range(1, 9)])))

    doc, sigma, m = _params_doc(rng, 4, float(rng.uniform(2, 6)), convention=conv)
    prm, _ = model.build(doc["n"], sigma, m, conv)
    specs.append(("cumulants", ["cumulants", "-", "--order", "6"], doc,
                  lambda res, prm=prm: _values_match(
                      res["orders"], [univariate.noncentral_cumulant(prm, k) for k in range(1, 7)])))

    for label, index, fn in (("joint-moments", (2, 1), multivariate.joint_moment),
                             ("joint-cumulants", (2, 2), multivariate.joint_cumulant)):
        doc, sigma, m = _params_doc(rng, 3, float(rng.uniform(2, 6)), convention=conv)
        h = [random_hermitian(rng, 3) for _ in index]
        doc["h"] = [_cmat(hk) for hk in h]
        prm, _ = model.build(doc["n"], sigma, m, conv)
        idx = ",".join(map(str, index))
        specs.append((label, [label, "-", "--index", idx], doc,
                      lambda res, prm=prm, h=h, index=index, fn=fn: _mismatch(
                          "value", complex(res["value"]["re"], res["value"]["im"]),
                          fn(prm, h, index), CLI_RTOL)))

    doc, sigma, m = _params_doc(rng, 3, float(rng.uniform(2, 6)), central=True, convention=conv)
    h = [random_hermitian(rng, 3) for _ in range(3)]
    doc["h"] = [_cmat(hk) for hk in h]
    prm, _ = model.build(doc["n"], sigma, m, conv)
    perm = CyclePermutation.from_images((2, 3, 1))
    specs.append(("generalized", ["generalized", "-", "--index", "2,3,1"], doc,
                  lambda res, prm=prm, h=h: _mismatch(
                      "evaluated_sum",
                      complex(res["evaluated_sum"]["re"], res["evaluated_sum"]["im"]),
                      multivariate.generalized_moment_expansion(prm, h, perm).evaluated_sum,
                      CLI_RTOL)))

    t = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    d = round(float(rng.uniform(0.5, 2.0)), 3)
    specs.append(("permanent", ["permanent", "-", "--index", "2,1,1", "--d", str(d)],
                  {"sigma": _cmat(t)},
                  lambda res, t=t, d=d: _mismatch(
                      "value", complex(res["value"]["re"], res["value"]["im"]),
                      applications.permanent_master(t, (2, 1, 1), d), CLI_RTOL)))

    x = random_hermitian(rng, 6)

    def polykay_check(res, x=x):
        vals, _ = matrix_core.hermitian_eigen(x)
        sample = applications.PolykaySample.from_eigenvalues(vals)
        return _values_match(res["orders"], [applications.polykay(sample, k) for k in range(1, 5)])
    specs.append(("polykay", ["polykay", "-", "--order", "4"], {"sigma": _cmat(x)},
                  polykay_check))

    kind = (3, 2) if rng.random() < 0.5 else (2, 3)
    specs.append(("necklaces", ["necklaces", "--kind", ",".join(map(str, kind))], None,
                  lambda res, kind=kind: None
                  if [row["representative"] for row in res["necklaces"]]
                  == [neck.word for neck in necklaces_of_kind(kind)]
                  else "necklace list differs"))

    doc, sigma, m = _params_doc(rng, 2, 3, m_rank_one=True, convention="standard")
    mc_seed = int(rng.integers(2**31))
    samples = 2000

    def mc_check(res, doc=doc, sigma=sigma, m=m, mc_seed=mc_seed):
        p1, _ = model.build(doc["n"], sigma, m, "standard")
        p2, _ = model.build(doc["n"], sigma, None, "standard")
        want = mc.distribution_identity_check(p1, p2, "sheffer", samples,
                                              mc.RngStream(mc_seed, 0))
        return _mismatch("max_abs_z", res["max_abs_z"], want["max_abs_z"], CLI_RTOL)
    specs.append(("mc-verify", ["mc-verify", "-", "--samples", str(samples),
                                "--seed", str(mc_seed), "--identity", "sheffer"], doc, mc_check))
    return specs


def _cli_error_specs(rng):
    """(label, args, stdin bytes, env, documented exit code) of malformed requests
    that the CLI maps to its documented codes today."""
    doc, _, _ = _params_doc(rng, 3, float(rng.uniform(2, 6)))
    no_h = json.dumps(doc).encode()
    singular = dict(doc)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    singular["sigma"] = _cmat(np.outer(v, v.conj()))
    singular["h"] = [_cmat(random_hermitian(rng, 3))]
    return [
        ("malformed-json", ["moments", "-"], b"{\"n\": 3, \"sigma\":", None, EXIT_VALIDATION),
        ("missing-h", ["joint-moments", "-", "--index", "2"], no_h, None, EXIT_VALIDATION),
        ("bad-convention", ["moments", "-", "--convention", "sideways"], no_h, None,
         EXIT_VALIDATION),
        ("singular-sigma", ["joint-moments", "-", "--index", "2"],
         json.dumps(singular).encode(), None, EXIT_NUMERICAL),
        ("budget-weight", ["joint-cumulants", "-", "--index", "6,6"],
         json.dumps(dict(singular, sigma=doc["sigma"], h=singular["h"] * 2)).encode(),
         None, EXIT_BUDGET),
        ("budget-env", ["moments", "-", "--order", "6"], no_h,
         {"WISHMOM_MAX_BUDGET": "4"}, EXIT_BUDGET),
    ]


def cli_probe_specs(rng):
    """Malformed requests whose documented exit code is 2 but which exit 1
    with a traceback at the time this benchmark was written."""
    doc, _, _ = _params_doc(rng, 2, 3.0)
    doc["h"] = [doc["sigma"]]
    good = json.dumps(doc).encode()
    return [
        ("non-numeric-index", ["joint-moments", "-", "--index", "a"], good, None),
        ("bad-d", ["permanent", "-", "--d", "1+"], good, None),
        ("non-numeric-entry", ["moments", "-"],
         json.dumps(dict(doc, sigma={"re": [["x", 0], [0, 1]]})).encode(), None),
        ("ragged-matrix", ["moments", "-"],
         json.dumps(dict(doc, sigma={"re": [[1, 0], [0]]})).encode(), None),
        ("string-n", ["moments", "-"], json.dumps(dict(doc, n="five")).encode(), None),
        ("non-integer-budget", ["moments", "-"], good, {"WISHMOM_MAX_BUDGET": "ten"}),
    ]


def _cli_success_job(label, args, doc, check, tracer) -> Job:
    stdin = json.dumps(doc).encode() if doc is not None else b""

    def verify(res: CliResult):
        if res.code != EXIT_OK:
            return f"{label}: exit {res.code}: {res.stderr.strip()[-200:]}"
        return check(json.loads(res.stdout)["results"])

    return Job(f"cli {label} inputs={zlib.crc32(stdin):08x}",
               lambda: run_cli(args, stdin, tracer=tracer), verify, "process")


def _cli_error_job(label, args, stdin, env, code, tracer) -> Job:
    def verify(res: CliResult):
        if res.code != code:
            return f"{label}: exit {res.code}, documented {code}"
        if res.stdout or not res.stderr:
            return f"{label}: error must go to stderr only"
        return None

    return Job(f"cli {label} inputs={zlib.crc32(stdin):08x}",
               lambda: run_cli(args, stdin, env, tracer=tracer), verify, "process")


def cli_round(seed, r, warm=False, tracer=None) -> list[Job]:
    rng = _rng("cli", seed, r, warm)
    jobs = [_cli_success_job(*spec, tracer) for spec in _cli_success_specs(rng)]
    jobs += [_cli_error_job(*spec, tracer) for spec in _cli_error_specs(rng)]
    if warm:
        jobs = jobs[:1] + jobs[-1:]
    return [jobs[k] for k in rng.permutation(len(jobs))]


# the probe that scales a workload's set-up (speed.py)
SETUP_PROBE = {"scalar": "interp", "joint": "interp", "mc": "mixed", "cli": "process"}

WORKLOADS = {
    "scalar": scalar_round,
    "joint": joint_round,
    "mc": mc_round,
    "cli": cli_round,
}
