"""Closed-loop harness: set-up, timed passes, checks and metrics.

One client in one thread issues the jobs of a workload one at a time.  A
pass runs whole rounds (see workloads.py); input generation and parameter
builds for a round happen before its clock starts.  Answers are checked
after the pass, outside the timed region.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import spans
import speed
import workloads

MIN_JOBS = 100          # at least ten latency samples beyond p90
MAX_LOOP_S = 100.0      # stop a pass here even below MIN_JOBS
SETUP_REPEATS = 5       # warm-up rounds; set-up reports their median
IMPORT_REPEATS = 7      # fresh interpreters timing `import wishmom`


@dataclass
class Pass:
    round_wall_s: list = field(default_factory=list)    # raw, probes included
    round_scaled_s: list = field(default_factory=list)  # job time at reference speed
    round_cpu_s: list = field(default_factory=list)     # process + children CPU, scaled
    round_jobs: list = field(default_factory=list)
    latencies: list = field(default_factory=list)       # per job, scaled
    raw_latencies: list = field(default_factory=list)   # per job, as measured
    results: list = field(default_factory=list)   # (job, raised, value)
    clock: speed.Clock = field(default_factory=speed.Clock)

    @property
    def jobs(self) -> int:
        return len(self.results)

    @property
    def rounds(self) -> int:
        return len(self.round_wall_s)

    @property
    def wall_s(self) -> float:
        return sum(self.round_wall_s)

    @property
    def scaled_s(self) -> float:
        return sum(self.round_scaled_s)


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _run_round(jobs, out: Pass, tracer):
    """Run one round; each job's wall and CPU time is scaled by the probes
    taken around it (see speed.py)."""
    clock, start = out.clock, perf_counter()
    measured = []  # (probe kind, probe index, wall, cpu)
    for job in jobs:
        k = clock.mark(job.probe)
        t0, c0 = perf_counter(), _cpu()
        try:
            value = tracer.job(out.jobs, job.run) if tracer else job.run()
            out.results.append((job, False, value))
        except Exception as exc:  # a job that raises counts as failed
            out.results.append((job, True, exc))
        measured.append((job.probe, k, perf_counter() - t0, _cpu() - c0))
    clock.close()
    wall_sum = cpu_sum = 0.0
    for kind, k, wall, cpu in measured:
        f = clock.factor(kind, k)
        out.raw_latencies.append(wall)
        out.latencies.append(wall * f)
        wall_sum += wall * f
        cpu_sum += cpu * f
    out.round_wall_s.append(perf_counter() - start)
    out.round_scaled_s.append(wall_sum)
    out.round_cpu_s.append(cpu_sum)
    out.round_jobs.append(len(jobs))


def timed_pass(workload, seed, seconds, min_jobs=MIN_JOBS, tracer=None):
    """Whole rounds until `seconds` of loop time and `min_jobs` jobs.

    With a tracer, each round runs a second time right after, on the same
    inputs, with every layer wrapped in spans; both passes then see the same
    state of the machine.  Returns (untraced pass, traced pass).
    """
    build = workloads.WORKLOADS[workload]
    plain, traced = Pass(), Pass()
    while True:
        _run_round(build(seed, plain.rounds), plain, None)
        if tracer is not None:
            jobs = build(seed, traced.rounds, tracer=tracer)
            uninstall = spans.install(tracer)
            try:
                _run_round(jobs, traced, tracer)
            finally:
                uninstall()
        if plain.wall_s >= MAX_LOOP_S:
            break
        if plain.wall_s >= seconds and plain.jobs >= min_jobs:
            break
    return plain, traced


def failures(p: Pass) -> list[str]:
    """Reasons of the failed jobs of a pass; runs every check."""
    bad = []
    for job, raised, value in p.results:
        if raised:
            bad.append(f"{job.key}: raised {type(value).__name__}: {value}")
            continue
        try:
            reason = job.check(value)
        except Exception as exc:  # a check that cannot read the answer fails it
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason:
            bad.append(f"{job.key}: {reason}")
    return bad


# ---------------------------------------------------------------------------
# set-up and fresh-interpreter timings
# ---------------------------------------------------------------------------

def _child_env():
    return dict(os.environ, PYTHONPATH=str(workloads.SRC))


def fresh_import_s(module: str) -> float:
    """Seconds a fresh interpreter spends in `import module`."""
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_child_env(), timeout=60, check=True)
    return float(out.stdout)


def interpreter_s() -> float:
    """Wall seconds of `python -c pass`."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=_child_env(), check=True)
    return perf_counter() - t0


def setup_s(workload, seed) -> tuple[float, dict]:
    """Import (fresh interpreters) plus input generation, parameter build and
    warm-up jobs, each the median of several repeats at reference speed."""
    imports = speed.scaled(lambda: fresh_import_s("wishmom"), IMPORT_REPEATS, "process")
    build = workloads.WORKLOADS[workload]
    rounds = iter(range(SETUP_REPEATS))

    def warm_up():
        t0 = perf_counter()
        for job in build(seed, next(rounds), warm=True):
            job.run()
        return perf_counter() - t0

    warm = speed.scaled(warm_up, SETUP_REPEATS, workloads.SETUP_PROBE[workload])
    parts = {"import_s": statistics.median(imports), "warmup_s": statistics.median(warm)}
    return parts["import_s"] + parts["warmup_s"], parts


def cli_probes(seed) -> tuple[int, list[str]]:
    """Run the malformed requests documented to exit 2; returns how many
    exited otherwise, and a line per probe."""
    rng = workloads._rng("cli-probes", seed, 0, False)
    bad, lines = 0, []
    for label, args, stdin, env in workloads.cli_probe_specs(rng):
        res = workloads.run_cli(args, stdin, env)
        ok = res.code == workloads.EXIT_VALIDATION
        bad += not ok
        lines.append(f"{label}: exit {res.code}" + ("" if ok else " (documented 2)"))
    return bad, lines


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(p: Pass, failed: int, setup: float) -> dict:
    """Every time is at reference speed (speed.py).  Throughput and CPU are
    medians over rounds, which all have one shape; latency percentiles pool
    every job of the pass."""
    lat_ms = np.asarray(p.latencies) * 1e3
    ok_share = 1.0 - failed / p.jobs
    per_round = [jobs / wall for jobs, wall in zip(p.round_jobs, p.round_scaled_s)]
    cpu_ms = [cpu * 1e3 / jobs for jobs, cpu in zip(p.round_jobs, p.round_cpu_s)]
    return {
        "jobs_per_s": (ok_share * statistics.median(per_round), "1/s"),
        "latency_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "latency_p90_ms": (float(np.percentile(lat_ms, 90)), "ms"),
        "cpu_ms_per_job": (statistics.median(cpu_ms), "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def as_measured(p: Pass) -> dict:
    """The unscaled wall figures of a pass and the machine's probe speed."""
    raw_ms = np.asarray(p.raw_latencies) * 1e3
    return {
        "raw_jobs_per_s": p.jobs / sum(p.raw_latencies),
        "raw_latency_p50_ms": float(np.percentile(raw_ms, 50)),
        "raw_latency_p90_ms": float(np.percentile(raw_ms, 90)),
        "probes": sum(len(t) for t in p.clock.probes.values()),
        **{f"probe_{kind}_median_ms": ms for kind, ms in p.clock.medians_ms().items()},
    }


_COUNTED = ("integer_partitions", "multiindex_partitions", "necklaces_of_kind")
_ESTIMATORS = ("mc.estimate_joint_moment", "mc.estimate_trace_cumulants",
               "mc.estimate_generalized_moment", "mc.distribution_identity_check")


def per_layer(st: spans.SpanStats, jobs: int, extra: dict) -> dict:
    """Per-layer metrics of one traced pass, normalised per job."""
    def per(x):
        return x / jobs

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m = {}
    for fn in _COUNTED:
        name = f"combinatorics.{fn}"
        m[f"{name}.calls"] = (per(st.calls[name]), "calls/job")
        m[f"{name}.items"] = (per(st.items[name]), "items/job")
        m[f"{name}.self_s"] = (per(st.self_s[name]), "s/job")
    m["combinatorics.necklace_rotations.items"] = (
        per(st.items["combinatorics.necklace_rotations"]), "items/job")
    for layer in spans.LAYERS:
        m[f"{layer}.calls"] = (per(st.layer(layer, "calls")), "calls/job")
        m[f"{layer}.self_s"] = (per(st.layer(layer, "self_s")), "s/job")
    calls, ext = st.calls["model.trace_cache"], st.items["model.trace_cache"]
    m["model.trace_cache.extensions"] = (per(ext), "count/job")
    m["model.trace_cache.hit_ratio"] = (1.0 - ext / calls if calls else 0.0, "ratio")
    m["model.noncentrality.solves"] = (per(st.solves_under_noncentrality), "count/job")
    for name in ("matrix_core.solve", "matrix_core.hermitian_eigen"):
        m[f"{name}.calls"] = (per(st.calls[name]), "calls/job")
        m[f"{name}.self_s"] = (per(st.self_s[name]), "s/job")
    for name in ("multivariate.joint_moment", "multivariate.joint_cumulant",
                 "applications.permanent_master", "applications.polykay",
                 "cli.run", "cli.canonical_json"):
        m[f"{name}.self_s"] = (per(st.self_s[name]), "s/job")
    haar = "mc.haar_compression"
    m[f"{haar}.calls"] = (per(st.calls[haar]), "calls/job")
    m["mc.haar_compressions_per_s"] = (rate(st.calls[haar], st.total_s[haar]), "1/s")
    draws = sum(st.items[name] for name in _ESTIMATORS)
    m["mc.samples"] = (per(draws), "draws/job")
    m["mc.samples_per_s"] = (rate(draws, sum(st.total_s[name] for name in _ESTIMATORS)),
                             "1/s")
    m["bench.job.self_s"] = (per(st.self_s["bench.job"]), "s/job")
    m.update(extra)
    return m


# ---------------------------------------------------------------------------
# run environment
# ---------------------------------------------------------------------------

def git_commit(root) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment(workload, seed, seconds, trace) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
        "platform": platform.platform(),
        "commit": git_commit(workloads.HERE.parent),
    }
