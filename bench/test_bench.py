"""Tests of the benchmark itself.

Run from the repository root with `python -m pytest bench/test_bench.py`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from wishmom import univariate  # noqa: E402
from wishmom.univariate import MomentSequence  # noqa: E402

COUNT_UNITS = ("calls/job", "items/job", "count/job", "draws/job", "ratio")


def _keys(workload, seed, r=0):
    return [job.key for job in workloads.WORKLOADS[workload](seed, r)]


def _traced_counts(workload, seed, rounds):
    tracer = spans.Tracer()
    min_jobs = (rounds - 1) * len(_keys(workload, seed)) + 1
    _, p = harness.timed_pass(workload, seed, 0.0, min_jobs=min_jobs, tracer=tracer)
    assert p.rounds == rounds
    metrics = harness.per_layer(spans.SpanStats(tracer.spans), p.jobs, {})
    return {k: v for k, (v, unit) in metrics.items() if unit in COUNT_UNITS}, p, tracer


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_jobs(workload):
    assert _keys(workload, 7) == _keys(workload, 7)
    assert _keys(workload, 7, r=3) == _keys(workload, 7, r=3)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_other_seed_other_inputs(workload):
    a, b = _keys(workload, 7), _keys(workload, 8)
    assert len(a) == len(b)
    # only the two CLI requests with fixed inputs may repeat
    shared = set(a) & set(b)
    assert all(k.startswith(("cli malformed-json", "cli necklaces")) for k in shared)


@pytest.mark.parametrize("workload", ["scalar", "joint"])
def test_work_counts_repeat(workload):
    first, _, _ = _traced_counts(workload, 11, 1)
    again, _, _ = _traced_counts(workload, 11, 1)
    assert first == again
    # every round has the same shape, so counts per job do not depend on
    # how many rounds a run completes
    longer, _, _ = _traced_counts(workload, 11, 2)
    assert first == longer
    assert first["combinatorics.calls"] > 0


def test_self_times_within_traced_wall():
    _, p, tracer = _traced_counts("joint", 3, 1)
    stats = spans.SpanStats(tracer.spans)
    assert 0 < stats.self_total() <= p.wall_s
    assert all(v >= -1e-9 for v in stats.self_s.values())
    assert stats.calls["bench.job"] == p.jobs


def test_perturbed_answer_counts_as_failed(monkeypatch):
    exact = univariate.cumulant_sequence

    def perturbed(params, i_max):
        return MomentSequence.from_cumulants(
            [c * (1 + 1e-6) for c in exact(params, i_max).values[1:]])

    monkeypatch.setattr(univariate, "cumulant_sequence", perturbed)
    p, _ = harness.timed_pass("scalar", 5, 0.0, min_jobs=1)
    bad = harness.failures(p)
    assert len(bad) == len(workloads.SCALAR_ORDERS)
    assert all(reason.startswith("cumulant_sequence") for reason in bad)
    metrics = harness.end_to_end(p, len(bad), setup=1.0)
    assert metrics["jobs_per_s"][0] == pytest.approx((p.jobs - len(bad)) / p.scaled_s)
    assert 0 < len(bad) / p.jobs < 1


def test_raising_job_counts_as_failed(monkeypatch):
    def broken(*args):
        raise RuntimeError("broken")

    monkeypatch.setattr(univariate, "randomized_moment", broken)
    p, _ = harness.timed_pass("scalar", 5, 0.0, min_jobs=1)
    assert len(harness.failures(p)) == len(workloads.SCALAR_ORDERS)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_matches_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run("--workload", "scalar", "--seed", "2", "--seconds", "0",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "scalar", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_times_scale_with_probes(monkeypatch):
    # on a machine where every probe takes twice its reference, every
    # reported time is half the measured one
    monkeypatch.setattr(speed, "probe_s", lambda kind: 2 * speed.PROBES[kind].ref_s)
    p, _ = harness.timed_pass("scalar", 5, 0.0, min_jobs=1)
    assert p.latencies == pytest.approx([0.5 * t for t in p.raw_latencies])
    assert p.scaled_s == pytest.approx(sum(p.latencies))
