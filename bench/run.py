"""wishmom benchmark: one workload as a closed loop with a single client.

Usage:
    python3 bench/run.py --workload {scalar,joint,mc,cli} --seed N \
        --seconds S --trace {0,1}

With --trace 0 the loop runs whole rounds of jobs until S seconds of loop
time and at least 100 jobs, checks every answer, and reports the end-to-end
metrics, with every time scaled to a reference machine speed (speed.py).
With --trace 1 it runs rounds for S/2 seconds, each round once untraced and
then again with every layer wrapped in spans, and reports the per-layer
metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
give the same numbers by name with their units and the run environment.
Results and spans are written under bench/out/.
"""

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("scalar", "joint", "mc", "cli")
SUBPROCESS_REPEATS = 5


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _print_metrics(metrics):
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>16.6g}  {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wishmom" / "__init__.py").is_file():
        print(f"error: the wishmom sources are missing ({SRC / 'wishmom'})", file=sys.stderr)
        return 2
    # one BLAS thread: p <= 8 kernels are interpreter-bound, and it keeps runs steady
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import harness
    import spans
    import speed

    speed.pin_to_one_cpu()

    workload, seed = args.workload, args.seed
    env = harness.environment(workload, seed, args.seconds, args.trace)
    setup, setup_parts = harness.setup_s(workload, seed)

    if args.trace == 0:
        timed, _ = harness.timed_pass(workload, seed, args.seconds)
        bad = harness.failures(timed)
        attempted = timed.jobs
        metrics = harness.end_to_end(timed, len(bad), setup)
        loop_line = f"{timed.rounds} rounds, {timed.jobs} jobs (latency samples)"
        measured = harness.as_measured(timed)
    else:
        tracer = spans.Tracer()
        untraced, traced = harness.timed_pass(workload, seed, args.seconds / 2, min_jobs=1,
                                              tracer=tracer)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"spans-{workload}-seed{seed}.jsonl")
        bad = harness.failures(untraced) + harness.failures(traced)
        attempted = untraced.jobs + traced.jobs
        extra = {
            "trace.overhead_fraction": (traced.scaled_s / untraced.scaled_s - 1.0,
                                        "fraction"),
            "cli.interpreter_s": (statistics.median(
                harness.interpreter_s() for _ in range(SUBPROCESS_REPEATS)), "s"),
            "cli.import_s": (statistics.median(
                harness.fresh_import_s("wishmom.cli") for _ in range(SUBPROCESS_REPEATS)), "s"),
            "loop.failed_fraction": (len(bad) / attempted, "fraction"),
        }
        metrics = harness.per_layer(spans.SpanStats(tracer.spans), traced.jobs, extra)
        measured = harness.as_measured(untraced)
        loop_line = (f"{untraced.rounds} rounds, each untraced ({untraced.jobs} jobs, "
                     f"{untraced.wall_s:.3f} s) then traced ({traced.wall_s:.3f} s)")

    probe_lines = []
    if workload == "cli":
        probe_bad, probe_lines = harness.cli_probes(seed)
        if args.trace == 1:
            metrics["cli.probe_failed_fraction"] = (probe_bad / len(probe_lines), "fraction")
    elif args.trace == 1:
        metrics["cli.probe_failed_fraction"] = (0.0, "fraction")

    print(f"wishmom benchmark: workload={workload} seed={seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print("setup: " + " ".join(f"{k}={v:.6f}" for k, v in setup_parts.items()))
    print(f"loop: {loop_line}, {len(bad)} failed")
    print("as measured, before scaling to reference speed: "
          + " ".join(f"{k}={v:.6g}" for k, v in measured.items()))
    _print_metrics(metrics)
    if args.trace == 0:
        _print_metrics({"failed_fraction": (len(bad) / attempted, "fraction")})
    for line in probe_lines:
        print(f"cli probe {line}")
    for reason in bad[:20]:
        print(f"FAILED {reason}")

    result = {"correct": not bad, "attempted": attempted, "failed": len(bad),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    record = dict(result, environment=env, setup=setup_parts, as_measured=measured,
                  failures=bad, cli_probes=probe_lines)
    with open(OUT / f"result-{workload}-seed{seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
