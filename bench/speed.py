"""Reference-speed clock: job times scaled by the machine's current speed.

On a shared host the CPU that runs the benchmark does not run at one speed:
a fixed pure-Python loop takes up to 1.5 times as long in one spell of
seconds as in another, in CPU time as much as in wall time.  Every job time
would inherit that.  So the loop times a short fixed probe between jobs,
and multiplies each job's wall and CPU time by the probe's reference time
over the mean of the probes just before and just after the job.  A reported
time is then the time the job would take on a machine where the probe
takes its reference time.

Slow spells do not slow every kind of work alike, so there are three
probes, and each job names the one that does its kind of work:

- `interp`: a dict-and-tuple loop, for interpreter-bound jobs;
- `mixed`: the `interp` loop, then filling and summing fresh numpy
  arrays, for jobs whose time goes partly into large array draws and
  reductions;
- `process`: starting `python -c pass`, for jobs that start a process.

The probes are the benchmark's own code and do not call the library, so a
change to the library moves job times and leaves the probes alone.  The
process is pinned to one CPU, so the probes, the jobs and any child process
run on the same core.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


def _interp():
    d = {}
    t = ()
    for i in range(3600):
        t = (i, i + 1) + t[:3]
        d[t] = d.get(t[:2], 0) + len(t)


def _mixed():
    _interp()
    a = np.ones(1_000_000)
    a *= 1.5
    float(a.sum())
    b = np.empty((500, 8, 8), complex)
    b[:] = 1.0
    float(abs(b).sum())


def _process():
    # no timeout: with one, the wait polls with sleeps of up to 50 ms
    subprocess.run([sys.executable, "-c", "pass"], check=True)


@dataclass(frozen=True)
class Probe:
    run: Callable[[], None]
    ref_s: float     # near its median on the machine the bounds in README.md come from
    repeats: int     # a probe reports the fastest of this many runs
    every_s: float   # at most this much time between two probes of one kind


PROBES = {
    "interp": Probe(_interp, 0.0030, 2, 0.05),
    "mixed": Probe(_mixed, 0.0055, 2, 0.05),
    "process": Probe(_process, 0.060, 1, 1.0),
}


def pin_to_one_cpu() -> int:
    """Restrict this process, and the children it starts, to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def probe_s(kind: str) -> float:
    """Seconds of one probe of `kind` now, the fastest of its repeats."""
    probe = PROBES[kind]
    best = float("inf")
    for _ in range(probe.repeats):
        t0 = perf_counter()
        probe.run()
        best = min(best, perf_counter() - t0)
    return best


class Clock:
    """Probes between jobs; scales what was measured between two probes.

    `mark(kind)` is called before each job: it probes `kind` if that
    probe's interval has passed since its last run, and returns the index
    of its last probe.  `close()` probes every kind used once more.
    `factor(kind, k)` is the scale of a job that ran after probe k of its
    kind and before probe k + 1.
    """

    def __init__(self):
        self.probes: dict[str, list[float]] = {}
        self._last: dict[str, float] = {}

    def _probe(self, kind):
        self.probes.setdefault(kind, []).append(probe_s(kind))
        self._last[kind] = perf_counter()

    def mark(self, kind: str) -> int:
        last = self._last.get(kind)
        if last is None or perf_counter() - last >= PROBES[kind].every_s:
            self._probe(kind)
        return len(self.probes[kind]) - 1

    def close(self):
        for kind in self.probes:
            self._probe(kind)

    def factor(self, kind: str, k: int) -> float:
        times = self.probes[kind]
        after = times[k + 1] if k + 1 < len(times) else times[k]
        return PROBES[kind].ref_s / (0.5 * (times[k] + after))

    def medians_ms(self) -> dict:
        return {kind: statistics.median(t) * 1e3 for kind, t in sorted(self.probes.items())}


def scaled(measure, repeats: int, kind: str) -> list[float]:
    """`measure()` `repeats` times, each scaled by the probes around it."""
    out = []
    for _ in range(repeats):
        before = probe_s(kind)
        value = measure()
        out.append(value * PROBES[kind].ref_s / (0.5 * (before + probe_s(kind))))
    return out
