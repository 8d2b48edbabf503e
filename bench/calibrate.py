"""A machine-speed reference for the benchmark's timings.

The benchmark runs on a few cores of a shared host.  Load from other tenants
changes how fast this one process runs by up to about 1.6x, in stretches of
10-20 s, with no steal time reported: the slowdown is in the cores' shared
resources, so it shows in CPU time as much as in wall time.  Two runs a minute
apart can differ by 40% in every call.

A fixed reference kernel, owned by the benchmark and not by the package,
is timed between calls.  It has three parts of about equal time, each like
one kind of work the CLI does: a pure-Python float loop (the scalar root
finds), standard-library glue with a generator quadrature (argument parsing,
JSON reports, the Gauss-Kronrod panels) and a numpy stencil on a 33^3 array
whose temporaries are allocated and freed as the solver's are.  Contention
slows these kinds of work by different amounts; the sum of the three tracks
both workloads' calls about as well as the best single part does for either
(it halves the spread of repeated identical calls).  A call's time divided
by the median reference time around it is the call's time in reference units
(``ref``): the machine's phase largely cancels out of the ratio while a
change to the package moves it as much as it moves the call's seconds.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import time

import numpy as np

from bench import stats

PY_ITERATIONS = 30_000
GLUE_REPEATS = 3
NP_REPEATS = 16
# Reference samples count for a call when taken at most this long before it
# starts or after it ends.
WINDOW_S = 2.0

_ARRAY = np.random.default_rng(0).random((33, 33, 33))


_NODES = [k / 7.0 - 1.0 for k in range(15)]


def _panel(f, lo: float, hi: float) -> float:
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return half * sum(f(mid + half * x) for x in _NODES) / len(_NODES)


def _glue(seed: float) -> float:
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="command")
    for name in ("first", "second", "third"):
        p = sub.add_parser(name)
        p.add_argument("--x", type=float, default=1.0)
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--out")
    ns = parser.parse_args(["second", "--x", repr(seed), "--n", "7", "--out", "o"])
    report = {"command": ns.command,
              "rows": [{"r": 0.1 * k, "u": math.sqrt(k + ns.x), "tags": ["a", "b"]}
                       for k in range(40)]}
    total = float(len(json.dumps(report, indent=2, sort_keys=True)))
    for k in range(40):
        total += _panel(lambda r: math.exp(-r) * r * r, 0.1 * k, 0.1 * k + 0.1)
    return total


def reference_unit() -> float:
    """Seconds one run of the reference kernel takes now."""
    t0 = time.perf_counter()
    x = s = 0.0
    for i in range(PY_ITERATIONS):
        x = 0.999 * x + 0.001 * (i % 7)
        s += x * x
    for i in range(GLUE_REPEATS):
        s += _glue(0.5 + i)
    for _ in range(NP_REPEATS):
        s += float(np.sqrt(1.0 + np.diff(_ARRAY, axis=0) ** 2).sum())
    return time.perf_counter() - t0


class SpeedTrack:
    """Reference samples of one run, by the time they were taken."""

    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []

    def add(self, at: float, seconds: float) -> None:
        self.times.append(at)
        self.seconds.append(seconds)

    def sample(self, units: int) -> None:
        for _ in range(units):
            seconds = reference_unit()
            self.add(time.perf_counter(), seconds)

    def last_time(self) -> float:
        return self.times[-1]

    def local(self, start: float, end: float) -> float:
        """Median reference time of the samples within ``WINDOW_S`` of the
        interval [start, end].  The run samples before its first call and
        after any call that ends half a second or more past the last sample,
        so every call has one."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:
            raise ValueError(f"no reference sample within {WINDOW_S} s of "
                             f"[{start}, {end}]")
        return stats.median(self.seconds[lo:hi])
