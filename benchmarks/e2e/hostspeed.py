"""How fast the host runs Python while a benchmark run measures.

The 2-vCPU reference host shares its physical cores with other machines.
Their load slows every instruction the benchmark runs, for stretches of
seconds to minutes: a fixed ``simulate()`` call drifted 20-30% between
10-second windows, with CPU time tracking wall time (no steal).  No
estimator over one run's own ops removes that (the fastest op of 1300 moved
25% between runs), but the slowdown is shared: a fixed pure-Python kernel
timed between the ops slows with them.

The kernel reads objects at random from a 300k-object working set, as the
simulator does from its job records.  Over two sets of fourteen 10 s
windows of a 20k-job ``simulate()`` call, the call time over the median
kernel time spread 0.04 and 0.09 (quartile distance over median) where the
call time alone spread 0.27 and 0.16; a kernel confined to a few kilobytes
tracked the call only half as well (0.09 and 0.18).

The kernel runs in a helper process, so its working set stays out of the
benchmark process's peak RSS.  :class:`HostSpeed` times it between ops
(never inside one) and reports the slowdown against its time on the quiet
reference host; ``bench.py`` scales time metrics by that.  The kernel is
benchmark code, so a change to ``repro`` cannot move it.
"""

from __future__ import annotations

import heapq
import random
import statistics
import subprocess
import sys
import time
from typing import List, Optional

#: Seconds the kernel takes on the quiet reference host.
REFERENCE_KERNEL_S = 0.023
#: Kernel calls per sample: with a smaller kernel, the median over three
#: times as many calls halved the spread the ratio kept (0.097 to 0.050 on
#: the same runs).
CALLS_PER_SAMPLE = 3
#: Fewest seconds between two samples, so that runs of short ops spend
#: about 5% of their time on samples.
SAMPLE_EVERY_S = 1.0
#: Objects in the kernel's working set (about 30 MB).
WORKING_SET = 300_000
#: Share of kernel calls cut from each end before averaging (see
#: ``HostSpeed.slowdown``).  Over five sets of ten runs per workload, it
#: narrowed the largest spread of the scaled sweep and service rates from
#: 0.18 to 0.14 and left single-run's as it was.
TRIM = 0.1


def working_set() -> list:
    rng = random.Random(3)
    return [[rng.random(), i] for i in range(WORKING_SET)]


def kernel(objects: list) -> float:
    """Fixed interpreter-bound work in the simulator's style: random reads
    from a large set of small objects, and heap pushes and pops."""
    rng = random.Random(7)
    heap: list = []
    total = 0.0
    n = len(objects)
    for i in range(15_000):
        obj = objects[rng.randrange(n)]
        total += obj[0]
        heapq.heappush(heap, (obj[0], i))
        if len(heap) > 500:
            heapq.heappop(heap)
    return total


def serve() -> None:
    """Helper side: build the working set, then on each input line time
    ``CALLS_PER_SAMPLE`` kernel calls and print their seconds."""
    objects = working_set()
    print("ready", flush=True)
    for _ in sys.stdin:
        times = []
        for _ in range(CALLS_PER_SAMPLE):
            t0 = time.perf_counter()
            kernel(objects)
            times.append(time.perf_counter() - t0)
        print(" ".join(repr(t) for t in times), flush=True)


class HostSpeed:
    """Kernel timings of one measurement phase.  Use as a context manager:
    it starts the helper process on entry and stops it on exit; the
    samples stay readable afterwards."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._due = 0.0
        self._helper: Optional[subprocess.Popen] = None

    def __enter__(self) -> "HostSpeed":
        self._helper = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        if self._helper.stdout.readline().strip() != "ready":
            self.__exit__()
            raise RuntimeError("host-speed helper failed to start")
        return self

    def __exit__(self, *exc) -> None:
        helper, self._helper = self._helper, None
        if helper is None:
            return
        helper.stdin.close()
        try:
            helper.wait(timeout=10)
        except subprocess.TimeoutExpired:
            helper.kill()
            helper.wait()
        helper.stdout.close()

    def sample(self, force: bool = False) -> Optional[float]:
        """Time the kernel, unless the last sample is too recent; returns
        this sample's slowdown (None when skipped)."""
        if not force and time.perf_counter() < self._due:
            return None
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        times = [float(t) for t in self._helper.stdout.readline().split()]
        if not times:
            raise RuntimeError("host-speed helper stopped")
        self.samples.extend(times)
        self._due = time.perf_counter() + SAMPLE_EVERY_S
        return statistics.mean(times) / REFERENCE_KERNEL_S

    def slowdown(self) -> float:
        """Mean kernel time over the reference host's: 1.2 means Python
        ran 20% slower here than on the quiet reference host.  A mean, not
        a median: with the host switching between two speeds, the median
        flips from one to the other as the slow share passes one half.
        The mean leaves out the fastest and slowest ``TRIM`` of the calls,
        since a single call now and then takes three to five times as long."""
        times = sorted(self.samples)
        cut = int(len(times) * TRIM)
        return statistics.mean(times[cut:len(times) - cut]) / REFERENCE_KERNEL_S


if __name__ == "__main__":
    serve()
