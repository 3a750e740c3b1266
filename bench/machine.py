"""Where a number was measured: machine fingerprint, a fixed calibration
kernel, and peak memory.

The reference box drifts: the same code runs 15-20 % faster or slower
from one minute to the next (no steal time shows; CPU time is no
better than wall).  The calibration kernel is a fixed piece of
benchmark-owned work timed twice before every pass.  Measured over ten
minutes of ``replay-churn``, the median kernel time of an 18-round
window correlates 0.88-0.94 with the median pass time of the same
window, and dividing by it cuts the window-to-window spread of every
stack's median from 7-11 % to 3-5 %.  (A numpy gather-and-mix kernel,
tried first, correlated only 0.71-0.75: its 8 MiB gather is noisier
than the drift it should track.)

So **machine speed** is ``REFERENCE_MS`` over the kernel time, and
time-based metrics are reported at reference speed (times multiplied by
it, rates divided by it): end to end, every pass and every set-up by the
speed its own two samples gave, before the median is taken; per layer, by
the median speed of the whole run.  The raw walls are printed beside
them.  A round whose kernel time is more than ``DISTURBED_RATIO`` times
the run's fastest round is flagged ``disturbed`` and counted,
never dropped.
"""

from __future__ import annotations

import heapq
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

DISTURBED_RATIO = 1.25
#: Median kernel time on the reference box (2-vCPU Xeon @ 2.10GHz,
#: CPython 3.11) over the ten-minute study above: speed 1.0.
REFERENCE_MS = 3.8
#: Units of metrics that scale with machine speed.
TIME_UNITS = frozenset({"ns", "us", "ms", "s"})

_MASK = 0xFFFFFFFFFFFFFFFF


def calibration_ms() -> float:
    """Time the fixed kernel: integer mixing, dict stores, a small heap --
    the interpreter work every layer of the program is made of."""
    start = time.perf_counter_ns()
    table: Dict[int, int] = {}
    heap: List[tuple] = []
    x = 12345
    for i in range(6000):
        x = (x * 6364136223846793005 + 1442695040888963407) & _MASK
        table[x & 0xFFFF] = i
        heapq.heappush(heap, (x >> 40, i))
        if i & 1:
            heapq.heappop(heap)
    return (time.perf_counter_ns() - start) / 1e6


def machine_speed(samples_ms: Sequence[float]) -> float:
    """1.0 on the reference box in its usual state; 0.8 = 20 % slower."""
    return REFERENCE_MS / statistics.median(samples_ms)


def disturbed_rounds(round_ms: Sequence[float]) -> int:
    """How many rounds ran on a visibly slower machine than the best one."""
    limit = DISTURBED_RATIO * min(round_ms)
    return sum(1 for value in round_ms if value > limit)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def _git_sha(root: Path) -> str:
    """HEAD of ``root`` read from the files git keeps, or ``unknown``.

    The benchmark also runs from plain checkouts that are not git
    repositories, so this never shells out and never fails.
    """
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref:"):
            ref = root / ".git" / head.split(None, 1)[1]
            return ref.read_text().strip()[:12]
        return head[:12]
    except OSError:
        return "unknown"


def fingerprint(root: Path) -> Dict[str, object]:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return {
        "nproc": cpus,
        "cpu": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git": _git_sha(root),
    }


def peak_rss_mb() -> float:
    """High-water resident set of this process or its largest child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0
