"""Host speed: a probe timed throughout every measurement, to scale it to
an unloaded vCPU.

Each vCPU of a shared host runs at one of two speeds, about 1.7x apart,
switching on its own schedule within seconds, as other tenants load the
hardware thread beside it.  CPU time slows with wall time, so the
process is slowed rather than kept waiting.  A sample's time then
follows the share of it that ran on a slow vCPU: the middle half of ten
runs' medians of the same code spread by 12-29% of their median.  The
two vCPUs' speeds are only weakly correlated, and a probe taken just
before a sample does not predict the speed the sample meets, so choosing
a CPU does not help.

``SpeedSampler`` pins the measuring process to the CPU it is on and, from
a second thread, times a short fixed loop in thread CPU time at the
start, every ``INTERVAL_S`` and at the end of the measured work.  The
loop's mean time is the speed the work met; ``scaled`` divides it out
and multiplies by the loop's time on an unloaded vCPU.  The loop is
fixed here, apart from the program, so a change to the program moves
the scaled time as much as the raw one.  The probes take 1-2% of the
CPU from the measured work, the same on every commit.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

# probe_s() on an unloaded vCPU of the baseline machine (Intel Xeon at
# 2.1 GHz): the fast mode of its two-mode distribution.  A constant: it
# sets the scale, and changing it would move every scaled figure.
PROBE_REFERENCE_S = 0.00055
INTERVAL_S = 0.05


def probe_s() -> float:
    """Thread CPU time of a fixed loop over a small NumPy array, the kind
    of work the program does per track."""
    small = np.linspace(0.0, 1.0, 48)
    total = 0.0
    start = time.thread_time()
    for i in range(150):
        b = small * 1.0001 + i
        total += float(b[3]) + sum(float(v) for v in b[:8])
    return time.thread_time() - start


def current_cpu() -> int:
    """The CPU the calling thread runs on (field 39 of its stat file)."""
    with open("/proc/thread-self/stat") as fh:
        return int(fh.read().rsplit(")", 1)[1].split()[36])


def scaled(elapsed_s: float, mean_probe_s: float) -> float:
    """``elapsed_s`` at the speed of an unloaded vCPU."""
    return elapsed_s * PROBE_REFERENCE_S / mean_probe_s


class SpeedSampler:
    """Context manager: pin this process to its current CPU and time
    ``probe_s`` from a second thread while the body runs."""

    def __init__(self) -> None:
        self.probes: list[float] = []
        self._halt = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._affinity: set[int] = set()

    def _run(self) -> None:
        self.probes.append(probe_s())
        while not self._halt.wait(INTERVAL_S):
            self.probes.append(probe_s())

    def __enter__(self) -> SpeedSampler:
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {current_cpu()})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._halt.set()
        self._thread.join()
        self.probes.append(probe_s())
        os.sched_setaffinity(0, self._affinity)

    @property
    def mean_probe_s(self) -> float:
        return sum(self.probes) / len(self.probes)
