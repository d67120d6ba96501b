"""Host speed probe: scales measured times to a reference host speed.

On a shared host, identical work can take 30 to 40% longer for tens of
seconds at a time: the same 10-run delta_sweep call measured 0.47 to 0.89 s
back to back. Raw wall times then spread more between runs than a useful
regression bound. While a workload runs, an interval timer interrupts the
main thread every INTERVAL_S, and the handler times a fixed pure-Python
kernel. Such interruptions cost under 1% of the measured time. The
kernel's median time over an interval, against REFERENCE_S, gives the
host's speed in that interval. A time multiplied by that speed is the
time the work would take at the reference speed. Over ten runs, scaling
cut the spread (interquartile range over median) of runs per second from
0.23 to 0.07 on policy_compare and from 0.16 to 0.03 on delta_sweep. The
raw times are recorded too.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

#: Median kernel time on an idle 2-core Intel Xeon at 2.1 GHz (Python 3.11).
REFERENCE_S = 0.0005
INTERVAL_S = 0.1


def kernel() -> float:
    """Float arithmetic, calls and dict stores, like nodeban's hot loops."""
    total = 0.0
    table = {}
    for i in range(2000):
        total += math.sqrt(i + 1.0) / (1.0 + (i & 7))
        table[i & 31] = total
    return total


def sample() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the kernel from SIGALRM while the `with` block runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(sample())

    def speed_during(self, fn):
        """Run fn() and return its result with the host speed meanwhile:
        REFERENCE_S over the median kernel time (below 1 when slow)."""
        first = len(self.samples)
        self.samples.append(sample())
        result = fn()
        return result, REFERENCE_S / statistics.median(self.samples[first:])
