"""Time in reference seconds: wall time corrected for the machine's speed.

The benchmark runs on shared machines whose speed changes by up to 40%
from one minute to the next, because other work contends for the same
cores.  To make runs comparable, a fixed reference loop that does not
touch finlat is timed every PROBE_INTERVAL_S from a SIGALRM handler, in
the same thread as the workload.  Each stretch of the run between two
probes is scaled by REFERENCE_PROBE_S over the median probe duration
around it, and time spent in probes is left out.  A reference second is
therefore the time the work would take on a machine where the probe
takes REFERENCE_PROBE_S, which is about its duration on an idle core of
a 2.1 GHz Xeon.

``perf_counter`` readings from other processes can be converted too:
it is CLOCK_MONOTONIC, one clock for the whole machine.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PROBE_INTERVAL_S = 0.05
REFERENCE_PROBE_S = 0.0004
SMOOTHING = 3  # probes on each side whose median sets a stretch's speed

_TABLE = tuple(tuple((i * j) & 3 for j in range(12)) for i in range(12))


def _reference_work() -> int:
    total = 0
    for _ in range(40):
        for row in _TABLE:
            for value in row:
                total += value & 1
        seen: dict[int, int] = {}
        for i in range(64):
            seen[i & 15] = seen.get(i & 15, 0) + 1
    return total


class SpeedClock:
    """Probes the machine's speed while running; converts intervals afterwards."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._marks: list[float] = []
        self._totals: list[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self._probe()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()
        self._index()

    def _probe(self, *_: object) -> None:
        start = time.perf_counter()
        _reference_work()
        self.ends.append(time.perf_counter())
        self.starts.append(start)

    def _index(self) -> None:
        """Reference seconds elapsed at each probe end (the first end reads zero)."""
        durations = [e - s for s, e in zip(self.starts, self.ends)]
        self._scales = [
            REFERENCE_PROBE_S
            / statistics.median(durations[max(0, k - SMOOTHING) : k + SMOOTHING + 2])
            for k in range(len(durations))
        ]
        self._totals = [0.0]
        for k in range(1, len(self.ends)):
            stretch = self.starts[k] - self.ends[k - 1]
            self._totals.append(self._totals[-1] + stretch * self._scales[k - 1])

    def reference(self, t: float) -> float:
        """Reference seconds from the first probe's end to the reading t."""
        k = bisect.bisect_right(self.ends, t) - 1
        if k < 0:
            return (t - self.ends[0]) * self._scales[0]
        if k + 1 < len(self.starts) and t > self.starts[k + 1]:
            t = self.starts[k + 1]  # inside a probe: no workload time passes
        return self._totals[k] + (t - self.ends[k]) * self._scales[k]

    def elapsed(self, start: float, end: float) -> float:
        """Reference seconds between two perf_counter readings."""
        return self.reference(end) - self.reference(start)
