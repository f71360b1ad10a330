"""Core-speed probe: rescales wall time to a nominal core speed.

The benchmark shares a few cores of a host with other tenants, and the
speed of one core drifts by 20-50% within seconds and over minutes, while
the other core's speed moves on its own.  Process CPU time follows that
drift as closely as wall time does, so neither is steady from run to run.

The probe runs a fixed reference loop in the measured thread itself, from a
SIGALRM handler every `INTERVAL_S` seconds, and records when each sample
started and how long it took.  `rescale(t0, t1)` turns the wall interval
[t0, t1] into nominal seconds: each stretch between two samples is divided
by the mean reference time of the two samples around it and multiplied by
`NOMINAL_S`, and the probe's own time is left out.  The result is the time
the interval would have taken on a core that runs the reference loop in
exactly `NOMINAL_S`.  Less work in the program lowers it; a stretch in
which another tenant slowed the core is divided by the slower reference
time measured in that same stretch.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List, Tuple

INTERVAL_S = 0.05
LOOP = 2800
NOMINAL_S = 0.0005

_SLOTS = [0] * 64


def reference_loop() -> int:
    """Fixed interpreter work that allocates no container the GC tracks."""
    s = 0
    slots = _SLOTS
    for i in range(LOOP):
        s ^= (i * 2654435761) & 0xFFFF
        slots[i & 63] = s
    return s


class Probe:
    def __init__(self) -> None:
        self.starts: List[float] = []
        self.durations: List[float] = []
        self.running = False

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        reference_loop()
        self.starts.append(t)
        self.durations.append(time.perf_counter() - t)

    def start(self, warm_samples: int = 3) -> None:
        """Start sampling and wait (busy) until `warm_samples` samples exist."""
        if self.running:
            return
        self.running = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        target = len(self.starts) + warm_samples
        while len(self.starts) < target:
            reference_loop()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.running = False

    def rescale(self, t0: float, t1: float) -> Tuple[float, float]:
        """(nominal seconds, wall seconds without probe time) of [t0, t1]."""
        starts, durs = self.starts, self.durations
        if not starts:
            raise RuntimeError("the speed probe has no sample")
        lo = bisect.bisect_left(starts, t0)
        hi = bisect.bisect_left(starts, t1)
        nominal = wall = 0.0
        # stretch j runs from the end of sample j-1 to the start of sample j
        for j in range(lo, hi + 1):
            a = max(t0, starts[j - 1] + durs[j - 1]) if j > 0 else t0
            b = min(t1, starts[j]) if j < len(starts) else t1
            if b <= a:
                continue
            around = [durs[k] for k in (j - 1, j) if 0 <= k < len(durs)]
            wall += b - a
            nominal += (b - a) * NOMINAL_S * len(around) / sum(around)
        return nominal, wall

    def median_ms(self) -> float:
        ordered = sorted(self.durations)
        return 1000 * ordered[len(ordered) // 2] if ordered else 0.0
