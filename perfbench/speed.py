"""Wall-clock timing scaled to a reference machine speed.

On a shared (virtual) machine the speed of plain Python code can drift
by tens of percent within a minute, which swamps the program's own
run-to-run variation. So while a timed region runs, a
``SIGALRM`` every :data:`PERIOD_S` times a short fixed pure-Python loop
(dict, integer and call work, like the program's own), and one more run
of the loop is timed just before and just after the region. The region's
time *at reference speed* is its wall time times :data:`REF_NOMINAL_S`
over the loop's mean duration during the region: on a machine that runs
the loop in exactly :data:`REF_NOMINAL_S`, it equals the wall time.

The sampler's own time is taken out of the region's wall time. Signal
handlers run in the main thread between bytecodes, so the program runs
unchanged and single-threaded.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from time import perf_counter
from typing import List

#: loop iterations per sample, and the sample duration that defines
#: reference speed (an Intel Xeon 2-vCPU VM takes 0.4-0.6 ms)
REF_ITERS = 1000
REF_NOMINAL_S = 0.0005
#: sampling period inside a timed region (~2.5% of the time sampling)
PERIOD_S = 0.02


class Timing:
    __slots__ = ("wall_s", "ref_s")

    def __init__(self) -> None:
        self.wall_s = 0.0  # wall time, sampling excluded
        self.ref_s = 0.0  # the same at reference speed


class SpeedClock:
    """Times regions in wall seconds and at reference speed. Use as a
    context manager to arm the periodic sampler."""

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._sampling_s = 0.0
        self._period = 0.0  # no periodic samples until entered
        self._previous = None

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._period = PERIOD_S
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._period = 0.0

    def sample(self) -> None:
        start = perf_counter()
        table, acc = {}, 0
        for i in range(REF_ITERS):
            key = (i * 2654435761) & 0xFFFF
            table[key] = table.get(key, 0) + 1
            acc = (acc + (key << 3) ^ (key >> 2)) & 0xFFFFFFFF
        spent = perf_counter() - start
        self._samples.append(spent)
        self._sampling_s += spent

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    @contextmanager
    def timed(self):
        """Time the body; the yielded :class:`Timing` is filled on exit."""
        timing = Timing()
        self._samples = []
        self.sample()
        sampled_before = self._sampling_s
        start = perf_counter()
        if self._period:
            signal.setitimer(signal.ITIMER_REAL, self._period, self._period)
        try:
            yield timing
        finally:
            if self._period:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = perf_counter() - start - (self._sampling_s - sampled_before)
            self.sample()
            mean = sum(self._samples) / len(self._samples)
            timing.wall_s = wall
            timing.ref_s = wall * REF_NOMINAL_S / mean
