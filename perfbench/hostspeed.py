"""Host speed: a fixed pure-Python loop timed around every operation.

The benchmark runs on shared machines whose speed changes by a third and
more within seconds (other tenants' load on the same cores and caches).
Each run therefore times this loop, which never changes, right before and
after every operation, and reports op times in *reference seconds*: the
wall time scaled by ``REFERENCE_S / loop time measured around the op``.
A program change moves the op time and not the loop, so it shows in full;
a slower host moves both, and cancels.  Ops of a second or more outlast the
host's changes of speed, so for them the loop is also timed every
:data:`PERIOD_S` while the op runs (:class:`DuringOp`), and that time is
taken out of the op's.

The loop is timed in CPU time of the calling thread, so time the thread
is not running (a CLI child process sharing the CPU) does not count.

``REFERENCE_S`` is the loop's median on a quiet 2-vCPU Linux VM with
CPython 3.11, so reference seconds read close to seconds on such a host.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import List, Sequence, Tuple

#: The loop's median time on the reference host.
REFERENCE_S = 0.0125
#: Share of an op's time spent timing the loop after it.
SHARE = 0.05
#: Interval of the loop timings during an op (:class:`DuringOp`).
PERIOD_S = 0.2


def _loop(n: int = 40_000) -> int:
    table = {}
    for i in range(n):
        key = (i * 7) % 5003
        table[key] = table.get((i * 13) % 5003, 0) + i
    words = sorted(str(i * 7919 % 12007) for i in range(n // 4))
    return len(table) + len(words)


def samples(count: int) -> List[float]:
    """``count`` timings of the loop, with the collector off so no garbage of the op is swept here."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(count):
            start = time.thread_time()
            _loop()
            times.append(time.thread_time() - start)
    finally:
        if enabled:
            gc.enable()
    return times


class DuringOp:
    """Times the loop every :data:`PERIOD_S` (on ``SIGALRM``) while in the ``with`` block."""

    def __init__(self) -> None:
        #: (perf_counter at the timing's start, loop CPU seconds)
        self.log: List[Tuple[float, float]] = []

    def _timing(self, signum, frame) -> None:
        start = time.perf_counter()
        self.log.append((start, samples(1)[0]))

    def __enter__(self) -> "DuringOp":
        self._previous = signal.signal(signal.SIGALRM, self._timing)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def within(self, start: float, end: float) -> List[float]:
        """Loop timings taken between ``start`` and ``end`` (``perf_counter``)."""
        return [loop for at, loop in self.log if start <= at <= end]


def samples_after(op_s: float) -> List[float]:
    """Loop timings after an op of ``op_s`` seconds: at least two, about :data:`SHARE` of it."""
    return samples(max(2, round(SHARE * op_s / REFERENCE_S)))


def scale(seconds: float, loop_times: Sequence[float]) -> float:
    """``seconds`` of wall time in reference seconds, given the loop times measured around it."""
    return seconds * REFERENCE_S / statistics.median(loop_times)
