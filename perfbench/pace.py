"""The speed of the machine, sampled while the program runs.

On a shared VM the same code runs up to twice as fast at one moment as at
another, and the program slows with the machine.  While a :class:`Pacer` is
active, a SIGALRM handler times a *tick* every ``INTERVAL_S`` seconds: a fixed,
tiny piece of pure-Python work that calls no ``targetset`` code, so that no
change to the program can change it.  Ticks are timed in CPU seconds of the
process, so time the host gives to other guests (steal) does not count.  The
mean tick covers the same stretch of time as the program's own work, and CPU
times divided by :meth:`Pacer.slowdown` read as seconds on a machine where
one tick takes ``REFERENCE_TICK_S``.
"""

from __future__ import annotations

import signal
import statistics
import time

cpu_clock = time.process_time
# A fixed scale, about what one tick takes while the program runs on a
# 2-core Xeon VM with CPython 3.11, so that rescaled times read close to
# raw ones there and those of two commits compare directly.
REFERENCE_TICK_S = 400e-6
# Wall time between ticks: a tick costs about 1.5 % of the work it samples.
INTERVAL_S = 0.025
_TABLE = list(range(256))


def tick() -> float:
    """CPU seconds taken by a fixed loop of interpreter work; allocates
    nothing the garbage collector tracks."""
    start = cpu_clock()
    table, s = _TABLE, 0
    for i in range(4000):
        s += table[(i * 7 + s) & 255]
    return cpu_clock() - start


class Pacer:
    """Context manager that ticks every ``INTERVAL_S`` seconds of wall time."""

    def __init__(self):
        self.ticks: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.ticks.append(tick())

    def __enter__(self) -> "Pacer":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """How many times slower than the reference the machine ran; work
        shorter than one interval gets one tick right after it."""
        if not self.ticks:
            self.ticks.append(tick())
        return statistics.fmean(self.ticks) / REFERENCE_TICK_S
