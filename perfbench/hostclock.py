"""The host's speed, and time measured at its fast speed.

The virtual machine this benchmark runs on switches between two speeds about
1.7x apart and can stay at either for tens of seconds. A fixed loop timed now
and then tells which speed the host runs at; dividing wall time by that
slowness gives time that no longer depends on it. This module imports nothing
from the package, so that it can time the package's import.
"""

from __future__ import annotations

import contextlib
import signal
import time

# The reference loop's time when the host runs at its fast speed, on the machine
# README.md describes. Only ratios to it matter; see host_slowness.
REFERENCE_LOOP_S = 0.0009


def _reference_loop() -> float:
    """A fixed piece of interpreter work, timed: dict updates and integer arithmetic."""
    start = time.perf_counter()
    table, total = {}, 0
    for i in range(6000):
        table[i & 255] = table.get(i & 255, 0) + i
        total += i * 3 % 7
    return time.perf_counter() - start


def host_slowness() -> float:
    """How many times slower than its fast speed the host runs now (about 1.0 to 1.8).

    The least of three timings of the reference loop, over REFERENCE_LOOP_S.
    The host's speed switches between two levels about 1.7x apart and can stay
    at either for tens of seconds; operations slow down by the same factor as
    this loop, so a time divided by it no longer depends on the level.
    """
    return min(_reference_loop() for _ in range(3)) / REFERENCE_LOOP_S


TICK_S = 0.2  # wall seconds between readings of the host's slowness during an operation


class DeadlineExceeded(BaseException):
    """Raised by the alarm handler; a BaseException so no `except Exception` in the package swallows it."""


def on_alarm(signum, frame):
    raise DeadlineExceeded()


class ScaledClock:
    """An operation's time at the host's fast speed, measured piece by piece.

    The host's slowness is read when the clock starts, every TICK_S by a
    periodic SIGALRM, and when it stops. Each piece of wall time between two
    readings is divided by the mean of the two. The readings' own time is left
    out of the operation's, wall and CPU alike.
    """

    def __init__(self, deadline_s: float = float("inf")):
        self.deadline_s = deadline_s  # in scaled seconds
        self.scaled = self.paused_wall = self.paused_cpu = 0.0
        self.slowness = host_slowness()
        self.start = self.mark = time.perf_counter()
        self.start_cpu = time.process_time()

    def _read(self) -> tuple[float, float]:
        """Add the piece since the last reading; return the wall and CPU clocks it ended at."""
        now, cpu = time.perf_counter(), time.process_time()
        slowness = host_slowness()
        self.scaled += (now - self.mark) / ((self.slowness + slowness) / 2)
        self.slowness = slowness
        self.mark = time.perf_counter()
        self.paused_wall += self.mark - now
        self.paused_cpu += time.process_time() - cpu
        return now, cpu

    def now(self) -> float:
        """Seconds at the host's fast speed since the clock started, at the last reading's slowness."""
        return self.scaled + (time.perf_counter() - self.mark) / self.slowness

    def on_tick(self, signum, frame):
        self._read()
        if self.scaled >= self.deadline_s:
            raise DeadlineExceeded()

    @contextlib.contextmanager
    def ticking(self):
        signal.signal(signal.SIGALRM, self.on_tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def stop(self) -> tuple[float, float, float]:
        """(seconds, CPU seconds) at the host's fast speed, and wall seconds as measured."""
        paused_wall, paused_cpu = self.paused_wall, self.paused_cpu
        now, cpu = self._read()
        wall, cpu = now - self.start - paused_wall, cpu - self.start_cpu - paused_cpu
        return self.scaled, cpu * self.scaled / wall, wall
