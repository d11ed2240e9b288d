"""Machine-speed probe: scales measured times to a reference speed.

The shared machine this benchmark was built on changes speed by up to
2x within seconds to minutes, with no steal time recorded and with the
process's CPU time following its wall time.  Timed stretches are
therefore measured together with a probe: a fixed pure-Python task
that uses nothing from the program under test, so a change to the
program cannot move it.  A time ``t`` measured while the probe took
``p`` seconds is reported as ``t * REFERENCE_S / p``: seconds on a
machine where the probe takes :data:`REFERENCE_S`.  The raw times are
kept beside the scaled ones in every result file.

Set-up is bracketed by a probe on each side (:func:`probe`).
Operations are sampled *while they run* (:meth:`SpeedTrack.sampling`):
a timer interrupts the loop every :data:`INTERVAL_S` and runs the task
once, so a 5 s operation is scaled by the ~20 probes taken during it,
not only by those at its ends.  The probes' own time is taken out of
the operations they interrupted (:meth:`SpeedTrack.spent`).
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

#: The probe's time on the reference machine (a shared 2-vCPU Xeon VM
#: at 2.1 GHz, Python 3.11, in a quiet spell).  Only a scale: both
#: sides of a comparison use the same constant.
REFERENCE_S = 0.004
#: Repetitions of a bracketing probe; its value is their median.
REPS = 3
#: While sampling, a timer probes the machine this often.
INTERVAL_S = 0.25


def _task() -> float:
    t0 = time.perf_counter()
    table: dict = {}
    total = 0
    for i in range(40_000):
        total += i * i
        table[i & 1023] = total
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds the probe task takes now (median of :data:`REPS`)."""
    return statistics.median(_task() for _ in range(REPS))


class SpeedTrack:
    """Probes taken over a run, to scale the times measured around
    them."""

    def __init__(self):
        self.times: list[float] = []   # perf_counter at each probe
        self.values: list[float] = []  # the probe's seconds
        #: ``(start, end)`` of each probe taken while sampling.
        self.spans: list[tuple[float, float]] = []

    def take(self) -> None:
        value = probe()
        self.times.append(time.perf_counter())
        self.values.append(value)

    @contextlib.contextmanager
    def sampling(self):
        """Probe every :data:`INTERVAL_S` from a ``SIGALRM`` timer for
        the duration of the block.  The handler runs in the main
        thread between bytecodes, so it interrupts operations without
        running beside them; it re-arms the timer only when it is
        done, so probes never overlap."""
        def tick(signum, frame):
            start = time.perf_counter()
            value = _task()
            end = time.perf_counter()
            self.spans.append((start, end))
            self.times.append(end)
            self.values.append(value)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def spent(self, start: float, end: float) -> float:
        """Seconds of sampling probes inside ``[start, end]``."""
        return sum(min(t1, end) - max(t0, start)
                   for t0, t1 in self.spans if t0 < end and t1 > start)

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the mean of the probes taken during
        ``[start, end]``, the last one before it and the first one
        after it."""
        before = max(bisect.bisect_right(self.times, start) - 1, 0)
        after = bisect.bisect_left(self.times, end) + 1
        around = self.values[before:after]
        return REFERENCE_S / statistics.fmean(around)
