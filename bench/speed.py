"""Machine-speed probe.

On the 2-core reference machine the processor's speed changes by up to
1.8x, between a slow and a fast state that last from a fraction of a
second to minutes: a fixed pure-Python loop, timed in 5 s windows, took
1.07-1.6x its fastest time, and CPU time drifted with wall time.  No run
length averages that away.  So the benchmark reads this probe, a fixed
piece of its own code made of the same kind of work as the program (4x4
numpy arrays built from Python floats, products, norms), before, during
and after every timed piece of work, and scales the times to the speed at
which the probe takes REFERENCE_S.  The probe never calls the program, so
a change to the program changes the scaled times by the same factor as
the raw ones.
"""

from __future__ import annotations

import contextlib
import math
import signal
import statistics
from time import perf_counter

import numpy as np

#: Probe time of the reference machine in its usual (slow) state.
REFERENCE_S = 0.010
#: Seconds between probe readings inside a timed piece of work.
INTERVAL_S = 0.1
_ITERATIONS = 1000

#: Seconds spent in probe readings taken inside timed work, so far; a timer
#: subtracts the part that falls inside its own interval.
inside_s = 0.0


def probe() -> float:
    """Seconds taken by one fixed piece of work."""
    start = perf_counter()
    acc = 0.0
    for i in range(_ITERATIONS):
        a = 1e-3 * i
        c, s, c2, s2 = math.cos(a), math.sin(a), math.cos(2 * a), math.sin(2 * a)
        m = np.array([[c, -s, 0.0, 0.0], [s, c, 0.0, 0.0], [0.0, 0.0, c2, -s2], [0.0, 0.0, s2, c2]])
        acc += float(np.linalg.norm(m @ m.T))
    elapsed = perf_counter() - start
    if not math.isclose(acc, 2.0 * _ITERATIONS, rel_tol=1e-12):
        raise RuntimeError("speed probe computed a wrong result")
    return elapsed


class Meter:
    """Probe readings of one round.

    timed() reads the probe before and after each piece of work (a reading
    taken less than FRESH_S earlier serves as the next piece's "before"),
    and every INTERVAL_S during it, from a SIGALRM handler; the time of the
    readings inside is taken out of the piece's time.  The readings thus
    sample the machine's speed evenly all through the round, and the
    round's times are scaled by their mean speed: the work done in a time
    is that time multiplied by the mean speed over it.
    """

    FRESH_S = 0.05

    def __init__(self):
        self.readings = []
        self._last_end = None

    def read(self) -> None:
        self.readings.append(probe())
        self._last_end = perf_counter()

    def _read_inside(self, signum, frame):
        global inside_s
        start = perf_counter()
        self.readings.append(probe())
        inside_s += perf_counter() - start

    @contextlib.contextmanager
    def timed(self):
        """Yields a Timing; its raw seconds are set on exit."""
        if self._last_end is None or perf_counter() - self._last_end > self.FRESH_S:
            self.read()
        timing = Timing()
        previous = signal.signal(signal.SIGALRM, self._read_inside)
        probed = inside_s
        start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            timing.raw = perf_counter() - start - (inside_s - probed)
            signal.signal(signal.SIGALRM, previous)
        self.read()

    def scale(self, seconds: float) -> float:
        """seconds at the reference speed."""
        return seconds * factor(self.readings)


def factor(readings) -> float:
    """Scale from the machine's mean speed during the readings to the
    reference speed."""
    return statistics.fmean(REFERENCE_S / r for r in readings)


class Timing:
    raw = 0.0
