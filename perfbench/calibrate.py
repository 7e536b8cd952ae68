"""Machine-speed calibration for a shared, noisy host.

On a small shared virtual machine the speed of a core swings by a factor
of two within seconds, as neighbours come and go, and CPU time swings
with it.  While a timed run is in progress, `SpeedMeter` therefore times
a fixed reference kernel every `INTERVAL_S` of wall time, also in the
middle of an item, from a SIGALRM handler.  An interval of program work
is scaled by `REFERENCE_S` over the mean kernel time sampled in and
around it, after the handler's own time is taken out, so reported times
read as times on a machine where the kernel takes `REFERENCE_S`.

On the reference machine this cuts the spread of single item times of
one kind from about 15 % to about 5 %.  The kernel is exact rational
elimination, like the program's hot loops, and shares no code with the
program, so no change to the program can move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# Kernel time on the reference machine (2-core Xeon VM, CPython 3.11) when
# its neighbours are quiet.
REFERENCE_S = 0.0125
INTERVAL_S = 0.2

_MATRIX = [
    [Fraction(3), Fraction(-7, 2), Fraction(5), Fraction(1, 3), Fraction(11)],
    [Fraction(-2, 5), Fraction(9), Fraction(4, 7), Fraction(-6), Fraction(2)],
    [Fraction(8), Fraction(1, 9), Fraction(-3), Fraction(13, 4), Fraction(-5)],
    [Fraction(6, 11), Fraction(-4), Fraction(7, 3), Fraction(10), Fraction(1, 2)],
]


def _eliminate(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    m = [row[:] for row in rows]
    for col in range(len(m)):
        piv = m[col][col]
        m[col] = [x / piv for x in m[col]]
        for i in range(len(m)):
            if i != col:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return m


def kernel(reps: int = 60) -> Fraction:
    """Fixed exact-arithmetic work: `reps` 4x5 Gauss-Jordan eliminations."""
    total = Fraction(0)
    for k in range(reps):
        rows = [row[:] for row in _MATRIX]
        rows[k % 4][4] += k
        total += _eliminate(rows)[0][4]
    return total


class SpeedMeter:
    """Samples the kernel every INTERVAL_S while active (a context manager).

    `mark()` reads the clocks net of the meter's own time, so the
    difference of two marks is the program's share of that interval.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (mid time, kernel seconds)
        self.wall_spent = 0.0
        self.cpu_spent = 0.0
        self._old_handler = None

    def __enter__(self) -> "SpeedMeter":
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._sample()

    def _sample(self) -> None:
        cpu = time.process_time()
        t = time.perf_counter()
        kernel()
        now = time.perf_counter()
        self.samples.append(((t + now) / 2, now - t))
        self.wall_spent += now - t
        self.cpu_spent += time.process_time() - cpu

    def _tick(self, *_) -> None:
        # One-shot timer re-armed after the sample, so handlers never nest.
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def mark(self) -> tuple[float, float, float]:
        """(wall time, program wall, program CPU): the clocks now, with
        the meter's time taken out of the last two."""
        while True:
            wall_spent, cpu_spent = self.wall_spent, self.cpu_spent
            now, cpu = time.perf_counter(), time.process_time()
            if wall_spent == self.wall_spent:  # no sample ran in between
                return now, now - wall_spent, cpu - cpu_spent

    def scale(self, start: float, end: float) -> float:
        """Factor to reference speed for program work between two wall times."""
        near = [k for t, k in self.samples if start - INTERVAL_S <= t <= end + INTERVAL_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - (start + end) / 2))[1]]
        return REFERENCE_S / statistics.fmean(near)
