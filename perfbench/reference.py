"""Reference work that turns times on a drifting host into steady units.

On a shared host the speed of one CPU drifts by up to 2x within seconds
(one run of the work below flips between about 4.3 and 7 ms from one
tenth of a second to the next, in CPU time as much as in wall time), so
raw times do not repeat from run to run.  The reference work is
a fixed piece of the same kind of work as the package does (products of
exact rational 6x6 matrices of Fractions), in code no package change can
touch; a time divided by the time of the reference work run next to it is
steady.  It needs nothing but the standard library, so it can also run
while the package and numpy are being imported.
"""

from __future__ import annotations

import contextlib
import signal
import time
from fractions import Fraction

_REF_M = [[Fraction(7 * i % 11 - 5, i % 5 + 1) for i in range(6 * j, 6 * j + 6)]
          for j in range(6)]
_REF_COLS = list(zip(*_REF_M))


def work_s():
    """Run the reference work once; its time in seconds."""
    t0 = time.perf_counter()
    x = _REF_M
    for _ in range(6):
        x = [[sum(a * b for a, b in zip(row, col)) for col in _REF_COLS] for row in x]
        x = [[Fraction(v.numerator % 1000, v.denominator % 1000 + 1) for v in row]
             for row in x]
    return time.perf_counter() - t0


class Reference:
    """Interleaves the reference work with set-up or a pass and times it.

    ``in_units`` divides each stretch of package time between two runs of
    the reference work by their mean time and sums the pieces.  A SIGALRM
    timer runs the reference work every ``interval_s`` seconds, inside long
    package calls too; ``clock`` gives times that leave it out.
    Across 25-second rank-catalogs runs the spread (IQR over median) of the
    run medians was 0.21 raw, 0.07 to 0.10 with the reference work run only
    between reports, and under 0.02 with the timer.
    """

    def __init__(self, interval_s):
        self.interval_s = interval_s
        self.samples = []  # seconds of each run of the reference work
        self.gaps = []  # seconds of package work between consecutive runs
        self.spent_s = 0.0
        self._last = None
        self._busy = False

    def measure(self, *_):
        """Run the reference work once; also the SIGALRM handler."""
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        if self._last is not None:
            self.gaps.append(t0 - self._last)
        spent = work_s()
        self._last = time.perf_counter()
        self.samples.append(spent)
        self.spent_s += self._last - t0
        self._busy = False

    def clock(self):
        """Seconds, leaving out the reference work run so far."""
        while True:
            spent = self.spent_s
            now = time.perf_counter()
            if spent == self.spent_s:  # no measurement ran in between
                return now - spent

    @contextlib.contextmanager
    def interleaved(self):
        """Run the reference work now, every interval_s, and at the end."""
        previous = signal.signal(signal.SIGALRM, self.measure)
        self.measure()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.measure()

    def in_units(self):
        """The package time in units of the reference work around each gap."""
        s = self.samples
        return sum(g / ((s[k] + s[k + 1]) / 2) for k, g in enumerate(self.gaps))
