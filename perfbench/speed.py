"""The machine's speed, measured by a fixed piece of work.

On a shared 2-vCPU VM the same pass of jobs took from 1.7 to 2.9 s within
two minutes, and a 25-second run's median from 2.0 to 2.9 s from one run
to the next: the host's load changes the speed of the virtual CPU for
seconds to minutes at a time, and process CPU time slows down with it.  A
small piece of dict, tuple and sort work, like the package's own, slows
down with it too, and no change to the package can make that loop faster
or slower.  So every time the benchmark reports is scaled to a reference
speed,

    t * REFERENCE_S / c,

where ``c`` is the loop's mean time over measurements taken during ``t``
in the same process.  A change to the package moves the scaled time in
proportion to the unscaled one.  ``run.py`` prints the unscaled figures
too.

The speed changes within seconds, so the loop is timed every PERIOD_S
while jobs run (``Sampler``), not only before and after them.  On that VM
the coefficient of variation of one pass's time, unscaled and scaled, was
0.10 and 0.03 on ``large-complex``, 0.09 and 0.03 on ``dense-homology``,
0.07 and 0.05 on ``ordered``, and 0.08 and 0.05 on ``corpus``.  A loop of
integer arithmetic followed the speed less well (0.06-0.08 scaled).
"""

from __future__ import annotations

import signal
from time import perf_counter

# the loop's time on that VM when it ran fast, so scaled times are close to
# the fastest unscaled ones
REFERENCE_S = 0.0032
PERIOD_S = 0.2


def calibrate() -> float:
    """The time, in seconds, of 15,000 dict updates on tuple keys and a sort
    of the result: the kind of work the package does most."""
    t0 = perf_counter()
    d = {}
    for i in range(15_000):
        key = (i % 50, i % 7, "a")
        d[key] = d.get(key, 0) + i
    sorted(d.items())
    return perf_counter() - t0


def at_reference(seconds: float, cal: float) -> float:
    """``seconds`` measured while the loop took ``cal``, at the reference
    speed."""
    return seconds * REFERENCE_S / cal


class Sampler:
    """While installed, SIGALRM runs ``calibrate`` every PERIOD_S, between
    two bytecodes of whatever the process is doing.  ``take`` returns the
    loop times measured, and the time the handler took, since the last
    ``take``; a caller subtracts that time from what it timed."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._old = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(calibrate())
        self.spent += perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def take(self) -> tuple[list[float], float]:
        samples, spent = self.samples, self.spent
        self.samples, self.spent = [], 0.0
        return samples, spent
