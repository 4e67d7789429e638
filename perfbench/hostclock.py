"""Timings scaled to the host's nominal speed.

The machine these figures come from shares its cores with other tenants.
Its speed drifts by up to a third within minutes: the same 15 s solve
took between 14.1 and 21.3 s in ten back-to-back runs, with CPU time
tracking wall time.  Raw times therefore spread by 12 to 28 % from run
to run whatever the program does.

A fixed pure-Python loop, timed between the program's calls, measures
that drift.  Each interval of program time is multiplied by the mean of
``NOMINAL_S / t`` over the loop's CPU times ``t`` at the interval's two
ends, which gives the time the interval would have taken at the host's
nominal speed.  The loop is benchmark code, so no change to cooproute
can alter it; its own time is left out of every total.
"""

from __future__ import annotations

import time

# The reference loop's CPU time on an unloaded 2-core Intel Xeon VM.
NOMINAL_S = 0.001


class _Queue:
    __slots__ = ("capacity",)

    def __init__(self, capacity):
        self.capacity = capacity

    def value(self, flow):
        return 1.0 / (self.capacity - flow)

    def derivative(self, flow):
        slack = self.capacity - flow
        return 1.0 / (slack * slack)


def reference_loop():
    """Fixed work in the style of the solver: method calls and float
    arithmetic inside derivative bisections."""
    one, two = _Queue(3.0), _Queue(2.5)
    acc = 0.0
    for k in range(40):
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            d = (one.value(mid) + mid * one.derivative(mid)
                 - two.value(1.0 - mid) - (1.0 - mid) * two.derivative(1.0 - mid)
                 + k * 1e-3)
            if d > 0.0:
                hi = mid
            else:
                lo = mid
        acc += lo
    return acc


class HostClock:
    """Elapsed time, raw and scaled to nominal host speed.

    ``tick()`` closes the interval since the previous tick, times the
    reference loop, and adds the interval to ``raw`` and, scaled by the
    loop's mean speed at the interval's two ends, to ``scaled``.
    ``timed(fn, *args)`` runs one game between two ticks and records its
    scaled time in ``games``.
    """

    def __init__(self):
        self.raw = 0.0
        self.scaled = 0.0
        self.reference_cpu = 0.0
        self.games = []
        self._speed = None
        self._last = time.perf_counter()

    def tick(self):
        interval = time.perf_counter() - self._last
        c0 = time.process_time()
        reference_loop()
        ref = time.process_time() - c0
        speed = NOMINAL_S / ref
        before = speed if self._speed is None else self._speed
        self._speed = speed
        self.reference_cpu += ref
        self.raw += interval
        self.scaled += interval * 0.5 * (before + speed)
        self._last = time.perf_counter()
        return self.scaled

    def timed(self, fn, *args, **kwargs):
        start = self.tick()
        try:
            return fn(*args, **kwargs)
        finally:
            self.games.append(self.tick() - start)


class NullClock:
    """Stands in for a HostClock where nothing is timed."""

    games = ()

    def tick(self):
        return 0.0

    def timed(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)
