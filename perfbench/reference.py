"""A fixed reference loop that tracks how fast the machine runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same code runs up to 1.7x slower for seconds to minutes at a time, and even
the fastest of many repetitions moves with it.  The worker therefore times
a fixed loop of small numpy operations and Python bytecode, the instruction
mix of changeid's per-step work, in short blocks between its operations.
The mean time of one loop call over a run is the machine's speed during
that run, and a timing divided by it, times ``REF_CALL_S``, is the timing
the machine would have given at its reference speed.  The loop uses nothing
from changeid, so a change to the program moves the scaled timings and not
the reference.
"""
from __future__ import annotations

import time

import numpy as np

# About the mean wall of one ``loop()`` call between a worker's operations
# on a 2-vCPU Intel Xeon virtual machine (Python 3.11, numpy 2.4); run means
# there ranged from 0.91 to 1.16 ms.  Scaled timings are seconds at this
# speed.
REF_CALL_S = 1.0e-3

_X = np.linspace(0.0, 1.0, 16)


def loop() -> float:
    """One reference call: 200 small numpy ufunc calls and 3 000 iterations
    of interpreted arithmetic."""
    s = 0.0
    for i in range(200):
        s += float(np.logaddexp(_X, _X * (1e-3 * i)).max())
    for i in range(3000):
        s += i % 7
    return s


class SpeedMeter:
    """Accumulates timed reference calls."""

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0

    def sample(self, seconds: float) -> None:
        """Run reference calls for about ``seconds`` (at least one)."""
        clock = time.perf_counter
        t_end = clock() + seconds
        while True:
            t0 = clock()
            loop()
            t1 = clock()
            self.calls += 1
            self.seconds += t1 - t0
            if t1 >= t_end:
                return

    def call_s(self) -> float:
        """Mean wall of one reference call so far."""
        return self.seconds / self.calls

    def scale(self) -> float:
        """Factor that turns a wall timed during the samples into seconds at
        the reference speed."""
        return REF_CALL_S / self.call_s()
