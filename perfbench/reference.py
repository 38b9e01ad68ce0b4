"""Fixed reference kernels that gauge how fast the host runs right now.

On a shared host the same code runs up to about 1.7 times slower for
stretches of seconds to minutes while neighbours are busy, so raw times of
two runs minutes apart differ by more than any change worth measuring.
The benchmark times a reference kernel right before and right after each
timed call and rescales the call's time to the speed at which the kernel
takes its nominal time:

    adjusted = elapsed * 2 * nominal / (kernel before + kernel after)

The kernels do not touch dqps, so a change to the program moves the
adjusted time exactly as it moves the raw one; only the host's speed
cancels.  Raw times are recorded next to the adjusted ones.

Two kernels: a pure-Python integer loop, and that loop plus a numpy sort,
which tracks dqps's mix of interpreted and array code better.  The loop
alone gauges ``import dqps``, where numpy must not be imported beforehand.
"""

from __future__ import annotations

import time

# nominal times on a quiet 2-vCPU Intel Xeon host, CPython 3.11, numpy 2.4
LOOP_NOMINAL_S = 1.6e-3
MIXED_NOMINAL_S = 4.0e-3


def loop_seconds() -> float:
    """Time one run of the pure-Python reference loop."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return time.perf_counter() - start


class MixedKernel:
    """The reference loop plus two sorts of a fixed 2^17-element array."""

    nominal_s = MIXED_NOMINAL_S

    def __init__(self):
        import numpy as np

        self._sort = np.sort
        self._data = np.random.default_rng(0).random(1 << 17)

    def seconds(self) -> float:
        start = time.perf_counter()
        for _ in range(2):
            self._sort(self._data)
        return loop_seconds() + (time.perf_counter() - start)


def adjust(elapsed: float, before: float, after: float,
           nominal_s: float = LOOP_NOMINAL_S) -> float:
    """``elapsed`` rescaled to the speed at which the kernel timed as
    ``before`` and ``after`` takes ``nominal_s``."""
    return elapsed * 2.0 * nominal_s / (before + after)
