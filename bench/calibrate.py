"""Host-speed sampling: a fixed reference computation timed while the workload runs.

On a shared host the CPU speed available to one process switches between
fast and slow states within fractions of a second, and drifts by tens of
percent over minutes, while CPU time stays equal to wall time.  A
``HostSampler`` interrupts the process every ``INTERVAL`` seconds (SIGALRM)
and times one round of a fixed reference computation.  The mean sample over
an interval measures how slow the host was during it, so dividing a pass's
time by it removes most of the host's drift.

The reference mixes the three kinds of work the workloads do, in the
interpreter only and independent of defectlab's code: elimination on
packed Python integers, exact ``Fraction`` sums, and small numpy array
conversions.  It must never change, because ratios measured with different
references are not comparable.
"""

from __future__ import annotations

import random
import signal
from fractions import Fraction
from time import perf_counter

import numpy as np

_RNG = random.Random(20160213)
_ROWS = [_RNG.getrandbits(40) for _ in range(48)]
_BITS = [[_RNG.getrandbits(1) for _ in range(24)] for _ in range(8)]
_MATRIX = np.array([[_RNG.getrandbits(1) for _ in range(16)] for _ in range(24)], dtype=np.uint8)


def _eliminate() -> int:
    pivots: dict[int, int] = {}
    for row in _ROWS:
        for col, pivot in pivots.items():
            if (row >> col) & 1:
                row ^= pivot
        if row:
            col = (row & -row).bit_length() - 1
            for c, r in pivots.items():
                if (r >> col) & 1:
                    pivots[c] = r ^ row
            pivots[col] = row
    return len(pivots)


def _fractions() -> Fraction:
    p = Fraction(3, 20)
    total = Fraction(0)
    for e in range(16):
        total += p ** e * (1 - p) ** (16 - e) * Fraction((1 << (e % 5)) - 1, 1 << (e % 5))
    return total


def _arrays() -> int:
    acc = 0
    for bits in _BITS:
        v = np.asarray(bits, dtype=np.uint8)
        if v.max() > 1:
            raise ValueError("not a bit vector")
        acc ^= int.from_bytes(np.packbits(v, bitorder="little").tobytes(), "little")
        acc ^= int(((_MATRIX.T.astype(np.int64) @ v.astype(np.int64)) % 2).sum())
    return acc


def reference_round() -> None:
    """One round of the reference work (about half a millisecond)."""
    _eliminate()
    _fractions()
    _arrays()
    _arrays()


#: Seconds between samples: ~1% of the time goes to the reference.
INTERVAL = 0.05

#: Seconds of one reference round on the host where the benchmark was
#: defined, in its fast state.  Times scaled by NOMINAL_ROUND_S / (measured
#: round) are seconds on a host of that speed.
NOMINAL_ROUND_S = 0.0005


class HostSampler:
    """Times one reference round every ``INTERVAL`` s while installed.

    ``samples`` holds the durations in order; ``spent`` their sum, which
    callers subtract from the wall time of what they measure.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        started = perf_counter()
        reference_round()
        took = perf_counter() - started
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
