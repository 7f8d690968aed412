"""Times scaled to a fixed machine speed by a reference kernel.

A shared machine changes speed by 20-40% over seconds to minutes as
other load comes and goes, and a slow phase can cover a whole run, which
no estimator over the run's own samples removes.  So the benchmark
measures the machine's speed next to the work: after every ``CHUNK_S``
of a pass it times ``reference()``, a fixed kernel of the same kind of
work as mvcalc (dicts keyed by index tuples, swap-count signs,
``Fraction`` arithmetic) written here in plain Python so that no change
to mvcalc can move it, and scales the chunk's times by
``REF_S / (kernel time)``.  A scaled time is the time the work would take
on a machine where the kernel takes ``REF_S``.  The raw times are kept
beside the scaled ones.
"""

from __future__ import annotations

import itertools
import random
from array import array
from fractions import Fraction
from time import perf_counter

# The reference kernel's time on the scaled machine, in seconds.
REF_S = 0.002
# Seconds of workload between two measurements of the kernel.
CHUNK_S = 0.05
# Kernel runs per measurement; the fastest counts.
REF_REPEATS = 2

_rng = random.Random(2110)
_PAIRS = list(itertools.combinations(range(7), 2))
_A = {I: Fraction(_rng.choice([-5, -3, -1, 1, 2, 4]), _rng.randint(2, 7)) for I in _PAIRS}
_B = {I: Fraction(_rng.choice([-4, -2, 1, 3, 5]), _rng.randint(2, 7)) for I in _PAIRS}


def _sorted_sign(seq: tuple) -> tuple[int, tuple]:
    """Sign of the sorting permutation by swap count, and the sorted tuple (0 on a repeat)."""
    items = list(seq)
    swaps = 0
    for i in range(1, len(items)):
        j = i
        while j and items[j - 1] > items[j]:
            items[j - 1], items[j] = items[j], items[j - 1]
            swaps += 1
            j -= 1
    if any(a == b for a, b in zip(items, items[1:])):
        return 0, ()
    return (-1 if swaps % 2 else 1), tuple(items)


def reference() -> dict:
    """The reference kernel: the wedge of two dense rational 2-vectors in dimension 7."""
    out: dict = {}
    for I, a in _A.items():
        for J, b in _B.items():
            sign, K = _sorted_sign(I + J)
            if sign:
                out[K] = out.get(K, 0) + sign * a * b
    return out


def reference_s(clock=perf_counter) -> float:
    """The kernel's time now: the fastest of REF_REPEATS runs."""
    best = float("inf")
    for _ in range(REF_REPEATS):
        start = clock()
        reference()
        best = min(best, clock() - start)
    return best


class Pacer:
    """Latency sink for one pass that scales each chunk by the kernel's speed.

    A workload appends one latency per op; every ``CHUNK_S`` of wall time
    the pacer times the kernel and scales the chunk's latencies and wall
    time by ``REF_S / kernel time``.  The kernel runs between ops, outside
    every op's timed region, and its own time is left out of the pass.
    """

    def __init__(self, clock=perf_counter, kernel_s=reference_s):
        self.clock = clock
        self.kernel_s = kernel_s
        self.latencies = array("d")
        self.wall_s = 0.0  # scaled wall time of the pass
        self.raw_wall_s = 0.0
        self.kernel_times: list[float] = []
        self._first = 0
        self._chunk_start = clock()

    def __len__(self) -> int:
        return len(self.latencies)

    def append(self, latency: float) -> None:
        self.latencies.append(latency)
        if self.clock() - self._chunk_start >= CHUNK_S:
            self._close_chunk()

    def finish(self) -> "Pacer":
        """Close the last chunk; call once when the pass has returned."""
        self._close_chunk()
        return self

    @property
    def scale(self) -> float:
        """Scaled over raw wall time of the pass."""
        return self.wall_s / self.raw_wall_s

    def _close_chunk(self) -> None:
        elapsed = self.clock() - self._chunk_start
        kernel = self.kernel_s(self.clock)
        factor = REF_S / kernel
        lat = self.latencies
        for i in range(self._first, len(lat)):
            lat[i] *= factor
        self.wall_s += elapsed * factor
        self.raw_wall_s += elapsed
        self.kernel_times.append(kernel)
        self._first = len(lat)
        self._chunk_start = self.clock()
