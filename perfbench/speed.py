"""Machine-speed reference for timing on a shared host.

On a small shared machine the same op can take 0.6 s in one minute and
1.0 s in the next, because neighbours change how fast this process runs.
A fixed reference kernel, timed right before and right after each measured
interval, tracks that speed. Each interval is reported in scaled seconds:
its wall time times REFERENCE_S over the mean of the two kernel times, i.e.
the seconds it would take on a host where the kernel takes REFERENCE_S.
The kernel is the benchmark's own code and mixes the three kinds of work
indexlab does: pure-Python float loops, small numpy calls and random
generator construction. No change to indexlab can change its cost.
"""
from __future__ import annotations

import math
import time

import numpy as np

REFERENCE_S = 0.030

_VALUES = [float(i % 97) for i in range(3_000)]
_VECTOR = np.arange(29.0)


def kernel() -> None:
    for _ in range(12):
        mean = math.fsum(_VALUES) / len(_VALUES)
        math.fsum((v - mean) ** 2 for v in _VALUES)
        sorted(_VALUES, key=lambda v: -v)
    for _ in range(1_500):
        diffs = np.diff(_VECTOR)
        float(diffs @ diffs) / float(_VECTOR @ _VECTOR)
    for i in range(600):
        np.random.default_rng(np.random.SeedSequence(entropy=7, spawn_key=(i,))).permutation(29)


def sample() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class SpeedScale:
    """Scales each measured interval by the kernel times on either side of it."""

    def __init__(self) -> None:
        self.samples = [sample()]

    def scale(self, seconds: float) -> float:
        """Call right after the interval ends."""
        self.samples.append(sample())
        return seconds * REFERENCE_S / ((self.samples[-2] + self.samples[-1]) / 2.0)
