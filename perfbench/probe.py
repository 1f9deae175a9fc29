"""Fixed reference work whose timing tracks the host's momentary speed.

The benchmark scales its timings by this probe (see run.py), so the probe
must never change: its time on a quiet host defines the scale.
"""

import math
from time import perf_counter

import numpy as np


def _work() -> float:
    # interpreter-bound float math, containers and small NumPy calls,
    # the same mix of work the program does
    acc = 0.0
    table = {}
    for i in range(800):
        x = math.sqrt(i + 0.5) * math.log(i + 2.0)
        table[i & 31] = x
        acc += x
    for i in range(30):
        draws = np.random.default_rng(i).exponential(size=4)
        acc += sum(float(v) for v in np.cumsum(draws))
    return acc + len(sorted(table.values()))


def probe() -> float:
    """Best of two timings of the reference work, in seconds."""
    best = math.inf
    for _ in range(2):
        t0 = perf_counter()
        _work()
        best = min(best, perf_counter() - t0)
    return best
