"""Host-speed calibration.

The hosts this benchmark runs on change speed by up to about 20% from one
second to the next, because they share cores and caches with other work.  A
calibration round is a fixed piece of work timed between slices of the
benchmark's ops; dividing a slice's times by how slow the rounds around it ran
scales them to a host of fixed speed and cancels most of that drift.

The work is the benchmark's own reference solver on instances built here from
a fixed seed, so no change to the program can move it.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from types import SimpleNamespace

import reference as ref

# Seconds one round takes on the reference host, a 2-vCPU Intel Xeon at
# 2.1 GHz running Python 3.11.7 at its usual speed.  Reported times are scaled
# to that host.
NOMINAL_S = 0.02

_ROUND = 16  # instances per round
_PALETTE = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def _instance(rng: random.Random, n: int) -> SimpleNamespace:
    """A random DAG on 1..n with a planted 1 -> n path and some sight lines."""
    pairs = {(i, j) for i in range(1, n) for j in range(i + 1, n + 1) if rng.random() < 0.5}
    pairs |= {(i, i + 1) for i in range(1, n)}
    edges = [SimpleNamespace(tail=t, head=h, p_fail=rng.choice(_PALETTE)) for t, h in sorted(pairs)]
    sights = [
        SimpleNamespace(observer=observer, edge=(t, h))
        for t, h in sorted(pairs)
        for observer in range(1, t + 1)
        if rng.random() < 0.02
    ]
    return SimpleNamespace(
        vertex_count=n, edges=edges, sights=sights, task=SimpleNamespace(start=1, dest=n)
    )


class Calibration:
    def __init__(self):
        rng = random.Random(20151201)
        self.graphs = [ref.Graph(_instance(rng, 12)) for _ in range(_ROUND)]
        self.round()  # warm-up

    def round(self) -> float:
        """Seconds one calibration round takes now."""
        start = time.perf_counter()
        for graph in self.graphs:
            ref.solve_answers(graph)
        return time.perf_counter() - start

    def slowness(self, before: float, after: float) -> float:
        """How much slower than the reference host the time between two rounds ran."""
        return (before + after) / (2 * NOMINAL_S)
