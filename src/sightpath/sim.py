"""Monte Carlo harness: sample worlds, run the exact policy, estimate success.

A world draw makes one ``random()`` call per edge, in edge order, and edge
``i`` is down when its number falls below ``float(p_fail)``.  The result is
an up-mask over the instance's edge numbering
(:class:`~sightpath.model.EdgeNumbering`), read from a ``(bit, threshold)``
table built once per batch; :func:`sample_world` turns it into a
:class:`World`.  :func:`run_trials` walks each drawn up-mask with the
oracle's mask walk, so trial ``i`` ends exactly as :func:`simulate_policy` on
``sample_world(instance, derive_seed(seed, i))`` would end it.  The walk asks
the policy as :func:`~sightpath.oracle.policy_value` does: a solver's stock
policy decides on the knowledge masks, with the solver's move cache as the
move table, and any other policy goes through the checked ``Knowledge`` path.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from typing import Optional

from .exact import ExactSolver
from .model import Instance, World
from .oracle import _FAILED_EDGE, _REACHED, _asker, _walk, _world, simulate_policy
from .seeds import derive_seed

# simulate_policy is part of this module's interface: the trial walk of one
# world, whose outcomes run_trials reproduces.
__all__ = ["TrialBatch", "run_trials", "sample_world", "simulate_policy"]


@dataclass(frozen=True)
class TrialBatch:
    """Outcome counts of ``n`` trials; ``successes + failed_edge + halted == n``."""

    n: int
    seed: int
    successes: int
    rate: float
    stderr: float
    rate_defined: bool
    failed_edge: int = 0
    halted: int = 0


def _draw_table(thresholds: tuple[float, ...]) -> tuple[tuple[int, float], ...]:
    """``(1 << i, thresholds[i])`` per edge ``i``: what :func:`_draw` reads."""
    return tuple((1 << i, threshold) for i, threshold in enumerate(thresholds))


def _draw(rng: random.Random, trial_seed: int, table: tuple[tuple[int, float], ...]) -> int:
    """The up-mask of one world: bit ``i`` is set when edge ``i`` is up.

    Reseeding ``rng`` gives the stream of ``random.Random(trial_seed)``: for
    an int seed, ``Random.seed`` only wraps the C seed called here (it also
    clears the ``gauss`` state, which ``random()`` never reads).  A str or
    bytes seed would be hashed instead, so callers pass ints.  ``rng``'s own
    seed is irrelevant; ``random.Random(0)`` is built without reading
    ``os.urandom``.
    ``table`` is :func:`_draw_table` of the edges' ``float(p_fail)``
    (:attr:`~sightpath.model.EdgeNumbering.p_fail_float`).  That is exact for
    0 and 1, so degenerate edges stay degenerate: random() lies in [0, 1),
    hence r >= 0.0 always and r >= 1.0 never holds.  No threshold is NaN, so
    ``r >= threshold`` is ``not r < threshold``.
    """
    super(random.Random, rng).seed(trial_seed)
    draw = rng.random
    up = 0
    for bit, threshold in table:
        if draw() >= threshold:
            up |= bit
    return up


def sample_world(instance: Instance, trial_seed: int) -> World:
    """One world draw: each edge goes down independently with its p_fail.

    Deterministic in ``trial_seed``: one uniform draw per edge, in edge order.
    Raises TypeError when ``trial_seed`` is not an integer.
    """
    edges = instance.numbering
    table = _draw_table(edges.p_fail_float)
    return _world(edges, _draw(random.Random(0), operator.index(trial_seed), table))


def run_trials(
    instance: Instance,
    n: int,
    seed: int,
    solver: Optional[ExactSolver] = None,
) -> TrialBatch:
    """Run ``n`` independent trials of the exact policy.

    Trial ``i`` uses the derived seed ``derive_seed(seed, i)``, so the batch
    is identical for a fixed (instance, n, seed) no matter how the trials are
    ordered or distributed.  ``n`` and ``seed`` are read with
    ``operator.index`` and the batch holds them as ints.  Raises TypeError when
    either is not an integer, ValueError for a negative ``n`` or a ``solver``
    built for a different instance, and
    :class:`~sightpath.model.UnknownVertex` for a start outside 1..n.
    """
    n, seed = operator.index(n), operator.index(seed)
    if n < 0:
        raise ValueError(f"the number of trials must not be negative, got {n}")
    solver = solver if solver is not None else ExactSolver(instance)
    if solver.instance != instance:
        raise ValueError("solver was built for a different instance")
    instance._check_vertex(instance.start)
    ask, moves = _asker(instance, solver.policy())
    table = _draw_table(instance.numbering.p_fail_float)
    rng = random.Random(0)
    successes = failed_edge = 0
    for i in range(n):
        outcome = _walk(instance, ask, moves, _draw(rng, derive_seed(seed, i), table))
        successes += outcome is _REACHED
        failed_edge += outcome is _FAILED_EDGE
    rate = successes / n if n else 0.0
    stderr = math.sqrt(rate * (1 - rate) / n) if n else 0.0
    return TrialBatch(
        n=n, seed=seed, successes=successes, rate=rate, stderr=stderr, rate_defined=n > 0,
        failed_edge=failed_edge, halted=n - successes - failed_edge,
    )

