"""Monte Carlo harness: sample worlds, run the exact policy, estimate success.

A world draw makes one ``random()`` call per edge, in edge order, and edge
``i`` is down when its number falls below ``float(p_fail)``.  The result is
an up-mask over the instance's edge numbering
(:class:`~sightpath.model.EdgeNumbering`); :func:`sample_world` turns it into
a :class:`World`.

:func:`run_trials` walks each trial on masks.  The walker's knowledge is a
pair of up/down masks: arriving at ``v`` over edge ``e`` adds ``e`` and every
edge ``v`` watches that is up to the up-mask, and the watched edges that are
down to the down-mask.  Moves come from a ``(vertex, up, down) -> move``
policy table private to one call.  On a miss the knowledge is built once,
the solver's ``next_move`` is asked, and the move goes through the check
:func:`simulate_policy` uses.  ``next_move`` answers each (vertex,
knowledge) once and caches it, so a table hit is the move the policy would
give and each trial ends exactly as ``simulate_policy`` on
``sample_world(instance, derive_seed(seed, i))`` would end it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from .exact import ExactSolver, Policy
from .model import Instance, Knowledge, World
from .oracle import _legal_move, simulate_policy
from .seeds import derive_seed

# simulate_policy is part of this module's interface: the trial walk of one
# world, whose outcomes run_trials reproduces.
__all__ = ["TrialBatch", "run_trials", "sample_world", "simulate_policy"]

_HALT = -1


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


def _draw(rng: random.Random, trial_seed: int, thresholds: list[float]) -> int:
    """The up-mask of one world: bit ``i`` is set when edge ``i`` is up.

    Reseeding ``rng`` gives the stream of ``random.Random(trial_seed)``.
    ``thresholds[i]`` is ``float(p_fail)`` of edge ``i``.  That is exact for 0
    and 1, so degenerate edges stay degenerate: random() lies in [0, 1), hence
    r < 0.0 never and r < 1.0 always holds.
    """
    rng.seed(trial_seed)
    draw = rng.random
    up = 0
    for i, threshold in enumerate(thresholds):
        if not draw() < threshold:
            up |= 1 << i
    return up


def sample_world(instance: Instance, trial_seed: int) -> World:
    """One world draw: each edge goes down independently with its p_fail.

    Deterministic in ``trial_seed``: one uniform draw per edge, in edge order.
    """
    edges = instance.numbering
    up = _draw(random.Random(), trial_seed, [float(p) for p in edges.p_fail])
    return World(edges.statuses(up, ~up & ((1 << len(edges.pairs)) - 1)))


def _checked_move(instance: Instance, policy: Policy, v: int, up: int, down: int) -> int:
    """The policy's edge index at ``v`` under the knowledge ``(up, down)``, or _HALT."""
    edges = instance.numbering
    knowledge = Knowledge(edges.statuses(up, down))
    move = policy(v, knowledge)
    if move is None:
        return _HALT
    return edges.index[_legal_move(instance, v, move, knowledge)]


def run_trials(
    instance: Instance,
    n: int,
    seed: int,
    solver: Optional[ExactSolver] = None,
) -> TrialBatch:
    """Run ``n`` independent trials of the exact policy.

    Trial ``i`` uses the derived seed ``derive_seed(seed, i)``, so the batch
    is identical for a fixed (instance, n, seed) no matter how the trials are
    ordered or distributed.  Raises ValueError for a negative ``n`` or a
    ``solver`` built for a different instance.
    """
    if n < 0:
        raise ValueError(f"the number of trials must not be negative, got {n}")
    solver = solver if solver is not None else ExactSolver(instance)
    if solver.instance != instance:
        raise ValueError("solver was built for a different instance")
    policy = solver.policy()
    edges = instance.numbering
    thresholds = [float(p) for p in edges.p_fail]
    sight, head = edges.sight, edges.head
    start, dest = instance.start, instance.dest
    rng = random.Random()
    moves: dict[tuple[int, int, int], int] = {}
    successes = failed_edge = halted = 0
    for i in range(n):
        world = _draw(rng, derive_seed(seed, i), thresholds)
        v = start
        up = sight[v] & world
        down = sight[v] & ~world
        while v != dest:
            key = (v, up, down)
            edge = moves.get(key)
            if edge is None:
                edge = moves[key] = _checked_move(instance, policy, v, up, down)
            if edge == _HALT:
                halted += 1
                break
            bit = 1 << edge
            if not world & bit:
                failed_edge += 1
                break
            v = head[edge]
            up |= bit | (sight[v] & world)
            down |= sight[v] & ~world
        else:
            successes += 1
    if n == 0:
        return TrialBatch(n=0, seed=seed, successes=0, rate=0.0, stderr=0.0, rate_defined=False)
    rate = successes / n
    stderr = math.sqrt(rate * (1 - rate) / n)
    return TrialBatch(
        n=n, seed=seed, successes=successes, rate=rate, stderr=stderr, rate_defined=True,
        failed_edge=failed_edge, halted=halted,
    )
