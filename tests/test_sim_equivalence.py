"""Pinned Monte Carlo outputs on a seeded generator stream.

The literals below were recorded from the World-based trial loop that the
mask walk replaced (``run_trials`` composing ``sample_world`` and
``simulate_policy`` per trial); they are not regenerated by the code under
test.  Instance ``k`` of ``STREAM`` runs 500 trials with batch seed
``derive_seed(3, k)``.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sightpath import (
    ApproxConfig,
    ApproxSolver,
    ExactSolver,
    GeneratorConfig,
    Instance,
    Outcome,
    PolicyChoseKnownDown,
    derive_seed,
    generate_instance,
    run_trials,
    sample_world,
    simulate_policy,
)

STREAM = GeneratorConfig(n_min=10, n_max=10, edge_density=0.5, sight_density=0.15, seed=9)
TRIALS = 500

# (index, exact successes, successes with ApproxSolver(inst, ApproxConfig(1, 64)),
#  exact outcomes (reached, failed edge, halted),
#  up-mask of sample_world(inst, derive_seed(3, index)) over the sorted edges)
EXPECTED = [
    (0, 500, 500, (500, 0, 0), 0xbcda),
    (1, 500, 500, (500, 0, 0), 0x19e7a52),
    (2, 500, 500, (500, 0, 0), 0x95b12),
    (3, 500, 500, (500, 0, 0), 0x220e21e),
    (4, 500, 500, (500, 0, 0), 0xff702),
    (5, 271, 271, (271, 229, 0), 0x1),
    (6, 191, 191, (191, 309, 0), 0x9),
    (7, 500, 500, (500, 0, 0), 0xc2f7d),
    (8, 277, 277, (277, 223, 0), 0xe5),
    (9, 391, 391, (391, 109, 0), 0x63),
    (10, 231, 231, (231, 269, 0), 0x75),
    (11, 376, 376, (376, 124, 0), 0x8b7),
    (12, 380, 352, (380, 120, 0), 0x380698),
    (13, 297, 221, (297, 162, 41), 0x74448),
    (14, 500, 500, (500, 0, 0), 0x6fb),
    (15, 270, 270, (270, 230, 0), 0x50b),
    (16, 227, 134, (227, 273, 0), 0xaac4),
    (17, 477, 477, (477, 23, 0), 0xb3a),
    (18, 500, 500, (500, 0, 0), 0x7),
    (19, 127, 127, (127, 373, 0), 0x450),
    (20, 500, 463, (500, 0, 0), 0x7f6dc),
    (21, 117, 39, (117, 383, 0), 0x731),
    (22, 388, 388, (388, 112, 0), 0xcf),
    (23, 384, 384, (384, 0, 116), 0x3),
    (24, 286, 286, (286, 214, 0), 0xe5b),
    (25, 372, 372, (372, 128, 0), 0xb637),
    (26, 500, 500, (500, 0, 0), 0x178),
    (27, 264, 264, (264, 236, 0), 0x2711),
    (28, 147, 132, (147, 277, 76), 0xed2e4),
    (29, 221, 233, (221, 279, 0), 0x70),
]


def _outcomes(instance, n, seed):
    policy = ExactSolver(instance).policy()
    return Counter(
        simulate_policy(instance, sample_world(instance, derive_seed(seed, i)), policy).outcome
        for i in range(n)
    )


@pytest.mark.parametrize("row", EXPECTED, ids=[f"stream-{row[0]}" for row in EXPECTED])
def test_batches_match_the_recorded_literals(row):
    index, exact, approx, outcomes, up = row
    instance = generate_instance(STREAM, index)
    seed = derive_seed(3, index)
    batch = run_trials(instance, TRIALS, seed)
    assert (batch.n, batch.seed) == (TRIALS, seed)
    assert (batch.successes, batch.failed_edge, batch.halted) == outcomes
    assert batch.successes == exact
    with_approx = run_trials(instance, TRIALS, seed, ApproxSolver(instance, ApproxConfig(1, 64)))
    assert (with_approx.successes, with_approx.n) == (approx, TRIALS)
    world = sample_world(instance, seed)
    assert sum(1 << i for i, pair in enumerate(sorted(instance.pairs)) if world.up(pair)) == up


def test_the_stream_is_fully_covered_and_exercises_every_outcome():
    assert [row[0] for row in EXPECTED] == list(range(30))
    assert all(sum(row[3]) == TRIALS for row in EXPECTED)
    assert any(row[3][1] and row[3][2] for row in EXPECTED)


@pytest.mark.parametrize("index", [13, 28])
def test_outcome_counts_equal_the_manual_composition(index):
    # sighted instances on which the policy both halts and fails
    instance = generate_instance(STREAM, index)
    assert instance.sights
    seed = derive_seed(3, index)
    counts = _outcomes(instance, TRIALS, seed)
    assert counts[Outcome.HALTED] and counts[Outcome.FAILED_EDGE]
    batch = run_trials(instance, TRIALS, seed)
    assert (batch.successes, batch.failed_edge, batch.halted) == (
        counts[Outcome.REACHED],
        counts[Outcome.FAILED_EDGE],
        counts[Outcome.HALTED],
    )


@settings(max_examples=40, deadline=None)
@given(
    config_seed=st.integers(0, 10_000),
    index=st.integers(0, 50),
    batch_seed=st.integers(0, 2**64 - 1),
)
def test_run_trials_equals_the_manual_composition(config_seed, index, batch_seed):
    config = GeneratorConfig(n_min=3, n_max=9, sight_density=0.3, seed=config_seed)
    instance = generate_instance(config, index)
    counts = _outcomes(instance, 60, batch_seed)
    batch = run_trials(instance, 60, batch_seed)
    assert batch.successes == counts[Outcome.REACHED]
    assert batch.failed_edge == counts[Outcome.FAILED_EDGE]
    assert batch.halted == counts[Outcome.HALTED]


# vertex 1 sees that 1-2 is down before it moves
DOOMED_FORK = Instance.build(
    3, [(1, 2, "1"), (1, 3, "0"), (2, 3, "0")], [(1, 1, 2)], task=(1, 3)
)


class _KnownDownSolver(ExactSolver):
    def next_move(self, v, knowledge):
        return (1, 2)


class _ElsewhereSolver(ExactSolver):
    def next_move(self, v, knowledge):
        return (2, 3)


def test_a_known_down_move_raises_through_run_trials():
    with pytest.raises(PolicyChoseKnownDown):
        run_trials(DOOMED_FORK, 10, 0, _KnownDownSolver(DOOMED_FORK))


def test_a_move_not_leaving_the_vertex_raises_through_run_trials():
    with pytest.raises(ValueError, match="does not leave vertex 1"):
        run_trials(DOOMED_FORK, 10, 0, _ElsewhereSolver(DOOMED_FORK))


def test_the_sound_policy_crosses_the_doomed_fork():
    assert run_trials(DOOMED_FORK, 10, 0).successes == 10
