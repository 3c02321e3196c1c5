"""Monte Carlo harness: sampling, determinism, consistency with exact values."""

from __future__ import annotations

import random

import pytest

from sightpath import (
    ExactSolver,
    Instance,
    Status,
    derive_seed,
    policy_value,
    run_trials,
    sample_world,
    simulate_policy,
)
from sightpath.sim import _draw, _draw_table


class TestSampleWorld:
    def test_zero_failure_means_all_up(self):
        inst = Instance.build(3, [(1, 2, "0"), (2, 3, "0")], [], (1, 3))
        world = sample_world(inst, 123)
        assert all(world.status(p) is Status.UP for p in inst.pairs)

    def test_certain_failure_means_all_down(self):
        inst = Instance.build(3, [(1, 2, "1"), (2, 3, "1")], [], (1, 3))
        world = sample_world(inst, 123)
        assert all(world.status(p) is Status.DOWN for p in inst.pairs)

    def test_fixed_seed_is_reproducible(self, lookout_triangle):
        assert sample_world(lookout_triangle, 99) == sample_world(lookout_triangle, 99)

    def test_different_seeds_differ_somewhere(self, lookout_triangle):
        worlds = {sample_world(lookout_triangle, s) for s in range(64)}
        assert len(worlds) > 1

    @pytest.mark.parametrize("seed", ["99", 99.0, b"99"])
    def test_a_seed_that_is_not_an_integer_is_refused(self, lookout_triangle, seed):
        # the C seed would hash it, and str hashes change from run to run
        with pytest.raises(TypeError):
            sample_world(lookout_triangle, seed)


class TestDraw:
    SEEDS = [derive_seed(11, i) for i in range(3000)] + [0, 2**32 - 1, 2**32, 2**64 - 1]
    THRESHOLDS = tuple(i / 24 for i in range(1, 24))

    def test_reseeding_gives_the_stream_of_a_fresh_random(self):
        rng = random.Random(0)
        for seed in self.SEEDS:
            up = _draw(rng, seed, _draw_table(self.THRESHOLDS))
            fresh = random.Random(seed)
            want = sum(1 << i for i, t in enumerate(self.THRESHOLDS) if not fresh.random() < t)
            assert up == want
            assert rng.getstate() == fresh.getstate()


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 7) == derive_seed(42, 7)

    def test_spreads_nearby_inputs(self):
        outs = {derive_seed(s, i) for s in range(8) for i in range(64)}
        assert len(outs) == 8 * 64


class TestRunTrials:
    def test_batch_is_deterministic(self, lookout_triangle):
        a = run_trials(lookout_triangle, 2_000, 42)
        b = run_trials(lookout_triangle, 2_000, 42)
        assert a == b

    def test_matches_manual_composition(self, lookout_triangle):
        solver = ExactSolver(lookout_triangle)
        policy = solver.policy()
        manual = sum(
            simulate_policy(
                lookout_triangle, sample_world(lookout_triangle, derive_seed(5, i)), policy
            ).reached
            for i in range(1_000)
        )
        assert run_trials(lookout_triangle, 1_000, 5).successes == manual

    def test_empty_batch_is_flagged(self, lookout_triangle):
        batch = run_trials(lookout_triangle, 0, 1)
        assert batch.successes == 0
        assert batch.rate == 0.0
        assert not batch.rate_defined

    def test_lookout_triangle_rate_is_consistent(self, lookout_triangle):
        target = float(policy_value(lookout_triangle, ExactSolver(lookout_triangle).policy()))
        assert target == 0.85
        passes = 0
        for seed in range(20):
            batch = run_trials(lookout_triangle, 10_000, seed)
            if abs(batch.rate - target) <= 3 * batch.stderr:
                passes += 1
        assert passes >= 19

    def test_plain_triangle_rate_is_consistent(self, triangle_plain):
        batch = run_trials(triangle_plain, 20_000, 42)
        assert abs(batch.rate - 0.7) <= 3 * batch.stderr


class TestTrialCounts:
    def test_negative_trial_count_is_refused(self, lookout_triangle):
        with pytest.raises(ValueError, match="must not be negative"):
            run_trials(lookout_triangle, -5, 1)

    def test_outcomes_add_up_to_the_batch(self, lookout_triangle):
        batch = run_trials(lookout_triangle, 2_000, 7)
        assert batch.halted == 0
        assert batch.successes + batch.failed_edge + batch.halted == batch.n

    def test_the_count_and_seed_are_read_as_integers(self, lookout_triangle):
        batch = run_trials(lookout_triangle, True, False)
        assert (type(batch.n), type(batch.seed)) == (int, int)
        assert batch == run_trials(lookout_triangle, 1, 0)
        for n, seed in [(10, 1.5), (10, "7"), (2.0, 3)]:
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                run_trials(lookout_triangle, n, seed)

    def test_a_dead_end_halts_every_trial(self):
        inst = Instance.build(3, [(1, 2, "0"), (2, 3, "1")], [(1, 2, 3)], (1, 3))
        batch = run_trials(inst, 50, 3)
        assert (batch.successes, batch.failed_edge, batch.halted) == (0, 0, 50)


def test_a_solver_for_another_instance_is_refused(lookout_triangle, triangle_plain):
    with pytest.raises(ValueError, match="solver was built for a different instance"):
        run_trials(lookout_triangle, 1_000, 0, ExactSolver(triangle_plain))
    assert run_trials(lookout_triangle, 1_000, 0, ExactSolver(lookout_triangle)).successes == 855
