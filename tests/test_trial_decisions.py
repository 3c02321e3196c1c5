"""The trial walk's decisions on masks against the public ``Knowledge`` path.

``run_trials`` asks a solver's stock policy through ``_SolverCore._move`` on
``(vertex, up, down)`` masks, and any other policy through the checked
``Knowledge`` path.  These tests hold the two ways of asking to the same moves,
outcomes and cache counters.
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
    Knowledge,
    Outcome,
    PolicyChoseKnownDown,
    SearchTooDeep,
    Status,
    derive_seed,
    generate_instance,
    initial_scenarios,
    run_trials,
    sample_world,
    simulate_policy,
    tiebreak,
)
from sightpath.exact import _HALT, FLOAT_TIE, _SolverCore
from sightpath.oracle import _uncertain, _walk

# 1-3 is worse than 1-2 by 1e-12, well inside the float tie guard, and has
# the higher head: float mode takes it, rational mode does not
NEAR_TIE = Instance.build(
    4,
    [(1, 2, "1/10"), (1, 3, "0.100000000001"), (2, 4, "0"), (3, 4, "0")],
    [],
    task=(1, 4),
)

# vertex 1 sees that 1-2 is down before it moves
DOOMED_FORK = Instance.build(
    3, [(1, 2, "1"), (1, 3, "0"), (2, 3, "0")], [(1, 1, 2)], task=(1, 3)
)

PALETTES = [("0", "1/4", "1/2", "3/4", "1"), ("0", "1/3", "0.1", "1/2")]


def _knowledge(instance: Instance, up: int, down: int) -> Knowledge:
    return Knowledge(instance.numbering.statuses(up, down))


def _index(instance: Instance, move) -> int:
    return _HALT if move is None else instance.numbering.index[move]


def _walked(instance: Instance, solver) -> list[tuple[tuple[int, int, int], int]]:
    """Each state the walk asks ``solver._move`` about over the worlds of
    positive weight, in order, with its answer."""
    edges = instance.numbering
    always_up = sum(1 << i for i, p in enumerate(edges.p_fail) if p == 0)
    asked = []

    def ask(v, up, down):
        edge = solver._move(v, up, down)
        asked.append(((v, up, down), edge))
        return edge

    moves: dict = {}
    for world, _ in edges.scenarios(_uncertain(edges))[1]:
        _walk(instance, ask, moves, world | always_up)
    return asked


def _restated_move(solver, v: int, knowledge: Knowledge) -> int:
    """The decision rule written out over public values: the best positive
    candidate, ties within the mode's tie guard, the highest head among them."""
    scored = solver.candidate_successes(v, knowledge)
    best = max((value for _, value in scored), default=0)
    if best <= 0:
        return _HALT
    if solver.mode == "rational":
        ties = [pair for pair, value in scored if value == best]
    else:
        ties = [pair for pair, value in scored if best - value <= FLOAT_TIE]
    return _index(solver.instance, max(ties, key=lambda pair: pair[1]))


def _solver(instance: Instance, kind: str, mode: str, cache_size: int = 64):
    if kind == "exact":
        return ExactSolver(instance, mode=mode)
    return ApproxSolver(instance, ApproxConfig(1, cache_size), mode=mode)


def _check_every_walked_state(instance: Instance, kind: str, mode: str) -> int:
    """``_move`` at every walked state equals ``next_move`` asked of a twin in
    the same order; for the exact solver, also the restated rule."""
    asked = _walked(instance, masks := _solver(instance, kind, mode))
    twin = _solver(instance, kind, mode)
    for (v, up, down), edge in asked:
        knowledge = _knowledge(instance, up, down)
        assert edge == _index(instance, twin.next_move(v, knowledge))
        if kind == "exact":
            assert edge == _restated_move(ExactSolver(instance, mode=mode), v, knowledge)
    if kind == "approx":
        assert masks.report == twin.report
    return len(asked)


class TestMoveOnMasks:
    @settings(max_examples=40, deadline=None)
    @given(
        config_seed=st.integers(0, 10_000),
        index=st.integers(0, 30),
        palette=st.sampled_from(PALETTES),
        kind=st.sampled_from(["exact", "approx"]),
        mode=st.sampled_from(["rational", "float"]),
    )
    def test_every_walked_state_matches_next_move(self, config_seed, index, palette, kind, mode):
        config = GeneratorConfig(
            n_min=5, n_max=8, edge_density=0.7, sight_density=0.6, p_palette=palette,
            max_edges=14, seed=config_seed,
        )
        instance = generate_instance(config, index)
        assert _check_every_walked_state(instance, kind, mode) >= 1

    @pytest.mark.parametrize("kind", ["exact", "approx"])
    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_a_tie_within_the_float_tolerance(self, kind, mode):
        exact = ExactSolver(NEAR_TIE, mode="float")
        (_, via_2), (_, via_3) = exact.candidate_successes(1)
        assert 0 < via_2 - via_3 <= FLOAT_TIE
        # the start, then the head of the chosen edge
        assert _check_every_walked_state(NEAR_TIE, kind, mode) == 2
        want = (1, 3) if mode == "float" else (1, 2)
        assert _solver(NEAR_TIE, kind, mode)._move(1, 0, 0) == NEAR_TIE.numbering.index[want]

    @settings(max_examples=40, deadline=None)
    @given(
        config_seed=st.integers(0, 10_000),
        index=st.integers(0, 30),
        kind=st.sampled_from(["exact", "approx"]),
        mode=st.sampled_from(["rational", "float"]),
    )
    def test_the_move_is_tiebreak_of_the_optimal_set(self, config_seed, index, kind, mode):
        """At every vertex, under each start scenario: the oracle checks only
        rational moves at the start, and a tie-heavy palette makes ties common."""
        config = GeneratorConfig(
            n_min=5, n_max=8, edge_density=0.7, sight_density=0.3,
            p_palette=("0", "1/3", "1/2", "2/3", "1"), max_edges=14, max_sights=6,
            seed=config_seed,
        )
        instance = generate_instance(config, index)
        # twins asked in the same order keep the same approximate cache
        sets, moves = (_solver(instance, kind, mode, cache_size=8) for _ in range(2))
        for knowledge, _ in initial_scenarios(instance):
            for v in instance.vertices:
                if v != instance.dest:
                    optimal = sets.optimal_set(v, knowledge)
                    want = tiebreak(optimal) if optimal else None
                    assert moves.next_move(v, knowledge) == want

    def test_a_halt_is_the_halt_value(self):
        solver = ExactSolver(DOOMED_FORK)
        index = DOOMED_FORK.numbering.index
        assert solver._move(1, 0, 1 << index[(1, 2)] | 1 << index[(1, 3)]) == _HALT
        assert solver._move(1, 0, 1 << index[(1, 2)]) == index[(1, 3)]


class _LowestHead(ExactSolver):
    """A legal policy other than the solver's own: the lowest head not known down."""

    def next_move(self, v, knowledge):
        pairs = self.instance.out_edges(v)
        open_edges = [pair for pair in pairs if knowledge.status(pair) is not Status.DOWN]
        return min(open_edges, key=lambda pair: pair[1], default=None)


class _AskedApprox(ApproxSolver):
    """The stock approximate policy, asked through the checked ``Knowledge`` path."""

    def next_move(self, v, knowledge):
        return super().next_move(v, knowledge)


STREAM = GeneratorConfig(n_min=8, n_max=10, sight_density=0.2, seed=12)


def _composed(instance: Instance, n: int, seed: int, policy) -> tuple[int, int, int]:
    counts = Counter(
        simulate_policy(instance, sample_world(instance, derive_seed(seed, i)), policy).outcome
        for i in range(n)
    )
    return counts[Outcome.REACHED], counts[Outcome.FAILED_EDGE], counts[Outcome.HALTED]


def _outcomes(batch) -> tuple[int, int, int]:
    return batch.successes, batch.failed_edge, batch.halted


class TestDispatch:
    def test_an_overriding_policy_is_asked_and_matches_the_composition(self):
        differs = 0
        for index in range(12):
            instance = generate_instance(STREAM, index)
            seed = derive_seed(5, index)
            batch = run_trials(instance, 200, seed, _LowestHead(instance))
            policy = _LowestHead(instance).policy()
            assert _outcomes(batch) == _composed(instance, 200, seed, policy)
            differs += _outcomes(batch) != _outcomes(run_trials(instance, 200, seed))
        assert differs

    def test_an_approx_solver_ends_with_the_report_of_its_asked_twin(self):
        similar = 0
        for index in range(12):
            instance = generate_instance(STREAM, index)
            seed = derive_seed(6, index)
            on_masks = ApproxSolver(instance, ApproxConfig(1, 64))
            asked = _AskedApprox(instance, ApproxConfig(1, 64))
            batch = run_trials(instance, 200, seed, on_masks)
            assert batch == run_trials(instance, 200, seed, asked)
            assert on_masks.report == asked.report
            similar += on_masks.report.similar_hits
        assert similar

    def test_a_second_batch_on_one_solver_asks_nothing_again(self):
        instance = generate_instance(STREAM, 3)
        solver = ExactSolver(instance)
        first = run_trials(instance, 200, 1, solver)
        stats = solver.memo_stats()
        assert run_trials(instance, 200, 1, solver) == first
        assert solver.memo_stats() == stats

    def test_the_stock_policy_is_looked_up_at_call_time(self, monkeypatch):
        # a wrapper patched onto _SolverCore.next_move is still the stock
        # policy, so the walk stays on masks and never calls it
        calls = []
        stock = _SolverCore.next_move

        def wrapped(self, v, knowledge):
            calls.append(v)
            return stock(self, v, knowledge)

        monkeypatch.setattr(_SolverCore, "next_move", wrapped)
        assert run_trials(DOOMED_FORK, 10, 0).successes == 10
        assert not calls

    def test_a_policy_set_on_the_class_is_checked(self, monkeypatch):
        monkeypatch.setattr(ExactSolver, "next_move", lambda self, v, knowledge: (1, 2))
        with pytest.raises(PolicyChoseKnownDown):
            run_trials(DOOMED_FORK, 10, 0)

    def test_a_policy_set_on_the_solver_is_checked(self):
        solver = ExactSolver(DOOMED_FORK)
        solver.next_move = lambda v, knowledge: (1, 2)
        with pytest.raises(PolicyChoseKnownDown):
            run_trials(DOOMED_FORK, 10, 0, solver)


def test_a_chain_too_deep_for_the_recursion_raises_a_typed_error():
    chain = Instance.build(1000, [(i, i + 1, "1/2") for i in range(1, 1000)], [], task=(1, 1000))
    with pytest.raises(SearchTooDeep):
        run_trials(chain, 5, 0)
