"""Brute-force oracle: world enumeration, conditioning, simulation, baselines."""

from __future__ import annotations

import dataclasses
import gc
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sightpath import (
    EMPTY_KNOWLEDGE,
    ApproxConfig,
    ApproxSolver,
    ExactSolver,
    Knowledge,
    GeneratorConfig,
    Instance,
    Outcome,
    PolicyChoseKnownDown,
    SearchTooDeep,
    TooManyEdges,
    UnknownEdge,
    UnknownVertex,
    World,
    agreement_report,
    blind_value,
    candidate_values,
    enumerate_worlds,
    find_greedy_gap,
    first_move,
    generate_instance,
    generate_suite,
    initial_scenarios,
    is_gap_instance,
    max_product_values,
    observe,
    oracle_check,
    policy_value,
    run_trials,
    sample_world,
    sight_blind_policy,
    simulate_policy,
    value,
)
from sightpath import oracle
from sightpath.exact import _SolverCore
from sightpath.generate import _draw
from sightpath.model import EdgeNumbering
from sightpath.oracle import _uncertain

from conftest import DOWN, SOLVE_STREAM, UP, know
from test_acceptance import SUITE_CONFIG, SUITE_SIZE


instances = st.builds(
    generate_instance,
    st.builds(GeneratorConfig, seed=st.integers(0, 2**32)),
    index=st.integers(0, 7),
)


class TestEnumerateWorlds:
    def test_eight_worlds_summing_to_one(self, lookout_triangle):
        worlds = enumerate_worlds(lookout_triangle)
        assert len(worlds) == 8
        assert sum(w.weight for w in worlds) == 1
        assert len({w.world for w in worlds}) == 8

    def test_single_edge_bernoulli(self):
        inst = Instance.build(2, [(1, 2, "0.3")], [], task=(1, 2))
        worlds = {w.world.status((1, 2)): w.weight for w in enumerate_worlds(inst)}
        assert worlds == {UP: Fraction(7, 10), DOWN: Fraction(3, 10)}

    def test_zero_edges_is_the_empty_product(self):
        inst = Instance.build(2, [], [], task=(1, 2))
        worlds = enumerate_worlds(inst)
        assert len(worlds) == 1
        assert worlds[0].weight == 1

    def test_cap_is_enforced(self, lookout_triangle):
        with pytest.raises(TooManyEdges):
            enumerate_worlds(lookout_triangle, cap=2)

    @settings(max_examples=40, deadline=None)
    @given(instances)
    def test_weights_always_sum_to_one(self, inst):
        assert sum(w.weight for w in enumerate_worlds(inst)) == 1


class TestValue:
    def test_lookout_up(self, lookout_triangle):
        assert value(lookout_triangle, 1, know(e_2_3=UP)) == Fraction(9, 10)

    def test_plain_triangle(self, triangle_plain):
        assert value(triangle_plain, 1) == Fraction(7, 10)

    def test_scouted_fork(self, scouted_fork):
        assert value(scouted_fork, 1) == Fraction(27, 40)

    def test_value_at_destination(self, triangle_plain):
        assert value(triangle_plain, 3) == 1

    def test_value_at_the_destination_checks_its_inputs(self, triangle_plain):
        # as first_move and the solver do: knowledge of probability zero, a
        # missing edge and an edge set past the cap are refused
        never_fails = Instance.build(2, [(1, 2, "0")], [], task=(1, 2))
        for query in (value, first_move):
            with pytest.raises(ValueError, match="probability zero"):
                query(never_fails, 2, know(e_1_2=DOWN))
        with pytest.raises(UnknownEdge, match="missing edge 3-4"):
            ExactSolver(triangle_plain).root_value(know(e_3_4=UP))
        with pytest.raises(UnknownEdge, match="missing edge 3-4"):
            value(triangle_plain, 3, know(e_3_4=UP))
        chain = Instance.build(25, [(i, i + 1, "1/2") for i in range(1, 25)], task=(1, 25))
        with pytest.raises(TooManyEdges, match="^24 edges exceed the enumeration cap of 3$"):
            value(chain, 25, cap=3)
        assert value(chain, 25, know(e_24_25=UP), cap=24) == 1

    def test_known_down_candidates_are_not_considered(self, lookout_triangle):
        scored = dict(candidate_values(lookout_triangle, 1, know(e_1_2=DOWN, e_2_3=UP)))
        assert (1, 2) not in scored
        assert scored[(1, 3)] == Fraction(4, 5)

    def test_impossible_knowledge_is_rejected(self):
        inst = Instance.build(2, [(1, 2, "0")], [], task=(1, 2))
        with pytest.raises(ValueError):
            value(inst, 1, know(e_1_2=DOWN))

    def test_cap_propagates(self, lookout_triangle):
        with pytest.raises(TooManyEdges):
            value(lookout_triangle, 1, cap=1)

    def test_a_path_too_long_for_the_recursion_raises_a_typed_error(self):
        n = 1200
        chain = [(i, i + 1, "0") for i in range(1, n)]
        inst = Instance.build(n, chain + [(1, n, "1/2")], task=(1, n))
        with pytest.raises(SearchTooDeep, match="recursion limit"):
            value(inst, 1, cap=2000)

    def test_first_move_matches_values(self, lookout_triangle):
        assert first_move(lookout_triangle, 1, know(e_2_3=UP)) == (1, 2)
        assert first_move(lookout_triangle, 1, know(e_2_3=DOWN)) == (1, 3)
        assert first_move(lookout_triangle, 2, know(e_2_3=DOWN)) is None

    @settings(max_examples=40, deadline=None)
    @given(instances, st.data())
    def test_matches_solver_on_every_first_step_scenario(self, inst, data):
        solver = ExactSolver(inst)
        for knowledge, weight in initial_scenarios(inst):
            if weight == 0:
                continue
            assert solver.root_value(knowledge) == value(inst, inst.start, knowledge)

    @settings(max_examples=40, deadline=None)
    @given(instances, st.data())
    def test_matches_solver_at_arbitrary_mid_walk_states(self, inst, data):
        pairs = sorted(inst.pairs)
        picks = data.draw(
            st.lists(
                st.sampled_from([UP, DOWN, None]), min_size=len(pairs), max_size=len(pairs)
            )
        )
        statuses = {p: s for p, s in zip(pairs, picks) if s is not None}
        possible = all(
            (inst.p_fail(p) < 1 if s is UP else inst.p_fail(p) > 0)
            for p, s in statuses.items()
        )
        assume(possible)
        knowledge = Knowledge(statuses)
        v = data.draw(st.sampled_from(sorted(set(p[0] for p in pairs)) or [inst.start]))
        solver = ExactSolver(inst)
        best = Fraction(0)
        for e in inst.out_edges(v):
            if knowledge.status(e) is DOWN:
                continue
            candidate = solver.success(e, knowledge)
            if candidate > best:
                best = candidate
        assert best == value(inst, v, knowledge)


class TestSimulatePolicy:
    def test_reaches_through_detour(self, lookout_triangle):
        world = World({(1, 2): UP, (2, 3): UP, (1, 3): UP})
        trace = simulate_policy(lookout_triangle, world, ExactSolver(lookout_triangle).policy())
        assert trace.outcome is Outcome.REACHED
        assert trace.visited == (1, 2, 3)
        assert trace.chosen == ((1, 2), (2, 3))

    def test_fails_on_unknown_direct_edge(self, lookout_triangle):
        world = World({(1, 2): UP, (2, 3): DOWN, (1, 3): DOWN})
        trace = simulate_policy(lookout_triangle, world, ExactSolver(lookout_triangle).policy())
        assert trace.outcome is Outcome.FAILED_EDGE
        assert trace.failed_edge == (1, 3)

    def test_fails_even_when_everything_is_down(self, lookout_triangle):
        world = World({(1, 2): DOWN, (2, 3): DOWN, (1, 3): DOWN})
        trace = simulate_policy(lookout_triangle, world, ExactSolver(lookout_triangle).policy())
        assert trace.outcome is Outcome.FAILED_EDGE
        assert trace.failed_edge == (1, 3)

    def test_halts_when_known_dead(self):
        inst = Instance.build(3, [(1, 2, "1/2"), (2, 3, "1/2")], [(1, 1, 2)], task=(1, 3))
        world = World({(1, 2): DOWN, (2, 3): UP})
        trace = simulate_policy(inst, world, ExactSolver(inst).policy())
        assert trace.outcome is Outcome.HALTED
        assert trace.visited == (1,)

    def test_policy_crossing_known_down_is_a_contract_violation(self, lookout_triangle):
        world = World({(1, 2): UP, (2, 3): DOWN, (1, 3): UP})
        inst = Instance.build(
            3, [(1, 2, "0.1"), (2, 3, "0.5"), (1, 3, "0.2")], [(1, 2, 3), (2, 2, 3)], (1, 3)
        )
        stubborn = lambda v, k: (1, 2) if v == 1 else (2, 3)
        with pytest.raises(PolicyChoseKnownDown):
            simulate_policy(inst, world, stubborn)

    def test_policy_must_choose_outgoing_edges(self, lookout_triangle):
        world = World({(1, 2): UP, (2, 3): UP, (1, 3): UP})
        with pytest.raises(ValueError):
            simulate_policy(lookout_triangle, world, lambda v, k: (2, 3))

    def test_world_must_be_total(self, lookout_triangle):
        with pytest.raises(ValueError):
            simulate_policy(
                lookout_triangle,
                World({(1, 2): UP}),
                ExactSolver(lookout_triangle).policy(),
            )

    @settings(max_examples=25, deadline=None)
    @given(instances)
    def test_exact_policy_never_violates_the_contract(self, inst):
        policy = ExactSolver(inst).policy()
        for ww in enumerate_worlds(inst):
            simulate_policy(inst, ww.world, policy)


class TestPolicyValue:
    def test_lookout_triangle(self, lookout_triangle):
        assert policy_value(lookout_triangle, ExactSolver(lookout_triangle).policy()) == Fraction(17, 20)

    def test_plain_triangle(self, triangle_plain):
        assert policy_value(triangle_plain, ExactSolver(triangle_plain).policy()) == Fraction(7, 10)

    def test_halting_policy_never_succeeds(self, lookout_triangle):
        assert policy_value(lookout_triangle, lambda v, k: None) == 0

    @settings(max_examples=25, deadline=None)
    @given(instances)
    def test_equals_expected_root_value(self, inst):
        solver = ExactSolver(inst)
        expected = sum(
            weight * solver.root_value(knowledge)
            for knowledge, weight in initial_scenarios(inst)
        )
        assert policy_value(inst, solver.policy()) == expected


class TestSightBlind:
    def test_fork_baseline_prefers_direct_edge(self, scouted_fork):
        assert sight_blind_policy(scouted_fork)(1, EMPTY_KNOWLEDGE) == (1, 5)
        assert blind_value(scouted_fork) == Fraction(3, 5)

    def test_plain_triangle_baseline(self, triangle_plain):
        assert sight_blind_policy(triangle_plain)(1, EMPTY_KNOWLEDGE) == (1, 3)

    def test_blind_value_is_the_blind_policy_value(self, scouted_fork):
        stripped = Instance(
            scouted_fork.vertex_count, scouted_fork.edges, (), scouted_fork.task
        )
        assert blind_value(scouted_fork) == policy_value(
            stripped, sight_blind_policy(scouted_fork)
        )

    @settings(max_examples=30, deadline=None)
    @given(
        st.builds(
            generate_instance,
            st.builds(GeneratorConfig, seed=st.integers(0, 2**32), sight_density=st.just(0.0)),
            index=st.integers(0, 7),
        )
    )
    def test_blind_equals_exact_without_sight(self, inst):
        solver = ExactSolver(inst)
        blind = sight_blind_policy(inst)
        for v in inst.vertices:
            if v == inst.dest:
                continue
            assert blind(v, EMPTY_KNOWLEDGE) == solver.next_move(v)


class TestGreedyGap:
    def test_fork_is_a_gap_instance(self, scouted_fork):
        assert is_gap_instance(scouted_fork)

    def test_plain_triangle_is_not(self, triangle_plain):
        assert not is_gap_instance(triangle_plain)

    def test_search_is_deterministic_and_finds_gaps(self):
        config = GeneratorConfig(seed=7)
        gaps = find_greedy_gap(config, 60)
        assert gaps == find_greedy_gap(config, 60)
        assert len(gaps) >= 1
        assert all(is_gap_instance(g) for g in gaps)


class TestInitialScenarios:
    def test_no_sight_gives_single_empty_scenario(self, triangle_plain):
        assert initial_scenarios(triangle_plain) == [(EMPTY_KNOWLEDGE, 1)]

    def test_single_watched_edge(self, lookout_triangle):
        assert initial_scenarios(lookout_triangle) == [
            (know(e_2_3=UP), Fraction(1, 2)),
            (know(e_2_3=DOWN), Fraction(1, 2)),
        ]

    def test_degenerate_probabilities_keep_zero_weight_entries(self):
        inst = Instance.build(3, [(1, 2, "0"), (2, 3, "1/2")], [(1, 1, 2)], task=(1, 3))
        scenarios = dict(initial_scenarios(inst))
        assert scenarios[know(e_1_2=UP)] == 1
        assert scenarios[know(e_1_2=DOWN)] == 0

    @settings(max_examples=40, deadline=None)
    @given(instances)
    def test_weights_sum_to_one(self, inst):
        assert sum(w for _, w in initial_scenarios(inst)) == 1


def _restated_scenarios(inst):
    """initial_scenarios from scratch: the product measure on the start's
    sight, each assignment as checked Knowledge and a Fraction."""
    edges = inst.numbering
    sight = sum(1 << edges.index[pair] for pair in inst.sight_of(inst.start))
    denominator, assignments = EdgeNumbering.scenarios(edges, sight)
    return [
        (Knowledge(edges.statuses(up, sight & ~up)), Fraction(num, denominator))
        for up, num in assignments
    ]


class TestStartScenarioTable:
    """The first-step sweeps read the numbering's start-scenario table, built
    once per instance and never through ``Knowledge.__init__``."""

    def test_each_call_equals_the_restatement(self, lookout_triangle, certain_lookouts):
        instances = [lookout_triangle, certain_lookouts] + generate_suite(SOLVE_STREAM, 60)
        zero = 0
        for inst in instances:
            want = _restated_scenarios(inst)
            first = initial_scenarios(inst)
            assert first == want and [repr(k) for k, _ in first] == [repr(k) for k, _ in want]
            assert all(type(k) is Knowledge and type(w) is Fraction for k, w in first)
            first.append(first.pop(0))
            first[0] = (EMPTY_KNOWLEDGE, Fraction(7))
            second = initial_scenarios(inst)
            assert second == want and second is not first
            zero += sum(1 for _, w in want if not w)
        assert zero >= 10

    def test_a_row_of_weight_zero_keeps_its_up_mask_alone(self, certain_lookouts):
        edges = certain_lookouts.numbering
        rows = edges.starts
        assert len(rows) == 8 and initial_scenarios(certain_lookouts) is not rows
        kept = [row for row in rows if type(row) is tuple]
        assert [type(row) for row in rows].count(int) == 6 and len(kept) == 2
        for knowledge, weight in kept:
            assert weight > 0 and edges.masks(knowledge) is knowledge._masks

    def test_a_second_sweep_enumerates_and_builds_nothing(self, monkeypatch, lookout_triangle):
        calls = []
        scenarios, init = EdgeNumbering.scenarios, Knowledge.__init__

        def counted_scenarios(edges, mask):
            calls.append("scenarios")
            return scenarios(edges, mask)

        def counted_init(knowledge, statuses=None):
            calls.append("Knowledge")
            init(knowledge, statuses)

        config = ApproxConfig(1, 8)
        sweeps = [
            initial_scenarios,
            oracle_check,
            lambda inst: [(r.decision_match, r.value_gap, r.report) for r in agreement_report([inst], config)],
        ]
        instances = [lookout_triangle] + generate_suite(SUITE_CONFIG, 40)
        for inst in instances:
            firsts = [sweep(inst) for sweep in sweeps]
            with monkeypatch.context() as patch:
                patch.setattr(EdgeNumbering, "scenarios", counted_scenarios)
                patch.setattr(Knowledge, "__init__", counted_init)
                assert [sweep(inst) for sweep in sweeps] == firsts
            assert calls == []


class TestOracleCheck:
    def test_lookout_triangle_agrees_everywhere(self, lookout_triangle):
        checks = oracle_check(lookout_triangle)
        assert len(checks) == 2
        assert all(c.match for c in checks)

    def test_fork_has_single_blind_start_scenario(self, scouted_fork):
        checks = oracle_check(scouted_fork)
        assert len(checks) == 1
        assert checks[0].match
        assert checks[0].solver_move == (1, 2)

    def test_harness_detects_a_mutated_solver(self, lookout_triangle):
        class Mutant:
            def root_value(self, knowledge):
                return Fraction(1, 3)

            def next_move(self, v, knowledge):
                return None

        checks = oracle_check(lookout_triangle, solver=Mutant())
        assert not all(c.match for c in checks)

    def test_the_solver_is_asked_its_move_then_its_value_in_each_possible_scenario(
        self, certain_lookouts
    ):
        class Recorder:
            def __init__(self, instance):
                self.solver, self.calls = ExactSolver(instance), []

            def next_move(self, v, knowledge):
                self.calls.append(("next_move", knowledge))
                return self.solver.next_move(v, knowledge)

            def root_value(self, knowledge):
                self.calls.append(("root_value", knowledge))
                return self.solver.root_value(knowledge)

        recorder = Recorder(certain_lookouts)
        checks = oracle_check(certain_lookouts, solver=recorder)
        assert [c.knowledge for c in checks] == [
            know(e_2_4=UP, e_2_6=DOWN, e_4_6=UP), know(e_2_4=UP, e_2_6=DOWN, e_4_6=DOWN)
        ]
        assert [c.weight for c in checks] == [Fraction(3, 4), Fraction(1, 4)]
        assert all(c.match for c in checks)
        assert recorder.calls == [
            (name, c.knowledge) for c in checks for name in ("next_move", "root_value")
        ]

    def test_solver_equals_oracle_edge_by_edge_on_bigger_instances(self):
        """Every candidate edge at the start, in every start scenario, on
        n=8..12 instances with at most 14 uncertain edges.  Its time budget
        is about 5 s; the cap is passed so that it admits every edge of a
        12-vertex DAG."""
        config = GeneratorConfig(n_min=8, n_max=12, seed=19)
        instances = scenarios = 0
        for index in range(400):
            inst = generate_instance(config, index)
            if sum(1 for edge in inst.edges if 0 < edge.p_fail < 1) > 14:
                continue
            solver = ExactSolver(inst)
            for knowledge, weight in initial_scenarios(inst):
                if weight:
                    assert solver.candidate_successes(inst.start, knowledge) == candidate_values(
                        inst, inst.start, knowledge, cap=66
                    )
                    scenarios += 1
            instances += 1
        assert instances >= 300 and scenarios >= 3000


TIES = ("0", "1/3", "1/2", "2/3", "1")  # ties, and certain edges seen from the start


def _answers_alone(inst, v, knowledge):
    """``value`` and ``first_move`` at ``v`` agree with the chooser over
    ``candidate_values``, and the value is a Fraction; returns that answer."""
    answer = oracle._choose(candidate_values(inst, v, knowledge))
    best = value(inst, v, knowledge)
    assert type(best) is Fraction
    assert (best, first_move(inst, v, knowledge)) == answer
    return answer


def _crossed(inst, knowledge, move, rng):
    """The knowledge after crossing ``move`` and looking around its head: each
    edge the head shows gets a status of positive probability, drawn by ``rng``."""
    p_fail = {edge.pair: edge.p_fail for edge in inst.edges}
    seen = {move: UP}
    for pair in sorted(inst.sight_of(move[1]) - knowledge.known - {move}):
        seen[pair] = rng.choice([s for s, p in ((UP, 1), (DOWN, 0)) if p_fail[pair] != p])
    return knowledge.with_statuses(seen)


def _interior_answer(inst, check, rng):
    """:func:`_answers_alone` at the head of the oracle's first move, under the
    check's knowledge extended by :func:`_crossed`; False where there is no
    such interior vertex (a halt, or a move onto the destination)."""
    move = check.oracle_move
    if move is None or move[1] == inst.dest:
        return False
    _answers_alone(inst, move[1], _crossed(inst, check.knowledge, move, rng))
    return True


class TestOneWorldTablePerCheck:
    """Each check of oracle_check answers as a lone query at the start does,
    and its inputs are refused before any value is computed."""

    @pytest.mark.parametrize(
        "palette", [GeneratorConfig().p_palette, TIES], ids=["default", "ties"]
    )
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32), index=st.integers(0, 7))
    def test_each_check_answers_as_a_lone_query(self, palette, seed, index):
        inst = generate_instance(GeneratorConfig(p_palette=palette, seed=seed), index)
        checks = oracle_check(inst)
        assert [c.knowledge for c in checks] == [k for k, w in initial_scenarios(inst) if w]
        rng = random.Random(seed)
        for check in checks:
            answer = _answers_alone(inst, inst.start, check.knowledge)
            assert (check.oracle_value, check.oracle_move) == answer
            _interior_answer(inst, check, rng)

    def test_lone_queries_with_certain_edges_seen_and_ties(self):
        config = GeneratorConfig(
            n_min=6, n_max=9, sight_density=0.4, max_edges=14, p_palette=TIES, seed=5
        )
        checks_per_instance, certain_seen, ties, interior = set(), 0, 0, 0
        rng = random.Random(5)
        for index in range(40):
            inst = generate_instance(config, index)
            edges = inst.numbering
            checks = oracle_check(inst)
            for check in checks:
                answer = _answers_alone(inst, inst.start, check.knowledge)
                assert (check.oracle_value, check.oracle_move) == answer
                scored = candidate_values(inst, inst.start, check.knowledge)
                ties += [val for _, val in scored].count(check.oracle_value) > 1
                interior += _interior_answer(inst, check, rng)
            checks_per_instance.add(len(checks))
            certain_seen += bool(edges.sight[inst.start] & ~_uncertain(edges))
        assert 1 in checks_per_instance and max(checks_per_instance) >= 16
        assert certain_seen >= 20 and ties >= 5 and interior >= 100

    @pytest.mark.parametrize(
        "palette", [("0", "1/2"), ("1/2", "1"), TIES], ids=["never-fails", "always-fails", "ties"]
    )
    def test_the_checks_are_the_scenarios_of_positive_weight_in_order(self, palette):
        # a watched edge that never fails, or always does, gives scenarios of weight zero
        config = GeneratorConfig(
            n_min=4, n_max=8, sight_density=0.5, max_edges=12, p_palette=palette, seed=8
        )
        with_zero_weight = 0
        for index in range(30):
            inst = generate_instance(config, index)
            scenarios = initial_scenarios(inst)
            checks = oracle_check(inst)
            assert [(c.knowledge, c.weight) for c in checks] == [(k, w) for k, w in scenarios if w]
            with_zero_weight += any(w == 0 for _, w in scenarios)
        assert with_zero_weight >= 10

    def test_the_cap_is_checked_before_any_table_is_built(self, monkeypatch, lookout_triangle):
        monkeypatch.setattr(oracle, "_edge_value", _unreachable)
        with pytest.raises(TooManyEdges, match="^3 edges exceed the enumeration cap of 2$"):
            oracle_check(lookout_triangle, cap=2)

    @pytest.mark.parametrize("start", [-1, 0, 4])
    def test_a_start_outside_the_vertices_is_unknown_before_any_table(self, monkeypatch, start):
        # vertex 3 watches 1-2, and index -1 is vertex 3's slot; 4 lies past the tables
        inst = Instance.build(3, [(1, 2, "1/2"), (2, 3, "1/2")], [(3, 1, 2)], (start, 3))
        monkeypatch.setattr(oracle, "_edge_value", _unreachable)
        with pytest.raises(UnknownVertex, match=f"^vertex {start} is not in 1..3$"):
            initial_scenarios(inst)
        with pytest.raises(UnknownVertex, match=f"^vertex {start} is not in 1..3$"):
            oracle_check(inst)


def _product_worlds(inst):
    """enumerate_worlds restated with itertools.product: lowest edge slowest, up first."""
    pairs = sorted(inst.pairs)
    out = []
    for statuses in itertools.product((UP, DOWN), repeat=len(pairs)):
        weight = Fraction(1)
        for pair, status in zip(pairs, statuses):
            p = inst.p_fail(pair)
            weight *= 1 - p if status is UP else p
        out.append((dict(zip(pairs, statuses)), weight))
    return out


class TestEnumerationOrder:
    def test_matches_a_product_restatement_in_order_and_weight(self):
        config = GeneratorConfig(seed=11, max_edges=8, p_palette=("0", "1/3", "1"))
        zero_weights = 0
        for index in range(12):
            inst = generate_instance(config, index)
            got = [(ww.world.as_dict(), ww.weight) for ww in enumerate_worlds(inst)]
            assert got == _product_worlds(inst)
            zero_weights += sum(1 for _, weight in got if weight == 0)
        assert zero_weights > 0  # worlds of probability zero are kept

    def test_order_is_lowest_edge_slowest_up_first(self, lookout_triangle):
        worlds = [ww.world for ww in enumerate_worlds(lookout_triangle)]
        assert [w.status((1, 2)) for w in worlds] == [UP] * 4 + [DOWN] * 4
        assert [w.status((1, 3)) for w in worlds] == [UP, UP, DOWN, DOWN] * 2
        assert [w.status((2, 3)) for w in worlds] == [UP, DOWN] * 4


# A dead start, a start whose every edge is certain to fail, and a start with
# three tied first edges: value, first_move, the blind policy and oracle_check
# must all pick the same best value and move.
NO_CANDIDATES = Instance.build(3, [(2, 3, "0")], [], task=(1, 3))
ALL_ZERO = Instance.build(3, [(1, 2, "1"), (1, 3, "1"), (2, 3, "0")], [], task=(1, 3))
TIED = Instance.build(
    4,
    [(1, 2, "1/2"), (1, 3, "1/2"), (1, 4, "1/2"), (2, 4, "0"), (3, 4, "0")],
    [],
    task=(1, 4),
)


class TestBestMoveAgreement:
    @pytest.mark.parametrize(
        "inst, best, move",
        [(NO_CANDIDATES, 0, None), (ALL_ZERO, 0, None), (TIED, Fraction(1, 2), (1, 4))],
        ids=["no-candidates", "all-zero", "tied"],
    )
    def test_every_chooser_agrees(self, inst, best, move):
        assert value(inst, 1) == best
        assert first_move(inst, 1) == move
        assert sight_blind_policy(inst)(1, EMPTY_KNOWLEDGE) == move
        (check,) = oracle_check(inst)
        assert (check.oracle_value, check.oracle_move) == (best, move)
        assert check.match


def test_candidate_values_leaves_no_cyclic_garbage():
    # 15 edges: a world list of 2^15 entries, which a reference cycle would
    # keep alive until the next full collection
    pairs = list(itertools.combinations(range(1, 8), 2))[:15]
    inst = Instance.build(7, [(t, h, "1/2") for t, h in pairs], [(1, 2, 3)], task=(1, 7))
    gc.collect()
    gc.disable()
    try:
        candidate_values(inst, 1, know(e_2_3=UP))
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage < 64


def test_a_negative_gap_search_count_is_refused():
    with pytest.raises(ValueError, match="count must not be negative"):
        find_greedy_gap(GeneratorConfig(seed=1), -3)
    assert find_greedy_gap(GeneratorConfig(seed=1), 0) == []


# -- the support of the measure ----------------------------------------------
# The oracle conditions by filtering only the worlds of positive weight.  The
# re-statement below filters the full itertools.product world list instead,
# with dict worlds and dict knowledge, and must give the same Fractions.


def _restated_edge_value(inst, worlds, known, edge):
    """Value of crossing ``edge`` knowing ``known``, averaged over ``worlds``."""
    head = edge[1]
    groups = {}
    for world, weight in worlds:
        if world[edge] is UP:
            seen = {**known, edge: UP, **{pair: world[pair] for pair in inst.sight_of(head)}}
            groups.setdefault(frozenset(seen.items()), []).append((world, weight))
    mass = sum(weight for _, weight in worlds)
    total = Fraction(0)
    for key, sub in groups.items():
        seen = dict(key)
        if head == inst.dest:
            best = Fraction(1)
        else:
            onward = [pair for pair in inst.out_edges(head) if seen.get(pair) is not DOWN]
            best = max(
                [Fraction(0)] + [_restated_edge_value(inst, sub, seen, pair) for pair in onward]
            )
        total += sum(weight for _, weight in sub) / mass * best
    return total


def _restated_candidates(inst, v, knowledge):
    known = knowledge.as_dict()
    worlds = [
        (world, weight)
        for world, weight in _product_worlds(inst)
        if weight and all(world[pair] is status for pair, status in known.items())
    ]
    if not worlds:
        raise ValueError("knowledge has probability zero")
    return [
        (pair, _restated_edge_value(inst, worlds, known, pair))
        for pair in inst.out_edges(v)
        if known.get(pair) is not DOWN
    ]


def _restated_choice(inst, v, knowledge):
    """(value, first move) from the re-stated candidates."""
    if v == inst.dest:
        return Fraction(1), None
    scored = _restated_candidates(inst, v, knowledge)
    best = max((val for _, val in scored), default=Fraction(0))
    if best <= 0:
        return Fraction(0), None
    return best, max(pair for pair, val in scored if val == best)


DEGENERATE = GeneratorConfig(seed=11, max_edges=8, p_palette=("0", "1/3", "1"))
SIGHTED = GeneratorConfig(
    n_min=9, n_max=9, edge_density=0.6, sight_density=0.25, max_edges=14, seed=17
)


def _walked_value(inst, policy):
    """policy_value re-stated: the weights of the worlds where simulate_policy arrives."""
    return sum(
        (
            ww.weight
            for ww in enumerate_worlds(inst)
            if ww.weight and simulate_policy(inst, ww.world, policy).reached
        ),
        Fraction(0),
    )


class TestSupportOfTheMeasure:
    def test_the_checks_agree_on_probabilities_of_long_numerators(self):
        # 42 three-digit probabilities: each of the 19 uncertain edges has
        # factors of about 10 bits, so a world's numerator takes about 190 bits
        three_digits = tuple(f"0.{k:03d}" for k in range(13, 1000, 24))
        config = GeneratorConfig(n_min=9, n_max=9, p_palette=three_digits, seed=5)
        inst = generate_instance(config, 0)
        assert len(three_digits) == 42 and _uncertain(inst.numbering).bit_count() == 19
        checks = oracle_check(inst, cap=10**6)
        assert len(checks) == 4 and all(check.match for check in checks)

    @pytest.mark.parametrize("index, want", [(8, Fraction(7, 8)), (58, Fraction(449, 512))])
    def test_policy_value_on_twenty_uncertain_edges(self, index, want):
        # 19 and 20 uncertain edges; the reference is the solver's own start
        # values, weighted, which share no code with the walk over world sets
        inst = generate_instance(GeneratorConfig(n_min=12, n_max=12, seed=3), index)
        solver = ExactSolver(inst)
        weighted = sum(
            (w * solver.root_value(k) for k, w in initial_scenarios(inst) if w), Fraction(0)
        )
        assert weighted == want
        assert policy_value(inst, ExactSolver(inst).policy(), cap=10**6) == want

    def test_policy_value_when_the_start_watches_every_edge_that_can_fail(self):
        # every world walks on alone from the start; two watched edges always
        # fail and a watched onward edge never does
        ps = [Fraction(1, 2), Fraction(1), Fraction(1, 3), Fraction(2, 5), Fraction(1), Fraction(3, 4)]
        mids, dest = range(2, len(ps) + 2), len(ps) + 2
        inst = Instance.build(
            dest,
            [(1, m, p) for m, p in zip(mids, ps)] + [(m, dest, 0) for m in mids],
            [(1, 1, m) for m in mids] + [(1, 2, dest)],
            task=(1, dest),
        )
        assert policy_value(inst, ExactSolver(inst).policy()) == 1 - Fraction(1, 20)
        config = ApproxConfig(1, 4)
        got = policy_value(inst, ApproxSolver(inst, config).policy())
        assert got == _walked_value(inst, ApproxSolver(inst, config).policy())

    def test_oracle_equals_a_filter_of_the_full_product(self):
        certain = {Fraction(0): 0, Fraction(1): 0}
        states = 0
        for index in range(12):
            inst = generate_instance(DEGENERATE, index)
            for pair in inst.pairs:
                if inst.p_fail(pair) in certain:
                    certain[inst.p_fail(pair)] += 1
            queries = [(inst.start, k) for k, w in initial_scenarios(inst) if w]
            queries += [(v, EMPTY_KNOWLEDGE) for v in inst.vertices if inst.out_edges(v)]
            for v, knowledge in queries:
                want = _restated_candidates(inst, v, knowledge)
                assert candidate_values(inst, v, knowledge) == want
                best, move = _restated_choice(inst, v, knowledge)
                assert value(inst, v, knowledge) == best
                assert first_move(inst, v, knowledge) == move
                states += 1
            for check in oracle_check(inst):
                want = _restated_choice(inst, inst.start, check.knowledge)
                assert (check.oracle_value, check.oracle_move) == want
                assert check.match
        assert certain[0] > 0 and certain[1] > 0  # edges that never and always fail
        assert states >= 24

    def test_policy_value_sums_the_worlds_of_positive_weight(self):
        for index in range(12):
            inst = generate_instance(DEGENERATE, index)
            for policy in (ExactSolver(inst).policy(), sight_blind_policy(inst)):
                want = sum(
                    (
                        ww.weight
                        for ww in enumerate_worlds(inst)
                        if ww.weight and simulate_policy(inst, ww.world, policy).reached
                    ),
                    Fraction(0),
                )
                assert policy_value(inst, policy) == want

    @pytest.mark.parametrize("mode", ["rational", "float"])
    def test_policy_value_of_a_history_dependent_policy(self, mode):
        # the approximate solver's answers depend on what its bounded cache
        # holds, so each walk gets a fresh solver that is asked in world order;
        # a cache of 4 evicts soon enough to tell a walk that asks a part's
        # pieces before finishing its lowest world's walk
        differs = 0
        for config in (ApproxConfig(1, 8), ApproxConfig(1, 4)):
            for index in range(12):
                inst = generate_instance(SIGHTED, index)
                got = policy_value(inst, ApproxSolver(inst, config, mode=mode).policy())
                assert got == _walked_value(inst, ApproxSolver(inst, config, mode=mode).policy())
                differs += got != policy_value(inst, ExactSolver(inst).policy())
        assert differs > 0  # the approximation does change some values

    def test_policy_value_asks_in_the_order_of_a_world_by_world_walk(self):
        # the states each walk of simulate_policy meets, worlds in order, each
        # the first time; a walk that takes pending worlds in another order,
        # such as last split first, asks some of them in another order
        def recording(solver, asked):
            def policy(v, knowledge):
                asked.append((v, knowledge))
                return solver.next_move(v, knowledge)

            return policy

        scouted = GeneratorConfig(n_min=7, n_max=9, sight_density=0.4, max_edges=15, seed=5)
        for config in (SIGHTED, MID_WALK, scouted):
            for index in range(12):
                inst = generate_instance(config, index)
                solver = ExactSolver(inst)
                walked, got = [], []
                for ww in enumerate_worlds(inst):
                    if ww.weight:
                        simulate_policy(inst, ww.world, recording(solver, walked))
                policy_value(inst, recording(solver, got))
                assert got == list(dict.fromkeys(walked))

    def test_a_policy_is_asked_once_per_state_it_meets(self):
        repeated = 0
        for index in range(12):
            inst = generate_instance(SIGHTED, index)
            solver = ExactSolver(inst)
            asked, walked = [], []

            def recording(calls):
                def policy(v, knowledge):
                    calls.append((v, knowledge))
                    return solver.next_move(v, knowledge)
                return policy

            assert policy_value(inst, recording(asked)) == _walked_value(inst, recording(walked))
            assert len(asked) == len(set(asked))
            assert set(asked) == set(walked)
            repeated += len(walked) - len(asked)
        assert repeated > 0  # simulate_policy asks again where policy_value does not

    def test_a_policy_is_walked_only_in_worlds_of_positive_weight(self):
        # the blind walker crosses 1-2 even when it sees 1-2 down, and only a
        # world of probability zero shows 1-2 down
        inst = Instance.build(
            3, [(1, 2, "0"), (1, 3, "1/2"), (2, 3, "0")], [(1, 1, 2)], task=(1, 3)
        )
        blind = sight_blind_policy(inst)
        with pytest.raises(PolicyChoseKnownDown):
            simulate_policy(inst, World({(1, 2): DOWN, (1, 3): UP, (2, 3): UP}), blind)
        assert policy_value(inst, blind) == 1
        # where a world of positive weight shows it, the contract still holds
        risky = Instance.build(
            3, [(1, 2, "1/2"), (1, 3, "1/2"), (2, 3, "0")], [(1, 1, 3)], task=(1, 3)
        )
        with pytest.raises(PolicyChoseKnownDown):
            policy_value(risky, sight_blind_policy(risky))

    @pytest.mark.parametrize(
        "knowledge",
        [know(e_1_2=DOWN), know(e_1_3=UP), know(e_1_2=UP, e_1_3=UP)],
        ids=["never-failing-edge-down", "always-failing-edge-up", "both"],
    )
    def test_impossible_knowledge_still_has_probability_zero(self, knowledge):
        inst = Instance.build(
            3, [(1, 2, "0"), (1, 3, "1"), (2, 3, "1/2")], [(1, 2, 3)], task=(1, 3)
        )
        calls = [
            lambda: candidate_values(inst, 1, knowledge),
            lambda: value(inst, 1, knowledge),
            lambda: first_move(inst, 1, knowledge),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="probability zero"):
                call()

    @pytest.mark.parametrize(
        "knowledge",
        [know(e_1_2=DOWN), know(e_1_3=UP), know(e_1_2=UP, e_1_3=UP)],
        ids=["never-failing-edge-down", "always-failing-edge-up", "both"],
    )
    def test_impossible_knowledge_raises_before_any_table_is_built(self, monkeypatch, knowledge):
        inst = Instance.build(
            3, [(1, 2, "0"), (1, 3, "1"), (2, 3, "1/2")], [(1, 2, 3)], task=(1, 3)
        )
        monkeypatch.setattr(oracle, "_edge_value", _unreachable)
        with pytest.raises(
            ValueError, match="^knowledge has probability zero; conditioning is undefined$"
        ):
            candidate_values(inst, 1, knowledge)

    def test_the_cap_still_counts_every_edge(self):
        inst = Instance.build(
            3, [(1, 2, "0"), (1, 3, "1"), (2, 3, "1/2")], [], task=(1, 3)
        )
        with pytest.raises(TooManyEdges, match="^3 edges exceed the enumeration cap of 2$"):
            oracle_check(inst, cap=2)

    def test_policy_value_counts_only_uncertain_edges_against_the_cap(self):
        # its heap holds one set per world of positive weight: 2^u for u uncertain edges.
        # Index 3 of the approx benchmark's stream has 23 edges, 12 of them uncertain
        config = GeneratorConfig(
            seed=1, n_min=12, n_max=12, edge_density=0.5, sight_density=0.2, max_sights=10
        )
        inst = generate_instance(config, 3)
        assert len(inst.pairs) == 23
        assert policy_value(inst, ExactSolver(inst).policy()) == 1
        inst = Instance.build(3, [(1, 2, "1/2"), (1, 3, "1/4"), (2, 3, "1/2")], task=(1, 3))
        with pytest.raises(TooManyEdges) as caught:
            policy_value(inst, sight_blind_policy(inst), cap=2)
        assert str(caught.value) == "3 uncertain edges exceed the enumeration cap of 2"
        assert policy_value(inst, sight_blind_policy(inst), cap=3) == Fraction(3, 4)


class TestPastTheWorldList:
    """A set of worlds is named by its statuses, never listed world by world,
    so the oracle answers where 2^k worlds could not be held."""

    def test_solver_equals_oracle_on_up_to_48_uncertain_edges(self):
        # the first instances of the solve benchmark's stream
        most = checks = 0
        for index in range(40):
            inst = generate_instance(SOLVE_STREAM, index)
            most = max(most, _uncertain(inst.numbering).bit_count())
            scenarios = oracle_check(inst, cap=10**6)
            assert all(check.match for check in scenarios)
            checks += len(scenarios)
        assert most >= 40 and checks >= 40

    def test_a_start_that_watches_fourteen_routes(self):
        # 28 uncertain edges, all watched from the start; each route is up
        # with chance 1/2 * 2/3
        routes, dest = range(2, 16), 16
        inst = Instance.build(
            dest,
            [(1, m, "1/2") for m in routes] + [(m, dest, "1/3") for m in routes],
            [(1, 1, m) for m in routes] + [(1, m, dest) for m in routes],
            task=(1, dest),
        )
        assert _uncertain(inst.numbering).bit_count() == 28
        scored = candidate_values(inst, 1, cap=10**6)
        assert scored == [((1, m), Fraction(1, 3)) for m in routes]


# -- how a walk asks a policy ---------------------------------------------------

DIAMOND = Instance.build(
    4, [(1, 2, "1/2"), (1, 3, "1/4"), (2, 4, "1/3"), (3, 4, "1/2")], [(1, 2, 4)], task=(1, 4)
)


def _unreachable(*args):
    raise AssertionError("unreachable path taken")


class TestStockPolicyDispatch:
    """policy_value asks a solver's stock policy on masks, with the solver's
    move cache as its move table, as run_trials does; any other policy goes
    through the checked Knowledge path."""

    def test_a_stock_policy_is_asked_on_masks(self, monkeypatch, lookout_triangle, scouted_fork):
        suite = [lookout_triangle, scouted_fork, *(generate_instance(SIGHTED, i) for i in range(3))]
        monkeypatch.setattr(oracle, "_checked_move", _unreachable)
        for inst in suite:
            for make in (
                lambda: ExactSolver(inst),
                lambda: ExactSolver(inst, mode="float"),
                lambda: ExactSolver(dataclasses.replace(inst)),  # an equal instance
                lambda: ApproxSolver(inst, ApproxConfig(1, 8)),
            ):
                solver = make()
                got = policy_value(inst, solver.policy())
                assert got == _walked_value(inst, make().policy())
                # every state met is in the solver's move cache, so walking
                # again asks nothing
                monkeypatch.setattr(solver, "_move", _unreachable)
                assert policy_value(inst, solver.policy()) == got
        solver = ExactSolver(lookout_triangle)
        with pytest.raises(AssertionError, match="unreachable"):
            policy_value(lookout_triangle, lambda v, k: solver.next_move(v, k))

    def test_a_solver_for_another_edge_set_is_still_checked(self, lookout_triangle):
        for inst, other in ((lookout_triangle, DIAMOND), (DIAMOND, lookout_triangle)):
            with pytest.raises(UnknownEdge):
                policy_value(inst, ExactSolver(other).policy())


def test_the_oracle_never_calls_the_solvers_recursion(monkeypatch, lookout_triangle):
    monkeypatch.setattr(_SolverCore, "_evaluate", _unreachable)
    vertices = 0
    for inst in generate_suite(SUITE_CONFIG, SUITE_SIZE):
        assert sum(ww.weight for ww in enumerate_worlds(inst)) == 1
        for v in inst.vertices:
            candidate_values(inst, v)
            value(inst, v)
            first_move(inst, v)
            vertices += 1
    assert vertices >= 3 * SUITE_SIZE
    with pytest.raises(AssertionError, match="unreachable"):  # the patch is in place
        ExactSolver(lookout_triangle).root_value(know(e_2_3=UP))


def _blind_by_vertex(inst):
    """The blind products computed vertex by vertex, highest id first, from
    the instance's edge list alone."""
    values = {v: Fraction(0) for v in inst.vertices}
    values[inst.dest] = Fraction(1)
    for v in sorted(inst.vertices, reverse=True):
        if v != inst.dest:
            values[v] = max(
                ((1 - e.p_fail) * values[e.head] for e in inst.edges if e.tail == v),
                default=Fraction(0),
            )
    return values


class TestBlindEdgeWalk:
    """The sight-blind baseline walks the edges, not the declared vertices."""

    @pytest.mark.parametrize("palette", [None, ("1/3", "0.1", "0.05", "0", "1")])
    def test_matches_the_vertex_by_vertex_products(self, palette):
        extra = {} if palette is None else {"p_palette": palette}
        config = GeneratorConfig(n_min=2, n_max=9, sight_density=0.3, **extra)
        rng = random.Random(91)
        for _ in range(150):
            # raw draws keep dead ends, vertices past the destination and
            # instances with no path at all
            inst = Instance.build(*_draw(config, rng, plant_path=False))
            want = _blind_by_vertex(inst)
            assert max_product_values(inst) == want
            assert blind_value(inst) == want[inst.start]
            policy = sight_blind_policy(inst)
            for v in inst.vertices:
                scored = [
                    (e.pair, (1 - e.p_fail) * want[e.head]) for e in inst.edges if e.tail == v
                ]
                best = max((val for _, val in scored), default=Fraction(0))
                move = max(
                    (pair for pair, val in scored if val == best and best > 0),
                    key=lambda pair: (pair[1], pair[0]),
                    default=None,
                )
                assert policy(v) == move

    def test_a_million_declared_vertices_cost_no_more_than_the_numbering(self):
        n = 1_000_000
        inst = Instance.build(n, [(1, 2, "1/2"), (2, n, "1/3"), (1, n, "1/4")], [], (1, n))
        clock = time.perf_counter
        start = clock()
        inst.numbering
        numbering_s = clock() - start
        start = clock()
        assert blind_value(inst) == Fraction(3, 4)
        assert sight_blind_policy(inst)(1) == (1, n)
        assert sight_blind_policy(inst)(n - 1) is None
        # walking every declared vertex took seconds here; the edge walk takes
        # microseconds against tens of milliseconds for the numbering
        assert clock() - start < numbering_s

    @pytest.mark.parametrize("start", [0, -1, 5])
    def test_a_start_outside_the_vertices_is_unknown(self, start):
        inst = Instance.build(3, [(1, 2, "1/2"), (2, 3, "1/2")], [], (start, 3))
        with pytest.raises(UnknownVertex):
            blind_value(inst)

    def test_the_values_stop_at_the_largest_vertex_the_instance_names(self):
        # a key per declared vertex made the call linear in the declared count
        inst = Instance.build(10**5, [(1, 2, "1/2")], [], (1, 2))
        start = time.perf_counter()
        values = max_product_values(inst)
        assert time.perf_counter() - start < 0.1
        assert values == {1: Fraction(1, 2), 2: Fraction(1)}


START_ENTRY_POINTS = {
    "run_trials": lambda inst: run_trials(inst, 5, 0),
    "policy_value": lambda inst: policy_value(inst, ExactSolver(inst).policy()),
    "oracle_check": oracle_check,
    "agreement_report": lambda inst: agreement_report([inst], ApproxConfig(0)),
    "is_gap_instance": is_gap_instance,
    "simulate_policy": lambda inst: simulate_policy(
        inst, sample_world(inst, 0), ExactSolver(inst).policy()
    ),
    "initial_scenarios": initial_scenarios,
    "blind_value": blind_value,
    "root_value": lambda inst: ExactSolver(inst).root_value(),
}


@pytest.mark.parametrize("entry", list(START_ENTRY_POINTS))
@pytest.mark.parametrize("start", [0, -1, 5, 10**30], ids=["0", "-1", "5", "10**30"])
def test_a_start_outside_the_vertices_is_unknown_at_every_entry_point(entry, start):
    # 5 and 10**30 lie past the per-vertex tables: the mask walks of run_trials
    # and policy_value once indexed them and raised IndexError or OverflowError
    inst = Instance.build(
        3, [(1, 2, "1/2"), (2, 3, "1/2"), (1, 3, "1/4")], [(1, 2, 3)], (start, 3)
    )
    with pytest.raises(UnknownVertex, match=f"^vertex {start} is not in 1..3$"):
        START_ENTRY_POINTS[entry](inst)


# -- the integer oracle at mid-walk states ------------------------------------

MID_WALK = GeneratorConfig(
    n_min=6, n_max=7, edge_density=0.5, sight_density=0.4,
    p_palette=("0", "1/3", "1", "0.1"), max_edges=9, seed=23,
)


def _reached_states(inst):
    """Every (vertex, knowledge) a walker holds in some world of positive
    weight, whatever edges it chooses to cross."""
    states = set()
    for ww in enumerate_worlds(inst):
        if not ww.weight:
            continue
        stack = [(inst.start, observe(inst, EMPTY_KNOWLEDGE, inst.start, ww.world))]
        while stack:
            v, knowledge = stack.pop()
            if (v, knowledge) in states:
                continue
            states.add((v, knowledge))
            for pair in inst.out_edges(v):
                if ww.world.up(pair):
                    crossed = knowledge.with_statuses({pair: UP})
                    stack.append((pair[1], observe(inst, crossed, pair[1], ww.world)))
    return states


class TestMidWalkStates:
    """The oracle's integer numerators, checked at every state a walk reaches
    against the Fraction re-statement over the full product."""

    # 1 sees 3-5 and 2 sees 3-5 and 4-5: with 3-5 down, what 2 shows of 4-5
    # decides between 2-4 and 2-5, so a value that ignored it would be too low
    RELAY = Instance.build(
        5,
        [(1, 2, "0.1"), (1, 5, "1/3"), (2, 3, "0"), (2, 4, "0.1"), (2, 5, "1/3"),
         (3, 5, "1/3"), (4, 5, "1/3")],
        [(1, 3, 5), (2, 3, 5), (2, 4, 5)],
        task=(1, 5),
    )

    def test_the_relay_uses_what_vertex_2_shows(self):
        # with 3-5 down, 2 takes 2-4 if 4-5 shows up (9/10) and 2-5 if not (2/3)
        at_2 = Fraction(2, 3) * Fraction(9, 10) + Fraction(1, 3) * Fraction(2, 3)
        scored = dict(candidate_values(self.RELAY, 1, know(e_3_5=DOWN)))
        assert scored == {(1, 2): Fraction(9, 10) * at_2, (1, 5): Fraction(2, 3)}

    def test_every_reached_state_matches_the_restatement(self):
        heads = {"all known": 0, "partly known": 0, "unknown": 0}
        generated = (generate_instance(MID_WALK, index) for index in range(10))
        for inst in (self.RELAY, *generated):
            for v, knowledge in _reached_states(inst):
                if v == inst.dest or not inst.out_edges(v):
                    continue
                got = candidate_values(inst, v, knowledge)
                assert got == _restated_candidates(inst, v, knowledge)
                assert all(type(val) is Fraction for _, val in got)
                for pair, _ in got:
                    watched = set(inst.sight_of(pair[1]))
                    known = watched & {pair, *knowledge.as_dict()}
                    if watched and known == watched:
                        heads["all known"] += 1
                    elif known:
                        heads["partly known"] += 1
                    elif watched:
                        heads["unknown"] += 1
        assert min(heads.values()) > 0, heads


class TestConditioningAgainstWalking:
    """The oracle's two routes agree without the solver: the start scenarios'
    conditioned values, weighted, equal the walked value of the oracle's own
    first moves."""

    @pytest.mark.parametrize(
        "palette",
        [("0", "1/4", "1/2", "3/4", "1"), ("0", "1/3", "1", "0.1"), ("1/3", "0.1", "0.05")],
    )
    def test_weighted_start_values_equal_the_walked_policy(self, palette):
        config = GeneratorConfig(
            n_min=3, n_max=7, edge_density=0.8, sight_density=0.3,
            p_palette=palette, max_edges=12, seed=31,
        )
        states = []
        for index in range(12):
            inst = generate_instance(config, index)
            asked = []

            def policy(v, knowledge):
                asked.append(v)
                return first_move(inst, v, knowledge)

            conditioned = sum(
                (w * value(inst, inst.start, k) for k, w in initial_scenarios(inst) if w),
                Fraction(0),
            )
            assert policy_value(inst, policy) == conditioned
            states.append(len(asked))
        assert max(states) > 4  # some walks branch on what they see
