"""Exact solver: success recursion, decisions, tiebreaks, memoization."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sightpath import (
    EMPTY_KNOWLEDGE,
    ApproxConfig,
    ApproxSolver,
    DecisionQuery,
    EmptyCandidates,
    ExactSolver,
    GeneratorConfig,
    IncompleteKnowledge,
    Instance,
    Knowledge,
    ModelError,
    SearchTooDeep,
    Status,
    UnknownEdge,
    World,
    cross_prob,
    decide,
    generate_instance,
    generate_suite,
    initial_scenarios,
    reveal_distribution,
    tiebreak,
)
from sightpath.exact import FLOAT_TIE, _tables
from sightpath.io import parse_instance, serialize_instance
from sightpath.model import EdgeNumbering
from sightpath.oracle import candidate_values, value as oracle_value

from conftest import DOWN, UP, know


instances = st.builds(
    generate_instance,
    st.builds(GeneratorConfig, seed=st.integers(0, 2**32)),
    index=st.integers(0, 7),
)


def knowledge_for(inst, data, label="knowledge"):
    """Draw an arbitrary (possibly empty) status assignment over the edges."""
    pairs = sorted(inst.pairs)
    picks = data.draw(
        st.lists(st.sampled_from([UP, DOWN, None]), min_size=len(pairs), max_size=len(pairs)),
        label=label,
    )
    return Knowledge({p: s for p, s in zip(pairs, picks) if s is not None})


class TestCrossProb:
    def test_unknown_edge_complements_p_fail(self, triangle_plain):
        assert cross_prob(triangle_plain, (1, 3)) == Fraction(7, 10)

    def test_known_up_is_certain(self, triangle_plain):
        assert cross_prob(triangle_plain, (1, 3), know(e_1_3=UP)) == 1

    def test_known_down_is_zero(self, triangle_plain):
        assert cross_prob(triangle_plain, (1, 3), know(e_1_3=DOWN)) == 0

    def test_missing_edge(self, triangle_plain):
        with pytest.raises(UnknownEdge):
            cross_prob(triangle_plain, (1, 9))


class TestRevealDistribution:
    def test_two_fresh_coins(self, scouted_fork):
        outcomes = reveal_distribution(scouted_fork, 2, EMPTY_KNOWLEDGE)
        assert len(outcomes) == 4
        assert all(w == Fraction(1, 4) for _, w in outcomes)
        assert {k for k, _ in outcomes} == {
            know(e_2_3=a, e_2_4=b) for a in (UP, DOWN) for b in (UP, DOWN)
        }

    def test_nothing_new_to_reveal(self, lookout_triangle):
        k = know(e_2_3=UP)
        assert reveal_distribution(lookout_triangle, 2, k) == [(k, 1)]

    def test_known_statuses_carry_into_every_branch(self, scouted_fork):
        known = {(1, 2): UP, (1, 5): DOWN}
        assert reveal_distribution(scouted_fork, 2, Knowledge(known)) == [
            (Knowledge({**known, (2, 3): a, (2, 4): b}), Fraction(1, 4))
            for a in (UP, DOWN)
            for b in (UP, DOWN)
        ]

    def test_a_world_is_its_own_only_extension(self, lookout_triangle):
        world = World({(1, 2): UP, (2, 3): DOWN, (1, 3): UP})
        [(extension, weight)] = reveal_distribution(lookout_triangle, 1, world)
        assert extension is world and weight == 1

    def test_single_coin_up_first(self, lookout_triangle):
        assert reveal_distribution(lookout_triangle, 1, EMPTY_KNOWLEDGE) == [
            (know(e_2_3=UP), Fraction(1, 2)),
            (know(e_2_3=DOWN), Fraction(1, 2)),
        ]

    @settings(max_examples=50, deadline=None)
    @given(instances, st.data())
    def test_weights_sum_to_one(self, inst, data):
        v = data.draw(st.sampled_from(sorted(inst.vertices)))
        outcomes = reveal_distribution(inst, v, EMPTY_KNOWLEDGE)
        assert sum(w for _, w in outcomes) == 1


class TestSuccess:
    def test_direct_edge_is_its_own_crossing(self, lookout_triangle):
        solver = ExactSolver(lookout_triangle)
        assert solver.success((1, 3)) == Fraction(4, 5)
        assert solver.success((1, 3), know(e_2_3=DOWN)) == Fraction(4, 5)

    def test_detour_with_far_edge_up(self, lookout_triangle):
        assert ExactSolver(lookout_triangle).success((1, 2), know(e_2_3=UP)) == Fraction(9, 10)

    def test_detour_with_far_edge_down(self, lookout_triangle):
        assert ExactSolver(lookout_triangle).success((1, 2), know(e_2_3=DOWN)) == 0

    def test_scouting_detour(self, scouted_fork):
        assert ExactSolver(scouted_fork).success((1, 2)) == Fraction(27, 40)

    def test_missing_edge(self, lookout_triangle):
        with pytest.raises(UnknownEdge):
            ExactSolver(lookout_triangle).success((2, 9))

    def test_knowledge_naming_missing_edge(self, lookout_triangle):
        with pytest.raises(UnknownEdge):
            ExactSolver(lookout_triangle).success((1, 2), Knowledge({(7, 8): UP}))

    @settings(max_examples=50, deadline=None)
    @given(instances, st.data())
    def test_bounded_and_deterministic(self, inst, data):
        k = knowledge_for(inst, data)
        edge = data.draw(st.sampled_from(sorted(inst.pairs)))
        value = ExactSolver(inst).success(edge, k)
        assert 0 <= value <= 1
        assert ExactSolver(inst).success(edge, k) == value

    @settings(max_examples=50, deadline=None)
    @given(instances, st.data())
    def test_depends_only_on_forward_cone(self, inst, data):
        k = knowledge_for(inst, data)
        edge = data.draw(st.sampled_from(sorted(inst.pairs)))
        solver = ExactSolver(inst)
        restricted = k.restrict(inst.forward_cone(edge[0]))
        assert solver.success(edge, k) == solver.success(edge, restricted)

    def test_off_cone_statuses_are_ignored(self, scouted_fork):
        solver = ExactSolver(scouted_fork)
        plain = solver.success((3, 5), EMPTY_KNOWLEDGE)
        noisy = solver.success((3, 5), know(e_1_5=DOWN, e_2_4=UP))
        assert plain == noisy == 1

    @settings(max_examples=50, deadline=None)
    @given(instances, st.data())
    def test_law_of_total_probability(self, inst, data):
        k = knowledge_for(inst, data)
        edge = data.draw(st.sampled_from(sorted(inst.pairs)))
        solver = ExactSolver(inst)
        averaged = sum(
            w * solver.success(edge, revealed)
            for revealed, w in reveal_distribution(inst, edge[1], k)
        )
        assert averaged == solver.success(edge, k)


class TestDeepSight:
    """A watched edge two hops ahead steers the first decision."""

    @pytest.fixture
    def scout_far_ahead(self):
        return Instance.build(
            4,
            [(1, 2, "1/2"), (2, 3, "1/2"), (3, 4, "1/2"), (1, 4, "0.8")],
            [(1, 3, 4)],
            task=(1, 4),
        )

    def test_far_knowledge_propagates_through_the_walk(self, scout_far_ahead):
        solver = ExactSolver(scout_far_ahead)
        assert solver.success((1, 2), know(e_3_4=UP)) == Fraction(1, 4)
        assert solver.success((1, 2), know(e_3_4=DOWN)) == 0

    def test_first_move_flips_with_the_far_status(self, scout_far_ahead):
        solver = ExactSolver(scout_far_ahead)
        assert solver.next_move(1, know(e_3_4=UP)) == (1, 2)
        assert solver.next_move(1, know(e_3_4=DOWN)) == (1, 4)


class TestOptimalSet:
    def test_detour_wins_when_far_edge_up(self, lookout_triangle):
        assert ExactSolver(lookout_triangle).optimal_set(1, know(e_2_3=UP)) == {(1, 2)}

    def test_direct_wins_when_far_edge_down(self, lookout_triangle):
        assert ExactSolver(lookout_triangle).optimal_set(1, know(e_2_3=DOWN)) == {(1, 3)}

    def test_ties_are_preserved(self):
        inst = Instance.build(
            4,
            [(1, 2, "1/2"), (1, 3, "1/2"), (2, 4, "0"), (3, 4, "0")],
            [],
            task=(1, 4),
        )
        assert ExactSolver(inst).optimal_set(1) == {(1, 2), (1, 3)}

    def test_empty_at_dead_end(self, lookout_triangle):
        assert ExactSolver(lookout_triangle).optimal_set(2, know(e_2_3=DOWN)) == frozenset()

    def test_known_down_excluded_even_at_dead_end(self):
        inst = Instance.build(2, [(1, 2, "1/2")], [], task=(1, 2))
        assert ExactSolver(inst).optimal_set(1, know(e_1_2=DOWN)) == frozenset()

    def test_no_decision_at_destination(self, lookout_triangle):
        with pytest.raises(ValueError):
            ExactSolver(lookout_triangle).optimal_set(3)


class TestTiebreak:
    def test_highest_head_wins(self):
        assert tiebreak({(1, 2), (1, 3)}) == (1, 3)

    def test_singleton(self):
        assert tiebreak({(1, 2)}) == (1, 2)

    def test_order_does_not_matter(self):
        assert tiebreak([(2, 4), (2, 3)]) == (2, 4)
        assert tiebreak([(2, 3), (2, 4)]) == (2, 4)

    def test_empty_candidates(self):
        with pytest.raises(EmptyCandidates):
            tiebreak([])


class TestDecide:
    def test_takes_detour_when_far_edge_up(self, lookout_triangle):
        query = DecisionQuery(lookout_triangle, (1, 2), know(e_2_3=UP))
        assert decide(query) is True

    def test_refuses_detour_when_far_edge_down(self, lookout_triangle):
        query = DecisionQuery(lookout_triangle, (1, 2), know(e_2_3=DOWN))
        assert decide(query) is False

    def test_prefers_direct_edge_without_sight(self, triangle_plain):
        assert decide(DecisionQuery(triangle_plain, (1, 3))) is True
        assert decide(DecisionQuery(triangle_plain, (1, 2))) is False

    def test_query_must_cover_visible_edges(self, lookout_triangle):
        with pytest.raises(IncompleteKnowledge):
            DecisionQuery(lookout_triangle, (1, 2))

    def test_query_edge_must_leave_start(self, lookout_triangle):
        with pytest.raises(ValueError):
            DecisionQuery(lookout_triangle, (2, 3), know(e_2_3=UP))

    def test_query_edge_must_exist(self, lookout_triangle):
        with pytest.raises(UnknownEdge):
            DecisionQuery(lookout_triangle, (1, 9), know(e_2_3=UP))

    def test_at_most_one_first_edge_selected(self, lookout_triangle, scouted_fork):
        # decide picks exactly the edge that a twin solver's next_move takes,
        # and no edge at all where the walker halts at the start
        tie = Instance.build(3, [(1, 2, "1/2"), (1, 3, "1/2"), (2, 3, "0")], [], task=(1, 3))
        suite = [lookout_triangle, scouted_fork, tie, *generate_suite(GeneratorConfig(seed=3), 10)]
        halts = picks = 0
        for mode in ("rational", "float"):
            for inst in suite:
                solver, twin = ExactSolver(inst, mode=mode), ExactSolver(inst, mode=mode)
                for k, weight in initial_scenarios(inst):
                    if not weight:
                        continue
                    chosen = [
                        e
                        for e in inst.out_edges(inst.start)
                        if solver.decide(DecisionQuery(inst, e, k))
                    ]
                    move = twin.next_move(inst.start, k)
                    assert chosen == ([] if move is None else [move])
                    halts += move is None
                    picks += move is not None
        assert halts > 0 and picks > 0

    def test_decide_rejects_foreign_instance(self, lookout_triangle, triangle_plain):
        query = DecisionQuery(triangle_plain, (1, 3))
        with pytest.raises(ValueError):
            ExactSolver(lookout_triangle).decide(query)


class TestNextMove:
    def test_detour(self, lookout_triangle):
        assert ExactSolver(lookout_triangle).next_move(1, know(e_2_3=UP)) == (1, 2)

    def test_halt_when_only_exit_is_down(self, lookout_triangle):
        assert ExactSolver(lookout_triangle).next_move(2, know(e_2_3=DOWN)) is None

    def test_scout_reroutes(self, scouted_fork):
        move = ExactSolver(scouted_fork).next_move(2, know(e_2_3=DOWN, e_2_4=UP))
        assert move == (2, 4)

    def test_next_move_is_cached_but_stable(self, scouted_fork):
        solver = ExactSolver(scouted_fork)
        first = solver.next_move(1)
        assert solver.next_move(1) == first == (1, 2)


def _chain(n: int) -> Instance:
    return Instance.build(n, [(i, i + 1, "1/2") for i in range(1, n)], [], task=(1, n))


class TestDepth:
    def test_a_300_vertex_chain_solves(self):
        solver = ExactSolver(_chain(300))
        assert solver.root_value() == Fraction(1, 2**299)
        assert solver.next_move(1) == (1, 2)

    def test_a_1000_vertex_chain_raises_a_typed_error(self):
        solver = ExactSolver(_chain(1000))
        with pytest.raises(SearchTooDeep) as raised:
            solver.root_value()
        assert isinstance(raised.value, ModelError)
        with pytest.raises(SearchTooDeep):
            solver.success((1, 2))


@pytest.mark.parametrize(
    "make, kind, table",
    [
        (lambda inst: ExactSolver(inst), int, "scaled"),
        (lambda inst: ApproxSolver(inst, ApproxConfig(1, 8)), Fraction, "fraction"),
        (lambda inst: ExactSolver(inst, mode="float"), float, "float"),
    ],
    ids=["scaled", "fraction", "float"],
)
def test_nothing_to_reveal_is_one_branch_of_weight_one(make, kind, table):
    inst = _chain(3)
    solver = make(inst)
    branches, denominator = solver._branches(0)
    assert (branches, denominator) == (((0, 0, 1),), 1)
    assert type(branches[0][2]) is kind
    assert _tables(inst.numbering, table)[4] == {0: (branches, denominator)}


class TestMemo:
    def test_chain_uses_one_entry_per_edge(self, chain_four):
        solver = ExactSolver(chain_four)
        solver.success((1, 2))
        stats = solver.memo_stats()
        assert stats.entries == 3
        assert stats.entries <= len(chain_four.edges)

    def test_triangle_stays_within_edge_count(self, triangle_plain):
        solver = ExactSolver(triangle_plain)
        solver.success((1, 2))
        assert solver.memo_stats().entries <= 3

    def test_repeat_query_hits_cache(self, scouted_fork):
        solver = ExactSolver(scouted_fork)
        solver.success((1, 2))
        stats = solver.memo_stats()
        solver.success((1, 2))
        again = solver.memo_stats()
        assert again.hits > stats.hits
        assert again.entries == stats.entries

    def test_memo_keys_hold_only_cone_knowledge(self, scouted_fork):
        solver = ExactSolver(scouted_fork)
        solver.success((1, 2), know(e_1_5=UP))
        for edge, items in solver.memo_keys():
            cone = scouted_fork.forward_cone(edge[0])
            assert all(pair in cone for pair, _ in items)


class TestNoSightClosedForm:
    @settings(max_examples=40, deadline=None)
    @given(
        st.builds(
            generate_instance,
            st.builds(GeneratorConfig, seed=st.integers(0, 2**32), sight_density=st.just(0.0)),
            index=st.integers(0, 7),
        )
    )
    def test_value_is_best_path_product(self, inst):
        from sightpath import max_product_values

        solver = ExactSolver(inst)
        assert solver.root_value() == max_product_values(inst)[inst.start]


class TestFloatMode:
    def test_matches_rational_on_fixture(self, lookout_triangle):
        exact = ExactSolver(lookout_triangle)
        floaty = ExactSolver(lookout_triangle, mode="float")
        assert floaty.success((1, 2), know(e_2_3=UP)) == pytest.approx(
            float(exact.success((1, 2), know(e_2_3=UP)))
        )
        assert floaty.next_move(1, know(e_2_3=UP)) == exact.next_move(1, know(e_2_3=UP))

    def test_near_ties_collapse_within_tolerance(self):
        inst = Instance.build(
            4,
            [(1, 2, "1/2"), (1, 3, "1/2"), (2, 4, "0"), (3, 4, "0")],
            [],
            task=(1, 4),
        )
        solver = ExactSolver(inst, mode="float")
        assert solver.optimal_set(1) == {(1, 2), (1, 3)}
        assert solver.next_move(1) == (1, 3)

    def test_an_exact_tie_that_floats_round_apart(self):
        # 3/100 = 3/100 * 1 = 3/10 * 1/10, but the float products differ in
        # the last place: without the guard float mode would take 1-2
        inst = Instance.build(
            4, [(1, 2, "0.97"), (2, 4, "0"), (1, 3, "0.7"), (3, 4, "0.9")], [], task=(1, 4)
        )
        rational = ExactSolver(inst).candidate_successes(1)
        assert rational == [((1, 2), Fraction(3, 100)), ((1, 3), Fraction(3, 100))]
        floats = ExactSolver(inst, mode="float").candidate_successes(1)
        assert [value.hex() for _, value in floats] == [
            "0x1.eb851eb851ec0p-6", "0x1.eb851eb851eb8p-6",
        ]
        for mode in ("rational", "float"):
            assert ExactSolver(inst, mode=mode).next_move(1) == (1, 3)

    def test_mode_is_validated(self, triangle_plain):
        with pytest.raises(ValueError):
            ExactSolver(triangle_plain, mode="decimal")

    @settings(max_examples=60, deadline=None)
    @given(
        st.builds(
            generate_instance,
            st.builds(
                GeneratorConfig,
                n_max=st.integers(3, 8),
                sight_density=st.sampled_from((0.3, 0.6)),
                p_palette=st.just(("0", "1/3", "2/3", "0.1", "0.7", "1/7", "4/7", "1")),
                seed=st.integers(0, 2**32),
            ),
            index=st.integers(0, 7),
        )
    )
    def test_float_mode_equals_rational_mode_within_tol(self, inst):
        exact = ExactSolver(inst)
        floaty = ExactSolver(inst, mode="float")
        for knowledge, weight in initial_scenarios(inst):
            if weight == 0:
                continue
            rational = exact.candidate_successes(inst.start, knowledge)
            floats = floaty.candidate_successes(inst.start, knowledge)
            assert [edge for edge, _ in floats] == [edge for edge, _ in rational]
            for (_, approximate), (_, value) in zip(floats, rational):
                assert abs(approximate - value) <= 1e-12
            move = floaty.next_move(inst.start, knowledge)
            assert (move is None) == (exact.next_move(inst.start, knowledge) is None)
            if move is not None:
                values = dict(rational)
                assert max(values.values()) - values[move] <= FLOAT_TIE

    def test_float_tables_are_the_rounded_fractions_bit_for_bit(self):
        # thirds, tenths and sevenths have no exact float, so each table
        # entry is a rounding that must match Fraction.__float__'s
        branches = 0
        for inst in generate_suite(SIGHTED, 100):
            solver = ExactSolver(inst, mode="float")
            for knowledge, _ in initial_scenarios(inst):
                solver.root_value(knowledge)
            edges = inst.numbering
            assert [c.hex() for c, _ in solver._cross] == [(1.0 - float(p)).hex() for p in edges.p_fail]
            assert solver._branch_table is _tables(edges, "float")[4]
            for fresh, (table, _) in solver._branch_table.items():
                if not fresh:
                    continue
                denominator, scenarios = edges.scenarios(fresh)
                want = [float(Fraction(num, denominator)).hex() for _, num in scenarios if num]
                assert [weight.hex() for _, _, weight in table] == want
                branches += len(table)
        assert branches > 300


# the default palette and one whose thirds, tenths and sevenths have no exact float
PALETTES = [("0", "1/4", "1/2", "3/4", "1"), ("1/3", "0.1", "0.05", "2/7", "0", "1")]
any_palette = st.builds(
    generate_instance,
    st.builds(GeneratorConfig, seed=st.integers(0, 2**32), p_palette=st.sampled_from(PALETTES)),
    index=st.integers(0, 7),
)
# a solver in each of the three modes of arithmetic, under its _tables kind:
# common-denominator ints, Fractions (a substituting cache) and floats
SOLVERS = {
    "scaled": ExactSolver,
    "fraction": lambda inst: ApproxSolver(inst, ApproxConfig(1, 8)),
    "float": lambda inst: ExactSolver(inst, mode="float"),
}
SIGHTED = GeneratorConfig(n_min=5, n_max=10, sight_density=0.4, p_palette=PALETTES[1], seed=5)


def _small_sighted():
    # an 8-entry substituting cache takes seconds on the suite's largest instances
    return [inst for inst in generate_suite(SIGHTED, 100) if len(inst.edges) <= 20]


class TestPerInstanceTables:
    """What a solver reads from the instance's numbering is the same for every
    solver built on it, and the numbering's knowledge states are canonical."""

    @pytest.mark.parametrize("mode", sorted(SOLVERS))
    @settings(max_examples=40, deadline=None)
    @given(inst=any_palette)
    def test_an_unseen_edge_crosses_with_one_minus_p(self, mode, inst):
        solver = SOLVERS[mode](inst)
        p_fail = inst.numbering.p_fail
        assert len(solver._cross) == len(p_fail)
        for (crossing, scale), p in zip(solver._cross, p_fail):
            if mode == "scaled":
                assert scale == p.denominator and Fraction(crossing, scale) == 1 - p
            elif mode == "fraction":
                assert (type(crossing), crossing, scale) == (Fraction, 1 - p, None)
            else:
                assert (crossing.hex(), scale) == ((1.0 - float(p)).hex(), None)

    @pytest.mark.parametrize("mode", sorted(SOLVERS))
    @settings(max_examples=40, deadline=None)
    @given(inst=any_palette)
    def test_a_second_solver_on_the_instance_repeats_the_first(self, mode, inst):
        start = inst.start
        scenarios = [k for k, weight in initial_scenarios(inst) if weight]

        def run():
            solver = SOLVERS[mode](inst)
            answers = [(solver.next_move(start, k), solver.root_value(k)) for k in scenarios]
            stats = solver.report if mode == "fraction" else solver.memo_stats()
            return answers, stats

        first = run()
        assert run() == first
        if mode == "fraction":
            return  # a substituted value need not be exact
        for knowledge, (_, value) in zip(scenarios, first[0]):
            want = oracle_value(inst, start, knowledge)
            if mode == "scaled":
                assert value == want
            else:
                assert abs(value - float(want)) <= 1e-12

    @pytest.mark.parametrize("mode", sorted(SOLVERS))
    def test_a_second_solver_enumerates_no_reveal_branch_the_first_met(self, mode, monkeypatch):
        calls = []
        scenarios = EdgeNumbering.scenarios

        def counted(edges, mask):
            calls.append(mask)
            return scenarios(edges, mask)

        met = 0
        for inst in _small_sighted():
            starts = [k for k, weight in initial_scenarios(inst) if weight]
            first = SOLVERS[mode](inst)
            answers = [first.root_value(k) for k in starts]
            met += sum(1 for fresh in first._branch_table if fresh)
            with monkeypatch.context() as patch:
                patch.setattr(EdgeNumbering, "scenarios", counted)
                second = SOLVERS[mode](inst)
                assert [second.root_value(k) for k in starts] == answers
            assert calls == []
            assert second._branch_table is first._branch_table
            assert first._branch_table is _tables(inst.numbering, mode)[4]
        assert met > 80

    def test_each_arithmetic_keeps_its_own_branch_table(self):
        # the order matters: a table shared across arithmetics would hand the
        # float weights of the first solver to the int solvers after it
        makers = [
            (lambda inst: ExactSolver(inst, mode="float"), float),
            (ExactSolver, int),
            (lambda inst: ApproxSolver(inst, ApproxConfig(1, 8)), Fraction),
            (lambda inst: ApproxSolver(inst, ApproxConfig(0, 8)), int),
        ]
        weights = 0
        for inst in _small_sighted():
            starts = [k for k, weight in initial_scenarios(inst) if weight]
            text = serialize_instance(inst)
            tables = []
            for make, kind in makers:
                # the same solver on an equal instance whose numbering only it uses
                alone = parse_instance(text)
                assert alone == inst and alone.numbering is not inst.numbering
                solver, twin = make(inst), make(alone)
                assert [solver.root_value(k) for k in starts] == [twin.root_value(k) for k in starts]
                for branches, _ in solver._branch_table.values():
                    assert all(type(weight) is kind for _, _, weight in branches)
                    weights += len(branches)
                tables.append(solver._branch_table)
            assert tables[1] is tables[3]
            assert len({id(table) for table in tables}) == 3
        assert weights > 1000

    @settings(max_examples=50, deadline=None)
    @given(instances, st.data())
    def test_the_numberings_knowledge_states_are_canonical(self, inst, data):
        v = data.draw(st.sampled_from(sorted(inst.vertices)), label="vertex")
        knowledge = knowledge_for(inst, data)
        states = [k for k, _ in initial_scenarios(inst)]
        states += [k for k, _ in reveal_distribution(inst, v, knowledge)]
        for state in states:
            again = Knowledge(state.as_dict())
            assert state == again and hash(state) == hash(again)
            for pair, status in state.items():
                assert (type(pair), type(pair[0]), type(pair[1]), type(status)) == (
                    tuple, int, int, Status
                )


FOREIGN = Knowledge({(2, 3): UP, (7, 8): DOWN})


class TestOneKnowledgeCheck:
    """Every entry point that takes knowledge rejects a foreign edge the same way."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda inst: ExactSolver(inst).next_move(1, FOREIGN),
            lambda inst: ExactSolver(inst).root_value(FOREIGN),
            lambda inst: ExactSolver(inst).memo_key((1, 2), FOREIGN),
            lambda inst: ExactSolver(inst).success((1, 2), FOREIGN),
            lambda inst: ApproxSolver(inst).next_move(1, FOREIGN),
            lambda inst: reveal_distribution(inst, 1, FOREIGN),
            lambda inst: candidate_values(inst, 1, FOREIGN),
            lambda inst: DecisionQuery(inst, (1, 2), FOREIGN),
        ],
        ids=[
            "next_move", "root_value", "memo_key", "success", "approx-next_move",
            "reveal_distribution", "candidate_values", "DecisionQuery",
        ],
    )
    def test_foreign_edge_in_knowledge(self, lookout_triangle, call):
        with pytest.raises(UnknownEdge, match="^knowledge references missing edge 7-8$"):
            call(lookout_triangle)

    @pytest.mark.parametrize(
        "call",
        [
            lambda inst: ExactSolver(inst).memo_key((2, 9), EMPTY_KNOWLEDGE),
            lambda inst: ExactSolver(inst).success((2, 9)),
            lambda inst: DecisionQuery(inst, (2, 9)),
        ],
        ids=["memo_key", "success", "DecisionQuery"],
    )
    def test_foreign_edge_queried(self, lookout_triangle, call):
        with pytest.raises(UnknownEdge, match="^edge 2-9 is not in the instance$"):
            call(lookout_triangle)

    def test_memo_key_names_the_entry_success_stored(self, scouted_fork):
        solver = ExactSolver(scouted_fork)
        k = know(e_1_2=UP, e_2_3=DOWN, e_1_5=UP)
        solver.success((1, 2), k)
        key = solver.memo_key((1, 2), k)
        assert key in solver.memo_keys()
        assert key == ((1, 2), frozenset({((1, 2), UP), ((2, 3), DOWN)}))


def test_an_unpruned_dead_end_scores_zero_like_the_oracle():
    # vertex 3 lies past the destination 2 and has no way out
    inst = Instance.build(3, [(1, 2, "1/2"), (1, 3, "1/4")], task=(1, 2))
    scored = dict(ExactSolver(inst).candidate_successes(1))
    assert scored == {(1, 2): Fraction(1, 2), (1, 3): 0}
    assert dict(candidate_values(inst, 1)) == scored
    assert ExactSolver(inst).next_move(1) == (1, 2)


# every palette holds 1/3, and 0.1 and 0.05 add factors of 5, so an
# instance's common denominator is almost never a power of two
mixed_instances = st.builds(
    generate_instance,
    st.builds(
        GeneratorConfig,
        n_min=st.just(3),
        n_max=st.just(7),
        max_edges=st.just(10),
        p_palette=st.lists(
            st.sampled_from(["0.1", "0.05", "0", "1"]), max_size=4, unique=True
        ).map(lambda extra: ("1/3", *extra)),
        seed=st.integers(0, 2**32),
    ),
    index=st.integers(0, 7),
)


class TestIntegerArithmetic:
    """Rational mode computes on integer numerators over the instance's
    common denominator; the Fraction-based oracle must agree exactly."""

    @settings(max_examples=60, deadline=None)
    @given(mixed_instances, st.data())
    def test_every_candidate_equals_the_oracle(self, inst, data):
        statuses = {}
        for p in sorted(inst.pairs):
            choices = [None]
            if inst.p_fail(p) < 1:
                choices.append(UP)
            if inst.p_fail(p) > 0:
                choices.append(DOWN)
            status = data.draw(st.sampled_from(choices), label=f"status of {p}")
            if status is not None:
                statuses[p] = status
        knowledge = Knowledge(statuses)
        solvers = [ExactSolver(inst), ApproxSolver(inst, ApproxConfig(0, 1024))]
        for v in inst.vertices:
            if v == inst.dest or not inst.out_edges(v):
                continue
            want = candidate_values(inst, v, knowledge)
            for solver in solvers:
                assert solver.candidate_successes(v, knowledge) == want
        start_value = oracle_value(inst, inst.start, knowledge)
        for solver in solvers:
            assert solver.root_value(knowledge) == start_value


class TestPublicTypes:
    """Rational answers are Fractions and float answers floats, also on a
    dead end, a known-down edge and an edge that always fails."""

    # 1-3 always fails and ends at the dead end 3; 1 watches 2-4
    INSTANCE = Instance.build(
        4,
        [(1, 2, "1/3"), (1, 3, "1"), (1, 4, "0.05"), (2, 4, "0.1")],
        [(1, 2, 4)],
        task=(1, 4),
    )
    KNOWLEDGES = [
        know(e_2_4=UP),
        know(e_2_4=DOWN),
        know(e_2_4=DOWN, e_1_4=DOWN),  # 1-2 and 1-3 lead nowhere
        know(e_2_4=UP, e_1_2=DOWN, e_1_4=DOWN),  # only 1-3 is left
    ]

    @pytest.mark.parametrize("mode, kind", [("rational", Fraction), ("float", float)])
    def test_every_public_value(self, mode, kind):
        inst = self.INSTANCE
        for solver in (ExactSolver(inst, mode=mode), ApproxSolver(inst, mode=mode)):
            values = []
            for k in self.KNOWLEDGES:
                values.append(solver.root_value(k))
                values += [value for _, value in solver.candidate_successes(1, k)]
                values += [solver.success(pair, k) for pair in inst.pairs]
            if isinstance(solver, ApproxSolver):
                values.append(solver.approx_success((1, 3))[0])
            assert all(type(value) is kind for value in values)
            assert solver.candidate_successes(3) == []
            assert solver.root_value(self.KNOWLEDGES[0]) == kind(0.95 if kind is float else "19/20")
            assert solver.root_value(self.KNOWLEDGES[2]) == 0
            assert solver.root_value(self.KNOWLEDGES[3]) == 0
            assert solver.success((1, 4), self.KNOWLEDGES[2]) == 0
            assert solver.success((1, 3)) == 0
