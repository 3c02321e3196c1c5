"""Bounded similarity cache: reuse, eviction accounting, exact-mode equality."""

from __future__ import annotations

from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sightpath import (
    ApproxConfig,
    ApproxSolver,
    CacheReport,
    DecisionQuery,
    ExactSolver,
    GeneratorConfig,
    Instance,
    agreement_report,
    generate_instance,
    generate_suite,
    initial_scenarios,
    knowledge_distance,
    run_trials,
)
from sightpath.exact import _tables

from conftest import DOWN, UP, know


class TestConfig:
    def test_threshold_must_be_non_negative(self):
        with pytest.raises(ValueError):
            ApproxConfig(similarity_threshold=-1)

    def test_capacity_must_hold_something(self):
        with pytest.raises(ValueError):
            ApproxConfig(max_entries=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("similarity_threshold", float("nan")), ("similarity_threshold", 0.5),
            ("similarity_threshold", 1.0), ("max_entries", float("inf")), ("max_entries", 2.5),
            ("max_entries", "8"),
        ],
    )
    def test_a_setting_that_is_not_an_integer_is_refused(self, field, value):
        # a NaN threshold would act as threshold 0 yet keep Fraction values
        with pytest.raises(TypeError) as caught:
            ApproxConfig(**{field: value})
        assert str(caught.value) == f"{field} must be an integer, got {value!r}"

    def test_an_integer_setting_of_another_type_is_stored_as_an_int(self, chain_four):
        config = ApproxConfig(similarity_threshold=False, max_entries=_Eight())
        assert config == ApproxConfig(0, 8)
        assert type(config.similarity_threshold) is type(config.max_entries) is int
        # threshold zero keeps the common-denominator ints and their branch table
        solver = ApproxSolver(chain_four, config)
        assert solver._branch_table is _tables(chain_four.numbering, "scaled")[4]


class _Eight:
    def __index__(self):
        return 8


class TestKnowledgeDistance:
    def test_identical_maps(self):
        items = frozenset({((1, 2), UP)})
        assert knowledge_distance(items, items) == 0

    def test_unknown_versus_known_counts_one(self):
        assert knowledge_distance(frozenset(), frozenset({((1, 2), UP)})) == 1

    def test_up_versus_down_counts_one(self):
        a = frozenset({((1, 2), UP)})
        b = frozenset({((1, 2), DOWN)})
        assert knowledge_distance(a, b) == 1

    def test_disjoint_edges_add_up(self):
        a = frozenset({((1, 2), UP), ((2, 3), DOWN)})
        b = frozenset({((3, 4), UP)})
        assert knowledge_distance(a, b) == 3

    def test_items_in_any_iterable(self):
        a = (((1, 2), UP), ((2, 3), DOWN))
        b = [((1, 2), DOWN)]
        assert knowledge_distance(a, b) == 2
        assert knowledge_distance(list(a), tuple(b)) == 2
        assert knowledge_distance((), ()) == 0
        assert knowledge_distance((), b) == 1
        assert knowledge_distance([], frozenset()) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.builds(
            generate_instance,
            st.builds(GeneratorConfig, seed=st.integers(0, 2**32)),
            index=st.integers(0, 7),
        ),
        st.data(),
    )
    def test_masks_of_one_edge_give_the_distance_of_their_items(self, inst, data):
        edges = inst.numbering
        edge = data.draw(st.integers(0, len(edges.pairs) - 1), label="edge")
        keep = edges.key_mask[edge]

        def key_masks(label):
            known = data.draw(st.integers(0, keep), label=f"{label} known") & keep
            up = data.draw(st.integers(0, keep), label=f"{label} up") & known
            return up, known & ~up

        a, b = key_masks("a"), key_masks("b")
        items_a, items_b = (frozenset(edges.statuses(*masks).items()) for masks in (a, b))
        assert knowledge_distance(a, b) == knowledge_distance(items_a, items_b)


class TestThresholdZero:
    def test_equals_exact_on_the_lookout_triangle(self, lookout_triangle):
        approx = ApproxSolver(lookout_triangle, ApproxConfig(0))
        value, report = approx.approx_success((1, 2), know(e_2_3=UP))
        assert value == Fraction(9, 10)
        assert report.similar_hits == 0

    def test_equals_exact_even_with_a_tiny_cache(self):
        suite = generate_suite(GeneratorConfig(seed=11, max_edges=8, max_sights=3), 20)
        for inst in suite:
            exact = ExactSolver(inst)
            approx = ApproxSolver(inst, ApproxConfig(0, max_entries=2))
            for knowledge, weight in initial_scenarios(inst):
                if weight == 0:
                    continue
                assert approx.root_value(knowledge) == exact.root_value(knowledge)
                assert approx.next_move(inst.start, knowledge) == exact.next_move(
                    inst.start, knowledge
                )


class TestSimilarReuse:
    def test_worst_case_reuse_documents_the_gap(self, lookout_triangle):
        approx = ApproxSolver(lookout_triangle, ApproxConfig(similarity_threshold=1))
        assert approx.success((1, 2), know(e_2_3=UP)) == Fraction(9, 10)
        reused = approx.success((1, 2), know(e_2_3=DOWN))
        assert reused == Fraction(9, 10)  # exact answer would be 0
        assert approx.report.similar_hits == 1

    def test_the_nearest_then_the_most_recently_used_key_is_reused(self):
        # on this chain each status in edge 1-2's key changes its value, so a
        # similar hit's value names the cached key the scan picked; every key
        # below is more than the threshold from the others, so each is cached
        inst = Instance.build(
            5, [(1, 2, "1/7"), (2, 3, "1/2"), (3, 4, "1/3"), (4, 5, "1/5")], task=(1, 5)
        )
        near, far = know(e_2_3=UP), know(e_3_4=UP, e_4_5=UP)  # 1 and 2 from nothing known
        for order in ((near, far), (far, near)):
            approx = ApproxSolver(inst, ApproxConfig(2, 64))
            values = {knowledge: approx.success((1, 2), knowledge) for knowledge in order}
            assert values[near] != values[far]
            assert approx.success((1, 2)) == values[near]
        left, right = know(e_2_3=UP, e_3_4=UP), know(e_1_2=UP, e_4_5=UP)  # both 2 from nothing
        approx = ApproxSolver(inst, ApproxConfig(2, 64))
        values = {knowledge: approx.success((1, 2), knowledge) for knowledge in (left, right)}
        assert values[left] != values[right]
        assert approx.success((1, 2)) == values[right]
        assert approx.success((1, 2), left) == values[left]  # an exact hit uses left last
        assert approx.success((1, 2)) == values[left]

    def test_reuse_only_applies_to_the_same_edge(self, lookout_triangle):
        approx = ApproxSolver(lookout_triangle, ApproxConfig(similarity_threshold=3))
        approx.success((1, 2), know(e_2_3=UP))
        assert approx.success((1, 3), know(e_2_3=UP)) == Fraction(4, 5)

    def test_similar_hits_non_decreasing_in_threshold(self):
        suite = generate_suite(GeneratorConfig(seed=23, max_edges=9, max_sights=4), 40)

        def replay(threshold):
            total = 0
            for inst in suite:
                solver = ApproxSolver(inst, ApproxConfig(threshold, max_entries=10_000))
                for knowledge, weight in initial_scenarios(inst):
                    if weight == 0:
                        continue
                    for edge in inst.out_edges(inst.start):
                        solver.success(edge, knowledge)
                total += solver.report.similar_hits
            return total

        counts = [replay(t) for t in range(4)]
        assert counts == sorted(counts)
        assert counts[0] == 0


class TestEviction:
    def test_capacity_one_evicts_all_but_the_first_miss(self, chain_four):
        approx = ApproxSolver(chain_four, ApproxConfig(0, max_entries=1))
        approx.success((1, 2))  # three distinct keys along the chain
        report = approx.report
        assert report.evictions == report.misses - 1
        assert approx.cache_size == 1

    def test_cache_never_exceeds_capacity(self):
        suite = generate_suite(GeneratorConfig(seed=5, max_edges=9, max_sights=4), 15)
        for inst in suite:
            approx = ApproxSolver(inst, ApproxConfig(1, max_entries=4))
            for knowledge, weight in initial_scenarios(inst):
                if weight == 0:
                    continue
                approx.root_value(knowledge)
            assert approx.peak_cache_size <= 4

    @settings(max_examples=60, deadline=None)
    @given(
        st.builds(
            generate_instance,
            st.builds(GeneratorConfig, seed=st.integers(0, 2**32)),
            index=st.integers(0, 7),
        ),
        st.integers(0, 2),
        st.integers(1, 8),
    )
    def test_the_cache_never_shrinks_so_its_size_is_its_peak(self, inst, threshold, max_entries):
        approx = ApproxSolver(inst, ApproxConfig(threshold, max_entries))
        calls = [approx.root_value]
        calls += [partial(approx.next_move, v) for v in inst.vertices if v != inst.dest]
        calls += [partial(approx.success, pair) for pair in sorted(inst.pairs)]
        size = 0
        for knowledge, _ in initial_scenarios(inst):
            for call in calls:
                call(knowledge)
                assert size <= approx.cache_size <= max_entries
                assert approx.peak_cache_size == approx.cache_size
                size = approx.cache_size

    def test_least_recently_used_goes_first(self, chain_four):
        approx = ApproxSolver(chain_four, ApproxConfig(0, max_entries=2))
        approx.success((3, 4))
        approx.success((2, 3))  # cache: (3,4) then (2,3)
        approx.success((3, 4))  # touch (3,4); (2,3) is now the oldest
        before = approx.report.evictions
        approx.success((1, 2))  # needs all three: (2,3) must be recomputed
        assert approx.report.evictions > before
        assert approx.report.exact_hits >= 1


class TestAgreementReport:
    def test_threshold_zero_matches_everywhere(self):
        suite = generate_suite(GeneratorConfig(seed=31, max_edges=8, max_sights=3), 15)
        rows = agreement_report(suite, ApproxConfig(0))
        assert all(row.decision_match for row in rows)
        assert all(row.value_gap == 0 for row in rows)

    def test_no_sight_instances_cannot_be_confused(self, triangle_plain):
        rows = agreement_report([triangle_plain], ApproxConfig(similarity_threshold=5))
        assert rows[0].decision_match
        assert rows[0].value_gap == 0

    def test_gaps_are_reported_not_hidden(self):
        suite = generate_suite(GeneratorConfig(seed=23, max_edges=9, max_sights=4), 40)
        rows = agreement_report(suite, ApproxConfig(similarity_threshold=2))
        assert len(rows) == len(suite)
        assert all(row.value_gap >= 0 for row in rows)

    @pytest.mark.parametrize("mode, gap", [("rational", Fraction(3, 4)), ("float", 0.75)])
    def test_a_row_over_the_possible_start_scenarios_only(self, certain_lookouts, mode, gap):
        # six of the start's eight assignments have weight zero and are never asked
        (row,) = agreement_report([certain_lookouts], ApproxConfig(1, 4), mode=mode)
        assert row.decision_match is False
        assert row.value_gap == gap and type(row.value_gap) is type(gap)
        assert row.report == CacheReport(exact_hits=10, similar_hits=4, misses=8, evictions=4)


def test_a_substituted_value_keeps_its_exact_fraction():
    # 2 watches 3-5.  Once 3-5's value is cached with 3-5 unknown, asking from
    # 1-2 substitutes it where 3-5 is known, so the value of 1-2 carries a
    # second factor 7 that no single product over distinct edges has: it is
    # not a whole multiple of 1/154, the product of the edges' denominators.
    inst = Instance.build(
        5,
        [(1, 2, "1/11"), (2, 3, "0.5"), (3, 5, "3/7")],
        [(1, 2, 3), (2, 2, 3), (2, 3, 5)],
        task=(1, 5),
    )
    approx = ApproxSolver(inst, ApproxConfig(1, 64))
    assert approx.success((3, 5)) == Fraction(4, 7)
    assert approx.success((1, 2)) == Fraction(20, 49)  # recorded on the Fraction recursion
    assert approx.report == CacheReport(exact_hits=0, similar_hits=3, misses=4, evictions=0)


@pytest.mark.parametrize("mode, kind", [("rational", Fraction), ("float", float)])
def test_agreement_gaps_have_the_mode_type(mode, kind, triangle_plain, lookout_triangle):
    suite = [triangle_plain, lookout_triangle] + generate_suite(GeneratorConfig(seed=23, max_edges=9), 5)
    for config in (ApproxConfig(0), ApproxConfig(2, 4)):
        rows = agreement_report(suite, config, mode=mode)
        assert all(type(row.value_gap) is kind for row in rows)


def test_decide_answers_with_the_move_a_reused_solver_takes():
    # above threshold 0 a value depends on what the cache holds, so scoring
    # the start again after two batches can pick another edge than the one
    # the solver's policy took; decide answers with the policy's move
    config = GeneratorConfig(n_min=5, n_max=8, sight_density=0.4, max_edges=12, seed=5)
    inst = generate_instance(config, 40)
    solver = ApproxSolver(inst, ApproxConfig(1, 16))
    run_trials(inst, 60, 7, solver)
    run_trials(inst, 40, 8, solver)
    rescored = 0
    for knowledge, weight in initial_scenarios(inst):
        if not weight:
            continue
        move = solver.next_move(inst.start, knowledge)
        chosen = [
            e for e in inst.out_edges(inst.start) if solver.decide(DecisionQuery(inst, e, knowledge))
        ]
        assert chosen == ([] if move is None else [move])
        optimal = solver.optimal_set(inst.start, knowledge)
        rescored += move not in optimal
    assert rescored > 0
