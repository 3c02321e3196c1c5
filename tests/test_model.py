"""Model types, validation, pruning, sight and knowledge propagation."""

from __future__ import annotations

import dataclasses
import gc
import itertools
import pickle
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sightpath import (
    EMPTY_KNOWLEDGE,
    Edge,
    ExactSolver,
    GeneratorConfig,
    InconsistentKnowledge,
    Instance,
    Knowledge,
    NoPath,
    SightLine,
    Task,
    UnknownEdge,
    UnknownVertex,
    World,
    blind_value,
    generate_instance,
    observe,
    prune_extraneous,
    restrict,
    run_trials,
    sample_world,
    validate,
)
from sightpath.exact import _tables
from sightpath.generate import _draw
from sightpath.model import (
    MAX_EXPONENT,
    STRUCTURAL_RULES,
    EdgeNumbering,
    ModelError,
    as_probability,
)
from sightpath.oracle import value as oracle_value

from conftest import DOWN, UP, know


instances = st.builds(
    generate_instance,
    st.builds(GeneratorConfig, seed=st.integers(0, 2**32)),
    index=st.integers(0, 7),
)


class TestValidate:
    def test_triangle_is_ok(self, triangle_plain):
        assert validate(triangle_plain).ok

    def test_reversed_edge(self):
        inst = Instance.build(3, [(1, 2, "0.5"), (3, 2, "0.5"), (1, 3, "0.5")], [], (1, 3))
        report = validate(inst)
        assert not report.ok
        assert "tail<head" in report.rules()

    def test_observer_behind_edge(self):
        inst = Instance.build(3, [(1, 2, "0.5"), (2, 3, "0.5")], [(3, 1, 2)], (1, 3))
        report = validate(inst)
        assert "observer≤tail" in report.rules()

    def test_duplicate_edges(self):
        inst = Instance(
            3,
            (Edge(1, 2, "0.5"), Edge(1, 2, "0.25"), Edge(2, 3, "0.5")),
            (),
            Task(1, 3),
        )
        assert "duplicate-edge" in validate(inst).rules()

    def test_probability_out_of_range(self):
        inst = Instance.build(2, [(1, 2, "3/2")], [], (1, 2))
        assert "p-range" in validate(inst).rules()

    def test_task_bounds(self):
        inst = Instance.build(3, [(1, 2, "0.5")], [], (2, 2))
        assert "task-bounds" in validate(inst).rules()
        inst = Instance.build(3, [(1, 2, "0.5")], [], (1, 9))
        assert "task-bounds" in validate(inst).rules()

    def test_sight_of_missing_edge(self):
        inst = Instance.build(3, [(1, 2, "0.5"), (2, 3, "0.5")], [(1, 1, 3)], (1, 3))
        assert "unknown-edge" in validate(inst).rules()

    def test_edge_outside_vertex_range(self):
        inst = Instance.build(3, [(1, 2, "0.5"), (2, 7, "0.5")], [], (1, 3))
        assert "vertex-range" in validate(inst).rules()

    def test_vertex_count_must_be_positive(self):
        inst = Instance.build(0, [], [], (1, 2))
        assert "vertex-count" in validate(inst).rules()

    def test_sight_observer_outside_vertex_range(self):
        inst = Instance.build(3, [(1, 2, "0.5"), (2, 3, "0.5")], [(0, 2, 3)], (1, 3))
        report = validate(inst)
        assert report.rules() == {"vertex-range"}
        assert str(report.violations[0]) == "vertex-range: sight observer 0 leaves 1..3"

    def test_all_violations_reported_at_once(self):
        inst = Instance.build(3, [(3, 2, "2")], [(3, 3, 2)], (1, 3))
        rules = validate(inst).rules()
        assert {"tail<head", "p-range"} <= rules


class TestPrune:
    def test_drops_dangling_edge(self, triangle_plain):
        extended = Instance.build(
            4,
            [(1, 2, "1/2"), (2, 3, "1/2"), (1, 3, "0.3"), (2, 4, "1/2")],
            [],
            task=(1, 3),
        )
        pruned = prune_extraneous(extended)
        assert pruned.pairs == {(1, 2), (2, 3), (1, 3)}
        assert pruned.vertex_count == 4

    def test_idempotent(self, triangle_plain):
        assert prune_extraneous(triangle_plain) == triangle_plain
        once = prune_extraneous(triangle_plain)
        assert prune_extraneous(once) == once

    def test_no_path_raises(self):
        inst = Instance.build(3, [(1, 2, "0.5")], [], (1, 3))
        with pytest.raises(NoPath):
            prune_extraneous(inst)

    def test_sight_on_removed_edge_dropped(self):
        inst = Instance.build(
            4,
            [(1, 2, "1/2"), (2, 3, "1/2"), (2, 4, "1/2")],
            [(1, 2, 4), (1, 2, 3)],
            task=(1, 3),
        )
        pruned = prune_extraneous(inst)
        assert {s.edge for s in pruned.sights} == {(2, 3)}

    @settings(max_examples=60, deadline=None)
    @given(instances)
    def test_generated_instances_prune_to_valid(self, inst):
        assert validate(inst).ok
        assert prune_extraneous(inst) == inst


def _reachable(start, step):
    """Every vertex reachable from ``start`` along ``step``, by breadth-first search."""
    seen, frontier = {start}, [start]
    while frontier:
        frontier = [w for v in frontier for w in step.get(v, ()) if w not in seen]
        seen.update(frontier)
    return seen


class TestPruneAgainstSearch:
    """prune_extraneous on raw generator draws, against a forward and a
    backward breadth-first search written here."""

    @pytest.mark.parametrize("neighbor_sight", [False, True])
    def test_keeps_exactly_the_edges_between_the_two_searches(self, neighbor_sight):
        config = GeneratorConfig(
            n_min=2, n_max=9, sight_density=0.3, neighbor_sight_only=neighbor_sight
        )
        rng = random.Random(20261018)
        outcomes = set()
        for _ in range(300):
            inst = Instance.build(*_draw(config, rng, plant_path=False))
            succ, pred = {}, {}
            for e in inst.edges:
                succ.setdefault(e.tail, []).append(e.head)
                pred.setdefault(e.head, []).append(e.tail)
            forward = _reachable(inst.start, succ)
            if inst.dest not in forward:
                with pytest.raises(NoPath):
                    prune_extraneous(inst)
                outcomes.add("no path")
                continue
            backward = _reachable(inst.dest, pred)
            kept = {e.pair for e in inst.edges if e.tail in forward and e.head in backward}
            pruned = prune_extraneous(inst)
            assert pruned.pairs == kept
            assert pruned.sights == tuple(s for s in inst.sights if s.edge in kept)
            assert pruned.task == inst.task and pruned.vertex_count == inst.vertex_count
            outcomes.add("unchanged" if pruned == inst else "pruned")
        assert outcomes == {"no path", "pruned", "unchanged"}


class TestStructurallyInvalid:
    """Graph lookups on an instance that fails validate() raise ModelError."""

    @pytest.mark.parametrize(
        "edges, sights",
        [
            pytest.param([(1, 2, "1/2"), (3, 2, "1/2"), (2, 3, "1/2")], [], id="tail>head"),
            pytest.param([(1, 2, "1/2"), (2, 3, "1/2"), (2, 7, "1/2")], [], id="head>n"),
            pytest.param([(1, 2, "1/2"), (2, 3, "1/2"), (5, 6, "1/2")], [], id="tail>n"),
            pytest.param([(0, 2, "1/2"), (1, 2, "1/2"), (2, 3, "1/2")], [], id="tail<1"),
            pytest.param([(1, 2, "1/2"), (1, 2, "1/4"), (2, 3, "1/2")], [], id="duplicate"),
            pytest.param([(1, 2, "1/2"), (2, 3, "1/2")], [(4, 2, 3)], id="observer>n"),
            pytest.param([(1, 2, "1/2"), (2, 3, "1/2")], [(-1, 2, 3)], id="observer<1"),
            pytest.param([(1, 2, "3/2"), (2, 3, "1/2")], [], id="p>1"),
            pytest.param([(1, 2, "1/2"), (2, 3, "-1/2")], [], id="p<0"),
        ],
    )
    def test_every_lookup_raises_model_error(self, edges, sights):
        inst = Instance.build(3, edges, sights, (1, 3))
        assert not validate(inst).ok
        lookups = [
            lambda: inst.numbering,
            lambda: inst.pairs,
            lambda: inst.has_edge((1, 2)),
            lambda: inst.edge((1, 2)),
            lambda: inst.p_fail((1, 2)),
            lambda: inst.out_edges(1),
            lambda: inst.sight_of(1),
            lambda: inst.forward_cone(1),
            lambda: prune_extraneous(inst),
            lambda: ExactSolver(inst).root_value(),
            lambda: blind_value(inst),
            lambda: oracle_value(inst, 1),
            lambda: run_trials(inst, 10, 0),
        ]
        for lookup in lookups:
            with pytest.raises(ModelError, match="validate"):
                lookup()

    def test_the_error_names_the_first_structural_violation(self):
        inst = Instance.build(3, [(1, 2, "1/2"), (3, 2, "3/2")], [(2, 1, 2)], (3, 1))
        assert [v.rule for v in validate(inst).violations] == [
            "task-bounds", "tail<head", "p-range", "observer≤tail",
        ]
        with pytest.raises(ModelError) as caught:
            inst.numbering
        assert str(caught.value) == (
            "the instance is structurally invalid (tail<head: edge 3-2); validate() lists why"
        )

    @pytest.mark.parametrize(
        "vertex_count, sights, task, rules",
        [
            pytest.param(3, [(1, 1, 3)], (1, 3), {"unknown-edge"}, id="sight-of-missing-edge"),
            pytest.param(3, [(2, 1, 2)], (1, 3), {"observer≤tail"}, id="sight-behind-itself"),
            pytest.param(3, [], (3, 1), {"task-bounds"}, id="start>=dest"),
            pytest.param(3, [], (1, 5), {"task-bounds"}, id="dest>n"),
            pytest.param(0, [], (1, 2), {"vertex-count", "task-bounds"}, id="no-vertices"),
        ],
    )
    def test_a_non_structural_finding_still_builds_a_numbering(
        self, vertex_count, sights, task, rules
    ):
        edges = [(1, 2, "1/2"), (2, 3, "1/4")] if vertex_count else []
        inst = Instance.build(vertex_count, edges, sights, task)
        assert validate(inst).rules() == rules
        assert rules.isdisjoint(STRUCTURAL_RULES)
        assert inst.numbering.pairs == tuple(e.pair for e in inst.edges)
        assert inst.pairs == {e.pair for e in inst.edges}

    def test_sight_of_a_missing_edge_is_ignored(self):
        inst = Instance.build(3, [(1, 2, "1/2"), (2, 3, "1/2")], [(1, 1, 3), (1, 2, 3)], (1, 3))
        assert validate(inst).rules() == {"unknown-edge"}
        assert inst.sight_of(1) == {(2, 3)}
        assert prune_extraneous(inst).sights == (SightLine(1, (2, 3)),)


def test_numbering_memory_does_not_grow_with_per_vertex_lists():
    n = 1_000_000
    inst = Instance.build(n, [(1, 2, "1/2"), (2, n, "1/3"), (1, n, "1/4")], [(1, 2, n)], (1, n))
    tracemalloc.start()
    try:
        edges = EdgeNumbering(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
    assert edges.out[1] == (0, 1) and edges.cone[1] == 0b111


def test_numbering_memory_follows_the_named_vertices_not_the_declared_count():
    inst = Instance.build(10**30, [(1, 2, "1/2")], [], (1, 2))
    tracemalloc.start()
    try:
        edges = EdgeNumbering(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert edges.out == [(), (0,), ()]


class TestUnnamedVertices:
    """A vertex of 1..n that no edge, sight or task names has nothing to look up."""

    # 3 lies below the largest named vertex, 5 and 9 beyond it
    INSTANCE = Instance.build(9, [(1, 2, "1/2"), (2, 4, "1/3")], [(1, 2, 4)], (1, 4))
    LOOKUPS = ["out_edges", "sight_of", "forward_cone"]

    @pytest.mark.parametrize("v", [3, 5, 9])
    def test_its_lookups_are_empty(self, v):
        assert [tuple(getattr(self.INSTANCE, name)(v)) for name in self.LOOKUPS] == [(), (), ()]

    @pytest.mark.parametrize("name", LOOKUPS)
    def test_a_vertex_past_n_is_unknown(self, name):
        with pytest.raises(UnknownVertex):
            getattr(self.INSTANCE, name)(10)


class TestSightOf:
    def test_watcher_sees_far_edge(self, lookout_triangle):
        assert lookout_triangle.sight_of(1) == {(2, 3)}

    def test_vertex_without_entries(self, lookout_triangle):
        assert lookout_triangle.sight_of(2) == frozenset()

    def test_scout_sees_both_exits(self, scouted_fork):
        assert scouted_fork.sight_of(2) == {(2, 3), (2, 4)}

    def test_unknown_vertex(self, lookout_triangle):
        with pytest.raises(UnknownVertex):
            lookout_triangle.sight_of(9)


class TestForwardCone:
    def test_single_onward_edge(self, lookout_triangle):
        assert lookout_triangle.forward_cone(2) == {(2, 3)}

    def test_start_sees_every_edge_when_pruned(self, lookout_triangle):
        assert lookout_triangle.forward_cone(1) == lookout_triangle.pairs

    def test_fork_tail(self, scouted_fork):
        assert scouted_fork.forward_cone(3) == {(3, 5)}

    def test_destination_cone_empty(self, scouted_fork):
        assert scouted_fork.forward_cone(scouted_fork.dest) == frozenset()

    @settings(max_examples=60, deadline=None)
    @given(instances)
    def test_pruned_cone_properties(self, inst):
        assert inst.forward_cone(inst.start) == inst.pairs
        assert inst.forward_cone(inst.dest) == frozenset()


class TestObserve:
    def test_single_entry(self, lookout_triangle):
        world = World({(1, 2): UP, (2, 3): DOWN, (1, 3): UP})
        k = observe(lookout_triangle, EMPTY_KNOWLEDGE, 1, world)
        assert k == know(e_2_3=DOWN)

    def test_vertex_that_sees_nothing(self, lookout_triangle):
        world = World({(1, 2): UP, (2, 3): DOWN, (1, 3): UP})
        k = know(e_2_3=DOWN)
        assert observe(lookout_triangle, k, 2, world) == k

    def test_two_entries(self, scouted_fork):
        world = World(
            {(1, 2): UP, (1, 5): UP, (2, 3): UP, (2, 4): DOWN, (3, 5): UP, (4, 5): UP}
        )
        k = observe(scouted_fork, EMPTY_KNOWLEDGE, 2, world)
        assert k == know(e_2_3=UP, e_2_4=DOWN)

    def test_inconsistent_knowledge_rejected(self, lookout_triangle):
        world = World({(1, 2): UP, (2, 3): DOWN, (1, 3): UP})
        with pytest.raises(InconsistentKnowledge):
            observe(lookout_triangle, know(e_2_3=UP), 1, world)

    @settings(max_examples=60, deadline=None)
    @given(instances, st.integers(0, 2**32), st.data())
    def test_monotone_and_idempotent(self, inst, seed, data):
        world = sample_world(inst, seed)
        v = data.draw(st.sampled_from(sorted(inst.vertices)))
        k1 = observe(inst, EMPTY_KNOWLEDGE, v, world)
        assert k1.known >= EMPTY_KNOWLEDGE.known
        assert observe(inst, k1, v, world) == k1
        w = data.draw(st.sampled_from(sorted(inst.vertices)))
        k2 = observe(inst, k1, w, world)
        assert k2.known >= k1.known


class TestRestrict:
    def test_projection(self):
        k = Knowledge({(2, 3): DOWN, (1, 2): UP})
        assert k.restrict({(2, 3)}) == know(e_2_3=DOWN)

    def test_empty_knowledge(self):
        assert EMPTY_KNOWLEDGE.restrict({(1, 2)}) == EMPTY_KNOWLEDGE

    def test_empty_cone(self):
        assert know(e_2_3=UP).restrict(set()) == EMPTY_KNOWLEDGE

    def test_idempotent(self):
        k = Knowledge({(2, 3): DOWN, (1, 2): UP, (1, 3): UP})
        cone = {(2, 3), (1, 3)}
        assert restrict(restrict(k, cone), cone) == restrict(k, cone)


class TestKnowledge:
    def test_conflicting_merge_raises(self):
        with pytest.raises(InconsistentKnowledge):
            know(e_1_2=UP).with_statuses({(1, 2): DOWN})

    def test_merging_same_value_is_fine(self):
        k = know(e_1_2=UP)
        assert k.with_statuses({(1, 2): UP}) == k

    def test_equality_and_hash(self):
        assert know(e_1_2=UP, e_2_3=DOWN) == Knowledge({(2, 3): DOWN, (1, 2): UP})
        assert hash(know(e_1_2=UP)) == hash(Knowledge({(1, 2): UP}))

    def test_repr_is_sorted(self):
        assert repr(know(e_2_3=DOWN, e_1_2=UP)) == "{1-2: up, 2-3: down}"

    def test_status_of_unknown_edge_is_none(self):
        assert know(e_1_2=UP).status((7, 8)) is None

    def test_rejects_non_status_values(self):
        with pytest.raises(TypeError):
            Knowledge({(1, 2): "up"})

    def test_it_is_a_sorted_container_of_edge_keys(self):
        k = Knowledge({(2, 3): UP, (1, 2): DOWN})
        assert len(k) == 2
        assert [2, 3] in k  # a list key is read as a pair
        assert (1, 3) not in k
        assert list(k) == [(1, 2), (2, 3)]


def _assignments(edges):
    """Every (up, down) pair of disjoint masks over ``edges``' edges."""
    count = len(edges.pairs)
    for digits in itertools.product(range(3), repeat=count):
        up = sum(1 << i for i, d in enumerate(digits) if d == 1)
        down = sum(1 << i for i, d in enumerate(digits) if d == 2)
        yield up, down


class TestKnowledgeMadeByTheNumbering:
    """``EdgeNumbering.knowledge`` skips ``Knowledge.__init__`` and carries its
    masks, for its own numbering only."""

    def test_it_is_the_knowledge_of_the_same_statuses(self, lookout_triangle):
        edges = lookout_triangle.numbering
        seen = set()
        for up, down in _assignments(edges):
            made = edges.knowledge(up, down)
            plain = Knowledge(edges.statuses(up, down))
            assert type(made) is Knowledge
            assert made == plain and plain == made and not made != plain
            assert hash(made) == hash(plain) and repr(made) == repr(plain)
            assert made.as_dict() == plain.as_dict() and made.items() == plain.items()
            assert made != World(edges.statuses(up, down))
            assert edges.masks(made) == edges.masks(plain) == (up, down)
            seen.add(made)
        assert len(seen) == 27 and Knowledge() in seen

    def test_another_numbering_walks_its_statuses(self, lookout_triangle):
        # lookout_triangle numbers 1-2, 1-3, 2-3; ``short`` lacks 1-3 and numbers 2-3 as 1
        short = Instance.build(3, [(1, 2, "0.1"), (2, 3, "0.5")], [], (1, 3))
        made = lookout_triangle.numbering.knowledge(0b010, 0)  # 1-3 up
        with pytest.raises(UnknownEdge, match="^knowledge references missing edge 1-3$"):
            short.numbering.masks(made)
        made = short.numbering.knowledge(0b10, 0b01)  # 2-3 up, 1-2 down
        assert lookout_triangle.numbering.masks(made) == (0b100, 0b001)
        # an equal instance has a numbering of its own, which walks too
        twin = Instance.build(3, [(1, 2, "0.1"), (2, 3, "0.5")], [], (1, 3))
        assert twin == short and twin.numbering is not short.numbering
        assert twin.numbering.masks(made) == (0b10, 0b01)

    def test_a_pickle_holds_the_statuses_alone(self, lookout_triangle):
        edges = lookout_triangle.numbering
        made = edges.knowledge(0b100, 0b001)
        data = pickle.dumps(made)
        back = pickle.loads(data)
        assert type(back) is Knowledge and back == made and back._owner is None
        assert data == pickle.dumps(Knowledge(made.as_dict()))
        assert b"EdgeNumbering" not in data and b"_owner" not in data
        assert edges.masks(back) == (0b100, 0b001)
        world = World(edges.statuses(0b101, 0b010))
        assert pickle.loads(pickle.dumps(world)) == world

    def test_the_knowledge_refers_to_no_numbering(self, lookout_triangle):
        made = lookout_triangle.numbering.knowledge(0b100, 0b001)
        referents = gc.get_referents(made)
        assert made._owner in referents and type(made._owner) is object
        assert not any(isinstance(r, (EdgeNumbering, Instance)) for r in referents)


    # pickled by a tree whose Knowledge had no __reduce__: its state is its slots
    LEGACY = {
        Knowledge: b"\x80\x04\x95V\x00\x00\x00\x00\x00\x00\x00\x8c\x0fsightpath.model\x94\x8c\tKnowledge"
        b"\x94\x93\x94)\x81\x94N}\x94\x8c\t_statuses\x94}\x94K\x01K\x02\x86\x94h\x00\x8c\x06Status"
        b"\x94\x93\x94\x8c\x02up\x94\x85\x94R\x94ss\x86\x94b.",
        World: b"\x80\x04\x95n\x00\x00\x00\x00\x00\x00\x00\x8c\x0fsightpath.model\x94\x8c\x05World"
        b"\x94\x93\x94)\x81\x94N}\x94\x8c\t_statuses\x94}\x94(K\x01K\x02\x86\x94h\x00\x8c\x06Status"
        b"\x94\x93\x94\x8c\x02up\x94\x85\x94R\x94K\x01K\x03\x86\x94h\t\x8c\x04down\x94\x85\x94R"
        b"\x94K\x02K\x03\x86\x94h\x0cus\x86\x94b.",
    }

    def test_a_pickle_of_its_slots_loads_through_the_checks(self, lookout_triangle):
        loaded = pickle.loads(self.LEGACY[Knowledge])
        plain = Knowledge({(1, 2): UP})
        assert type(loaded) is Knowledge and loaded == plain and loaded._owner is None
        solver = ExactSolver(lookout_triangle)
        assert solver.root_value(loaded) == solver.root_value(plain) == Fraction(4, 5)
        world = pickle.loads(self.LEGACY[World])
        assert world == World({(1, 2): UP, (1, 3): DOWN, (2, 3): UP}) and world._owner is None
        assert lookout_triangle.numbering.masks(world) == (0b101, 0b010)
        with pytest.raises(TypeError, match="must be a Status"):
            Knowledge.__new__(Knowledge).__setstate__((None, {"_statuses": {(1, 2): "up"}}))


def test_a_numbering_builds_each_table_once(lookout_triangle):
    edges = lookout_triangle.numbering
    names = ("p_fail_float", "denominator", "crossing_scaled", "starts")
    tables = [getattr(edges, name) for name in names]
    assert all(getattr(edges, name) is table for name, table in zip(names, tables))
    kinds = ("scaled", "float", "fraction")
    solver_tables = [_tables(edges, kind) for kind in kinds]
    assert all(_tables(edges, kind) is table for kind, table in zip(kinds, solver_tables))
    assert edges.arithmetics == dict(zip(kinds, solver_tables))
    assert solver_tables[0][2] is edges.crossing_scaled
    assert edges.denominator == 100 and edges.p_fail_float == (0.1, 0.2, 0.5)
    with pytest.raises(AttributeError, match="has no attribute 'cross'"):
        edges.cross


class TestWorld:
    def test_missing_edge(self):
        with pytest.raises(UnknownEdge):
            World({(1, 2): UP}).status((2, 3))

    def test_up_helper(self):
        world = World({(1, 2): UP, (2, 3): DOWN})
        assert world.up((1, 2)) and not world.up((2, 3))

    def test_a_world_is_a_knowledge_state_that_never_equals_one(self):
        statuses = {(1, 2): UP, (2, 3): DOWN}
        world, knowledge = World(statuses), Knowledge(statuses)
        assert isinstance(world, Knowledge)
        assert world != knowledge and knowledge != world
        assert not world == knowledge and not knowledge == world
        assert hash(world) == hash(knowledge)
        assert world == World({(2, 3): DOWN, (1, 2): UP})
        assert world.pairs == world.known == {(1, 2), (2, 3)}
        assert world.items() == knowledge.items()
        assert repr(world) == "World" + repr(knowledge) == "World{1-2: up, 2-3: down}"


class TestProbabilities:
    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            as_probability(0.25)

    def test_decimal_strings_are_exact(self):
        assert as_probability("0.1") == Fraction(1, 10)
        assert as_probability("1/3") == Fraction(1, 3)
        assert as_probability(1) == 1

    def test_instance_build_rejects_float_probability(self):
        with pytest.raises(TypeError):
            Instance.build(2, [(1, 2, 0.25)], [], (1, 2))

    @pytest.mark.parametrize(
        "literal", ["1e-4301", "1E+4301", "1e-99999999999", "0.5e-1_0000", " 1e-10000000 "]
    )
    def test_an_exponent_beyond_the_bound_is_refused_at_once(self, literal):
        began = time.perf_counter()
        with pytest.raises(ValueError) as caught:
            as_probability(literal)
        assert time.perf_counter() - began < 1
        assert str(caught.value) == f"probability literal {literal!r} has an exponent beyond 4300"

    def test_an_exponent_at_the_bound_is_read(self):
        assert MAX_EXPONENT == 4300
        assert as_probability("1e-4300") == Fraction(1, 10**4300)
        assert as_probability("1e-0000000000001") == Fraction(1, 10)
        assert as_probability("25e-2") == Fraction(1, 4)


def test_instance_canonical_order():
    a = Instance.build(3, [(2, 3, "1/2"), (1, 2, "1/2")], [(1, 2, 3), (1, 2, 3)], (1, 3))
    b = Instance.build(3, [(1, 2, "1/2"), (2, 3, "1/2")], [(1, 2, 3)], (1, 3))
    assert a == b


@settings(max_examples=60, deadline=None)
@given(
    edges=st.lists(
        st.tuples(
            st.integers(1, 4), st.integers(1, 4), st.sampled_from(["0", "1/4", "1/3", "1/2", "1"])
        ),
        max_size=10,
    ),
    sights=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)), max_size=10),
    rng=st.randoms(use_true_random=False),
)
def test_construction_sorts_in_the_dataclass_order(edges, sights, rng):
    edges = [Edge(t, h, p) for t, h, p in edges]
    sights = [SightLine(o, (t, h)) for o, t, h in sights]
    rng.shuffle(edges)
    rng.shuffle(sights)
    inst = Instance(4, tuple(edges), tuple(sights), Task(1, 4))
    assert inst.edges == tuple(sorted(edges))
    assert inst.sights == tuple(sorted(set(sights)))


def test_every_status_map_rejects_a_non_status_with_one_message():
    expected = "status for (1, 2) must be a Status, got 'up'"
    for build in (
        lambda: Knowledge({(1, 2): "up"}),
        lambda: EMPTY_KNOWLEDGE.with_statuses({(1, 2): "up"}),
        lambda: know(e_2_3=UP).with_statuses({(1, 2): "up"}),
        lambda: World({(1, 2): "up"}),
    ):
        with pytest.raises(TypeError) as caught:
            build()
        assert str(caught.value) == expected


@pytest.mark.parametrize(
    "pair",
    ["12", (1, 2, 3), (1.0, 2.0), (1,), 12, ("1", "2")],
    ids=["string", "triple", "floats", "single", "int", "digit-strings"],
)
def test_every_status_map_rejects_an_edge_key_that_is_not_two_integers(pair):
    expected = f"edge key {pair!r} must be a pair of two integers"
    for build in (
        lambda: Knowledge({pair: UP}),
        lambda: EMPTY_KNOWLEDGE.with_statuses({pair: UP}),
        lambda: know(e_2_3=UP).with_statuses({pair: UP}),
        lambda: World({pair: UP}),
        lambda: SightLine(1, pair),
    ):
        with pytest.raises(TypeError) as caught:
            build()
        assert str(caught.value) == expected


class _Id:
    """A vertex id of an integer type other than ``int``."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value


def _spelling(vertex: int, kind: str):
    return {"int": vertex, "index": _Id(vertex), "bool": bool(vertex), "float": float(vertex)}[kind]


class TestKnowledgeReadsItsItems:
    """A status map of canonical items is copied as it is; any other is read
    item by item, which reads each id as an int or refuses it."""

    statuses = st.dictionaries(
        st.tuples(st.integers(0, 9), st.integers(0, 9)), st.sampled_from([UP, DOWN]), min_size=1, max_size=6
    )

    @settings(max_examples=80, deadline=None)
    @given(statuses, st.data())
    def test_every_integer_id_is_read_as_an_int(self, statuses, data):
        spelled = {}
        for pair, status in statuses.items():
            kinds = [
                data.draw(st.sampled_from(["int", "index", "bool"] if v < 2 else ["int", "index"]))
                for v in pair
            ]
            spelled[tuple(map(_spelling, pair, kinds))] = status
        knowledge = Knowledge(spelled)
        assert knowledge == Knowledge(statuses) and knowledge.as_dict() == statuses
        assert {(type(t), type(h)) for t, h in knowledge.known} == {(int, int)}

    @settings(max_examples=80, deadline=None)
    @given(statuses, st.data())
    def test_a_float_id_or_a_status_of_another_type_is_refused(self, statuses, data):
        pair = data.draw(st.sampled_from(sorted(statuses)))
        bad = dict(statuses)
        if data.draw(st.booleans(), label="float id"):
            side = data.draw(st.integers(0, 1), label="side")
            key = tuple(_spelling(v, "float" if i == side else "int") for i, v in enumerate(pair))
            bad[key] = bad.pop(pair)
            expected = f"edge key {key!r} must be a pair of two integers"
        else:
            bad[pair] = data.draw(st.sampled_from(["up", "down", True, None, 1]), label="status")
            expected = f"status for {pair!r} must be a Status, got {bad[pair]!r}"
        for build in (Knowledge, World):
            with pytest.raises(TypeError) as caught:
                build(bad)
            assert str(caught.value) == expected


@pytest.mark.parametrize("value", [1.0, 2.9, "1", None], ids=["float", "fraction", "string", "none"])
@pytest.mark.parametrize(
    "field, build",
    [
        ("tail", lambda v: Edge(v, 3, "1/2")),
        ("head", lambda v: Edge(1, v, "1/2")),
        ("start", lambda v: Task(v, 3)),
        ("dest", lambda v: Task(1, v)),
        ("observer", lambda v: SightLine(v, (2, 3))),
        ("vertex_count", lambda v: Instance.build(v, [(1, 2, "1/2"), (2, 3, "1/2")], task=(1, 3))),
    ],
    ids=["edge-tail", "edge-head", "task-start", "task-dest", "sight-observer", "vertex-count"],
)
def test_every_vertex_id_must_be_an_integer(field, build, value):
    with pytest.raises(TypeError) as caught:
        build(value)
    assert str(caught.value) == f"{field} must be an integer, got {value!r}"


def test_an_integer_vertex_id_of_another_type_is_stored_as_an_int():
    edge, task, line = Edge(True, 2, "1/2"), Task(True, 2), SightLine(True, (True, 2))
    assert (edge, task, line) == (Edge(1, 2, "1/2"), Task(1, 2), SightLine(1, (1, 2)))
    assert {type(v) for v in (edge.tail, task.start, line.observer, *line.edge)} == {int}


@pytest.mark.parametrize(
    "record, field",
    [(Edge(1, 2, "1/2"), "p_fail"), (SightLine(1, (1, 2)), "edge"), (Task(1, 2), "dest")],
    ids=["edge", "sight-line", "task"],
)
def test_a_record_has_no_dict_and_refuses_assignment(record, field):
    assert not hasattr(record, "__dict__")
    before = getattr(record, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, field, 0)
    # Python 3.11 raises TypeError for a name that is not a field: the frozen
    # __setattr__ still names the class that slots=True replaced
    with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
        record.note = 0
    assert getattr(record, field) == before and not hasattr(record, "note")
    assert pickle.loads(pickle.dumps(record)) == record


def test_public_names_leave_only_on_purpose():
    import sightpath

    assert sorted(sightpath.__all__) == [
        "AgreementRow", "ApproxConfig", "ApproxSolver", "CacheReport", "DecisionQuery",
        "EMPTY_KNOWLEDGE", "Edge", "EdgePair", "EmptyCandidates", "ExactSolver",
        "GeneratorConfig", "IncompleteKnowledge", "InconsistentKnowledge", "Instance",
        "Knowledge", "MemoStats", "ModelError", "NoPath", "Outcome", "PolicyChoseKnownDown",
        "ScenarioCheck", "SearchTooDeep", "SightLine", "Status", "Task", "TooManyEdges",
        "TrialBatch", "TrialTrace", "UnknownEdge", "UnknownVertex", "ValidationReport",
        "Violation", "WORLD_CAP", "World", "WorldWeight", "agreement_report", "blind_value",
        "candidate_values", "cross_prob", "decide", "derive_seed", "enumerate_worlds",
        "find_greedy_gap", "first_move", "generate_instance", "generate_suite",
        "initial_scenarios", "is_gap_instance", "knowledge_distance", "max_product_values",
        "observe", "oracle_check", "policy_value", "prune_extraneous", "restrict",
        "reveal_distribution", "run_trials", "sample_world", "sight_blind_policy",
        "simulate_policy", "tiebreak", "validate", "value",
    ]
