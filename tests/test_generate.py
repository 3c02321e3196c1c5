"""Seeded instance generator: determinism, bounds, structural validity."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from sightpath import (
    ExactSolver,
    GeneratorConfig,
    Instance,
    NoPath,
    generate_instance,
    generate_suite,
    prune_extraneous,
    validate,
)
from sightpath import generate, model
from sightpath.generate import MAX_VERTICES, _draw
from sightpath.oracle import initial_scenarios
from sightpath.seeds import derive_seed

# the four streams the benchmark draws its pools from
BENCH_STREAMS = [
    dict(n_min=16, n_max=16, edge_density=0.5, sight_density=0.1, max_sights=12),
    dict(n_min=7, n_max=7, edge_density=0.8, sight_density=0.2, max_edges=15, max_sights=6),
    dict(n_min=10, n_max=10, edge_density=0.5, sight_density=0.15),
    dict(n_min=12, n_max=12, edge_density=0.5, sight_density=0.2, max_sights=10),
]

# (config, redraws): zero densities and 0 redraws reach the planted path; the
# caps and neighbor-only sight each change what the rng is asked for
GRID = [
    (GeneratorConfig(
        n_min=n_min, n_max=n_max, edge_density=edges, sight_density=sights,
        neighbor_sight_only=neighbor, max_edges=max_edges, max_sights=max_sights, seed=seed,
    ), attempts)
    for seed, (
        (n_min, n_max), edges, sights, neighbor, max_edges, max_sights, attempts
    ) in enumerate(itertools.product(
        [(2, 4), (5, 9)], [0.0, 0.5, 1.0], [0.0, 0.5], [False, True], [None, 3],
        [None, 2], [0, 200],
    ))
] + [
    (GeneratorConfig(seed=seed, **stream), generate.ATTEMPTS)
    for seed, stream in enumerate(BENCH_STREAMS)
]


def _whole_draw_then_prune(config, index, attempts):
    """The generator restated: build each whole draw, then prune_extraneous it."""
    rng = random.Random(derive_seed(config.seed, index))
    for _ in range(attempts):
        try:
            return prune_extraneous(Instance.build(*_draw(config, rng, plant_path=False)))
        except NoPath:
            continue
    return prune_extraneous(Instance.build(*_draw(config, rng, plant_path=True)))


def test_same_seed_same_instances():
    cfg = GeneratorConfig(seed=9)
    assert generate_suite(cfg, 10) == generate_suite(cfg, 10)


def test_different_seeds_differ():
    a = generate_suite(GeneratorConfig(seed=1), 10)
    b = generate_suite(GeneratorConfig(seed=2), 10)
    assert a != b


def test_instances_are_pruned_and_valid():
    for inst in generate_suite(GeneratorConfig(seed=3), 40):
        assert validate(inst).ok
        assert prune_extraneous(inst) == inst


def test_bounds_are_respected():
    cfg = GeneratorConfig(n_min=3, n_max=6, seed=4, max_edges=9, max_sights=4)
    for inst in generate_suite(cfg, 60):
        assert 3 <= inst.vertex_count <= 6
        assert len(inst.edges) <= 9
        assert len(inst.sights) <= 4
        palette = set(cfg.p_palette)
        assert all(e.p_fail in palette for e in inst.edges)


def test_neighbor_sight_only():
    cfg = GeneratorConfig(seed=5, sight_density=0.8, neighbor_sight_only=True)
    suite = generate_suite(cfg, 30)
    assert any(inst.sights for inst in suite)
    for inst in suite:
        assert all(s.observer == s.edge[0] for s in inst.sights)


def test_zero_density_plants_a_path(monkeypatch):
    monkeypatch.setattr(generate, "ATTEMPTS", 5)
    cfg = GeneratorConfig(edge_density=0.0, sight_density=0.0, seed=6)
    inst = generate_instance(cfg, 0)
    assert validate(inst).ok
    # the planted backbone is a single monotone path from 1 to n
    tails = [e.tail for e in inst.edges]
    heads = [e.head for e in inst.edges]
    assert tails[0] == 1 and heads[-1] == inst.vertex_count
    assert heads[:-1] == tails[1:]


def test_palette_is_validated():
    with pytest.raises(TypeError):
        GeneratorConfig(p_palette=(0.25,))
    with pytest.raises(ValueError):
        GeneratorConfig(p_palette=())


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_min", 3.0), ("n_max", 4.0), ("seed", 1.5), ("max_edges", 2.5), ("max_sights", 1.5),
    ],
)
def test_integer_settings_are_read_as_integers(field, value):
    with pytest.raises(TypeError) as caught:
        GeneratorConfig(**{field: value})
    assert str(caught.value) == f"{field} must be an integer, got {value!r}"


class _Three:
    def __index__(self):
        return 3


def test_an_integer_setting_of_another_integer_type_is_stored_as_an_int():
    config = GeneratorConfig(n_min=_Three(), n_max=4, seed=True, max_edges=None)
    assert (config.n_min, config.seed, config.max_edges) == (3, 1, None)
    assert type(config.n_min) is int and type(config.seed) is int
    plain = GeneratorConfig(n_min=3, n_max=4, seed=1)
    assert config == plain
    assert generate_instance(config, 0) == generate_instance(plain, 0)


def test_vertex_range_is_validated():
    with pytest.raises(ValueError):
        GeneratorConfig(n_min=1)
    with pytest.raises(ValueError):
        GeneratorConfig(n_min=5, n_max=4)


def test_a_vertex_count_too_large_to_draw_is_refused_before_any_draw():
    # the draw is cubic in n: 10**20 vertices would never end
    with pytest.raises(ValueError) as caught:
        GeneratorConfig(n_min=10**20, n_max=10**20)
    assert str(caught.value) == f"n_max must be at most {MAX_VERTICES}, got {10**20}"
    with pytest.raises(ValueError):
        GeneratorConfig(n_max=MAX_VERTICES + 1)
    largest = GeneratorConfig(n_min=MAX_VERTICES, n_max=MAX_VERTICES, sight_density=0.01)
    assert generate_instance(largest).vertex_count == MAX_VERTICES


def test_the_number_of_redraws_is_no_setting():
    # no command or workload set it: every generated instance redraws 200 times
    assert generate.ATTEMPTS == 200
    with pytest.raises(TypeError):
        GeneratorConfig(max_attempts=0)


@pytest.mark.parametrize("field", ["edge_density", "sight_density"])
@pytest.mark.parametrize("density", [float("nan"), -1.0, -0.01, 1.01, 2, float("inf")])
def test_a_density_outside_the_unit_interval_is_refused(field, density):
    with pytest.raises(ValueError) as caught:
        GeneratorConfig(**{field: density})
    assert str(caught.value) == f"{field} must lie in [0, 1], got {density!r}"


@pytest.mark.parametrize("density", [0, 0.0, 1, 1.0, Fraction(1, 3)])
def test_a_density_at_or_inside_the_bounds_is_kept(density):
    config = GeneratorConfig(edge_density=density, sight_density=density)
    assert (config.edge_density, config.sight_density) == (density, density)


def test_planted_backbone_survives_a_small_edge_cap():
    for max_edges in (1, 2, 3):
        for seed in range(10):
            cfg = GeneratorConfig(
                n_min=6, n_max=6, edge_density=0, max_edges=max_edges, seed=seed
            )
            inst = generate_instance(cfg)
            assert validate(inst).ok
            assert 1 <= len(inst.edges) <= max_edges


def test_planted_backbone_keeps_other_edges_up_to_the_cap(monkeypatch):
    monkeypatch.setattr(generate, "ATTEMPTS", 0)  # straight to the planted draw
    cfg = GeneratorConfig(n_min=9, n_max=9, edge_density=0.6, max_edges=4)
    suite = generate_suite(cfg, 10)
    for inst in suite:
        assert validate(inst).ok
        assert len(inst.edges) <= 4
    # some instance kept a sampled edge beside its single-path backbone
    assert any(len({e.tail for e in inst.edges}) < len(inst.edges) for inst in suite)


def test_edge_cap_must_allow_an_edge():
    with pytest.raises(ValueError, match="max_edges"):
        GeneratorConfig(max_edges=0)
    with pytest.raises(ValueError, match="max_edges"):
        GeneratorConfig(max_edges=-3)


def test_palette_entries_must_be_probabilities():
    for palette in (("2",), ("0", "-1/2"), ("3/2", "1/2")):
        with pytest.raises(ValueError, match="p_palette"):
            GeneratorConfig(p_palette=palette)
    assert GeneratorConfig(p_palette=("0", "1")).p_palette == (0, 1)


def test_sight_cap_must_not_be_negative():
    with pytest.raises(ValueError, match="max_sights"):
        GeneratorConfig(max_sights=-1)
    assert generate_instance(GeneratorConfig(seed=3, max_sights=0), 0).sights == ()


def test_a_negative_suite_count_is_refused():
    with pytest.raises(ValueError, match="count must not be negative"):
        generate_suite(GeneratorConfig(seed=1), -2)
    assert generate_suite(GeneratorConfig(seed=1), 0) == []


def test_each_instance_is_the_pruned_whole_draw(monkeypatch):
    for config, attempts in GRID:
        monkeypatch.setattr(generate, "ATTEMPTS", attempts)
        for index in range(6):
            expected = _whole_draw_then_prune(config, index, attempts)
            assert generate_instance(config, index) == expected


def test_generation_builds_no_numbering_and_no_report(monkeypatch):
    def refused(*args):
        raise AssertionError("generation built a numbering or a validation report")

    configs = [GeneratorConfig(seed=2, **stream) for stream in BENCH_STREAMS]
    configs.append(GeneratorConfig(edge_density=0.0, seed=2))  # all pathless: planted
    monkeypatch.setattr(model.EdgeNumbering, "__init__", refused)
    monkeypatch.setattr(model, "validate", refused)
    drawn = [generate_instance(config, index) for config in configs for index in range(5)]
    monkeypatch.undo()
    for inst in drawn:
        assert validate(inst).ok
        solver = ExactSolver(inst)
        for knowledge, weight in initial_scenarios(inst):
            if weight:
                assert 0 <= solver.root_value(knowledge) <= 1
