"""Seeded instance generator: determinism, bounds, structural validity."""

from __future__ import annotations

import pytest

from sightpath import (
    GeneratorConfig,
    generate_instance,
    generate_suite,
    prune_extraneous,
    validate,
)


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


def test_zero_density_plants_a_path():
    cfg = GeneratorConfig(edge_density=0.0, sight_density=0.0, seed=6, max_attempts=5)
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


def test_vertex_range_is_validated():
    with pytest.raises(ValueError):
        GeneratorConfig(n_min=1)
    with pytest.raises(ValueError):
        GeneratorConfig(n_min=5, n_max=4)


def test_planted_backbone_survives_a_small_edge_cap():
    for max_edges in (1, 2, 3):
        for seed in range(10):
            cfg = GeneratorConfig(
                n_min=6, n_max=6, edge_density=0, max_edges=max_edges, seed=seed
            )
            inst = generate_instance(cfg)
            assert validate(inst).ok
            assert 1 <= len(inst.edges) <= max_edges


def test_planted_backbone_keeps_other_edges_up_to_the_cap():
    # max_attempts=0 goes straight to the planted draw
    cfg = GeneratorConfig(n_min=9, n_max=9, edge_density=0.6, max_edges=4, max_attempts=0)
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
