"""File formats: exact probability round-trips, scenario parsing, formatting."""

from __future__ import annotations

from fractions import Fraction

import pytest

from sightpath import GeneratorConfig, World, generate_suite
from sightpath.io import (
    FileFormatError,
    format_probability,
    format_valuation,
    instance_to_dict,
    parse_edge_key,
    parse_instance,
    parse_scenario,
    serialize_instance,
    serialize_scenario,
)

from conftest import DOWN, UP, know


class TestInstanceRoundTrip:
    def test_fixture_round_trips(self, lookout_triangle):
        text = serialize_instance(lookout_triangle)
        assert parse_instance(text) == lookout_triangle
        assert serialize_instance(parse_instance(text)) == text

    def test_generated_instances_round_trip(self):
        for inst in generate_suite(GeneratorConfig(seed=8), 25):
            assert parse_instance(serialize_instance(inst)) == inst

    def test_thirds_survive_the_trip(self):
        doc = """
        {"vertices": 2,
         "edges": [{"tail": 1, "head": 2, "p_fail": "1/3"}],
         "task": {"start": 1, "dest": 2}}
        """
        inst = parse_instance(doc)
        assert inst.p_fail((1, 2)) == Fraction(1, 3)
        assert parse_instance(serialize_instance(inst)) == inst

    def test_sight_block_is_optional(self):
        doc = """
        {"vertices": 2,
         "edges": [{"tail": 1, "head": 2, "p_fail": "0.5"}],
         "task": {"start": 1, "dest": 2}}
        """
        assert parse_instance(doc).sights == ()


class TestInstanceParsing:
    def test_rejects_float_probabilities(self):
        doc = """
        {"vertices": 2,
         "edges": [{"tail": 1, "head": 2, "p_fail": 0.25}],
         "task": {"start": 1, "dest": 2}}
        """
        with pytest.raises(FileFormatError, match="p_fail"):
            parse_instance(doc)

    def test_rejects_bad_json(self):
        with pytest.raises(FileFormatError, match="JSON"):
            parse_instance("{nope")

    def test_rejects_missing_fields(self):
        with pytest.raises(FileFormatError, match="task"):
            parse_instance('{"vertices": 2, "edges": []}')

    @pytest.mark.parametrize("sight", ["5", "null", "{}", '"1-2"'])
    def test_rejects_a_sight_field_that_is_not_a_list(self, sight):
        doc = f"""
        {{"vertices": 2,
         "edges": [{{"tail": 1, "head": 2, "p_fail": "0.5"}}],
         "sight": {sight},
         "task": {{"start": 1, "dest": 2}}}}
        """
        with pytest.raises(FileFormatError, match="^instance.sight must be a list$"):
            parse_instance(doc)

    def test_rejects_non_numeric_probability_strings(self):
        doc = """
        {"vertices": 2,
         "edges": [{"tail": 1, "head": 2, "p_fail": "half"}],
         "task": {"start": 1, "dest": 2}}
        """
        with pytest.raises(FileFormatError, match="probability"):
            parse_instance(doc)


class TestScenarios:
    def test_parse_statuses(self, lookout_triangle):
        knowledge, world = parse_scenario('{"statuses": {"2-3": "up"}}', lookout_triangle)
        assert knowledge == know(e_2_3=UP)
        assert world is None

    def test_unknown_edge_is_rejected(self, lookout_triangle):
        with pytest.raises(FileFormatError, match="missing edge"):
            parse_scenario('{"statuses": {"1-9": "up"}}', lookout_triangle)

    @pytest.mark.parametrize(
        "statuses",
        ['{"2-3": "up", "02-3": "down"}', '{"2-3": "up", "2-3": "down"}'],
        ids=["two-spellings", "one-key-twice"],
    )
    def test_an_edge_named_twice_is_refused(self, lookout_triangle, statuses):
        with pytest.raises(FileFormatError) as caught:
            parse_scenario(f'{{"statuses": {statuses}}}', lookout_triangle)
        assert str(caught.value) == "scenario names edge 2-3 twice"

    def test_bad_status_word(self, lookout_triangle):
        with pytest.raises(FileFormatError, match="up.*down"):
            parse_scenario('{"statuses": {"2-3": "open"}}', lookout_triangle)

    def test_world_flag_requires_totality(self, lookout_triangle):
        with pytest.raises(FileFormatError, match="leaves edges unset"):
            parse_scenario('{"statuses": {"2-3": "up"}, "world": true}', lookout_triangle)

    def test_full_world_parses(self, lookout_triangle):
        doc = '{"statuses": {"1-2": "up", "2-3": "down", "1-3": "up"}, "world": true}'
        knowledge, world = parse_scenario(doc, lookout_triangle)
        assert world == World({(1, 2): UP, (2, 3): DOWN, (1, 3): UP})
        assert knowledge.known == lookout_triangle.pairs

    def test_scenario_round_trip(self, lookout_triangle):
        text = serialize_scenario(know(e_2_3=DOWN))
        knowledge, _ = parse_scenario(text, lookout_triangle)
        assert knowledge == know(e_2_3=DOWN)


class TestFormatting:
    @pytest.mark.parametrize(
        "fraction, text",
        [
            (Fraction(1, 4), "0.25"),
            (Fraction(1, 2), "0.5"),
            (Fraction(3, 10), "0.3"),
            (Fraction(0), "0"),
            (Fraction(1), "1"),
            (Fraction(1, 3), "1/3"),
            (Fraction(7, 40), "0.175"),
        ],
    )
    def test_probability_rendering(self, fraction, text):
        assert format_probability(fraction) == text
        assert Fraction(text) == fraction

    def test_valuation_shows_fraction_and_decimal(self):
        assert format_valuation(Fraction(27, 40)) == "27/40 (0.675)"

    def test_float_valuation(self):
        assert format_valuation(0.675) == "0.675"

    def test_edge_keys(self):
        assert parse_edge_key("2-3") == (2, 3)
        with pytest.raises(FileFormatError):
            parse_edge_key("2:3")
        with pytest.raises(FileFormatError):
            parse_edge_key("a-b")

    def test_instance_dict_uses_decimal_strings(self, lookout_triangle):
        doc = instance_to_dict(lookout_triangle)
        assert doc["edges"][0]["p_fail"] == "0.1"
