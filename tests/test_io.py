"""File formats: exact probability round-trips, scenario parsing, formatting."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sightpath import GeneratorConfig, Instance, Knowledge, generate_instance, generate_suite
from sightpath.io import (
    FileFormatError,
    _parse_p_fail,
    format_probability,
    format_valuation,
    instance_to_dict,
    parse_edge_key,
    parse_instance,
    parse_scenario,
    serialize_instance,
    serialize_scenario,
)

from conftest import DOWN, SOLVE_STREAM, UP, know


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

    def test_p_fail_outside_the_unit_interval_round_trips(self):
        # such an instance loads, so that validate can report it, and is written back
        inst = Instance.build(
            3, [(1, 2, "-0.05"), (2, 3, "-1/2"), (1, 3, "3/2")], task=(1, 3)
        )
        text = serialize_instance(inst)
        assert [e["p_fail"] for e in json.loads(text)["edges"]] == ["-0.05", "1.5", "-0.5"]
        assert text == json.dumps(instance_to_dict(inst), indent=2) + "\n"
        assert parse_instance(text) == inst
        assert serialize_instance(parse_instance(text)) == text

    def test_sight_block_is_optional(self):
        doc = """
        {"vertices": 2,
         "edges": [{"tail": 1, "head": 2, "p_fail": "0.5"}],
         "task": {"start": 1, "dest": 2}}
        """
        assert parse_instance(doc).sights == ()


class TestInstanceBytes:
    """``serialize_instance`` writes ``json.dumps(instance_to_dict(inst), indent=2)``
    and a newline, byte for byte."""

    @staticmethod
    def assert_json_bytes(inst):
        text = serialize_instance(inst)
        assert text == json.dumps(instance_to_dict(inst), indent=2) + "\n"
        assert parse_instance(text) == inst

    @pytest.mark.parametrize("sight_density", [0, 0.3])
    def test_generated_suites(self, sight_density):
        config = GeneratorConfig(
            n_min=2, n_max=14, sight_density=sight_density,
            p_palette=("0", "1/3", "0.35", "7/9", "1"), seed=17,
        )
        suite = generate_suite(config, 120)
        assert {inst.vertex_count for inst in suite} == set(range(2, 15))
        assert any(not inst.sights for inst in suite)
        assert sight_density == 0 or any(inst.sights for inst in suite)
        for inst in suite:
            self.assert_json_bytes(inst)

    def test_an_instance_without_edges(self):
        self.assert_json_bytes(Instance.build(2, [], task=(1, 2)))


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

    @pytest.mark.parametrize(
        "doc, key",
        [
            (
                '{"vertices": 2, "edges": [{"tail": 1, "head": 2, "p_fail": "0.9", "p_fail": "0.1"}],'
                ' "task": {"start": 1, "dest": 2}}',
                "p_fail",
            ),
            (
                '{"vertices": 3, "edges": [{"tail": 1, "head": 3, "p_fail": "0.5"}],'
                ' "task": {"start": 1, "dest": 3, "dest": 2}}',
                "dest",
            ),
            (
                '{"vertices": 2, "edges": [{"tail": 1, "head": 2, "p_fail": "0.5"}],'
                ' "sight": [], "task": {"start": 1, "dest": 2}, "sight": []}',
                "sight",
            ),
        ],
        ids=["edge-field", "task-field", "top-level-field"],
    )
    def test_a_repeated_key_is_refused(self, doc, key):
        with pytest.raises(FileFormatError) as caught:
            parse_instance(doc)
        assert str(caught.value) == f"the key {key!r} appears twice in one object"

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('"sight":', '"sights":', "instance has an unknown key 'sights'"),
            ('"dest":', '"destination": 3, "dest":', "task has an unknown key 'destination'"),
            ('"p_fail":', '"p_fial": "0.9", "p_fail":', "edges[0] has an unknown key 'p_fial'"),
            ('"observer":', '"obsrever": 2, "observer":', "sight[0] has an unknown key 'obsrever'"),
        ],
        ids=["top-level", "task", "edge", "sight"],
    )
    def test_an_unknown_key_is_refused(self, lookout_triangle, old, new, message):
        # a misspelt "sight" would load the triangle without its sight line
        doc = serialize_instance(lookout_triangle).replace(old, new)
        with pytest.raises(FileFormatError) as caught:
            parse_instance(doc)
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "edge, sight, message",
        [
            (
                '{"tail": 1, "head": 2, "p_fail": "0.5", "p_fial": "0.9"}',
                '{"observer": 1, "tail": 1, "head": 2, "obsrever": 2}',
                "edges[0] has an unknown key 'p_fial'",
            ),
            (
                '{"tail": 1, "head": 2, "p_fail": "0.5"}',
                '{"observer": 1, "tail": 1, "head": 2, "obsrever": 2}',
                "sight[0] has an unknown key 'obsrever'",
            ),
            (
                '{"tail": 1, "head": 2, "p_fial": "0.9"}',
                '{"observer": 1, "tail": 1, "head": 2}',
                "edges[0] has an unknown key 'p_fial'",
            ),
        ],
        ids=["both", "sight-only", "in-place-of-a-field"],
    )
    def test_a_misspelt_edge_or_sight_field_is_named(self, edge, sight, message):
        doc = (
            f'{{"vertices": 2, "edges": [{edge}], "sight": [{sight}],'
            ' "task": {"start": 1, "dest": 2}}'
        )
        with pytest.raises(FileFormatError) as caught:
            parse_instance(doc)
        assert str(caught.value) == message

    def test_a_huge_exponent_is_not_a_probability_literal(self):
        doc = """
        {"vertices": 2,
         "edges": [{"tail": 1, "head": 2, "p_fail": "1e-99999999999"}],
         "task": {"start": 1, "dest": 2}}
        """
        with pytest.raises(FileFormatError) as caught:
            parse_instance(doc)
        assert str(caught.value) == (
            "edges[0].p_fail value '1e-99999999999' is not a probability literal"
        )

    def test_rejects_non_numeric_probability_strings(self):
        doc = """
        {"vertices": 2,
         "edges": [{"tail": 1, "head": 2, "p_fail": "half"}],
         "task": {"start": 1, "dest": 2}}
        """
        with pytest.raises(FileFormatError, match="probability"):
            parse_instance(doc)


NOT_A_LITERAL = "edges[0].p_fail value {!r} is not a probability literal"
FLOAT_TEXT = 'edges[0].p_fail must be a decimal string such as "0.25" (floats lose exactness)'


@pytest.mark.parametrize(
    "raw, expected",
    [
        ("0.25", Fraction(1, 4)),
        ("1/4", Fraction(1, 4)),
        (" 1/2 ", Fraction(1, 2)),
        ("1e-1", Fraction(1, 10)),
        ("-0", Fraction(0)),
        (2, Fraction(2)),
        ("1/0", NOT_A_LITERAL.format("1/0")),
        ("nan", NOT_A_LITERAL.format("nan")),
        ("", NOT_A_LITERAL.format("")),
        (True, FLOAT_TEXT),
        (0.5, FLOAT_TEXT),
    ],
)
def test_a_literal_reads_the_same_twice(raw, expected):
    """The second read of a literal, served by the literal cache when the
    first succeeded, gives what the first gave."""
    for _ in range(2):
        if isinstance(expected, Fraction):
            got = _parse_p_fail(raw, "edges[0]")
            assert type(got) is Fraction and got == expected == Fraction(raw)
        else:
            with pytest.raises(FileFormatError) as caught:
                _parse_p_fail(raw, "edges[0]")
            assert str(caught.value) == expected


class TestScenarios:
    def test_parse_statuses(self, lookout_triangle):
        knowledge = parse_scenario('{"statuses": {"2-3": "up"}}', lookout_triangle)
        assert knowledge == know(e_2_3=UP)

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

    @pytest.mark.parametrize(
        "doc, key",
        [
            ('{"statuses": {"2-3": "up"}, "statuses": {"2-3": "down"}}', "statuses"),
            ('{"statuses": {"1-2": "up", "2-3": "up", "1-3": "up"},'
             ' "world": true, "world": false}', "world"),
        ],
        ids=["statuses", "world"],
    )
    def test_a_top_level_key_given_twice_is_refused(self, lookout_triangle, doc, key):
        with pytest.raises(FileFormatError) as caught:
            parse_scenario(doc, lookout_triangle)
        assert str(caught.value) == f"the key {key!r} appears twice in one object"

    def test_an_unknown_top_level_key_is_refused(self, lookout_triangle):
        # it would otherwise read as the empty knowledge
        with pytest.raises(FileFormatError) as caught:
            parse_scenario('{"statusses": {"2-3": "up"}}', lookout_triangle)
        assert str(caught.value) == "scenario has an unknown key 'statusses'"

    def test_bad_status_word(self, lookout_triangle):
        with pytest.raises(FileFormatError, match="up.*down"):
            parse_scenario('{"statuses": {"2-3": "open"}}', lookout_triangle)

    def test_scenario_round_trip(self, lookout_triangle):
        text = serialize_scenario(know(e_2_3=DOWN))
        assert parse_scenario(text, lookout_triangle) == know(e_2_3=DOWN)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 19), st.data())
    def test_any_knowledge_round_trips(self, index, data):
        # knowledge states over the edges of the solve benchmark's instances
        inst = generate_instance(SOLVE_STREAM, index)
        statuses = data.draw(
            st.dictionaries(st.sampled_from(sorted(inst.pairs)), st.sampled_from([UP, DOWN]))
        )
        text = serialize_scenario(Knowledge(statuses))
        assert parse_scenario(text, inst) == Knowledge(statuses)
        assert serialize_scenario(parse_scenario(text, inst)) == text


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

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.fractions(),
            st.builds(
                lambda n, twos, fives: Fraction(n, 2**twos * 5**fives),
                st.integers(-(10**9), 10**9), st.integers(0, 12), st.integers(0, 12),
            ),
        )
    )
    def test_every_signed_fraction_reads_back(self, p):
        assert Fraction(format_probability(p)) == p

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

    @pytest.mark.parametrize("key", ["1_0-2", "\u0661-\u0662", " 1 -+2", "1-2\n", "-1-2", "1-2-3"])
    def test_an_edge_key_is_two_runs_of_ascii_digits(self, key):
        with pytest.raises(FileFormatError) as caught:
            parse_edge_key(key)
        assert str(caught.value) == f"edge key {key!r} is not of the form 'tail-head'"
        assert parse_edge_key("02-3") == (2, 3)

    def test_an_edge_key_of_more_digits_than_int_reads_is_refused(self):
        with pytest.raises(FileFormatError, match="is not of the form 'tail-head'"):
            parse_edge_key("1" * 5000 + "-2")

    def test_a_valuation_of_five_thousand_digits_is_written_whole(self):
        value = Fraction(10**5000 - 1, 10**5000)
        text = format_valuation(value)
        assert text == "9" * 5000 + "/1" + "0" * 5000 + " (1)"
        assert format_probability(Fraction(1, 3 * 10**4400)) == "1/3" + "0" * 4400

    def test_instance_dict_uses_decimal_strings(self, lookout_triangle):
        doc = instance_to_dict(lookout_triangle)
        assert doc["edges"][0]["p_fail"] == "0.1"
