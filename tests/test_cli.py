"""Command-line interface: outputs, exit codes, file handling."""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from sightpath import ApproxConfig, GeneratorConfig, Instance, cli, oracle_check, validate
from sightpath.cli import main
from sightpath.io import serialize_instance, serialize_scenario
from sightpath.model import EdgeNumbering

from conftest import DOWN, UP, know


@pytest.fixture
def instance_file(tmp_path, lookout_triangle):
    path = tmp_path / "lookout.json"
    path.write_text(serialize_instance(lookout_triangle))
    return str(path)


@pytest.fixture
def plain_file(tmp_path, triangle_plain):
    path = tmp_path / "plain.json"
    path.write_text(serialize_instance(triangle_plain))
    return str(path)


def scenario_file(tmp_path, knowledge, name="scenario.json"):
    path = tmp_path / name
    path.write_text(serialize_scenario(knowledge))
    return str(path)


class TestValidateCommand:
    def test_ok_instance(self, instance_file, capsys):
        assert main(["validate", instance_file]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_violations_listed(self, tmp_path, capsys):
        doc = {
            "vertices": 3,
            "edges": [{"tail": 3, "head": 2, "p_fail": "0.5"}],
            "sight": [],
            "task": {"start": 1, "dest": 3},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "tail<head" in out

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_unparsable_file(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2

    @pytest.mark.parametrize("sight", [5, None, {}], ids=["number", "null", "object"])
    def test_non_list_sight_is_unparsable(self, tmp_path, sight, capsys):
        doc = {
            "vertices": 2,
            "edges": [{"tail": 1, "head": 2, "p_fail": "0.5"}],
            "sight": sight,
            "task": {"start": 1, "dest": 2},
        }
        path = tmp_path / "bad-sight.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot parse {path}: instance.sight must be a list\n"

    def test_a_repeated_key_is_unparsable(self, tmp_path, capsys):
        path = tmp_path / "repeated.json"
        path.write_text(
            '{"vertices": 2, "edges": [{"tail": 1, "head": 2, "p_fail": "0.9", "p_fail": "0.1"}],'
            ' "task": {"start": 1, "dest": 2}}'
        )
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot parse {path}: the key 'p_fail' appears twice in one object\n"

    def test_an_unknown_key_is_unparsable(self, tmp_path, capsys):
        path = tmp_path / "lookout.json"
        path.write_text(README_INSTANCE.replace('"sight"', '"sights"'))
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot parse {path}: instance has an unknown key 'sights'\n"

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('"p_fail":', '"p_fial": "0.9", "p_fail":', "edges[0] has an unknown key 'p_fial'"),
            ('"observer":', '"obsrever": 2, "observer":', "sight[0] has an unknown key 'obsrever'"),
        ],
        ids=["edge", "sight"],
    )
    def test_an_unknown_edge_or_sight_key_is_unparsable(self, tmp_path, capsys, old, new, message):
        path = tmp_path / "lookout.json"
        path.write_text(README_INSTANCE.replace(old, new))
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot parse {path}: {message}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "instance document must be a JSON object"),
            (
                '{"vertices": 2, "edges": [{"tail": 1, "head": 2, "p_fail": null}],'
                ' "task": {"start": 1, "dest": 2}}',
                "edges[0].p_fail must be a string or integer",
            ),
        ],
        ids=["list", "null-p_fail"],
    )
    def test_a_document_of_the_wrong_shape_is_unparsable(self, tmp_path, text, message, capsys):
        path = tmp_path / "shape.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot parse {path}: {message}\n"

    def test_a_huge_exponent_is_unparsable_at_once(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(
            '{"vertices": 2, "edges": [{"tail": 1, "head": 2, "p_fail": "1e-99999999999"}],'
            ' "task": {"start": 1, "dest": 2}}'
        )
        began = time.perf_counter()
        assert main(["validate", str(path)]) == 2
        assert time.perf_counter() - began < 2
        assert capsys.readouterr().err == (
            f"cannot parse {path}: edges[0].p_fail value '1e-99999999999'"
            " is not a probability literal\n"
        )

    def test_a_file_that_is_not_utf8_is_unparsable(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot parse {path}: not UTF-8 text: ")
        assert captured.err.count("\n") == 1


class TestDecideCommand:
    def test_true_decision(self, tmp_path, instance_file, capsys):
        scenario = scenario_file(tmp_path, know(e_2_3=UP))
        code = main(["decide", instance_file, "--scenario", scenario, "--edge", "1-2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "decision: true" in out
        assert "success: 9/10 (0.9)" in out
        assert "selected: 1-2" in out

    def test_false_decision(self, tmp_path, instance_file, capsys):
        scenario = scenario_file(tmp_path, know(e_2_3=DOWN))
        code = main(["decide", instance_file, "--scenario", scenario, "--edge", "1-2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "decision: false" in out
        assert "success: 0/1 (0)" in out
        assert "selected: 1-3" in out

    def test_empty_scenario_is_fine_without_sight(self, plain_file, capsys):
        code = main(["decide", plain_file, "--edge", "1-3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "decision: true" in out
        assert "success: 7/10 (0.7)" in out

    def test_edge_not_from_start(self, tmp_path, instance_file, capsys):
        scenario = scenario_file(tmp_path, know(e_2_3=UP))
        code = main(["decide", instance_file, "--scenario", scenario, "--edge", "2-3"])
        assert code == 1
        assert "start" in capsys.readouterr().err

    def test_unreadable_scenario(self, tmp_path, instance_file, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["decide", instance_file, "--scenario", missing, "--edge", "1-2"]) == 2
        assert capsys.readouterr().err.startswith(f"cannot read {missing}: ")

    def test_unparsable_scenario(self, tmp_path, instance_file, capsys):
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        assert main(["decide", instance_file, "--scenario", str(garbage), "--edge", "1-2"]) == 2
        assert capsys.readouterr().err.startswith(f"cannot parse {garbage}: not valid JSON")

    def test_a_scenario_naming_an_edge_twice_is_bad_input(self, tmp_path, instance_file, capsys):
        path = tmp_path / "twice.json"
        path.write_text('{"statuses": {"2-3": "up", "2-3": "down"}}')
        assert main(["decide", instance_file, "--scenario", str(path), "--edge", "1-2"]) == 2
        assert capsys.readouterr().err == f"cannot parse {path}: scenario names edge 2-3 twice\n"

    def test_a_scenario_repeating_a_top_level_key_is_bad_input(
        self, tmp_path, instance_file, capsys
    ):
        path = tmp_path / "twice.json"
        path.write_text('{"statuses": {"2-3": "up"}, "statuses": {"2-3": "down"}}')
        assert main(["decide", instance_file, "--scenario", str(path), "--edge", "1-2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"cannot parse {path}: the key 'statuses' appears twice in one object\n"
        )

    def test_a_scenario_with_an_unknown_key_is_bad_input(self, tmp_path, instance_file, capsys):
        # a scenario file holds knowledge only: a world flag is no key of it
        for key, doc in [
            ("statusses", '{"statusses": {"2-3": "up"}}'),
            ("world", '{"statuses": {}, "world": true}'),
        ]:
            path = tmp_path / f"{key}.json"
            path.write_text(doc)
            assert main(["decide", instance_file, "--scenario", str(path), "--edge", "1-2"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"cannot parse {path}: scenario has an unknown key {key!r}\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", "scenario document must be a JSON object"),
            ('{"statuses": []}', "scenario.statuses must be an object"),
        ],
        ids=["list", "list-statuses"],
    )
    def test_a_scenario_of_the_wrong_shape_is_bad_input(
        self, tmp_path, instance_file, text, message, capsys
    ):
        path = tmp_path / "shape.json"
        path.write_text(text)
        assert main(["decide", instance_file, "--scenario", str(path), "--edge", "1-2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot parse {path}: {message}\n"

    def test_a_scenario_that_is_not_utf8_is_unparsable(self, tmp_path, instance_file, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main(["decide", instance_file, "--scenario", str(path), "--edge", "1-2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot parse {path}: not UTF-8 text: ")
        assert captured.err.count("\n") == 1

    def test_malformed_edge(self, tmp_path, instance_file, capsys):
        scenario = scenario_file(tmp_path, know(e_2_3=UP))
        assert main(["decide", instance_file, "--scenario", scenario, "--edge", "1_2"]) == 2
        assert "'1_2' is not of the form 'tail-head'" in capsys.readouterr().err

    def test_scenario_must_cover_visible_edges(self, instance_file, capsys):
        assert main(["decide", instance_file, "--edge", "1-2"]) == 1
        assert "visible" in capsys.readouterr().err

    def test_float_mode(self, tmp_path, instance_file, capsys):
        scenario = scenario_file(tmp_path, know(e_2_3=UP))
        code = main(
            ["decide", instance_file, "--scenario", scenario, "--edge", "1-2", "--mode", "float"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "success: 0.9" in out

    def test_invalid_instance_is_refused(self, tmp_path, capsys):
        doc = {
            "vertices": 3,
            "edges": [{"tail": 3, "head": 2, "p_fail": "0.5"}],
            "task": {"start": 1, "dest": 3},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["decide", str(path), "--edge", "1-2"]) == 1

    def test_too_deep_an_instance_exits_one(self, tmp_path, capsys):
        n = 1000
        doc = {
            "vertices": n,
            "edges": [{"tail": i, "head": i + 1, "p_fail": "0.5"} for i in range(1, n)],
            "task": {"start": 1, "dest": n},
        }
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        assert main(["decide", str(path), "--edge", "1-2"]) == 1
        assert "recursion limit" in capsys.readouterr().err

    @pytest.mark.parametrize("form", [[], ["--json"]], ids=["text", "json"])
    def test_too_deep_an_instance_exits_one_in_mc(self, tmp_path, capsys, form):
        n = 1000
        doc = {
            "vertices": n,
            "edges": [{"tail": i, "head": i + 1, "p_fail": "0.5"} for i in range(1, n)],
            "task": {"start": 1, "dest": n},
        }
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        assert main(["mc", str(path), "--trials", "5", *form]) == 1
        captured = capsys.readouterr()
        assert "recursion limit" in captured.err
        assert captured.out == ""


class TestOracleCheckCommand:
    def test_too_deep_an_instance_exits_one(self, tmp_path, capsys):
        n = 1200
        edges = [{"tail": i, "head": i + 1, "p_fail": "0"} for i in range(1, n)]
        doc = {
            "vertices": n,
            "edges": edges + [{"tail": 1, "head": n, "p_fail": "1/2"}],
            "task": {"start": 1, "dest": n},
        }
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle-check", str(path), "--cap", "2000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "recursion limit" in captured.err

    def test_two_scenarios_agree(self, instance_file, capsys):
        assert main(["oracle-check", instance_file]) == 0
        out = capsys.readouterr().out
        assert out.count("scenario {") == 2
        assert "2 checked" in out
        assert "all scenarios agree" in out

    def test_single_scenario_fork(self, tmp_path, scouted_fork, capsys):
        path = tmp_path / "fork.json"
        path.write_text(serialize_instance(scouted_fork))
        assert main(["oracle-check", str(path)]) == 0
        assert "1 checked" in capsys.readouterr().out

    def test_all_scenarios_is_an_unknown_argument(self, instance_file, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["oracle-check", instance_file, "--all-scenarios"])
        assert caught.value.code == 2
        assert "unrecognized arguments: --all-scenarios" in capsys.readouterr().err

    def test_cap_exceeded(self, instance_file, capsys):
        for extra in ([], ["--json"]):
            assert main(["oracle-check", instance_file, "--cap", "2", *extra]) == 1
            out, err = capsys.readouterr()
            assert (out, err) == ("", "3 edges exceed the enumeration cap of 2\n")

    def test_impossible_scenarios_counted(self, tmp_path, capsys):
        certain = Instance.build(
            4,
            [(1, 2, "0"), (1, 3, "1"), (1, 4, "1/3"), (2, 4, "1/2"), (3, 4, "1/2")],
            [(1, 1, 2), (1, 1, 3)],
            (1, 4),
        )
        path = tmp_path / "certain.json"
        path.write_text(serialize_instance(certain))
        assert main(["oracle-check", str(path)]) == 0
        assert capsys.readouterr().out.endswith(
            "all scenarios agree (1 checked, 3 impossible skipped)\n"
        )
        assert main(["oracle-check", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["checked"], doc["skipped"]) == (1, 3)
        assert doc["scenarios"][0]["knowledge"] == {"1-2": "up", "1-3": "down"}
        assert doc["scenarios"][0]["weight"] == "1"

    def test_impossible_scenarios_are_counted_without_being_built(
        self, tmp_path, monkeypatch, capsys
    ):
        # the start sees 14 edges that never or always fail and one of 1/2:
        # 2 of its 2**15 scenarios are possible
        edges = [(1, 2, "1/2"), (2, 17, "1/2")]
        for j in range(14):
            edges += [(1, 3 + j, "0" if j % 2 else "1"), (3 + j, 17, "1/4")]
        sights = [(1, 2, 17)] + [(1, 1, 3 + j) for j in range(14)]
        path = tmp_path / "certain.json"
        path.write_text(serialize_instance(Instance.build(17, edges, sights, (1, 17))))
        built = []
        knowledge = EdgeNumbering.knowledge
        monkeypatch.setattr(
            EdgeNumbering, "knowledge", lambda *args: built.append(args) or knowledge(*args)
        )
        assert main(["oracle-check", str(path), "--cap", "40"]) == 0
        assert capsys.readouterr().out.endswith(
            "all scenarios agree (2 checked, 32766 impossible skipped)\n"
        )
        assert len(built) <= 2

    def test_json_is_the_library_checks(self, tmp_path, capsys):
        inst = Instance.build(
            5,
            [(1, 2, "1/3"), (1, 3, "0.1"), (2, 4, "1/2"), (3, 4, "0.3"), (4, 5, "0.2"),
             (2, 5, "0.6")],
            [(1, 2, 4), (1, 3, 4), (2, 4, 5)],
            (1, 5),
        )
        path = tmp_path / "diamond.json"
        path.write_text(serialize_instance(inst))
        assert main(["oracle-check", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        checks = oracle_check(inst)
        assert doc["checked"] == len(checks) == 4 and doc["skipped"] == 0
        for got, check in zip(doc["scenarios"], checks):
            assert list(got["knowledge"]) == ["2-4", "3-4"]  # sorted by edge
            assert got["knowledge"] == {
                f"{t}-{h}": s.value for (t, h), s in check.knowledge.as_dict().items()
            }
            assert Fraction(got["weight"]) == check.weight
            assert Fraction(got["solver_value"]) == check.solver_value
            assert Fraction(got["oracle_value"]) == check.oracle_value
            assert got["match"] is True and got["solver_move"] == got["oracle_move"]

    def test_a_mismatch_exits_one_in_both_forms(self, instance_file, monkeypatch, capsys):
        class Mutant:
            def root_value(self, knowledge):
                return Fraction(1, 3)

            def next_move(self, v, knowledge):
                return None

        monkeypatch.setattr(
            cli, "oracle_check", lambda instance, cap: oracle_check(instance, cap, Mutant())
        )
        assert main(["oracle-check", instance_file]) == 1
        assert "MISMATCH" in capsys.readouterr().out
        assert main(["oracle-check", instance_file, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert [s["match"] for s in doc["scenarios"]] == [False, False]
        assert [s["solver_move"] for s in doc["scenarios"]] == [None, None]
        assert [s["solver_value"] for s in doc["scenarios"]] == ["1/3", "1/3"]


class TestMcCommand:
    def test_reports_batch(self, instance_file, capsys):
        code = main(["mc", instance_file, "--trials", "4000", "--seed", "42"])
        out = capsys.readouterr().out
        assert code == 0
        assert "trials=4000" in out
        assert "rate=0.8" in out
        assert "seed=42" in out

    def test_zero_trials_flagged(self, instance_file, capsys):
        assert main(["mc", instance_file, "--trials", "0"]) == 0
        assert "rate undefined" in capsys.readouterr().out

    def test_text_output_is_unchanged(self, instance_file, capsys):
        assert main(["mc", instance_file, "--trials", "4000", "--seed", "42"]) == 0
        assert capsys.readouterr().out == (
            "trials=4000 successes=3397 rate=0.84925 stderr=0.00565739422128 seed=42\n"
        )
        assert main(["mc", instance_file, "--trials", "0"]) == 0
        assert capsys.readouterr().out == (
            "trials=0 successes=0 rate=0 stderr=0 seed=0\nrate undefined: no trials were run\n"
        )

    def test_negative_trials_are_bad_input(self, instance_file, capsys):
        assert main(["mc", instance_file, "--trials", "-5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must not be negative" in captured.err

    def test_json_output(self, instance_file, capsys):
        assert main(["mc", instance_file, "--trials", "4000", "--seed", "42", "--json"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        doc = json.loads(out)
        assert doc == {
            "n": 4000,
            "seed": 42,
            "successes": 3397,
            "failed_edge": 603,
            "halted": 0,
            "rate": 0.84925,
            "stderr": doc["stderr"],
            "rate_defined": True,
        }
        assert f"{doc['stderr']:.12g}" == "0.00565739422128"

    def test_json_output_of_an_empty_batch(self, instance_file, capsys):
        assert main(["mc", instance_file, "--trials", "0", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["n"], doc["rate_defined"]) == (0, False)


class TestGenCommand:
    def test_writes_deterministic_files(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            code = main(["gen", "--seed", "7", "--count", "3", "--out", str(out)])
            assert code == 0
        files_a = sorted(p.name for p in out_a.glob("*.json"))
        assert files_a == ["instance_000.json", "instance_001.json", "instance_002.json"]
        for name in files_a:
            assert (out_a / name).read_text() == (out_b / name).read_text()

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["--seed", "7", "--count", "40"],
                "f3e475600d19cec1a842cf2b0b6f505367ff901267327368aa89a02ea0921231",
            ),
            (
                ["--seed", "3", "--count", "60", "--n-min", "2", "--n-max", "14",
                 "--palette", "0,1/3,0.35,7/9,1"],
                "2102e4eb123decefc7f5fa6193f7da7ae552dea04862c05a94fcefdb0b7be63c",
            ),
        ],
        ids=["defaults", "thirds-palette"],
    )
    def test_stdout_bytes_are_pinned(self, argv, digest, capsys):
        """SHA-256 of the printed instances, recorded when the files were
        written by ``json.dumps(..., indent=2)``."""
        assert main(["gen", *argv]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_stdout_mode(self, capsys):
        assert main(["gen", "--seed", "7", "--count", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {"vertices", "edges", "sight", "task"} <= doc.keys()

    def test_generated_files_validate(self, tmp_path, capsys):
        out = tmp_path / "suite"
        main(["gen", "--seed", "3", "--count", "4", "--out", str(out)])
        capsys.readouterr()
        for path in out.glob("*.json"):
            assert main(["validate", str(path)]) == 0
            capsys.readouterr()

    def test_zero_density_regenerates_until_a_path_exists(self, tmp_path, capsys):
        out = tmp_path / "zero"
        code = main(
            ["gen", "--seed", "2", "--count", "2", "--edge-density", "0", "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        for path in out.glob("*.json"):
            assert main(["validate", str(path)]) == 0
            capsys.readouterr()


    def test_out_naming_an_existing_file_is_bad_input(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["gen", "--count", "1", "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write {taken}: ")
        assert err.count("\n") == 1

    def test_each_instance_is_written_as_it_is_drawn(self, tmp_path, capsys):
        # a suite held until the end would make the peak grow with the count
        def peak(count):
            out = tmp_path / str(count)
            argv = ["gen", "--seed", "7", "--count", str(count), "--n-min", "40", "--n-max", "40"]
            tracemalloc.start()
            try:
                assert main([*argv, "--out", str(out)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(40) < 2 * peak(5)


class TestGapSearchCommand:
    def test_finds_gaps_at_seed_seven(self, capsys):
        assert main(["gap-search", "--seed", "7", "--count", "60"]) == 0
        out = capsys.readouterr().out
        count = int(out.rsplit("found ", 1)[1].split()[0])
        assert count >= 1

    def test_gap_files_written(self, tmp_path, capsys):
        out_dir = tmp_path / "gaps"
        main(["gap-search", "--seed", "7", "--count", "40", "--out", str(out_dir)])
        capsys.readouterr()
        assert list(out_dir.glob("gap_*.json"))

    def test_out_naming_an_existing_file_fails_before_the_search(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["gap-search", "--seed", "7", "--count", "40", "--out", str(taken)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot write {taken}: ")
        assert captured.err.count("\n") == 1


class TestApproxCommand:
    def test_threshold_zero_matches_decide(self, tmp_path, instance_file, capsys):
        scenario = scenario_file(tmp_path, know(e_2_3=UP))
        main(["decide", instance_file, "--scenario", scenario, "--edge", "1-2"])
        decide_out = capsys.readouterr().out
        code = main(
            ["approx", instance_file, "--scenario", scenario, "--edge", "1-2", "--threshold", "0"]
        )
        approx_out = capsys.readouterr().out
        assert code == 0
        assert decide_out.strip() in approx_out
        assert "cache:" in approx_out

    def test_threshold_one_reports_cache_activity(self, tmp_path, instance_file, capsys):
        scenario = scenario_file(tmp_path, know(e_2_3=DOWN))
        code = main(
            [
                "approx", instance_file, "--scenario", scenario, "--edge", "1-2",
                "--threshold", "1", "--cache-size", "8",
            ]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "misses=" in out


class TestApproxCompareCommand:
    def test_threshold_zero_matches_everywhere(self, tmp_path, capsys):
        suite_dir = tmp_path / "suite"
        main(["gen", "--seed", "13", "--count", "5", "--out", str(suite_dir)])
        capsys.readouterr()
        code = main(["approx-compare", str(suite_dir), "--threshold", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "match rate: 5/5" in out

    def test_table_has_gap_columns(self, tmp_path, capsys):
        suite_dir = tmp_path / "suite"
        main(["gen", "--seed", "23", "--count", "6", "--out", str(suite_dir)])
        capsys.readouterr()
        code = main(["approx-compare", str(suite_dir), "--threshold", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "value_gap" in out and "similar_hits" in out
        assert out.count("\n") >= 7

    def test_missing_directory(self, tmp_path):
        assert main(["approx-compare", str(tmp_path / "nope")]) == 2

    def test_directory_without_instances(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("no instances here\n")
        assert main(["approx-compare", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("no *.json instances under ")


README_INSTANCE = """{
  "vertices": 3,
  "edges": [
    {"tail": 1, "head": 2, "p_fail": "0.1"},
    {"tail": 2, "head": 3, "p_fail": "0.5"},
    {"tail": 1, "head": 3, "p_fail": "0.2"}
  ],
  "sight": [{"observer": 1, "tail": 2, "head": 3}],
  "task": {"start": 1, "dest": 3}
}
"""


class TestReadmeSession:
    """The README's command-line session, byte for byte."""

    @pytest.fixture
    def files(self, tmp_path, monkeypatch):
        (tmp_path / "lookout.json").write_text(README_INSTANCE)
        (tmp_path / "far-edge-up.json").write_text('{"statuses": {"2-3": "up"}}\n')
        monkeypatch.chdir(tmp_path)

    def run(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert captured.err == ""
        return code, captured.out

    def test_validate(self, files, capsys):
        assert self.run(capsys, "validate", "lookout.json") == (0, "ok\n")

    def test_decide(self, files, capsys):
        assert self.run(
            capsys, "decide", "lookout.json", "--scenario", "far-edge-up.json", "--edge", "1-2"
        ) == (0, "decision: true\nsuccess: 9/10 (0.9)\nselected: 1-2\n")

    def test_oracle_check(self, files, capsys):
        assert self.run(capsys, "oracle-check", "lookout.json") == (
            0,
            "scenario {2-3: up}: solver 9/10 (0.9) / oracle 9/10 (0.9), move 1-2 / 1-2 : ok\n"
            "scenario {2-3: down}: solver 4/5 (0.8) / oracle 4/5 (0.8), move 1-3 / 1-3 : ok\n"
            "all scenarios agree (2 checked, 0 impossible skipped)\n",
        )

    def test_oracle_check_json(self, files, capsys):
        assert self.run(capsys, "oracle-check", "lookout.json", "--json") == (
            0,
            '{"scenarios": [{"knowledge": {"2-3": "up"}, "weight": "1/2",'
            ' "solver_value": "9/10", "oracle_value": "9/10",'
            ' "solver_move": "1-2", "oracle_move": "1-2", "match": true},'
            ' {"knowledge": {"2-3": "down"}, "weight": "1/2",'
            ' "solver_value": "4/5", "oracle_value": "4/5",'
            ' "solver_move": "1-3", "oracle_move": "1-3", "match": true}],'
            ' "checked": 2, "skipped": 0}\n',
        )

    def test_mc(self, files, capsys):
        argv = ("mc", "lookout.json", "--trials", "100000", "--seed", "42")
        assert self.run(capsys, *argv) == (
            0, "trials=100000 successes=85050 rate=0.8505 stderr=0.0011276069794 seed=42\n"
        )
        assert self.run(capsys, *argv, "--json") == (
            0,
            '{"n": 100000, "seed": 42, "successes": 85050, "rate": 0.8505,'
            ' "stderr": 0.0011276069794037282, "rate_defined": true,'
            ' "failed_edge": 14950, "halted": 0}\n',
        )

    def test_approx(self, files, capsys):
        assert self.run(
            capsys, "approx", "lookout.json", "--scenario", "far-edge-up.json", "--edge", "1-2",
            "--threshold", "0", "--cache-size", "64",
        ) == (
            0,
            "decision: true\nsuccess: 9/10 (0.9)\nselected: 1-2\n"
            "cache: exact_hits=1 similar_hits=0 misses=3 evictions=0\n",
        )

    def test_gap_search_summary(self, capsys):
        code, out = self.run(capsys, "gap-search", "--seed", "7", "--count", "40")
        assert code == 0
        assert out.splitlines()[-1] == "found 13 gap instance(s) out of 40"


ROOT = Path(__file__).resolve().parent.parent

# the README session and a generated suite, each command's output then its exit code
SESSION = """
from sightpath.cli import main

for argv in [
    ["validate", "lookout.json"],
    ["decide", "lookout.json", "--scenario", "far-edge-up.json", "--edge", "1-2"],
    ["oracle-check", "lookout.json"],
    ["oracle-check", "lookout.json", "--json"],
    ["mc", "lookout.json", "--trials", "2000", "--seed", "42", "--json"],
    ["approx", "lookout.json", "--scenario", "far-edge-up.json", "--edge", "1-2",
     "--threshold", "0", "--cache-size", "64"],
    ["gen", "--seed", "7", "--count", "40"],
]:
    print("exit", main(argv), flush=True)
"""


def other_pythons() -> list[str]:
    """Each ``python3.N`` on PATH at or above the declared floor, other than
    the running version, that starts."""
    floor = re.search(
        r'requires-python\s*=\s*">=3\.(\d+)"', (ROOT / "pyproject.toml").read_text()
    )
    names = {
        path.name
        for directory in os.environ.get("PATH", "").split(os.pathsep) if directory
        for path in Path(directory).glob("python3.*")
        if re.fullmatch(r"python3\.\d+", path.name)
    }
    found = []
    for name in sorted(names):
        minor = int(name[len("python3."):])
        executable = shutil.which(name)
        if minor < int(floor[1]) or minor == sys.version_info.minor or executable is None:
            continue
        # a pyenv shim for a version that is not selected exits nonzero
        started = subprocess.run([executable, "-c", "pass"], capture_output=True, timeout=30)
        if started.returncode == 0:
            found.append(executable)
    return found


def test_every_supported_python_prints_the_same_bytes(tmp_path):
    pythons = other_pythons()
    if not pythons:
        pytest.skip("no other python3.N at or above the declared floor starts")
    (tmp_path / "lookout.json").write_text(README_INSTANCE)
    (tmp_path / "far-edge-up.json").write_text('{"statuses": {"2-3": "up"}}\n')
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def session(executable):
        return subprocess.run(
            [executable, "-c", SESSION], cwd=tmp_path, env=env, capture_output=True,
            check=True, timeout=60,
        ).stdout

    expected = session(sys.executable)
    assert expected.count(b"exit 0\n") == 7
    for executable in pythons:
        assert session(executable) == expected, executable


# the malformed variants of README_INSTANCE, each an edit of the parsed document
MALFORMED_LOOKOUT = {
    "p_fail-1/0": lambda doc: doc["edges"][0].update(p_fail="1/0"),
    "p_fail-nan": lambda doc: doc["edges"][0].update(p_fail="nan"),
    "p_fail-1e999": lambda doc: doc["edges"][0].update(p_fail="1e999"),
    "p_fail-float": lambda doc: doc["edges"][0].update(p_fail=0.1),
    "p_fail-bool": lambda doc: doc["edges"][0].update(p_fail=True),
    "vertices-bool": lambda doc: doc.update(vertices=True),
    "vertices-0": lambda doc: doc.update(vertices=0),
    "vertices-negative": lambda doc: doc.update(vertices=-3),
    "start=dest": lambda doc: doc["task"].update(start=3),
    "dest>n": lambda doc: doc["task"].update(dest=4),
    "start-0": lambda doc: doc["task"].update(start=0),
    "observer-0": lambda doc: doc["sight"][0].update(observer=0),
    "no-edges": lambda doc: doc.update(edges=[]),
    "edges-dict": lambda doc: doc.update(edges=doc["edges"][0]),
    "edge-list": lambda doc: doc["edges"].__setitem__(0, [1, 2, "0.1"]),
    "task-list": lambda doc: doc.update(task=[1, 3]),
    "head-10**30": lambda doc: doc["edges"][2].update(head=10**30),
    "every-edge-fails": lambda doc: [edge.update(p_fail="1") for edge in doc["edges"]],
    "vertices-10**30": lambda doc: doc.update(vertices=10**30),
}

# every command that reads an instance file, with the options it needs
INSTANCE_COMMANDS = {
    "validate": [],
    "decide": ["--edge", "1-2"],
    "oracle-check": [],
    "mc": ["--trials", "5"],
    "approx": ["--edge", "1-2", "--threshold", "1"],
}


class TestAnyInstanceEndsInAnExitCode:
    @pytest.mark.parametrize("command", sorted(INSTANCE_COMMANDS))
    @pytest.mark.parametrize("variant", sorted(MALFORMED_LOOKOUT))
    def test_a_malformed_lookout(self, tmp_path, variant, command, capsys):
        doc = json.loads(README_INSTANCE)
        MALFORMED_LOOKOUT[variant](doc)
        path = tmp_path / "lookout.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path), *INSTANCE_COMMANDS[command]]) in (0, 1, 2)

    def test_a_huge_declared_count_answers_as_the_named_vertices_do(self, tmp_path, capsys):
        path = tmp_path / "one-edge.json"
        runs = []
        for vertices in (10**30, 2):
            edges = [{"tail": 1, "head": 2, "p_fail": "0.1"}]
            doc = {"vertices": vertices, "edges": edges, "task": {"start": 1, "dest": 2}}
            path.write_text(json.dumps(doc))
            for command, options in INSTANCE_COMMANDS.items():
                runs.append((main([command, str(path), *options]), capsys.readouterr()))
        huge, named = runs[:len(INSTANCE_COMMANDS)], runs[len(INSTANCE_COMMANDS):]
        assert huge == named
        assert [code for code, _ in huge] == [0] * len(INSTANCE_COMMANDS)


def _two_edge_file(tmp_path, p_fail, sight=()):
    doc = {
        "vertices": 3,
        "edges": [
            {"tail": 1, "head": 2, "p_fail": p_fail},
            {"tail": 2, "head": 3, "p_fail": p_fail},
        ],
        "sight": [{"observer": 1, "tail": t, "head": h} for t, h in sight],
        "task": {"start": 1, "dest": 3},
    }
    path = tmp_path / "two-edges.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestEveryExactValuePrints:
    """A value or literal of more than 4300 digits, the limit Python sets on
    an int written as text, is printed whole."""

    # (1 - 10**-2500)**2, written without any int-to-text conversion
    BOTH_UP = "9" * 2499 + "8" + "0" * 2499 + "1" + "/1" + "0" * 5000

    def test_a_value_of_five_thousand_digits_prints_whole(self, tmp_path, capsys):
        path = _two_edge_file(tmp_path, "1e-2500")
        for command in ("decide", "approx"):
            assert main([command, path, "--edge", "1-2"]) == 0
            assert f"\nsuccess: {self.BOTH_UP} (1)\n" in capsys.readouterr().out
        assert main(["mc", path, "--trials", "5"]) == 0

    def test_a_weight_of_five_thousand_digits_prints_whole(self, tmp_path, capsys):
        # the start sees both edges, so the oracle's world table is over no edge
        path = _two_edge_file(tmp_path, "1e-2500", sight=[(1, 2), (2, 3)])
        assert main(["oracle-check", path, "--json"]) == 0
        scenarios = json.loads(capsys.readouterr().out)["scenarios"]
        one_up = "9" * 2500 + "/1" + "0" * 5000
        assert [s["weight"] for s in scenarios] == [
            self.BOTH_UP, one_up, one_up, "1/1" + "0" * 5000
        ]
        assert [(s["solver_value"], s["oracle_value"]) for s in scenarios] == [
            ("1", "1"), ("0", "0"), ("0", "0"), ("0", "0")
        ]
        assert main(["oracle-check", path]) == 0
        assert capsys.readouterr().out.endswith(
            "all scenarios agree (4 checked, 0 impossible skipped)\n"
        )

    def test_an_unsighted_check_over_factors_of_2500_digits_answers(self, tmp_path, capsys):
        # the oracle's world table is over both edges
        path = _two_edge_file(tmp_path, "1e-2500")
        assert main(["oracle-check", path, "--json"]) == 0
        [scenario] = json.loads(capsys.readouterr().out)["scenarios"]
        assert (scenario["weight"], scenario["solver_value"], scenario["oracle_value"]) == (
            "1", self.BOTH_UP, self.BOTH_UP
        )
        assert main(["oracle-check", path]) == 0
        assert capsys.readouterr().out.endswith(
            "all scenarios agree (1 checked, 0 impossible skipped)\n"
        )

    def test_a_p_fail_of_4301_digits_is_reported(self, tmp_path, capsys):
        path = _two_edge_file(tmp_path, "1e4300")
        detail = "1" + "0" * 4300
        assert main(["validate", path]) == 1
        assert capsys.readouterr().out == (
            f"violation p-range: edge 1-2 has p_fail {detail}\n"
            f"violation p-range: edge 2-3 has p_fail {detail}\n"
            "2 violation(s)\n"
        )
        report = validate(Instance.build(2, [(1, 2, "1e4300")], task=(1, 2)))
        assert [str(v) for v in report.violations] == [
            f"p-range: edge 1-2 has p_fail {detail}"
        ]


class TestIntegerLiteralsPastTheDigitLimit:
    """A JSON integer literal of more than 4300 digits, which ``json.loads``
    refuses with a ``ValueError``, is a file that cannot be parsed (exit 2)."""

    HUGE = "1" + "0" * 5000

    def _refused(self, capsys, path):
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot parse {path}: not valid JSON: ")
        assert captured.err.count("\n") == 1

    def test_an_instance_file_with_a_huge_vertex_count(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        task = '"task": {"start": 1, "dest": 2}'
        path.write_text(f'{{"vertices": {self.HUGE}, "edges": [], {task}}}')
        assert main(["validate", str(path)]) == 2
        self._refused(capsys, path)

    def test_a_scenario_file_with_a_huge_world(self, tmp_path, instance_file, capsys):
        path = tmp_path / "huge.json"
        path.write_text(f'{{"statuses": {{}}, "world": {self.HUGE}}}')
        assert main(["decide", instance_file, "--scenario", str(path), "--edge", "1-2"]) == 2
        self._refused(capsys, path)


class TestEdgeKeysAreAsciiDigits:
    """An edge key is two runs of ASCII digits joined by one hyphen."""

    KEYS = ["1_2-3", "\u0662-\u0663", " 2 -+3", "2-3\n", "+2-3"]

    @pytest.mark.parametrize("key", KEYS)
    def test_an_edge_option_that_int_would_read_is_bad_input(
        self, tmp_path, instance_file, key, capsys
    ):
        scenario = scenario_file(tmp_path, know(e_2_3=UP))
        assert main(["decide", instance_file, "--scenario", scenario, "--edge", key]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"edge key {key!r} is not of the form 'tail-head'\n"

    @pytest.mark.parametrize("key", KEYS)
    def test_a_scenario_key_that_int_would_read_is_bad_input(
        self, tmp_path, instance_file, key, capsys
    ):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"statuses": {key: "up"}}))
        assert main(["decide", instance_file, "--scenario", str(path), "--edge", "1-2"]) == 2
        assert capsys.readouterr().err == (
            f"cannot parse {path}: edge key {key!r} is not of the form 'tail-head'\n"
        )

    def test_a_leading_zero_still_names_the_edge(self, tmp_path, instance_file, capsys):
        path = tmp_path / "scenario.json"
        path.write_text('{"statuses": {"02-3": "up"}}')
        assert main(["decide", instance_file, "--scenario", str(path), "--edge", "01-2"]) == 0
        assert capsys.readouterr().out.startswith("decision: true\n")


class TestBadConfiguration:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--palette", "2"],
            ["gen", "--max-sights", "-1"],
            ["gap-search", "--max-sights", "-1"],
            ["gen", "--count", "-1"],
            ["gap-search", "--count", "-3"],
            ["gen", "--edge-density", "nan"],
            ["gen", "--edge-density", "-1"],
            ["gen", "--sight-density", "2"],
            ["gap-search", "--sight-density", "nan"],
        ],
        ids=[
            "palette-out-of-range", "gen-negative-sights", "gap-search-negative-sights",
            "gen-negative-count", "gap-search-negative-count", "edge-density-nan",
            "edge-density-negative", "sight-density-above-one", "gap-search-sight-density-nan",
        ],
    )
    def test_generator_settings_are_bad_input(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bad generator configuration: ")
        assert captured.err.count("\n") == 1

    def test_a_vertex_count_too_large_to_draw_is_bad_input_at_once(self):
        # in a child process under a timeout, so a program that draws it fails, not hangs
        huge = "100000000000000000000"
        argv = ["gen", "--n-min", huge, "--n-max", huge]
        program = f"import sys; from sightpath.cli import main; sys.exit(main({argv!r}))"
        began = time.perf_counter()
        ran = subprocess.run(
            [sys.executable, "-c", program],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
            timeout=30,
        )
        assert time.perf_counter() - began < 10
        assert (ran.returncode, ran.stdout) == (2, "")
        assert ran.stderr == f"bad generator configuration: n_max must be at most 100, got {huge}\n"

    def test_a_palette_literal_with_a_huge_exponent_is_bad_input_at_once(self, capsys):
        began = time.perf_counter()
        assert main(["gen", "--palette", "0,1e-9999999999"]) == 2
        assert time.perf_counter() - began < 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "bad generator configuration: probability literal '1e-9999999999'"
            " has an exponent beyond 4300\n"
        )

    @pytest.mark.parametrize(
        "option", [["--threshold", "-1"], ["--cache-size", "0"]], ids=["threshold", "cache-size"]
    )
    def test_approx_settings_are_bad_input(self, tmp_path, instance_file, option, capsys):
        scenario = scenario_file(tmp_path, know(e_2_3=UP))
        assert main(["approx", instance_file, "--scenario", scenario, "--edge", "1-2", *option]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bad approximation settings: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "option", [["--threshold", "-1"], ["--cache-size", "0"]], ids=["threshold", "cache-size"]
    )
    def test_approx_compare_settings_are_bad_input(self, tmp_path, option, capsys):
        suite_dir = tmp_path / "suite"
        main(["gen", "--seed", "13", "--count", "2", "--out", str(suite_dir)])
        capsys.readouterr()
        assert main(["approx-compare", str(suite_dir), *option]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("bad approximation settings: ")
        assert captured.err.count("\n") == 1

    def test_a_tie_tolerance_is_an_unknown_argument(self, instance_file, capsys):
        # float mode's tie guard is a constant of the solver, not a setting
        with pytest.raises(SystemExit) as caught:
            main(["decide", instance_file, "--edge", "1-2", "--mode", "float", "--tol", "0.2"])
        assert caught.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --tol 0.2" in captured.err

    def test_a_negative_cap_is_bad_input(self, tmp_path, capsys):
        # refused before the file is read: this one does not exist
        assert main(["oracle-check", str(tmp_path / "missing.json"), "--cap", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "bad enumeration cap: --cap must not be negative, got -1\n"


def test_unset_generator_and_cache_options_build_the_library_defaults(
    monkeypatch, tmp_path, plain_file, capsys
):
    seen = []
    for name, at in (
        ("generate_instance", 0),
        ("ApproxSolver", 1),
        ("agreement_report", 1),
    ):
        def spy(*args, real=getattr(cli, name), at=at, **kwargs):
            seen.append(args[at])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    directory = tmp_path / "instances"
    directory.mkdir()
    (directory / "plain.json").write_text(Path(plain_file).read_text())
    assert main(["gen"]) == 0
    assert main(["gap-search"]) == 0
    assert main(["approx", plain_file, "--edge", "1-3"]) == 0
    assert main(["approx-compare", str(directory)]) == 0
    assert seen == [GeneratorConfig(), GeneratorConfig(), ApproxConfig(), ApproxConfig()]


class TestRepeatedCalls:
    def test_one_parser_serves_every_call(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_every_call_prints_what_the_first_printed(self, tmp_path, instance_file, capsys):
        scenario = scenario_file(tmp_path, know(e_2_3=UP))
        calls = [
            ["decide", instance_file, "--scenario", scenario, "--edge", "1-2"],
            ["oracle-check", instance_file],
            ["decide", instance_file, "--scenario", scenario, "--edge"],
            ["decide", instance_file, "--scenario", scenario, "--edge", "1-3", "--mode", "float"],
            ["mc", instance_file, "--trials", "40", "--seed", "3", "--json"],
            ["oracle-check", instance_file, "--cap", "2"],
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        first = [run(argv) for argv in calls]
        assert [code for code, _, _ in first] == [0, 0, ("exit", 2), 1, 0, 1]
        assert first[2][2].startswith("usage: sightpath decide")
        for _ in range(3):
            assert [run(argv) for argv in calls] == first


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle-check", "{instance}"],
        ["decide", "{instance}", "--scenario", "{scenario}", "--edge", "1-2"],
        ["validate", "{instance}"],
    ],
    ids=["oracle-check", "decide", "validate"],
)
def test_a_command_validates_its_instance_once(tmp_path, instance_file, capsys, monkeypatch, argv):
    from sightpath import model

    # every validate() pass ends in one report, whichever name it was called by
    passes = []
    report = model.ValidationReport
    monkeypatch.setattr(
        model, "ValidationReport", lambda violations: passes.append(violations) or report(violations)
    )
    scenario = scenario_file(tmp_path, know(e_2_3=UP))
    assert main([arg.format(instance=instance_file, scenario=scenario) for arg in argv]) == 0
    capsys.readouterr()
    assert len(passes) == 1
