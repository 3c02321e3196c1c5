"""Smoke test of the benchmark itself, at a tiny size.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_POOL = {"solve": 12, "verify": 3, "mc": 4, "approx": 12}


@pytest.fixture
def tiny(monkeypatch):
    for name, workload in WORKLOADS.items():
        monkeypatch.setattr(workload, "pool", TINY_POOL[name])
        monkeypatch.setattr(workload, "traced_ops", TINY_POOL[name])


def bench(capsys, workload: str, trace: str) -> tuple[list[str], dict]:
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.3", "--trace", trace]) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_printed_with_its_unit_and_no_op_fails(tiny, capsys, workload, trace):
    lines, result = bench(capsys, workload, trace)
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in declared:
        assert any(
            line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line for line in lines
        ), m["name"]
    assert any(line.startswith("fail_ratio = 0 ") for line in lines)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1


def test_workloads_match_benchmark_json():
    assert BENCHMARK["workloads"] == [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]


def _lowest_head(candidates):
    return min(candidates, key=lambda pair: (pair[1], pair[0]))


def _first_open_edge(solver, v, knowledge):
    open_edges = [e for e in solver.instance.out_edges(v) if knowledge.status(e) is None]
    return open_edges[0] if open_edges else None


def _blind_distance(a, b):
    return 0


# Each breakage is patched into the program that the benchmark imports, so it
# must show up as failed ops.
BREAKAGES = {
    "solve": (lambda sp: sp.exact, "tiebreak", _lowest_head),
    "verify": (lambda sp: sp.exact, "tiebreak", _lowest_head),
    "mc": (lambda sp: sp.exact.ExactSolver, "next_move", _first_open_edge),
    "approx": (lambda sp: sp.approx, "knowledge_distance", _blind_distance),
}


@pytest.mark.parametrize("workload", sorted(BREAKAGES))
def test_a_broken_program_fails_the_checks(tiny, capsys, monkeypatch, workload):
    owner, name, broken = BREAKAGES[workload]
    load = run.import_program

    def load_broken():
        sp = load()
        setattr(owner(sp), name, broken)
        return sp

    monkeypatch.setattr(run, "import_program", load_broken)
    try:
        lines, result = bench(capsys, workload, "0")
    finally:
        load()  # leave an unbroken program imported
    assert result["failed"] > 0 and result["correct"] is False
    assert any(line.startswith("fail_ratio = ") and not line.startswith("fail_ratio = 0 ") for line in lines)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
