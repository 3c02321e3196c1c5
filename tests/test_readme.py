"""The README's library quick start, run as written (its CLI session is pinned in test_cli)."""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_every_commented_result_holds():
    namespace: dict = {}
    results = []
    statement = ""
    for line in quick_start_block().splitlines():
        code, _, comment = line.partition("  #")
        if statement or not comment:
            # a statement, which may span several lines
            statement += line + "\n"
            if statement.count("(") == statement.count(")"):
                exec(statement, namespace)
                statement = ""
        else:
            results.append((comment.strip(), eval(code, namespace)))
    assert [comment for comment, _ in results] == [
        "Fraction(9, 10)", "(1, 2)", "True", "True", "Fraction(17, 20)", "~0.85",
    ]
    for comment, got in results[:-1]:
        assert got == eval(comment, {"Fraction": Fraction})
    # run_trials(inst, 100_000, seed=42).rate: 85050 successes, as `mc` prints
    assert results[-1][1] == 85050 / 100_000
