"""Runs the fenced ``python`` blocks of README.md, and its problem file
through ``hypermatch match``, so the docs keep naming the API and the file
format that exist."""

import re
from pathlib import Path

import pytest

from hypermatch.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme"})


def test_problem_file_block_matches(tmp_path):
    (document,) = re.findall(r"^```json\n(.*?)^```", TEXT, re.M | re.S)
    problem = tmp_path / "problem.json"
    problem.write_text(document, encoding="utf-8")
    assert main(["match", str(problem), "--output", str(tmp_path / "result.json")]) == 0
