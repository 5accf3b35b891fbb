"""A small deterministic synth grid against its checked-in CSV.

Performance changes must leave matchings alone; this pins every column of
the grid exactly, except ``score3``, which may move by a libm ulp.
"""

import csv
import io
from pathlib import Path

import pytest

from hypermatch.cli import main

GOLDEN = Path(__file__).parent / "golden" / "synth_n10_out0-20_seed7.csv"
ARGS = [
    "synth", "--deterministic", "--n-in", "10", "--n-out", "0:20:10",
    "--trials", "2", "--methods", "bcagm,hopm", "--seed", "7",
]


def test_synth_grid_matches_golden_csv(tmp_path):
    out = tmp_path / "grid.csv"
    assert main([*ARGS, "--output", str(out)]) == 0
    got = list(csv.DictReader(io.StringIO(out.read_text(encoding="utf-8"))))
    want = list(csv.DictReader(io.StringIO(GOLDEN.read_text(encoding="utf-8"))))
    assert len(got) == len(want)
    assert list(got[0]) == list(want[0])
    for g, w in zip(got, want):
        assert float(g.pop("score3")) == pytest.approx(float(w.pop("score3")), rel=1e-9)
        assert g == w
