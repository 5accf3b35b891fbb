"""Outputs that performance changes must leave alone.

A small deterministic synth grid is pinned against its checked-in CSV, every
column exactly except ``score3``, which may move by a libm ulp; and the bytes
of a few tensors are pinned by digest.
"""

import csv
import hashlib
import io
from pathlib import Path

import pytest
from test_affinity import scene_instance

from hypermatch import build_tensor
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


# sha256 of build_tensor's idx and val bytes on tie-free random instances,
# keyed by scene_instance's (seed, n_in, n_out).  10 into 110 and 4 into 108
# points sample the scene triples, since C(108, 3) = 204 156 exceeds
# affinity.Q_TRIPLE_CAP; the scene then draws from the template's stream, so
# the 4-point template must make every one of its draws.
TENSOR_DIGESTS = {
    (21, 10, 30): (
        "32f4ecaa16423d08b8f68a2f9f07146c9347e9b907b20dedb54f999a67e18596",
        "0e3ed11ac6313c990036e1091cc78643294c21fa69846d913e7e91d5a948c084",
    ),
    (22, 10, 40): (
        "131887dada24f82837c1f816418f2043f0519ee7575bac94cb2d2da028af5c23",
        "79c605ee83f2e3510a8381beda524247b301e6e4165b002fe586aa0536bf4e5e",
    ),
    (23, 3, 5): (
        "5cf5cbe361efa245a2930f2b458b92e9f5d67da25d970f74da84c7ab6e05e2f8",
        "ae7251c4db3f0b56d1772d0c3013bf5623c365c6d3bc2b01961ff8b42caec3cb",
    ),
    (24, 8, 0): (
        "f3a188db7ed5c83687ab94cae16e2026d9ff619d20817c83fc90cc264ae42aef",
        "8828d24c32585a75a50b4ca3e2163a19955ac429c3bedbdb4de8c36141aa2332",
    ),
    (25, 10, 100): (
        "1030c2f16c2e1eacbe8c7296f439e691a3439b53f4fe06d37dae68f78c19f0fd",
        "02af1f27ec9ef54688d625e049a71082f2d3a3568a02ce6653bb03730b6869df",
    ),
    (26, 4, 104): (
        "0d7e9bc1a3220e9fa0800db511c27192efacb14f6e2207da7a68dbce36c6b1bf",
        "22063294c899c36a544971b215bf4631738d78c0de9fc47551c9598da4995edb",
    ),
}


@pytest.mark.parametrize("seed, n_in, n_out", list(TENSOR_DIGESTS))
def test_tensor_bytes_match_frozen_digests(seed, n_in, n_out):
    t = build_tensor(*scene_instance(seed, n_in, n_out))
    got = tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in (t.idx, t.val))
    assert got == TENSOR_DIGESTS[seed, n_in, n_out]
