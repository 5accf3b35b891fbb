"""Outputs that performance changes must leave alone.

A small deterministic synth grid is pinned against its checked-in CSV, every
column exactly except ``score3``, which may move by a libm ulp; and the bytes
of a few tensors and of every tensor method's solution on them are pinned by
digest.
"""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_affinity import scene_instance

from hypermatch import build_tensor, run_method
from hypermatch.bcagm import TENSOR_METHODS
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


def solution_doc(sol) -> str:
    """Every output of a solve as text: the floats by ``repr``, so equal
    documents mean equal bytes."""
    return json.dumps(
        [
            list(sol.assignment.cols),
            repr(sol.score3),
            repr(sol.score4_alpha),
            sol.trace.as_dict(),
            sol.outer_iterations,
        ],
        sort_keys=True,
    )


def solution_digests(seed: int, n_in: int, n_out: int) -> dict:
    """sha256 of ``solution_doc`` for every tensor method on one instance."""
    t = build_tensor(*scene_instance(seed, n_in, n_out))
    return {
        method: hashlib.sha256(solution_doc(run_method(method, t)).encode()).hexdigest()
        for method in TENSOR_METHODS
    }


# solution_digests on the TENSOR_DIGESTS instances whose scene triples are
# enumerated, with one BLAS thread; frozen before the solvers kept a
# contraction memo.  bcagm_mp and bcagm_ipfp agree on all four.
SOLUTION_DIGESTS = {
    (21, 10, 30): {
        "bcagm": "056b7ff4b472c5f57b0cbce74b00333f1fae2268ddbea56a33c96a2b40082065",
        "bcagm_mp": "5a04850f65b8e9f33dc46ca5ffbdf0d0ad7dd5dec3a83f537550edc710f51413",
        "bcagm_ipfp": "5a04850f65b8e9f33dc46ca5ffbdf0d0ad7dd5dec3a83f537550edc710f51413",
        "hopm": "92adb55413e674f1526da53c6112511524be1d729a9ee086631777af6c5b2271",
    },
    (22, 10, 40): {
        "bcagm": "47715b2fd5c1d4feb69eaf515ce87e5220fef9e621eb08383f04e60a3ff2d66f",
        "bcagm_mp": "b191e8e131baef508588dc14b00b5cb54ba01435399e921a7e9c33d9ca123d1b",
        "bcagm_ipfp": "b191e8e131baef508588dc14b00b5cb54ba01435399e921a7e9c33d9ca123d1b",
        "hopm": "d89ef64ebf9e31ad4d788fd9adcd920268b7719f832a44161bd709907ba07de5",
    },
    (23, 3, 5): {
        "bcagm": "4994f60d1bb4ff4905428b2d39bea8945927d2f205775b9f31fe6fdc1fd67520",
        "bcagm_mp": "6481c8c072f943eac72cf69586e6d69d9d30cc7f5c024b311a1110f20bc6d153",
        "bcagm_ipfp": "6481c8c072f943eac72cf69586e6d69d9d30cc7f5c024b311a1110f20bc6d153",
        "hopm": "cf8f0b6fb5ae4e63d3294bf526acbb83db47347151f9e83cb45e3a7c566cb2dd",
    },
    (24, 8, 0): {
        "bcagm": "c1dbbb037c59e99a878d5fb27c36e77b95e39a4df79433140bd7b9c0ba49221d",
        "bcagm_mp": "1f6847330387252debafbcd038202b5353f45f7fa07cf051dca159cd54e97b6a",
        "bcagm_ipfp": "1f6847330387252debafbcd038202b5353f45f7fa07cf051dca159cd54e97b6a",
        "hopm": "0b5e4b780ab7b043122f66699dbe2af0ed2d0cd92990b1e546538f18a8d84113",
    },
}

# A threaded BLAS dot sums in another order, so the last bits of the scores
# (and of alpha_bound) depend on the thread count; the digests are taken in
# a child process with one thread.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@pytest.mark.parametrize("seed, n_in, n_out", list(SOLUTION_DIGESTS))
def test_solutions_match_frozen_digests(seed, n_in, n_out):
    env = {
        **os.environ,
        **dict.fromkeys(BLAS_THREAD_VARS, "1"),
        "PYTHONPATH": os.pathsep.join([str(Path(__file__).parent), *sys.path]),
    }
    code = (
        "import json, test_golden; "
        f"print(json.dumps(test_golden.solution_digests({seed}, {n_in}, {n_out})))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == SOLUTION_DIGESTS[seed, n_in, n_out]
