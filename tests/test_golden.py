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
from pathlib import Path

import pytest
from test_affinity import scene_instance

from hypermatch import (
    MatchingShape,
    SparseSymmetricTensor3,
    TrialCase,
    build_matrix2,
    build_tensor,
    qap_objective,
    run_method,
)
from hypermatch.cli import main
from hypermatch.harness import _run_method

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


def solution_digests(seed: int, n_in: int, n_out: int, methods) -> dict:
    """sha256 of ``solution_doc`` for each of ``methods`` on one instance."""
    t = build_tensor(*scene_instance(seed, n_in, n_out))
    return {
        method: hashlib.sha256(solution_doc(run_method(method, t)).encode()).hexdigest()
        for method in methods
    }


# solution_digests on the TENSOR_DIGESTS instances whose scene triples are
# enumerated, where bcagm_mp and bcagm_ipfp agree on all four; and on 10
# into 1001 points, n = 10 010, where a BLAS dot would split its sum across
# threads.  The two-block methods refuse that n, so it pins bcagm and hopm.
# No byte depends on the BLAS thread count.
SOLUTION_DIGESTS = {
    (21, 10, 30): {
        "bcagm": "38b35928f57e650a261813bf231047aba30aba4a95a8e39250855a533a5f2a2a",
        "bcagm_mp": "1b278d2772a752a51cf5250a42d763f9256012bf9c29876a30c98cbb7258f7dc",
        "bcagm_ipfp": "1b278d2772a752a51cf5250a42d763f9256012bf9c29876a30c98cbb7258f7dc",
        "hopm": "92adb55413e674f1526da53c6112511524be1d729a9ee086631777af6c5b2271",
    },
    (22, 10, 40): {
        "bcagm": "fef0459455d00acc069047f265524845ca037ee69f524d76f33c6f5d38ac2c00",
        "bcagm_mp": "b191e8e131baef508588dc14b00b5cb54ba01435399e921a7e9c33d9ca123d1b",
        "bcagm_ipfp": "b191e8e131baef508588dc14b00b5cb54ba01435399e921a7e9c33d9ca123d1b",
        "hopm": "d89ef64ebf9e31ad4d788fd9adcd920268b7719f832a44161bd709907ba07de5",
    },
    (23, 3, 5): {
        "bcagm": "61bcb9bacf137f196be7712c6c976cb1215c6962e9c6dbf096304968764c4391",
        "bcagm_mp": "3e1a6616e2307dcd310a376c27b04f5de2e0ba3617c4f13617b747b1d9c0eaf9",
        "bcagm_ipfp": "3e1a6616e2307dcd310a376c27b04f5de2e0ba3617c4f13617b747b1d9c0eaf9",
        "hopm": "cf8f0b6fb5ae4e63d3294bf526acbb83db47347151f9e83cb45e3a7c566cb2dd",
    },
    (24, 8, 0): {
        "bcagm": "2bba14fcd99cfa833fe126a8b47650f5e1c5bc1ccc1127092cff03a8d5fa9150",
        "bcagm_mp": "1f6847330387252debafbcd038202b5353f45f7fa07cf051dca159cd54e97b6a",
        "bcagm_ipfp": "1f6847330387252debafbcd038202b5353f45f7fa07cf051dca159cd54e97b6a",
        "hopm": "0b5e4b780ab7b043122f66699dbe2af0ed2d0cd92990b1e546538f18a8d84113",
    },
    (28, 10, 991): {
        "bcagm": "90faa0ae3a8617b5d0603d4855cd7f75d141017444dd808a4e4eabbfc53e22d2",
        "hopm": "7b90779595d449d0afce9f9942823f22f0297bd0c3d2f521d9fd6076683cec9c",
    },
}

@pytest.mark.parametrize("seed, n_in, n_out", list(SOLUTION_DIGESTS))
def test_solutions_match_frozen_digests(seed, n_in, n_out):
    want = SOLUTION_DIGESTS[seed, n_in, n_out]
    assert solution_digests(seed, n_in, n_out, tuple(want)) == want


def second_order_digests(seed: int, n_in: int, n_out: int) -> dict:
    """sha256 of ``build_matrix2``'s bytes and of the ``ipfp2`` and ``mpm2``
    outputs on one instance: the assignment, the ``repr`` of its
    ``qap_objective`` and the iterations, from the harness's own calls."""
    P, Q = scene_instance(seed, n_in, n_out)
    A = build_matrix2(P, Q)
    # The second-order methods read only the tensor's shape.
    case = TrialCase(P, Q, None, SparseSymmetricTensor3(MatchingShape(len(P), len(Q))))
    digests = {"matrix2": hashlib.sha256(A.tobytes()).hexdigest()}
    for method in ("ipfp2", "mpm2"):
        assignment, iterations = _run_method(method, case, A)
        doc = json.dumps([list(assignment.cols), repr(qap_objective(A, assignment)), iterations])
        digests[method] = hashlib.sha256(doc.encode()).hexdigest()
    return digests


# second_order_digests on the TENSOR_DIGESTS instances whose scene triples
# are enumerated and whose n stays within DENSE_MATRIX_LIMIT.
SECOND_ORDER_DIGESTS = {
    (21, 10, 30): {
        "matrix2": "1c8b417bed23e25047aeeeb179711c4f6e44cace2a01761ee6a8b3546fb089a0",
        "ipfp2": "7a0ba2603ea6de356582b170ea956698a6c6f4d75671ad04f844d9611022cfb3",
        "mpm2": "95633f3955ba03d3a65d9516e8c3708f0179b1a6a6588c8e3266582708c4e41a",
    },
    (23, 3, 5): {
        "matrix2": "d581895733be98c3c585babcd81217fb8a1082830b516910dfcab32e613e368f",
        "ipfp2": "06f685466f5af54a3cbf8e02fcd006d4b1dbd40028f686759b871926c69551be",
        "mpm2": "a841fb3389a03990dc1167fc345c9879c5696c6b28d3133ff438687541492c18",
    },
    (24, 8, 0): {
        "matrix2": "f9c7cdf1bc60d2573c55f04e6a3be657a39b0026b1ce0cd01eb787f46301559e",
        "ipfp2": "f280d24dd04df995ba88ba0d0e490498d50953d1cecb16aba531f3bbd515c1d1",
        "mpm2": "496a2863cb1a7cff1aba1c4c37c67a992e5ccf355ce30e6786ab9501527c69cf",
    },
}


@pytest.mark.parametrize("seed, n_in, n_out", list(SECOND_ORDER_DIGESTS))
def test_second_order_outputs_match_frozen_digests(seed, n_in, n_out):
    assert second_order_digests(seed, n_in, n_out) == SECOND_ORDER_DIGESTS[seed, n_in, n_out]
