"""Similarity invariance of the tensor build and robustness of ``match``.

Scaling by a power of two, a quarter turn and a reflection are exact in
floating point, so they must leave the tensor's bytes unchanged.  Decimal
scales are not exact; there the assignment must still be the unit-scale one.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermatch import build_tensor, gen_instance
from hypermatch.bcagm import TENSOR_METHODS
from hypermatch.cli import main

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)
EMPTY_WARNING = "hypermatch: warning: the affinity tensor is empty; the assignment is a guess\n"

# Exact maps of the plane: identity, quarter turn, half turn, reflection.
EXACT_MAPS = (
    lambda X: X,
    lambda X: np.column_stack([-X[:, 1], X[:, 0]]),
    lambda X: -X,
    lambda X: np.column_stack([X[:, 0], -X[:, 1]]),
)


def run_match(doc: dict, *flags: str):
    """``hypermatch match`` on ``doc`` in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.json")
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(doc, fp)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["match", path, *flags])
    return code, out.getvalue(), err.getvalue()


def problem(P, Q) -> dict:
    return {"format_version": 1, "points_p": P, "points_q": Q}


@SETTINGS
@given(
    seed=st.integers(0, 2**16),
    n1=st.integers(3, 6),
    extra=st.integers(0, 3),
    kp=st.integers(-900, 900),
    kq=st.integers(-900, 900),
    map_p=st.sampled_from(EXACT_MAPS),
    map_q=st.sampled_from(EXACT_MAPS),
)
def test_exact_similarities_keep_the_tensor_bytes(seed, n1, extra, kp, kq, map_p, map_q):
    P, Q, _ = gen_instance(n1, extra, sigma=0.05, scale=1.0, seed=seed)
    ref = build_tensor(P, Q)
    moved = build_tensor(np.ldexp(map_p(P), kp), np.ldexp(map_q(Q), kq))
    assert moved.idx.tobytes() == ref.idx.tobytes()
    assert moved.val.tobytes() == ref.val.tobytes()


def points(n: int):
    coordinate = st.floats(-1e3, 1e3)
    return st.lists(st.tuples(coordinate, coordinate), min_size=n, max_size=n)


@st.composite
def any_magnitude_problem(draw):
    n1 = draw(st.integers(3, 6))
    n2 = draw(st.integers(n1, n1 + 3))
    scale = 10.0 ** draw(st.integers(-300, 300))
    P, Q = draw(points(n1)), draw(points(n2))
    return problem(
        [[scale * x, scale * y] for x, y in P], [[scale * x, scale * y] for x, y in Q]
    )


@SETTINGS
@given(doc=any_magnitude_problem(), method=st.sampled_from(tuple(TENSOR_METHODS)))
def test_match_accepts_finite_coordinates_of_any_magnitude(doc, method):
    code, out, err = run_match(doc, "--method", method)
    assert code == 0, err
    assert err in ("", EMPTY_WARNING)
    assignment = json.loads(out)["assignment"]
    assert len(assignment) == len(doc["points_p"])
    assert len(set(assignment)) == len(assignment)
    assert all(1 <= j <= len(doc["points_q"]) for j in assignment)


SEVEN_INTO_TWELVE = gen_instance(7, 5, sigma=0.02, scale=1.0, seed=11)


@pytest.mark.parametrize("k", [0, -300, -150, -12, 12, 150, 200, 300, 307])
def test_decimal_scales_give_the_unit_assignment(k):
    # at unit scale (k = 0) the matching is the ground truth
    P, Q, gt = SEVEN_INTO_TWELVE
    code, out, err = run_match(problem((10.0**k * P).tolist(), (10.0**k * Q).tolist()))
    assert (code, err) == (0, "")
    assert json.loads(out)["assignment"] == (gt + 1).tolist()
