"""Similarity invariance of the tensor build and robustness of ``match``.

Scaling by a power of two, a quarter turn and a reflection are exact in
floating point, so they must leave the tensor's bytes unchanged.  Decimal
scales are not exact; there the assignment must still be the unit-scale one.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypermatch import build_tensor, gen_instance
from hypermatch.bcagm import TENSOR_METHODS
from hypermatch.cli import main
from test_acceptance import ASCENT_METHODS

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)
EMPTY_WARNING = "hypermatch: warning: the affinity tensor is empty; the assignment is a guess\n"

# Exact maps of the plane: identity, quarter turn, half turn, reflection.
EXACT_MAPS = (
    lambda X: X,
    lambda X: np.column_stack([-X[:, 1], X[:, 0]]),
    lambda X: -X,
    lambda X: np.column_stack([X[:, 0], -X[:, 1]]),
)


def run_match(doc, *flags: str):
    """``hypermatch match`` on ``doc`` (a dict, or JSON text) in process:
    (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "p.json")
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(doc if isinstance(doc, str) else json.dumps(doc))
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


# Every kind of JSON value, with the valid option strings and small integers
# among them.  json.dumps writes inf as Infinity; the text below swaps in the
# literal 1e400, which Python's json reads as the same inf.
NUMBERS = st.one_of(st.integers(0, 12), st.floats(), st.just(math.inf))
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=6),
    st.sampled_from((*TENSOR_METHODS, "zero", "bound", "zero-then-bound")),
    NUMBERS,
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# Small integer coordinates make duplicate and collinear points common.
COORDINATES = st.one_of(st.integers(0, 12), st.floats(-1e3, 1e3))
POINT_LISTS = st.lists(st.lists(COORDINATES, min_size=2, max_size=2), min_size=3, max_size=8)
OPTION_KEYS = ("method", "alpha_mode", "triples_per_point", "knn", "seed", "gamma", "sigma_s")


@st.composite
def any_problem_text(draw):
    """A problem document, up to two of whose fields are replaced by any JSON
    value or dropped, as JSON text."""
    doc = {
        "format_version": 1,
        "points_p": draw(POINT_LISTS),
        "points_q": draw(POINT_LISTS),
        "options": draw(st.dictionaries(st.sampled_from(OPTION_KEYS), VALUES, max_size=2)),
    }
    for key in draw(st.permutations(tuple(doc)))[: draw(st.integers(0, 2))]:
        if draw(st.booleans()):
            doc[key] = draw(VALUES)
        else:
            del doc[key]
    return json.dumps(doc).replace("Infinity", "1e400")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(text=any_problem_text())
def test_match_exits_0_1_or_2_on_any_document(text):
    code, out, err = run_match(text)
    if code == 0:
        assert err in ("", EMPTY_WARNING)
        result = json.loads(out)
        assert len(set(result["assignment"])) == result["n1"]
        scores = result["trace"]["u_scores3"]
        assert all(b > a for a, b in zip(scores, scores[1:]))
    else:
        assert code in (1, 2), err
        assert err.startswith("hypermatch: ") and err.count("\n") == 1, err


def _scene(P, seed, outliers=3):
    """A noisy, permuted copy of ``P`` with ``outliers`` extra points."""
    rng = np.random.default_rng(seed)
    noisy = P + 0.01 * rng.standard_normal(P.shape)
    Q = np.concatenate([noisy, rng.standard_normal((outliers, 2))])
    return Q[rng.permutation(len(Q))]


_BASE = np.random.default_rng(8).standard_normal((6, 2))
_WITH_LINE = np.vstack([_BASE[:3], np.column_stack([np.arange(4.0), 0.5 * np.arange(4.0) + 1.0])])
_SCENE = _scene(_BASE, 2)
DEGENERATE_CASES = {
    "duplicate points in P": (np.vstack([_BASE, _BASE[:1]]), _scene(_BASE, 1)),
    "duplicate points in Q": (_BASE, np.vstack([_SCENE, _SCENE[:1]])),
    "collinear subset": (_WITH_LINE, _scene(_WITH_LINE, 3)),
    "n1 == 3": (_BASE[:3], _scene(_BASE[:3], 4)),
    "n1 == n2": (_BASE, _scene(_BASE, 5, outliers=0)),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE_CASES))
@pytest.mark.parametrize("method", ASCENT_METHODS)
def test_degenerate_inputs_ascend_strictly(case, method):
    P, Q = DEGENERATE_CASES[case]
    code, out, err = run_match(problem(P.tolist(), Q.tolist()), "--method", method)
    assert (code, err) == (0, "")
    result = json.loads(out)
    assignment = result["assignment"]
    assert len(assignment) == len(P) and len(set(assignment)) == len(P)
    assert all(1 <= j <= len(Q) for j in assignment)
    scores = result["trace"]["u_scores3"]
    assert all(b > a for a, b in zip(scores, scores[1:]))
