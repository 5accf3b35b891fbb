"""Fast invariant suite behind the ``selfcheck`` CLI command.

Each group re-derives a core guarantee from scratch (brute force where
feasible) and reports pass/fail; the whole suite runs in a few seconds.  The
random instances and brute-force references are public, and the test suite
uses them too.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .bcagm import TENSOR_METHODS, TraceViolation, run_method
from .lap import AssignmentVector, solve_lap_max
from .tensor import (
    LiftedOperator,
    MatchingShape,
    SparseSymmetricTensor3,
    f4_norm_exact,
)

__all__ = [
    "CheckResult",
    "run_selfcheck",
    "random_tensor",
    "random_matching",
    "all_assignments",
    "lap_brute",
]


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def random_tensor(rng, shape: MatchingShape, orbits: int) -> SparseSymmetricTensor3:
    """``orbits`` random triples of distinct indices with uniform [0, 1) values."""
    triples = np.array(
        [rng.choice(shape.n, size=3, replace=False) for _ in range(orbits)]
    ).reshape(orbits, 3)
    return SparseSymmetricTensor3(shape, triples, rng.uniform(0.0, 1.0, size=orbits))


def random_matching(rng, shape: MatchingShape) -> AssignmentVector:
    cols = tuple(int(c) for c in rng.permutation(shape.n2)[: shape.n1])
    return AssignmentVector(shape, cols)


def all_assignments(shape: MatchingShape):
    """All one-to-one matchings as column tuples, in lexicographic order."""
    return list(itertools.permutations(range(shape.n2), shape.n1))


def lap_brute(profit: np.ndarray):
    """Exhaustive linear assignment maximum: (best objective, best columns).

    Objectives are accumulated in row order, matching how tests score the
    solver's output, so equality comparisons are exact.
    """
    n1, n2 = profit.shape
    rows = np.arange(n1)
    best_obj, best_cols = -np.inf, None
    for cols in itertools.permutations(range(n2), n1):
        obj = float(profit[rows, np.asarray(cols)].sum())
        if obj > best_obj:
            best_obj, best_cols = obj, cols
    return best_obj, best_cols


def _check_identities() -> CheckResult:
    rng = np.random.default_rng(11)
    shape = MatchingShape(3, 4)
    for _ in range(5):
        tensor = random_tensor(rng, shape, 18)
        alpha = float(rng.uniform(0.5, 2.0))
        op = LiftedOperator(tensor, alpha)
        op0 = LiftedOperator(tensor, 0.0)
        x, y, z, t = (rng.standard_normal(shape.n) for _ in range(4))
        ref = op.form(x, y, z, t)
        for perm in itertools.permutations((x, y, z, t)):
            if abs(op.form(*perm) - ref) > 1e-12 * (1.0 + abs(ref)):
                return CheckResult("multilinear-identities", False, "permutation invariance")
        m = random_matching(rng, shape).indicator()
        s4 = op0.score(m)
        if abs(s4 - 4.0 * shape.n1 * tensor.score(m)) > 1e-10 * (1.0 + abs(s4)):
            return CheckResult("multilinear-identities", False, "lifting identity")
        if abs(op.score(m) - s4 - alpha * shape.n1**2) > 1e-10 * (1.0 + abs(s4)):
            return CheckResult("multilinear-identities", False, "constant shift on matchings")
    return CheckResult("multilinear-identities", True, "form symmetry, lifting, constant shift")


def _check_block_bounds() -> CheckResult:
    rng = np.random.default_rng(23)
    shape = MatchingShape(3, 3)
    for _ in range(4):
        tensor = random_tensor(rng, shape, 12)
        op = LiftedOperator(tensor, 3.0 * f4_norm_exact(tensor))
        for _ in range(50):
            x, y, z, t = (rng.standard_normal(shape.n) for _ in range(4))
            scores = [op.score(v) for v in (x, y, z, t)]
            pair = op.form(x, x, y, y)
            bound = max(scores[0], scores[1])
            if bound - pair < -1e-9 * (1.0 + max(abs(pair), abs(bound))):
                return CheckResult("block-bound-inequalities", False, "two-block form")
            quad = op.form(x, y, z, t)
            bound = max(scores)
            if bound - quad < -1e-9 * (1.0 + max(abs(quad), abs(bound))):
                return CheckResult("block-bound-inequalities", False, "four-block form")
    return CheckResult("block-bound-inequalities", True, "block bounds at exact alpha")


def _check_equivalence() -> CheckResult:
    rng = np.random.default_rng(37)
    shape = MatchingShape(3, 3)
    for _ in range(5):
        tensor = random_tensor(rng, shape, 10)
        op = LiftedOperator(tensor, 3.0 * f4_norm_exact(tensor))
        points = [AssignmentVector(shape, cols).indicator() for cols in all_assignments(shape)]
        best_diag = max(op.score(x) for x in points)
        best_free = max(
            op.form(x, y, z, t)
            for x in points
            for y in points
            for z in points
            for t in points
        )
        if abs(best_diag - best_free) > 1e-10 * (1.0 + abs(best_diag)):
            return CheckResult("tiny-scale-equivalence", False, f"{best_diag} vs {best_free}")
    return CheckResult("tiny-scale-equivalence", True, "diagonal equals free maximum")


def _check_lap() -> CheckResult:
    rng = np.random.default_rng(41)
    for _ in range(20):
        profit = rng.standard_normal((4, 6))
        got = solve_lap_max(profit)
        rows = np.arange(4)
        got_obj = float(profit[rows, np.array(got.cols)].sum())
        best, _ = lap_brute(profit)
        if got_obj != best:
            return CheckResult("lap-bruteforce", False, f"{got_obj} != {best}")
    return CheckResult("lap-bruteforce", True, "matches exhaustive optimum")


def _check_monotonic() -> CheckResult:
    rng = np.random.default_rng(53)
    shape = MatchingShape(4, 6)
    for _ in range(15):
        tensor = random_tensor(rng, shape, 30)
        for method, fields in TENSOR_METHODS.items():
            if fields is None:  # the power-method baseline claims no ascent
                continue
            try:
                sol = run_method(method, tensor)
            except TraceViolation as exc:
                return CheckResult("solver-monotonicity", False, str(exc))
            if sol.trace.terminated != "stalled":
                return CheckResult(
                    "solver-monotonicity", False, f"terminated={sol.trace.terminated}"
                )
    return CheckResult("solver-monotonicity", True, "strict ascent, finite termination")


GROUPS = (
    _check_identities,
    _check_block_bounds,
    _check_equivalence,
    _check_lap,
    _check_monotonic,
)


def run_selfcheck() -> list[CheckResult]:
    return [group() for group in GROUPS]
