"""One matching through hypermatch's public API, and the checks on its output.

A matching is one instance solved by one method, timed from points in to
assignment out.  A tensor method pays ``build_tensor`` plus its solver call,
as ``hypermatch match`` does; a second-order baseline pays ``build_matrix2``
plus the calls ``harness._run_method`` makes.  Functions are looked up on
their module at call time, so the traced run sees its wrappers.
"""

from __future__ import annotations

import hashlib
import importlib
import json

import numpy as np

import hypermatch as hm

from perfbench.spec import TENSOR_METHODS

BCAGM_METHODS = ("bcagm", "bcagm_ipfp", "bcagm_mp")


class CheckFailed(Exception):
    """A matching's output broke one of the benchmark's checks."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def solve_tensor(method: str, tensor):
    """The solver call of a tensor method, with the default configuration."""
    if method == "bcagm":
        return hm.bcagm_solve(tensor, hm.SolverConfig(variant="bcagm"))
    if method == "hopm":
        return hm.hopm_baseline(tensor)
    subroutine = "mpm" if method == "bcagm_mp" else "ipfp"
    return hm.bcagm_psi_solve(
        tensor, hm.SolverConfig(variant="bcagm_psi", subroutine=subroutine)
    )


def match_api(method: str, P, Q):
    """Run one matching through the library; returns what the checks need."""
    if method in TENSOR_METHODS:
        tensor = hm.build_tensor(P, Q)
        return tensor, solve_tensor(method, tensor)
    A = hm.build_matrix2(P, Q)
    shape = hm.MatchingShape(len(P), len(Q))
    if method == "ipfp2":
        start = hm.solve_lap_max(hm.reshape_to_profit(A @ np.ones(shape.n), shape))
        return A, hm.ipfp(A, start)
    res = hm.mpm(A, shape)
    return A, (res, hm.solve_lap_max(hm.reshape_to_profit(res.vector, shape)))


def match_cli(method: str, problem: str, result: str) -> int:
    """Run one matching through ``hypermatch match``, in process."""
    cli = importlib.import_module("hypermatch.cli")
    return cli.main(["match", problem, "--method", method, "--output", result])


def observe_api(method: str, output) -> tuple[tuple[int, ...], float]:
    """The assignment and score of a library matching.

    The score is ``score3`` for a tensor method and the quadratic objective
    for a second-order baseline.
    """
    if method in TENSOR_METHODS:
        _, sol = output
        return sol.assignment.cols, sol.score3
    A, res = output
    if method == "ipfp2":
        return res.assignment.cols, res.objective
    _, assignment = res
    return assignment.cols, hm.qap_objective(A, assignment)


def observe_cli(code: int, result: str) -> tuple[tuple[int, ...], float]:
    """The assignment and ``score3`` a CLI matching wrote."""
    _expect(code == 0, f"hypermatch match exited with code {code}")
    with open(result, encoding="utf-8") as fp:
        doc = json.load(fp)
    return tuple(c - 1 for c in doc["assignment"]), doc["score3"]


def _check_solution(method, tensor, cols, score3, trace) -> None:
    n1, n2 = tensor.shape.n1, tensor.shape.n2
    _expect(
        len(cols) == n1 and len(set(cols)) == n1 and all(0 <= c < n2 for c in cols),
        f"assignment {cols} is not one-to-one into {n2} columns",
    )
    x = hm.AssignmentVector(tensor.shape, cols).indicator()
    _expect(score3 == tensor.score(x), "score3 differs from tensor.score(assignment)")
    try:
        trace.verify()
    except hm.TraceViolation as exc:
        raise CheckFailed(f"trace audit failed: {exc}") from exc
    if method in BCAGM_METHODS:
        u = trace.u_scores3
        _expect(len(u) >= 1 and all(b > a for a, b in zip(u, u[1:])),
                "u_scores3 not strictly increasing")


def check_api(method: str, P, Q, output) -> None:
    """Every check on a library matching's output."""
    if method in TENSOR_METHODS:
        tensor, sol = output
        _check_solution(method, tensor, sol.assignment.cols, sol.score3, sol.trace)
        return
    A, res = output
    n1, n2 = len(P), len(Q)
    if method == "ipfp2":
        assignment = res.assignment
        _expect(res.objective == hm.qap_objective(A, assignment),
                "ipfp objective differs from the assignment's")
    else:
        mres, assignment = res
        _expect(not mres.degenerate and bool(np.all(np.isfinite(mres.vector))),
                "mpm returned a degenerate or non-finite vector")
    cols = assignment.cols
    _expect(len(set(cols)) == n1 and all(0 <= c < n2 for c in cols),
            f"assignment {cols} is not one-to-one into {n2} columns")


def check_cli(method: str, P, Q, result: str) -> None:
    """Every check on a CLI matching's result file.

    The file must hold the assignment and ``score3`` that the library gives
    for the same problem, and a trace that passes the audit.
    """
    with open(result, encoding="utf-8") as fp:
        doc = json.load(fp)
    cols = tuple(c - 1 for c in doc["assignment"])
    tensor = hm.build_tensor(P, Q)
    ref = solve_tensor(method, tensor)
    _expect(cols == ref.assignment.cols, "CLI assignment differs from the library's")
    _expect(doc["score3"] == ref.score3, "CLI score3 differs from the library's")
    t = doc["trace"]
    trace = hm.SolverTrace(
        stage_scores=t["stage_scores"],
        u_scores3=t["u_scores3"],
        alpha_phases=t["alpha_phases"],
        terminated=t["terminated"],
    )
    _check_solution(method, tensor, cols, doc["score3"], trace)


def instance_key(inst) -> str:
    points = hashlib.sha256(inst.P.tobytes() + inst.Q.tobytes()).hexdigest()[:16]
    return f"{inst.key}:{points}"


def digest(rows) -> str:
    """Hash of every ``(instance, method, assignment, repr(score))`` row."""
    h = hashlib.sha256()
    for key, method, cols, score in rows:
        h.update(f"{key}|{method}|{list(cols)}|{score!r}\n".encode())
    return h.hexdigest()
