"""Monotonic-ascent subroutines for the quadratic assignment subproblem.

Both heuristics maximize ``<x, A x>`` over one-to-one matchings for a
nonnegative symmetric matrix ``A``.  Neither is globally optimal (the
problem is NP-hard); :func:`psi_with_guard` wraps either one so that the
returned matching never scores below the incumbent, which is the contract
the two-block solver relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lap import AssignmentVector, reshape_to_profit, solve_lap_max
from .tensor import MatchingShape, _as_vector

__all__ = ["QapResult", "MpmResult", "qap_objective", "ipfp", "mpm", "psi_with_guard"]

# The subroutines psi_with_guard runs.
SUBROUTINES = ("ipfp", "mpm")

# Iteration caps of ipfp and mpm, and the step below which mpm has converged.
IPFP_MAX_ITER = 50
MPM_MAX_ITER = 300
MPM_TOL = 1e-10


@dataclass(frozen=True)
class QapResult:
    """Outcome of a quadratic assignment subroutine."""

    assignment: AssignmentVector
    objective: float
    inner_iterations: int


class MpmResult(NamedTuple):
    vector: np.ndarray
    iterations: int
    converged: bool
    degenerate: bool


def _check_qap(A, n: int) -> np.ndarray:
    A = np.asarray(A, dtype=np.float64)
    if A.shape != (n, n):
        raise ValueError(f"affinity matrix must be {n}x{n}, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("affinity matrix has non-finite entries")
    scale = float(A.max(initial=0.0))
    if A.size and float(A.min()) < 0.0:
        raise ValueError("affinity matrix must be nonnegative")
    # The solvers' own Hessians are exactly symmetric, which the cheap exact
    # comparison settles; allclose accepts every such matrix too.
    if not np.array_equal(A, A.T) and not np.allclose(
        A, A.T, rtol=1e-12, atol=1e-12 * (1.0 + scale)
    ):
        raise ValueError("affinity matrix must be symmetric")
    return A


def qap_objective(A, assignment: AssignmentVector) -> float:
    """``<x, A x>`` for the assignment's indicator vector."""
    x = assignment.indicator()
    return float(x @ (np.asarray(A, dtype=np.float64) @ x))


def ipfp(A, x0: AssignmentVector) -> QapResult:
    """Integer projected fixed point iteration with exact line search.

    Alternates a linear assignment on the current gradient with a
    closed-form maximization of the quadratic along the segment toward the
    projected point.  The result is the best matching among the start, every
    projected point seen, and the discretized final iterate, so the
    objective never drops below the start's.
    """
    shape = x0.shape
    A = _check_qap(A, shape.n)
    x = x0.indicator()
    g = A @ x  # once per iterate: the start objective and each LAP profit
    best = x0
    best_obj = float(x @ g)
    iterations = 0
    while True:
        b = solve_lap_max(reshape_to_profit(g, shape))
        b_obj = qap_objective(A, b)
        if b_obj > best_obj:
            best, best_obj = b, b_obj
        if iterations == IPFP_MAX_ITER:
            break  # b discretized the final iterate
        iterations += 1
        d = b.indicator() - x
        ascent = float(g @ d)  # equals <x, A d> by symmetry
        if ascent <= 0.0:
            break  # fixed point of the projection
        Ad = A @ d
        curvature = float(d @ Ad)
        if curvature >= 0.0:
            step = 1.0
        else:
            step = min(1.0, -ascent / curvature)
        x = x + step * d
        g = A @ x
    return QapResult(best, best_obj, iterations)


def _power_iterate(step, x, max_iter: int, tol: float) -> MpmResult:
    """Iterate ``x <- step(x) / ||step(x)||`` from the unit vector ``x``.

    Stops when successive iterates differ by at most ``tol`` or after
    ``max_iter`` rounds.  If a step annihilates the iterate, the previous
    iterate is returned with ``degenerate=True``.
    """
    converged = False
    degenerate = False
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        new = step(x)
        norm_new = float(np.linalg.norm(new))
        if norm_new == 0.0:
            degenerate = True
            break
        new = new / norm_new
        delta = float(np.linalg.norm(new - x))
        x = new
        if delta <= tol:
            converged = True
            break
    return MpmResult(x, iterations, converged, degenerate)


def mpm(A, shape: MatchingShape, x0=None) -> MpmResult:
    """Max-pooling power iteration.

    Each coordinate ``(i, a)`` is updated with its own diagonal term plus,
    for every other row ``j``, the single best partner ``max_b A[(i,a),(j,b)]
    * x[(j,b)]``; the iterate is then renormalized to unit 2-norm.  Stops
    when successive iterates differ by at most ``MPM_TOL`` or after
    ``MPM_MAX_ITER`` rounds.  Returns the continuous vector; discretization
    is the caller's job.  If an update annihilates the iterate (e.g.
    ``A = 0``), the previous iterate is returned with ``degenerate=True``.
    """
    n = shape.n
    A = _check_qap(A, n)
    if x0 is None:
        x0 = np.ones(n)
    x0 = _as_vector(x0, n, "start vector")
    if np.any(x0 < 0.0):
        raise ValueError("start vector must be nonnegative")
    norm0 = float(np.linalg.norm(x0))
    if norm0 == 0.0:
        raise ValueError("start vector must be nonzero")
    n1, n2 = shape.n1, shape.n2
    # blocks[b, i, a, j] = A[(i,a),(j,b)]: the pooled index b is the outermost
    # axis, so the max runs over contiguous (n1, n2, n1) slabs.
    blocks = np.ascontiguousarray(A.reshape(n1, n2, n1, n2).transpose(3, 0, 1, 2))
    diag = A.diagonal().reshape(n1, n2)
    rows = np.arange(n1)

    def pool(x):
        xm = x.reshape(n1, n2)
        pooled = (blocks * xm.T[:, None, None, :]).max(axis=0)  # (n1, n2, n1)
        total = pooled.sum(axis=2)
        own = pooled[rows, :, rows]  # pooled term of the own row, replaced below
        return (total - own + xm * diag).reshape(n)

    return _power_iterate(pool, x0 / norm0, MPM_MAX_ITER, MPM_TOL)


def psi_with_guard(A, x0: AssignmentVector, method: str) -> QapResult:
    """Run a QAP subroutine and enforce monotonic ascent.

    :func:`ipfp` already returns the best of its start and every matching it
    visits, so its result comes back as is.  The max-pooling output is
    discretized by a linear assignment on the continuous vector; that
    candidate is returned only if its objective is at least the incumbent's,
    otherwise the incumbent comes back unchanged.  This makes either
    subroutine a valid ascent step.
    """
    if method not in SUBROUTINES:
        raise ValueError(f"unknown subroutine {method!r}, expected one of {SUBROUTINES}")
    if method == "ipfp":
        return ipfp(A, x0)
    # mpm validates A; the objectives below are read only after it has, so a
    # malformed A fails with the validation message.
    shape = x0.shape
    mres = mpm(A, shape, x0.indicator())
    candidate = solve_lap_max(reshape_to_profit(mres.vector, shape))
    candidate_obj = qap_objective(A, candidate)
    incumbent_obj = qap_objective(A, x0)
    if candidate_obj >= incumbent_obj:
        return QapResult(candidate, candidate_obj, mres.iterations)
    return QapResult(x0, incumbent_obj, mres.iterations)
