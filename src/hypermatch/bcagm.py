"""Tensor block-coordinate ascent drivers for hypergraph matching.

Two variants optimize the lifted symmetric multilinear form over block
copies of the matching variable: the four-block variant solves a globally
optimal linear assignment per block, the two-block variant hands each block
to a guarded quadratic assignment subroutine.  Both merge the blocks back
into a single matching whenever the multilinear value stalls, which yields
a strictly increasing sequence of matching scores until termination.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .lap import AssignmentVector, reshape_to_profit, solve_lap_max
from .qap import SUBROUTINES, _power_iterate, psi_with_guard
from .tensor import LiftedOperator, SparseSymmetricTensor3, alpha_bound

__all__ = [
    "ALPHA_SCHEDULES",
    "TENSOR_METHODS",
    "VARIANTS",
    "TraceViolation",
    "SolverConfig",
    "SolverTrace",
    "Solution",
    "default_start",
    "bcagm_solve",
    "bcagm_psi_solve",
    "hopm_baseline",
    "run_method",
]

# The convexification schedules, by name: one flag per alpha phase, True
# where the phase uses alpha_bound(tensor) and False where it uses zero.
ALPHA_SCHEDULES = {
    "zero_then_bound": (False, True),
    "bound_always": (True,),
    "zero_only": (False,),
}
VARIANTS = ("bcagm", "bcagm_psi")

TERMINATED_STALLED = "stalled"
TERMINATED_MAX_ITERS = "max_outer_iters"

# Relative tolerance of the stall and merge tests and of the trace audit.
EQUALITY_TOL_REL = 1e-12

# Safety cap on block sweeps; the ascent stalls by itself on finitely many matchings.
MAX_OUTER_ITERS = 100

# Iteration cap and convergence tolerance of the power-method baseline.
HOPM_MAX_ITER = 100
HOPM_TOL = 1e-10

# Entries a solve's contraction memo keeps: contract_vec results and scores
# (each at most n floats), and contract_mat results (n x n each).
_MEMO_VECTORS = 8
_MEMO_MATRICES = 1


class TraceViolation(RuntimeError):
    """A solver trace failed the guaranteed-ascent audit."""


@dataclass
class SolverConfig:
    """Parameters of the block-coordinate solvers.

    ``alpha_schedule`` controls the convexification weight: start at zero
    and switch to the safe bound on the first stall (default), use the bound
    from the start, or never convexify.
    """

    variant: str = "bcagm"
    subroutine: str = "ipfp"
    alpha_schedule: str = "zero_then_bound"

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.subroutine not in SUBROUTINES:
            raise ValueError(
                f"subroutine must be one of {SUBROUTINES}, got {self.subroutine!r}"
            )
        if self.alpha_schedule not in ALPHA_SCHEDULES:
            raise ValueError(
                f"alpha_schedule must be one of {tuple(ALPHA_SCHEDULES)}, "
                f"got {self.alpha_schedule!r}"
            )


@dataclass
class SolverTrace:
    """Per-stage history proving monotonic ascent.

    ``stage_scores`` holds the multilinear value after every block update;
    ``u_scores3`` the matching score of the start and of every accepted
    merge; ``alpha_phases`` marks where each convexification phase begins.
    """

    stage_scores: list[float] = field(default_factory=list)
    u_scores3: list[float] = field(default_factory=list)
    alpha_phases: list[dict] = field(default_factory=list)
    terminated: str = ""

    def verify(self) -> None:
        """Audit the ascent guarantees; raises :class:`TraceViolation`."""
        starts = [p["stage_start"] for p in self.alpha_phases]
        bounds = starts + [len(self.stage_scores)]
        for (lo, hi), phase in zip(itertools.pairwise(bounds), self.alpha_phases):
            seg = self.stage_scores[lo:hi]
            for a, b in zip(seg, seg[1:]):
                if b < a - EQUALITY_TOL_REL * (1.0 + abs(a)):
                    raise TraceViolation(
                        f"stage scores decreased within alpha={phase['alpha']}: {a} -> {b}"
                    )
        for a, b in zip(self.u_scores3, self.u_scores3[1:]):
            if not b > a:
                raise TraceViolation(f"merge scores not strictly increasing: {a} -> {b}")

    def as_dict(self) -> dict:
        return {
            "stage_scores": list(self.stage_scores),
            "u_scores3": list(self.u_scores3),
            "alpha_phases": [dict(p) for p in self.alpha_phases],
            "terminated": self.terminated,
        }


@dataclass
class Solution:
    """A matching together with its scores and the ascent trace."""

    assignment: AssignmentVector
    score3: float
    score4_alpha: float
    trace: SolverTrace
    outer_iterations: int


class _ContractionMemo:
    """A tensor's ``score``, ``contract_vec`` and ``contract_mat`` with the
    recent results kept, so that one solve contracts each operand once.

    The block ascent contracts the same matchings again and again: every
    merge and every alpha phase restarts the blocks from a matching they
    have already seen.  An entry is keyed by its operands' bytes; the
    kernels are deterministic, so equal bytes give equal results, and a hit
    returns the very bytes a fresh pass would.  ``contract_vec`` is keyed by
    the unordered pair: swapping its operands, or passing an equal copy of
    ``x`` as ``y`` instead of ``x`` itself, gives the same bytes.  Each
    table drops its least recently used entry when full, and a miss on
    ``contract_mat`` drops the held matrix before it computes the next one.
    Results are read-only.  A miss calls the tensor's own kernel, which
    checks the operands.
    """

    __slots__ = ("tensor", "shape", "_vec", "_score", "_mat")

    def __init__(self, tensor: SparseSymmetricTensor3):
        self.tensor = tensor
        self.shape = tensor.shape
        self._vec = {}
        self._score = {}
        self._mat = {}

    @staticmethod
    def _recall(table: dict, size: int, key, compute):
        value = table.pop(key, None)
        if value is None:
            if len(table) >= size:
                del table[next(iter(table))]
            value = compute()
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        table[key] = value
        return value

    def score(self, x) -> float:
        key = np.asarray(x, dtype=np.float64).tobytes()
        return self._recall(self._score, _MEMO_VECTORS, key, lambda: self.tensor.score(x))

    def contract_vec(self, x, y) -> np.ndarray:
        kx = np.asarray(x, dtype=np.float64).tobytes()
        ky = kx if y is x else np.asarray(y, dtype=np.float64).tobytes()
        key = (kx, ky) if kx <= ky else (ky, kx)
        return self._recall(
            self._vec, _MEMO_VECTORS, key, lambda: self.tensor.contract_vec(x, y)
        )

    def contract_mat(self, x) -> np.ndarray:
        key = np.asarray(x, dtype=np.float64).tobytes()
        return self._recall(self._mat, _MEMO_MATRICES, key, lambda: self.tensor.contract_mat(x))


def default_start(tensor: SparseSymmetricTensor3) -> AssignmentVector:
    """One linear-assignment step applied to the all-ones blocks.

    The all-ones vector itself is not a matching; a single block update
    lands on one, and the convexification term only shifts the profit by a
    constant, so the result does not depend on alpha.
    """
    op = LiftedOperator(tensor, 0.0)
    ones = np.ones(tensor.shape.n)
    profit = op.contract_vec(ones, ones, ones)
    return solve_lap_max(reshape_to_profit(profit, tensor.shape))


def _ascent(tensor, cfg, nblocks, update):
    """Shared driver: block sweeps, stall detection, merges, alpha phases."""
    tol = EQUALITY_TOL_REL
    trace = SolverTrace()
    memo = _ContractionMemo(tensor)
    u_best = default_start(memo)
    u_vec = u_best.indicator()
    trace.u_scores3.append(memo.score(u_vec))

    outer = 0
    hit_cap = False
    bound = alpha_bound(tensor)
    for convexify in ALPHA_SCHEDULES[cfg.alpha_schedule]:
        alpha = bound if convexify else 0.0
        op = LiftedOperator(memo, alpha)
        assigns = [u_best] * nblocks
        vecs = [u_vec] * nblocks
        f_cur = s4_best = op.score(u_vec)
        trace.alpha_phases.append(
            {
                "alpha": float(alpha),
                "stage_start": len(trace.stage_scores),
                "u_start": len(trace.u_scores3),
            }
        )
        while True:
            if outer >= MAX_OUTER_ITERS:
                hit_cap = True
                break
            outer += 1
            for b in range(nblocks):
                a, v, s = update(op, vecs, assigns, b)
                assigns[b] = a
                vecs[b] = v
                trace.stage_scores.append(s)
            f_new = trace.stage_scores[-1]
            if f_new - f_cur > tol * (1.0 + abs(f_new)):
                f_cur = f_new
                continue
            # The multilinear value stalled: merge the blocks back into a
            # single matching, the best of the current blocks.
            scores4 = [op.score(v) for v in vecs]
            best_block = int(np.argmax(scores4))  # first block wins ties
            u_new, u_new_vec, s4_new = (
                assigns[best_block],
                vecs[best_block],
                scores4[best_block],
            )
            merged = s4_new - f_new > tol * (1.0 + abs(f_new))
            # Without a merge the phase ends.  Its terminal argmax is adopted
            # when it strictly beats the incumbent (the sweeps may have
            # climbed without ever merging).
            if merged or s4_new - s4_best > tol * (1.0 + abs(s4_new)):
                u_best, u_vec, s4_best = u_new, u_new_vec, s4_new
                trace.u_scores3.append(memo.score(u_vec))
            if not merged:
                break
            assigns = [u_best] * nblocks
            vecs = [u_vec] * nblocks
            f_cur = s4_best
        if hit_cap:
            break

    trace.terminated = TERMINATED_MAX_ITERS if hit_cap else TERMINATED_STALLED
    trace.verify()
    # Both scores were computed when the incumbent was adopted, under the last phase.
    return Solution(
        assignment=u_best,
        score3=trace.u_scores3[-1],
        score4_alpha=s4_best,
        trace=trace,
        outer_iterations=outer,
    )


def _config_for(variant: str, cfg: SolverConfig | None) -> SolverConfig:
    """``cfg``, or the default config of ``variant``; a config for the other variant is refused."""
    if cfg is None:
        return SolverConfig(variant=variant)
    if cfg.variant != variant:
        raise ValueError(f"config is for variant {cfg.variant!r}, not {variant!r}")
    return cfg


def bcagm_solve(tensor: SparseSymmetricTensor3, cfg: SolverConfig | None = None) -> Solution:
    """Four-block coordinate ascent; every block update is a globally
    optimal linear assignment on the gradient-direction contraction."""
    cfg = _config_for("bcagm", cfg)
    shape = tensor.shape

    def update(op, vecs, assigns, b):
        others = [vecs[j] for j in range(4) if j != b]
        profit = op.contract_vec(*others)
        a = solve_lap_max(reshape_to_profit(profit, shape))
        v = a.indicator()
        return a, v, float(np.dot(profit, v))

    return _ascent(tensor, cfg, 4, update)


def bcagm_psi_solve(tensor: SparseSymmetricTensor3, cfg: SolverConfig | None = None) -> Solution:
    """Two-block coordinate ascent; every block update is a guarded
    quadratic assignment step on the Hessian-direction contraction."""
    cfg = _config_for("bcagm_psi", cfg)

    def update(op, vecs, assigns, b):
        other = vecs[1 - b]
        A = op.contract_mat(other, other)
        res = psi_with_guard(A, assigns[b], cfg.subroutine)
        a = res.assignment
        return a, a.indicator(), res.objective

    return _ascent(tensor, cfg, 2, update)


def hopm_baseline(tensor: SparseSymmetricTensor3) -> Solution:
    """Third-order power iteration baseline with a final discretization.

    Iterates the normalized one-mode contraction from the all-ones direction
    and rounds the limit by a linear assignment.  No ascent guarantee is
    claimed; this exists for score and accuracy comparisons.
    """
    shape = tensor.shape
    n = shape.n
    res = _power_iterate(
        lambda v: tensor.contract_vec(v, v), np.ones(n) / np.sqrt(n), HOPM_MAX_ITER, HOPM_TOL
    )
    if res.degenerate:
        reason, v = "degenerate", np.ones(n)
    else:
        reason, v = ("converged" if res.converged else "max_iters"), res.vector
    assignment = solve_lap_max(reshape_to_profit(v, shape))
    x = assignment.indicator()
    # One tensor pass serves both scores.
    memo = _ContractionMemo(tensor)
    score3 = memo.score(x)
    trace = SolverTrace(u_scores3=[score3], terminated=reason)
    return Solution(
        assignment=assignment,
        score3=score3,
        score4_alpha=LiftedOperator(memo, 0.0).score(x),
        trace=trace,
        outer_iterations=res.iterations,
    )


# The tensor methods, by name: each maps to the SolverConfig fields that
# :func:`run_method` runs it with, except ``hopm`` (None), the power-method
# baseline.  Solvers are looked up by their module-global names at call time,
# so code that rewraps those names sees every call.
TENSOR_METHODS = {
    "bcagm": {"variant": "bcagm"},
    "bcagm_mp": {"variant": "bcagm_psi", "subroutine": "mpm"},
    "bcagm_ipfp": {"variant": "bcagm_psi", "subroutine": "ipfp"},
    "hopm": None,
}


def run_method(
    name: str,
    tensor: SparseSymmetricTensor3,
    alpha_schedule: str = SolverConfig.alpha_schedule,
) -> Solution:
    """Solve ``tensor`` by the method ``name``; ``hopm`` ignores ``alpha_schedule``."""
    fields = TENSOR_METHODS[name]
    if fields is None:
        return hopm_baseline(tensor)
    cfg = SolverConfig(**fields, alpha_schedule=alpha_schedule)
    if cfg.variant == "bcagm":
        return bcagm_solve(tensor, cfg)
    return bcagm_psi_solve(tensor, cfg)
