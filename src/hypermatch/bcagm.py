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
from .qap import DEFAULT_IPFP_MAX_ITER, DEFAULT_MPM_MAX_ITER, DEFAULT_MPM_TOL, psi_with_guard
from .tensor import LiftedOperator, SparseSymmetricTensor3, alpha_bound

__all__ = [
    "ALPHA_SCHEDULES",
    "SUBROUTINES",
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
    "solve",
    "run_method",
]

ALPHA_SCHEDULES = ("zero_then_bound", "bound_always", "zero_only")
VARIANTS = ("bcagm", "bcagm_psi")
SUBROUTINES = ("ipfp", "mpm")

TERMINATED_STALLED = "stalled"
TERMINATED_MAX_ITERS = "max_outer_iters"


class TraceViolation(RuntimeError):
    """A solver trace failed the guaranteed-ascent audit."""


@dataclass
class SolverConfig:
    """Parameters of the block-coordinate solvers.

    ``alpha_schedule`` controls the convexification weight: start at zero
    and switch to the safe bound on the first stall (default), use the bound
    from the start, or never convexify.  ``alpha_override`` replaces the
    computed bound.  ``raw_ones_start`` runs the four-block variant's first
    sweep from the all-ones vector instead of a discretized start.
    """

    variant: str = "bcagm"
    subroutine: str = "ipfp"
    alpha_schedule: str = "zero_then_bound"
    equality_tol_rel: float = 1e-12
    max_outer_iters: int = 100
    alpha_override: float | None = None
    raw_ones_start: bool = False
    ipfp_max_iter: int = DEFAULT_IPFP_MAX_ITER
    mpm_max_iter: int = DEFAULT_MPM_MAX_ITER
    mpm_tol: float = DEFAULT_MPM_TOL

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.subroutine not in SUBROUTINES:
            raise ValueError(
                f"subroutine must be one of {SUBROUTINES}, got {self.subroutine!r}"
            )
        if self.alpha_schedule not in ALPHA_SCHEDULES:
            raise ValueError(
                f"alpha_schedule must be one of {ALPHA_SCHEDULES}, got {self.alpha_schedule!r}"
            )
        if not self.equality_tol_rel > 0.0:
            raise ValueError("equality_tol_rel must be positive")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be at least 1")
        if self.alpha_override is not None and not (
            np.isfinite(self.alpha_override) and self.alpha_override >= 0.0
        ):
            raise ValueError("alpha_override must be finite and nonnegative")


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

    def verify(self, tol: float = 1e-12) -> None:
        """Audit the ascent guarantees; raises :class:`TraceViolation`."""
        starts = [p["stage_start"] for p in self.alpha_phases]
        bounds = starts + [len(self.stage_scores)]
        for (lo, hi), phase in zip(itertools.pairwise(bounds), self.alpha_phases):
            seg = self.stage_scores[lo:hi]
            for a, b in zip(seg, seg[1:]):
                if b < a - tol * (1.0 + abs(a)):
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


def _alpha_phases(tensor: SparseSymmetricTensor3, cfg: SolverConfig) -> list[float]:
    if cfg.alpha_override is not None:
        bound = float(cfg.alpha_override)
    else:
        bound = alpha_bound(tensor)
    return {
        "zero_then_bound": [0.0, bound],
        "bound_always": [bound],
        "zero_only": [0.0],
    }[cfg.alpha_schedule]


def _ascent(tensor, cfg, start, nblocks, update):
    """Shared driver: block sweeps, stall detection, merges, alpha phases."""
    shape = tensor.shape
    tol = cfg.equality_tol_rel
    raw = cfg.raw_ones_start and start is None and nblocks == 4
    if start is None and not raw:
        start = default_start(tensor)
    if start is not None and start.shape != shape:
        raise ValueError(f"start has shape {start.shape}, tensor has {shape}")

    trace = SolverTrace()
    u_best = start
    u_vec = start.indicator() if start is not None else None
    s4_best: float | None = None
    if u_best is not None:
        trace.u_scores3.append(tensor.score(u_vec))

    phases = _alpha_phases(tensor, cfg)
    outer = 0
    hit_cap = False
    op = LiftedOperator(tensor, phases[0])
    for phase_index, alpha in enumerate(phases):
        op = LiftedOperator(tensor, alpha)
        if raw and phase_index == 0:
            # First sweep from the all-ones blocks; the stall comparison only
            # starts once every block is a matching, and these stage values
            # are excluded from the per-phase monotonicity audit.
            vecs = [np.ones(shape.n) for _ in range(nblocks)]
            assigns: list[AssignmentVector | None] = [None] * nblocks
            for b in range(nblocks):
                a, v, s = update(op, vecs, assigns, b)
                assigns[b] = a
                vecs[b] = v
                trace.stage_scores.append(s)
            outer += 1
            f_cur = trace.stage_scores[-1]
        else:
            assigns = [u_best] * nblocks
            vecs = [u_vec] * nblocks
            f_cur = op.score(u_vec)
            s4_best = f_cur
        trace.alpha_phases.append(
            {
                "alpha": float(alpha),
                "stage_start": len(trace.stage_scores),
                "u_start": len(trace.u_scores3),
            }
        )
        while True:
            if outer >= cfg.max_outer_iters:
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
            if s4_new - f_new > tol * (1.0 + abs(f_new)):
                u_best, u_vec, s4_best = u_new, u_new_vec, s4_new
                trace.u_scores3.append(tensor.score(u_vec))
                assigns = [u_new] * nblocks
                vecs = [u_vec] * nblocks
                f_cur = s4_new
                continue
            # No further improvement in this phase.  Adopt the terminal
            # argmax when it strictly beats the incumbent (the sweeps may
            # have climbed without ever merging).
            if s4_best is None or s4_new - s4_best > tol * (1.0 + abs(s4_new)):
                u_best, u_vec, s4_best = u_new, u_new_vec, s4_new
                trace.u_scores3.append(tensor.score(u_vec))
            break
        if hit_cap:
            break

    if u_best is None:
        # Only reachable when the iteration cap fires during the raw first
        # sweep; fall back to the best current block.
        scores4 = [op.score(v) for v in vecs]
        best_block = int(np.argmax(scores4))
        u_best, u_vec = assigns[best_block], vecs[best_block]
        trace.u_scores3.append(tensor.score(u_vec))

    trace.terminated = TERMINATED_MAX_ITERS if hit_cap else TERMINATED_STALLED
    trace.verify(tol)
    return Solution(
        assignment=u_best,
        score3=tensor.score(u_vec),
        score4_alpha=op.score(u_vec),
        trace=trace,
        outer_iterations=outer,
    )


def bcagm_solve(
    tensor: SparseSymmetricTensor3,
    cfg: SolverConfig | None = None,
    start: AssignmentVector | None = None,
) -> Solution:
    """Four-block coordinate ascent; every block update is a globally
    optimal linear assignment on the gradient-direction contraction."""
    cfg = cfg if cfg is not None else SolverConfig(variant="bcagm")
    shape = tensor.shape

    def update(op, vecs, assigns, b):
        others = [vecs[j] for j in range(4) if j != b]
        profit = op.contract_vec(*others)
        a = solve_lap_max(reshape_to_profit(profit, shape))
        v = a.indicator()
        return a, v, float(np.dot(profit, v))

    return _ascent(tensor, cfg, start, 4, update)


def bcagm_psi_solve(
    tensor: SparseSymmetricTensor3,
    cfg: SolverConfig | None = None,
    start: AssignmentVector | None = None,
) -> Solution:
    """Two-block coordinate ascent; every block update is a guarded
    quadratic assignment step on the Hessian-direction contraction."""
    cfg = cfg if cfg is not None else SolverConfig(variant="bcagm_psi")

    def update(op, vecs, assigns, b):
        other = vecs[1 - b]
        A = op.contract_mat(other, other)
        res = psi_with_guard(
            A,
            assigns[b],
            cfg.subroutine,
            ipfp_max_iter=cfg.ipfp_max_iter,
            mpm_max_iter=cfg.mpm_max_iter,
            mpm_tol=cfg.mpm_tol,
        )
        a = res.assignment
        return a, a.indicator(), res.objective

    return _ascent(tensor, cfg, start, 2, update)


def hopm_baseline(
    tensor: SparseSymmetricTensor3, max_iter: int = 100, tol: float = 1e-10
) -> Solution:
    """Third-order power iteration baseline with a final discretization.

    Iterates the normalized one-mode contraction from the all-ones direction
    and rounds the limit by a linear assignment.  No ascent guarantee is
    claimed; this exists for score and accuracy comparisons.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    shape = tensor.shape
    n = shape.n
    v = np.ones(n) / np.sqrt(n)
    reason = "max_iters"
    degenerate = False
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        w = tensor.contract_vec(v, v)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            degenerate = True
            reason = "degenerate"
            break
        w = w / norm_w
        delta = float(np.linalg.norm(w - v))
        v = w
        if delta <= tol:
            reason = "converged"
            break
    if degenerate:
        v = np.ones(n)
    assignment = solve_lap_max(reshape_to_profit(v, shape))
    score3 = tensor.score(assignment.indicator())
    trace = SolverTrace(u_scores3=[score3], terminated=reason)
    return Solution(
        assignment=assignment,
        score3=score3,
        score4_alpha=LiftedOperator(tensor, 0.0).score(assignment.indicator()),
        trace=trace,
        outer_iterations=iterations,
    )


def solve(
    tensor: SparseSymmetricTensor3,
    cfg: SolverConfig | None = None,
    start: AssignmentVector | None = None,
) -> Solution:
    """Dispatch on ``cfg.variant``."""
    cfg = cfg if cfg is not None else SolverConfig()
    if cfg.variant == "bcagm":
        return bcagm_solve(tensor, cfg, start)
    return bcagm_psi_solve(tensor, cfg, start)


# The tensor methods, by name: each maps to the SolverConfig fields that
# :func:`solve` runs it with, except ``hopm`` (None), the power-method
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
    return solve(tensor, SolverConfig(**fields, alpha_schedule=alpha_schedule))
