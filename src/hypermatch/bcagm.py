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
from .tensor import LiftedOperator, SparseSymmetricTensor3, _check_number, _dot, alpha_bound

__all__ = [
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

# Orbits from which hopm's power iteration runs on a tensor with incidence
# matrices: below it, building them and scipy's per-product overhead cost
# more than the passes save.
_INCIDENCE_MIN_NNZ = 2500

# Entries a solve's contraction memo keeps: contract_vec results and scores
# (each at most n floats), and contract_mat results (n x n each).
_MEMO_VECTORS = 8
_MEMO_MATRICES = 1


class TraceViolation(RuntimeError):
    """A solver trace failed the guaranteed-ascent audit."""


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of the block-coordinate solvers."""

    variant: str = "bcagm"
    subroutine: str = "ipfp"

    def __post_init__(self) -> None:
        for name, allowed in (("variant", VARIANTS), ("subroutine", SUBROUTINES)):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}")


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
        """Audit the layout and the ascent guarantees; raises :class:`TraceViolation`.

        Every phase names its ``alpha``, ``stage_start`` and ``u_start``.  The
        starts are integers that never decrease nor pass the end of their
        list, and the first phase starts at stage 0 whenever there are stage
        scores, so that every stage score is audited within its phase.  Every
        score is a finite real and every alpha a finite real >= 0, by
        ``_check_number``: a NaN compares false and would hide a fall.
        """
        keys = ("alpha", "stage_start", "u_start")
        try:
            alphas, stage, u = ([p[k] for p in self.alpha_phases] for k in keys)
        except (KeyError, TypeError) as exc:
            raise TraceViolation(f"each alpha phase needs {', '.join(keys)}: {exc!r}") from None
        try:
            stage_scores, u_scores3 = list(self.stage_scores), list(self.u_scores3)
            for name, values, low in (
                ("each stage score", stage_scores, None),
                ("each u score", u_scores3, None),
                ("each alpha", alphas, 0),
            ):
                for value in values:
                    _check_number(value, name, low)
        except (TypeError, ValueError) as exc:
            raise TraceViolation(f"bad trace values: {exc}") from None
        for key, starts, scores in (
            ("stage_start", stage, stage_scores),
            ("u_start", u, u_scores3),
        ):
            if not all(type(s) is int for s in starts) or any(
                b < a for a, b in itertools.pairwise([0, *starts, len(scores)])
            ):
                raise TraceViolation(
                    f"{key}s must be non-decreasing integers in [0, {len(scores)}], got {starts}"
                )
        if stage_scores and stage[:1] != [0]:
            raise TraceViolation("stage scores before the first alpha phase")
        bounds = stage + [len(stage_scores)]
        for (lo, hi), alpha in zip(itertools.pairwise(bounds), alphas):
            seg = stage_scores[lo:hi]
            for a, b in zip(seg, seg[1:]):
                if b < a - EQUALITY_TOL_REL * (1.0 + abs(a)):
                    raise TraceViolation(
                        f"stage scores decreased within alpha={alpha}: {a} -> {b}"
                    )
        for a, b in zip(u_scores3, u_scores3[1:]):
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


def _ascent(tensor, nblocks, update):
    """Shared driver: block sweeps, stall detection, merges, alpha phases."""
    tol = EQUALITY_TOL_REL
    trace = SolverTrace()
    memo = _ContractionMemo(tensor)
    u_best = default_start(memo)
    u_vec = u_best.indicator()
    trace.u_scores3.append(memo.score(u_vec))

    outer = 0
    hit_cap = False
    # The one schedule: alpha 0 until the first stall, then the safe bound.
    for alpha in (0.0, alpha_bound(tensor)):
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
    _config_for("bcagm", cfg)
    shape = tensor.shape

    def update(op, vecs, assigns, b):
        others = [vecs[j] for j in range(4) if j != b]
        profit = op.contract_vec(*others)
        a = solve_lap_max(reshape_to_profit(profit, shape))
        v = a.indicator()
        return a, v, _dot(profit, v)

    return _ascent(tensor, 4, update)


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

    return _ascent(tensor, 2, update)


def hopm_baseline(tensor: SparseSymmetricTensor3) -> Solution:
    """Third-order power iteration baseline with a final discretization.

    Iterates the normalized one-mode contraction from the all-ones direction
    and rounds the limit by a linear assignment.  No ascent guarantee is
    claimed; this exists for score and accuracy comparisons.  From
    ``_INCIDENCE_MIN_NNZ`` orbits the iteration runs on the tensor's
    incidence view (``SparseSymmetricTensor3._with_incidence``), which gives
    the same bytes faster; ``tensor`` itself is not changed.
    """
    shape = tensor.shape
    n = shape.n
    power = tensor._with_incidence() if tensor.nnz >= _INCIDENCE_MIN_NNZ else tensor
    res = _power_iterate(
        lambda v: power.contract_vec(v, v), np.ones(n) / np.sqrt(n), HOPM_MAX_ITER, HOPM_TOL
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


def _check_method(name) -> None:
    """Refuse a ``name`` not in ``TENSOR_METHODS``, by ``==``, so an unhashable one too."""
    if name not in tuple(TENSOR_METHODS):
        raise ValueError(f"unknown method {name!r}, expected one of {tuple(TENSOR_METHODS)}")


def run_method(name: str, tensor: SparseSymmetricTensor3) -> Solution:
    """Solve ``tensor`` by the method ``name``."""
    _check_method(name)
    fields = TENSOR_METHODS[name]
    if fields is None:
        return hopm_baseline(tensor)
    cfg = SolverConfig(**fields)
    if cfg.variant == "bcagm":
        return bcagm_solve(tensor, cfg)
    return bcagm_psi_solve(tensor, cfg)
