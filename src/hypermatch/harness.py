"""Synthetic matching benchmark: instance generation, accuracy, grid runner.

Instances follow the standard protocol: template points are standard normal
in the plane, the scene is a noisy copy plus outliers, globally scaled and
randomly permuted.  Every (grid point, trial) derives its own seed from the
spec, so the full grid output is a pure function of the spec.
"""

from __future__ import annotations

import hashlib
import io
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import Iterable

import numpy as np

from .affinity import SamplingConfig, build_matrix2, build_tensor
from .bcagm import TENSOR_METHODS, TraceViolation, run_method
from .lap import AssignmentVector, reshape_to_profit, solve_lap_max
from .qap import ipfp, mpm
from .tensor import SparseSymmetricTensor3, _check_number

__all__ = [
    "METHODS",
    "ExperimentSpec",
    "ResultRecord",
    "TrialCase",
    "trial_seed",
    "gen_instance",
    "accuracy",
    "prepare_case",
    "run_grid",
    "records_to_csv",
]

METHODS = (*TENSOR_METHODS, "ipfp2", "mpm2")


def _check_protocol(n_in: int, n_outs, sigma: float, scale: float) -> None:
    """The instance protocol's bounds, for a grid and for one instance alike."""
    _check_number(n_in, "n_in", 3, count=True)
    for n_out in n_outs:
        _check_number(n_out, "n_out", 0, count=True)
    _check_number(sigma, "sigma", 0)
    _check_number(scale, "scale", 0, strict=True)


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark grid: outlier counts x trials x methods.

    ``sampling.seed`` is the grid's base seed: each trial derives its
    instance and build seeds from it; every other ``sampling`` field,
    ``gamma`` included, holds for every trial.
    """

    n_in: int
    n_out: tuple[int, ...] = (0,)
    sigma: float = 0.0
    scale: float = 1.0
    trials: int = 1
    methods: tuple[str, ...] = ("bcagm",)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    deterministic: bool = False
    threads: int = 1

    def __post_init__(self) -> None:
        # A single value stands for a one-entry grid; the field's check below judges it.
        for name in ("n_out", "methods"):
            axis = getattr(self, name)
            axis = tuple(axis) if np.iterable(axis) and not isinstance(axis, str) else (axis,)
            if not axis:
                raise ValueError(f"{name} must not be empty")
            object.__setattr__(self, name, axis)
        _check_protocol(self.n_in, self.n_out, self.sigma, self.scale)
        _check_number(self.trials, "trials", 1, count=True)
        _check_number(self.threads, "threads", 0, count=True)
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}, expected subset of {METHODS}")


@dataclass(frozen=True)
class ResultRecord:
    """One benchmark row; its fields, in order, are the CSV columns."""

    method: str
    trial: int
    n_in: int
    n_out: int
    sigma: float
    scale: float
    accuracy: float
    score3: float
    iterations: int
    wall_time_ms: float
    status: str


# Annotations are strings here (``from __future__ import annotations``).
_COLUMNS = tuple((f.name, f.type == "float") for f in fields(ResultRecord))
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)


@dataclass
class TrialCase:
    """A generated instance together with its affinity tensor."""

    P: np.ndarray
    Q: np.ndarray
    gt: np.ndarray
    tensor: SparseSymmetricTensor3


def trial_seed(seed_base: int, n_out: int, trial: int) -> int:
    """Stable per-(grid point, trial) seed, independent of execution order.

    Only the grid point and trial index enter the hash, so specs that differ
    in deformation or scale reuse the same instance stream.
    """
    _check_number(seed_base, "seed_base", count=True)
    tag = f"{n_out}|{trial}".encode()
    digest = int.from_bytes(hashlib.blake2b(tag, digest_size=8).digest(), "big")
    return (int(seed_base) ^ digest) & (2**63 - 1)


def gen_instance(n_in: int, n_out: int, sigma: float, scale: float, seed: int):
    """Generate one synthetic instance.

    Returns ``(P, Q, gt)`` where ``gt[i]`` is the scene position of template
    point ``i``.  The template is standard normal; the scene is the template
    plus per-coordinate noise of standard deviation ``sigma``, concatenated
    with ``n_out`` standard-normal outliers, everything multiplied by
    ``scale`` and randomly permuted.
    """
    _check_protocol(n_in, (n_out,), sigma, scale)
    _check_number(seed, "seed", 0, count=True)
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((n_in, 2))
    # A finite sigma or scale near the float limit can overflow a coordinate
    # to inf; build_tensor rejects such points, so numpy's warning is muted.
    with np.errstate(over="ignore"):
        inliers = P + sigma * rng.standard_normal((n_in, 2))
        outliers = rng.standard_normal((n_out, 2))
        Q = np.concatenate([inliers, outliers], axis=0) * scale
    perm = rng.permutation(n_in + n_out)
    Q = Q[perm]
    gt = np.argsort(perm)[:n_in].copy()
    return P, Q, gt


def accuracy(assignment: AssignmentVector, gt) -> float:
    """Fraction of template points matched to their true scene position.

    ``gt`` must itself be a matching of the assignment's shape.
    """
    try:
        truth = AssignmentVector(assignment.shape, gt)
    except ValueError as exc:
        raise ValueError(f"ground truth must cover the rows as a matching: {exc}") from None
    return float(np.mean(np.equal(assignment.cols, truth.cols)))


def prepare_case(spec: ExperimentSpec, n_out: int, trial: int) -> TrialCase:
    """Build the instance and tensor for one (grid point, trial)."""
    seed = trial_seed(spec.sampling.seed, n_out, trial)
    P, Q, gt = gen_instance(spec.n_in, n_out, spec.sigma, spec.scale, seed)
    sampling = replace(spec.sampling, seed=(seed + 1) & (2**63 - 1))
    tensor = build_tensor(P, Q, sampling)
    return TrialCase(P=P, Q=Q, gt=gt, tensor=tensor)


def _run_method(method: str, case: TrialCase, matrix2):
    """Returns (assignment, iterations)."""
    shape = case.tensor.shape
    if method in TENSOR_METHODS:
        sol = run_method(method, case.tensor)
        return sol.assignment, sol.outer_iterations
    if method == "ipfp2":
        ones = np.ones(shape.n)
        start = solve_lap_max(reshape_to_profit(matrix2 @ ones, shape))
        res = ipfp(matrix2, start)
        return res.assignment, res.inner_iterations
    # mpm2, the one method left: ExperimentSpec accepts only METHODS.
    res = mpm(matrix2, shape)
    assignment = solve_lap_max(reshape_to_profit(res.vector, shape))
    return assignment, res.iterations


def _run_trial(spec: ExperimentSpec, n_out: int, trial: int) -> list[ResultRecord]:
    case = prepare_case(spec, n_out, trial)
    matrix2 = None
    if any(m not in TENSOR_METHODS for m in spec.methods):
        matrix2 = build_matrix2(case.P, case.Q)
    records = []
    for method in spec.methods:
        started = time.perf_counter()
        try:
            assignment, iterations = _run_method(method, case, matrix2)
            status = "ok"
        except TraceViolation:
            raise  # ascent guarantees are load-bearing; abort the whole run
        except Exception as exc:  # noqa: BLE001 - recorded, not dropped
            assignment, iterations, status = None, 0, f"error:{type(exc).__name__}"
        elapsed = 0.0 if spec.deterministic else (time.perf_counter() - started) * 1e3
        if assignment is None:
            acc = score3 = 0.0
        else:
            acc = accuracy(assignment, case.gt)
            score3 = case.tensor.score(assignment.indicator())
        records.append(
            ResultRecord(
                method, trial, spec.n_in, n_out, spec.sigma, spec.scale,
                acc, score3, iterations, elapsed, status,
            )
        )
    return records


def run_grid(spec: ExperimentSpec) -> list[ResultRecord]:
    """Run every (grid point, trial, method) and return canonically ordered rows.

    Trials are independent and run in one pool of ``threads`` workers (0: one
    per core), capped at the cores; the pool changes wall times but no
    recorded value, and the output order is canonical regardless.
    ``deterministic`` zeroes the wall times and changes nothing else.
    """
    tasks = [(n_out, trial) for n_out in spec.n_out for trial in range(spec.trials)]
    cores = os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=min(spec.threads or cores, cores)) as pool:
        per_task = list(pool.map(lambda t: _run_trial(spec, *t), tasks))
    return [record for rows in per_task for record in rows]


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def records_to_csv(records: Iterable[ResultRecord]) -> str:
    """The CSV text: ``CSV_HEADER``, then one line per record.

    A field declared ``float`` carries 9 significant digits; every other
    field is written with ``str``.
    """
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for r in records:
        cells = (
            _fmt(getattr(r, name)) if is_float else str(getattr(r, name))
            for name, is_float in _COLUMNS
        )
        out.write(",".join(cells) + "\n")
    return out.getvalue()
