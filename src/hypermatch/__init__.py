"""Hypergraph matching of 2-D point sets by tensor block-coordinate ascent."""

from .affinity import (
    SamplingConfig,
    build_matrix2,
    build_tensor,
)
from .bcagm import (
    Solution,
    SolverConfig,
    SolverTrace,
    TraceViolation,
    bcagm_psi_solve,
    bcagm_solve,
    default_start,
    hopm_baseline,
    run_method,
)
from .harness import (
    ExperimentSpec,
    ResultRecord,
    TrialCase,
    accuracy,
    gen_instance,
    prepare_case,
    records_to_csv,
    run_grid,
    trial_seed,
)
from .lap import AssignmentVector, reshape_to_profit, solve_lap_max
from .qap import MpmResult, QapResult, ipfp, mpm, psi_with_guard, qap_objective
from .tensor import (
    LiftedOperator,
    MatchingShape,
    SparseSymmetricTensor3,
    ThresholdExceeded,
    alpha_bound,
    f4_norm_exact,
)

__version__ = "0.1.0"

__all__ = [
    "AssignmentVector",
    "ExperimentSpec",
    "LiftedOperator",
    "MatchingShape",
    "MpmResult",
    "QapResult",
    "ResultRecord",
    "SamplingConfig",
    "Solution",
    "SolverConfig",
    "SolverTrace",
    "SparseSymmetricTensor3",
    "ThresholdExceeded",
    "TraceViolation",
    "TrialCase",
    "accuracy",
    "alpha_bound",
    "bcagm_psi_solve",
    "bcagm_solve",
    "build_matrix2",
    "build_tensor",
    "default_start",
    "f4_norm_exact",
    "gen_instance",
    "hopm_baseline",
    "ipfp",
    "mpm",
    "prepare_case",
    "psi_with_guard",
    "qap_objective",
    "records_to_csv",
    "reshape_to_profit",
    "run_grid",
    "run_method",
    "solve_lap_max",
    "trial_seed",
]
