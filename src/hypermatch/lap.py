"""Globally optimal rectangular linear assignment over one-to-one matchings.

Maximization is delegated to :func:`scipy.optimize.linear_sum_assignment`,
which solves the rectangular problem directly (no padding) and is
deterministic for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .tensor import MatchingShape, _as_indices

__all__ = ["AssignmentVector", "reshape_to_profit", "solve_lap_max"]


@dataclass(frozen=True)
class AssignmentVector:
    """A one-to-one matching: row ``i`` is matched to column ``cols[i]``.

    Every row is assigned exactly once and no column is used twice, so the
    indicator vector has exactly ``n1`` ones.
    """

    shape: MatchingShape
    cols: tuple[int, ...]

    def __post_init__(self) -> None:
        arr = _as_indices(self.cols, "cols")
        if arr.shape != (self.shape.n1,):
            raise ValueError(
                f"need one column per row: {self.shape.n1} rows, got shape {arr.shape}"
            )
        cols = tuple(arr.tolist())
        object.__setattr__(self, "cols", cols)
        if any(not 0 <= c < self.shape.n2 for c in cols):
            raise ValueError(f"column index outside [0, {self.shape.n2})")
        if len(set(cols)) != len(cols):
            raise ValueError("a column may be used at most once")

    def support(self) -> np.ndarray:
        """Linear indices of the matched pairs, in row order."""
        return np.arange(self.shape.n1, dtype=np.intp) * self.shape.n2 + np.asarray(
            self.cols, dtype=np.intp
        )

    def indicator(self) -> np.ndarray:
        """Binary indicator vector of length ``n1 * n2``."""
        x = np.zeros(self.shape.n)
        x[self.support()] = 1.0
        return x

    def to_one_based(self) -> list[int]:
        """Row-to-column map with 1-based columns, for external documents."""
        return [c + 1 for c in self.cols]


def reshape_to_profit(v, shape: MatchingShape) -> np.ndarray:
    """Undo the row-major linearization: entry ``(i, j)`` is ``v[i * n2 + j]``."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.shape != (shape.n,):
        raise ValueError(f"vector must have length {shape.n}, got shape {arr.shape}")
    return arr.reshape(shape.n1, shape.n2)


def solve_lap_max(profit) -> AssignmentVector:
    """Maximize the total profit over all one-to-one matchings.

    The optimum is global; ties are resolved by the solver's fixed scan
    order, so identical inputs always yield identical assignments.
    """
    p = np.asarray(profit, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError(f"profit must be a 2-D matrix, got shape {p.shape}")
    n1, n2 = p.shape
    if n1 > n2:
        raise ValueError(f"profit matrix needs n1 <= n2, got {n1}x{n2}")
    if not np.all(np.isfinite(p)):
        raise ValueError("profit matrix has non-finite entries")
    rows, cols = linear_sum_assignment(p, maximize=True)
    # rows come back sorted and cover every row for n1 <= n2
    return AssignmentVector(MatchingShape(n1, n2), cols)
