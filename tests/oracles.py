"""Independent reference implementations used to freeze expected values.

Everything defined here works on dense arrays with explicit permutation
loops, so it shares no code path with the orbit-based package internals.
The random instances and the enumeration and LAP brute force come from
``hypermatch.selfcheck``, which runs the same references.
"""

from __future__ import annotations

import itertools

import numpy as np

from hypermatch import MatchingShape, SparseSymmetricTensor3
from hypermatch.selfcheck import (  # noqa: F401 - re-exported to the tests
    all_assignments,
    indicator,
    lap_brute,
    random_matching,
    random_tensor,
)


def dense_from_orbits(n: int, orbits) -> np.ndarray:
    """Densify a canonical orbit list by writing all six permuted copies."""
    dense = np.zeros((n, n, n))
    for (i, j, k), v in orbits:
        for a, b, c in itertools.permutations((i, j, k)):
            dense[a, b, c] = v
    return dense


def dense_from_tensor(tensor: SparseSymmetricTensor3) -> np.ndarray:
    return dense_from_orbits(
        tensor.shape.n, zip(map(tuple, tensor.idx.tolist()), tensor.val.tolist())
    )


def lift_dense(t3: np.ndarray) -> np.ndarray:
    """Fourth-order lift: entry (i,j,k,l) sums the four third-order entries
    obtained by dropping each index in turn."""
    return (
        t3[:, :, :, None]
        + t3[:, :, None, :]
        + t3[:, None, :, :]
        + t3[None, :, :, :]
    )


def lift_dense_loops(t3: np.ndarray) -> np.ndarray:
    """Same lift with explicit loops in a different iteration order."""
    n = t3.shape[0]
    f4 = np.zeros((n, n, n, n))
    for l in range(n):
        for k in range(n):
            for j in range(n):
                for i in range(n):
                    f4[i, j, k, l] = t3[i, j, k] + t3[i, j, l] + t3[i, k, l] + t3[j, k, l]
    return f4


def g4_dense(n: int) -> np.ndarray:
    eye = np.eye(n)
    return (
        np.einsum("ij,kl->ijkl", eye, eye)
        + np.einsum("ik,jl->ijkl", eye, eye)
        + np.einsum("il,jk->ijkl", eye, eye)
    ) / 3.0


def form4(f4: np.ndarray, x, y, z, t) -> float:
    return float(np.einsum("ijkl,i,j,k,l->", f4, x, y, z, t))


def score3(t3: np.ndarray, x) -> float:
    return float(np.einsum("ijk,i,j,k->", t3, x, x, x))


def trilinear3(t3: np.ndarray, x, y, z) -> float:
    return float(np.einsum("ijk,i,j,k->", t3, x, y, z))


def contract3_vec(t3: np.ndarray, x, y) -> np.ndarray:
    return np.einsum("ijl,i,j->l", t3, x, y)


def contract3_mat(t3: np.ndarray, x) -> np.ndarray:
    return np.einsum("ikl,i->kl", t3, x)


def qap_brute(A: np.ndarray, shape: MatchingShape):
    """Exhaustive quadratic assignment maximum: (best objective, best columns)."""
    best_obj, best_cols = -np.inf, None
    for cols in all_assignments(shape):
        x = indicator(shape, cols)
        obj = float(x @ (A @ x))
        if obj > best_obj:
            best_obj, best_cols = obj, cols
    return best_obj, best_cols


def matching_brute(tensor: SparseSymmetricTensor3):
    """Exhaustive matching-score maximum: (best score, best columns)."""
    best_obj, best_cols = -np.inf, None
    for cols in all_assignments(tensor.shape):
        obj = tensor.score(indicator(tensor.shape, cols))
        if obj > best_obj:
            best_obj, best_cols = obj, cols
    return best_obj, best_cols
