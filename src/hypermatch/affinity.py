"""Affinity construction from 2-D point sets.

The third-order tensor scores triples of candidate correspondences by
comparing triangle-angle features, which are invariant to translation,
rotation and scaling of either point set.  A second-order matrix based on
pairwise distances is provided for running the quadratic subroutines as
standalone baselines.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .tensor import MatchingShape, SparseSymmetricTensor3, unique_rows

__all__ = [
    "SamplingConfig",
    "AffinityParams",
    "DegenerateTriangle",
    "triangle_feature",
    "build_tensor",
    "build_matrix2",
]


# Triangles with a side shorter than this are degenerate; sides are measured
# after the point set is rescaled to a half-extent in [0.5, 1).
MIN_SIDE = 1e-9
# Scene triple sets are enumerated exhaustively up to this many, sampled beyond.
Q_TRIPLE_CAP = 200_000


class DegenerateTriangle(ValueError):
    """Collinear, coincident, or with a side below MIN_SIDE relative to the set's extent."""


@dataclass(frozen=True)
class SamplingConfig:
    """Sampling strategy for the tensor build.

    ``triples_per_point * n1`` triples are drawn from the template set (the
    distinct ones are kept); every drawn triple retains its ``knn`` nearest
    scene triangles in feature space.  Scene triple sets are enumerated
    exhaustively up to ``Q_TRIPLE_CAP`` and sampled beyond that.
    """

    triples_per_point: int = 50
    knn: int = 300
    seed: int = 0

    def __post_init__(self) -> None:
        if self.triples_per_point < 1:
            raise ValueError("triples_per_point must be at least 1")
        if self.knn < 1:
            raise ValueError("knn must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class AffinityParams:
    """Weights of the affinity kernels.

    ``gamma`` is the exponential decay of the tensor entries; when absent it
    is set to the inverse of the mean retained squared feature distance.
    ``sigma_s`` normalizes the pairwise-distance gap in the second-order
    matrix.
    """

    gamma: float | None = None
    sigma_s: float = 0.5

    def __post_init__(self) -> None:
        if self.gamma is not None and not (np.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError("gamma must be positive when given")
        if not (np.isfinite(self.sigma_s) and self.sigma_s > 0.0):
            raise ValueError("sigma_s must be positive")


def _as_points(points, name: str) -> np.ndarray:
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
        raise ValueError(f"{name} must be an (m, 2) array of plane coordinates")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite coordinates")
    return arr


def _sine_features(points: np.ndarray, triples: np.ndarray):
    """Sines of the interior angles at the three vertices, in triple order.

    Returns ``(features, valid)``; rows flagged invalid are degenerate, hold
    arbitrary values and must be skipped by the caller.
    """
    # A power-of-two rescale is exact and commutes with every step below; it
    # brings the half-extent into [0.5, 1), where no product overflows.  Only a
    # coordinate that every point shares (a collinear set) can overflow, to inf.
    _, e = np.frexp((points.max(axis=0) / 2 - points.min(axis=0) / 2).max())
    feats = np.zeros((len(triples), 3))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        points = np.ldexp(points, -e)
        a = points[triples[:, 0]]
        b = points[triples[:, 1]]
        c = points[triples[:, 2]]
        ab = b - a
        ac = c - a
        bc = c - b
        d_ab = np.hypot(ab[:, 0], ab[:, 1])
        d_ac = np.hypot(ac[:, 0], ac[:, 1])
        d_bc = np.hypot(bc[:, 0], bc[:, 1])
        area2 = np.abs(ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0])
        feats[:, 0] = area2 / (d_ab * d_ac)
        feats[:, 1] = area2 / (d_ab * d_bc)
        feats[:, 2] = area2 / (d_ac * d_bc)
    valid = (
        (d_ab >= MIN_SIDE) & (d_ac >= MIN_SIDE) & (d_bc >= MIN_SIDE) & (area2 != 0.0)
    )
    return feats, valid


def triangle_feature(points, triple) -> np.ndarray:
    """Feature of one triangle: the interior-angle sines in vertex order.

    Scale- and rotation-invariant by construction; raises
    :class:`DegenerateTriangle` for collinear or near-coincident vertices.
    """
    pts = _as_points(points, "points")
    tri = np.asarray(triple, dtype=np.intp).reshape(1, 3)
    if len(set(tri[0].tolist())) != 3:
        raise ValueError("triple must have three distinct indices")
    if tri.min() < 0 or tri.max() >= len(pts):
        raise ValueError(f"triple index outside [0, {len(pts)})")
    feats, valid = _sine_features(pts, tri)
    if not valid[0]:
        raise DegenerateTriangle(f"triple {tuple(tri[0])} is degenerate")
    return feats[0]


def _sample_sorted_triples(rng: np.random.Generator, m: int, count: int) -> np.ndarray:
    """Uniform triples of distinct indices, canonicalized and deduplicated."""
    draws = np.empty((count, 3), dtype=np.intp)
    for row in range(count):
        draws[row] = rng.choice(m, size=3, replace=False)
    draws.sort(axis=1)
    return unique_rows(draws)[0]


def _scene_triple_sets(rng: np.random.Generator, n2: int) -> np.ndarray:
    total = math.comb(n2, 3)
    if total <= Q_TRIPLE_CAP:
        return np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(n2), 3)),
            dtype=np.intp,
            count=3 * total,
        ).reshape(total, 3)
    draws = rng.integers(0, n2, size=(Q_TRIPLE_CAP, 3))
    distinct = (
        (draws[:, 0] != draws[:, 1])
        & (draws[:, 0] != draws[:, 2])
        & (draws[:, 1] != draws[:, 2])
    )
    draws = draws[distinct].astype(np.intp)
    draws.sort(axis=1)
    return unique_rows(draws)[0]


# Vertex orders in which each scene triple set is offered for alignment; any
# rotation or reflection of a candidate triangle can match a sampled one.
_VERTEX_ORDERS = np.array(list(itertools.permutations(range(3))), dtype=np.intp)


def _knn(pool_feat: np.ndarray, p_feats: np.ndarray, k: int) -> np.ndarray:
    """Pool rows of the ``k`` features nearest to each template feature.

    Exact kNN by kd-tree.  Each row is sorted by pool index, so gamma's mean
    is summed in a canonical order that any exact kNN reproduces; a tie at
    the k-th distance may fall to either pool row.
    """
    _, sel = cKDTree(pool_feat).query(p_feats, k)
    return np.sort(np.asarray(sel, dtype=np.intp).reshape(len(p_feats), k), axis=1)


def build_tensor(
    P,
    Q,
    sampling: SamplingConfig | None = None,
    params: AffinityParams | None = None,
) -> SparseSymmetricTensor3:
    """Build the third-order affinity tensor for matching P into Q.

    Triples sampled from P are compared against the k nearest scene
    triangles in feature space; each retained pair emits one entry
    ``exp(-gamma * d^2)`` at the linearized correspondence triple, where the
    alignment is vertex-by-vertex.  The emitted orbit list is canonically
    sorted, so identical inputs produce bit-identical tensors.
    """
    sc = sampling if sampling is not None else SamplingConfig()
    ap = params if params is not None else AffinityParams()
    P = _as_points(P, "P")
    Q = _as_points(Q, "Q")
    n1, n2 = len(P), len(Q)
    if n1 < 3:
        raise ValueError("P needs at least 3 points to form a triangle")
    if n1 > n2:
        raise ValueError(f"P may not have more points than Q: |P| = {n1} exceeds |Q| = {n2}")
    shape = MatchingShape(n1, n2)
    rng = np.random.default_rng(sc.seed)

    p_triples = _sample_sorted_triples(rng, n1, sc.triples_per_point * n1)
    p_feats, p_ok = _sine_features(P, p_triples)
    p_triples, p_feats = p_triples[p_ok], p_feats[p_ok]

    q_sets = _scene_triple_sets(rng, n2)
    q_feats, q_ok = _sine_features(Q, q_sets)
    q_sets, q_feats = q_sets[q_ok], q_feats[q_ok]

    if not len(p_triples) or not len(q_sets):
        return SparseSymmetricTensor3(shape)

    pool_idx = q_sets[:, _VERTEX_ORDERS].reshape(-1, 3)
    pool_feat = q_feats[:, _VERTEX_ORDERS].reshape(-1, 3)
    k = min(sc.knn, len(pool_idx))

    sel = _knn(pool_feat, p_feats, k)
    p_rows = np.repeat(p_triples, k, axis=0)
    q_rows = pool_idx[sel].reshape(-1, 3)
    # Recomputed here rather than taken from the kd-tree, so every entry is
    # the same expression on the same operands whatever finds the neighbours.
    dist2 = ((pool_feat[sel] - p_feats[:, None]) ** 2).sum(axis=2).reshape(-1)

    if ap.gamma is not None:
        gamma = float(ap.gamma)
    else:
        mean_d2 = float(dist2.mean())
        gamma = 1.0 / mean_d2 if mean_d2 > 0.0 else 1.0
    values = np.exp(-gamma * dist2)

    # Template rows are p0 < p1 < p2, so the linear indices p * n2 + q never coincide.
    return SparseSymmetricTensor3(shape, p_rows * n2 + q_rows, values)


def build_matrix2(P, Q, params: AffinityParams | None = None) -> np.ndarray:
    """Second-order affinity matrix from pairwise-distance agreement.

    Entry ``((i1,j1),(i2,j2))`` is ``exp(-(dP[i1,i2] - dQ[j1,j2])^2 /
    sigma_s^2)`` for distinct rows and distinct columns, zero otherwise.
    Used only to run the quadratic subroutines as standalone baselines.
    """
    ap = params if params is not None else AffinityParams()
    P = _as_points(P, "P")
    Q = _as_points(Q, "Q")
    n1, n2 = len(P), len(Q)
    if n1 > n2:
        raise ValueError(f"P may not have more points than Q ({n1} > {n2})")
    dP = np.hypot(P[:, 0, None] - P[None, :, 0], P[:, 1, None] - P[None, :, 1])
    dQ = np.hypot(Q[:, 0, None] - Q[None, :, 0], Q[:, 1, None] - Q[None, :, 1])
    gap = dP[:, None, :, None] - dQ[None, :, None, :]
    A = np.exp(-(gap**2) / float(ap.sigma_s) ** 2)
    rows = np.arange(n1)
    cols = np.arange(n2)
    A[rows, :, rows, :] = 0.0
    A[:, cols, :, cols] = 0.0
    return A.reshape(n1 * n2, n1 * n2)
