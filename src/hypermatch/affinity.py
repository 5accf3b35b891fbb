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

from . import tensor
from .tensor import MatchingShape, SparseSymmetricTensor3, _check_number, _sort_rows, unique_rows

__all__ = [
    "SamplingConfig",
    "build_tensor",
    "build_matrix2",
]


# Triangles with a side shorter than this are degenerate; sides are measured
# after the point set is rescaled to a half-extent in [0.5, 1).
MIN_SIDE = 1e-9
# Scale of the pairwise-distance gap in the second-order matrix.
SIGMA_S = 0.5
# Scene triple sets are enumerated exhaustively up to this many, sampled beyond.
Q_TRIPLE_CAP = 200_000
# From this many scene sets on, _knn searches a tree over the sets' sorted
# features rather than one over all six vertex orders of each; the two routes
# break even near 8 000 sets on one BLAS thread.
_SORTED_TREE_MIN_SETS = 8_000


@dataclass(frozen=True)
class SamplingConfig:
    """Sampling strategy and decay of the tensor build.

    ``triples_per_point * n1`` triples are drawn from the template set (the
    distinct ones are kept); every drawn triple retains its ``knn`` nearest
    scene triangles in feature space.  Scene triple sets are enumerated
    exhaustively up to ``Q_TRIPLE_CAP`` and sampled beyond that.  ``gamma``
    is the exponential decay of the tensor entries; when absent it is set to
    the inverse of the mean retained squared feature distance.
    """

    triples_per_point: int = 50
    knn: int = 300
    seed: int = 0
    gamma: float | None = None

    def __post_init__(self) -> None:
        _check_number(self.triples_per_point, "triples_per_point", 1, count=True)
        _check_number(self.knn, "knn", 1, count=True)
        _check_number(self.seed, "seed", 0, count=True)
        if self.gamma is not None:
            _check_number(self.gamma, "gamma", 0, strict=True)


def _as_points(points, name: str) -> np.ndarray:
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 1:
        raise ValueError(f"{name} must be an (m, 2) array of plane coordinates")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite coordinates")
    return arr


def _point_sets(P, Q) -> tuple[np.ndarray, np.ndarray]:
    """``P`` and ``Q`` as coordinate arrays; ``P`` may not have more points."""
    P, Q = _as_points(P, "P"), _as_points(Q, "Q")
    n1, n2 = len(P), len(Q)
    if n1 > n2:
        raise ValueError(f"P may not have more points than Q: |P| = {n1} exceeds |Q| = {n2}")
    return P, Q


def _sine_features(points: np.ndarray, triples: np.ndarray):
    """The measurable rows of ``triples`` and the sines of their interior
    angles at the three vertices, in triple order.

    Returns ``(triples, features)`` without the degenerate rows: those with
    a side shorter than ``MIN_SIDE`` or no area.  When no row is degenerate,
    ``triples`` itself is returned.
    """
    # A power-of-two rescale is exact and commutes with every step below; it
    # brings the half-extent into [0.5, 1), where no product overflows.  Only a
    # coordinate that every point shares (a collinear set) can overflow, to inf.
    _, e = np.frexp((points.max(axis=0) / 2 - points.min(axis=0) / 2).max())
    feats = np.empty((len(triples), 3))

    def sides(coord):
        # One coordinate of the side vectors b - a, c - a and c - b.
        a, b, c = (np.take(coord, triples[:, v]) for v in range(3))
        ac = c - a
        c -= b
        b -= a
        return b, ac, c

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ab_x, ac_x, bc_x = sides(np.ldexp(points[:, 0], -e))
        ab_y, ac_y, bc_y = sides(np.ldexp(points[:, 1], -e))
        d_ab = np.hypot(ab_x, ab_y)
        d_ac = np.hypot(ac_x, ac_y)
        d_bc = np.hypot(bc_x, bc_y)
        area2 = np.abs(ab_x * ac_y - ab_y * ac_x)
        feats[:, 0] = area2 / (d_ab * d_ac)
        feats[:, 1] = area2 / (d_ab * d_bc)
        feats[:, 2] = area2 / (d_ac * d_bc)
    valid = (
        (d_ab >= MIN_SIDE) & (d_ac >= MIN_SIDE) & (d_bc >= MIN_SIDE) & (area2 != 0.0)
    )
    if valid.all():
        return triples, feats
    return triples[valid], feats[valid]


def _sample_sorted_triples(rng: np.random.Generator, m: int, count: int) -> np.ndarray:
    """Uniform triples of distinct indices, canonicalized and deduplicated.

    The triples are those of ``count`` calls ``rng.choice(m, 3,
    replace=False)``, drawn by one ``rng.integers`` call that leaves ``rng``
    in the same state.  For three of ``m`` items numpy's ``choice`` runs
    Floyd's algorithm: draws on ``[0, m-3]``, ``[0, m-2]`` and ``[0, m-1]``,
    where a value already taken is replaced by the draw's bound, then a
    Fisher-Yates shuffle that draws on ``[0, 2]`` and ``[0, 1]``.  Each is one
    bounded draw, and ``integers`` makes the same draw per element, in C
    order, when given one bound per column.  The shuffle's draws are dropped:
    ``unique_rows`` sorts each row.
    """
    # An unallocatable count fails here, before any draw.
    u = rng.integers(0, (m - 2, m - 1, m, 3, 2), size=(count, 5))
    a, b, c = u[:, 0], u[:, 1], u[:, 2]
    b[b == a] = m - 2
    c[(c == a) | (c == b)] = m - 1
    return unique_rows(u[:, :3])[0]


def _scene_triple_sets(rng: np.random.Generator, n2: int) -> np.ndarray:
    """The scene's triple sets, each sorted ascending, in lexicographic order:
    all C(n2, 3) of them up to ``Q_TRIPLE_CAP``, else the distinct sets of
    ``Q_TRIPLE_CAP`` draws without a repeated vertex."""
    total = math.comb(n2, 3)
    if total <= Q_TRIPLE_CAP:
        # Each pair a < b, in lexicographic order, with its c = b+1 ... n2-1.
        a, b = np.triu_indices(n2, 1)
        count = n2 - 1 - b
        sets = np.empty((total, 3), dtype=np.intp)
        sets[:, 0] = np.repeat(a, count)
        sets[:, 1] = np.repeat(b, count)
        # Position t of the listing is c = t - (start of its pair) + b + 1.
        shift = np.cumsum(count) - count - b - 1
        sets[:, 2] = np.arange(total) - np.repeat(shift, count)
        return sets
    draws = rng.integers(0, n2, size=(Q_TRIPLE_CAP, 3)).astype(np.intp, copy=False)
    sets = unique_rows(draws)[0]
    # A sorted row with a repeated vertex repeats it in neighbouring columns.
    return sets[(sets[:, 0] != sets[:, 1]) & (sets[:, 1] != sets[:, 2])]


# Vertex orders in which each scene triple set is offered for alignment; any
# rotation or reflection of a candidate triangle can match a sampled one.
_VERTEX_ORDERS = np.array(list(itertools.permutations(range(3))), dtype=np.intp)


def _kd_tree(feat: np.ndarray) -> cKDTree:
    """An exact kd-tree that splits at sliding midpoints, into leaves of up
    to 64 rows, and does not shrink its nodes to their data: cheaper to
    build than scipy's default median-split tree, and just as exact."""
    return cKDTree(feat, leafsize=64, balanced_tree=False, compact_nodes=False)


def _knn(q_feats: np.ndarray, p_feats: np.ndarray, k: int) -> np.ndarray:
    """Pool rows of the ``k`` features nearest to each template feature.

    Pool row ``6 * s + o`` is scene set ``s`` (features ``q_feats[s]``) in
    vertex order ``_VERTEX_ORDERS[o]``.  Both routes are exact: below
    ``_SORTED_TREE_MIN_SETS`` sets, one kd-tree over all pool rows; from
    there on, one over the sets' sorted features, whose six orders are
    ranked by the rearrangement inequality (``_knn_by_sorted_sets``).  Each
    row is sorted by pool index, so gamma's mean is summed in a canonical
    order that any exact kNN reproduces; a tie at the k-th distance may fall
    to either pool row, and the two routes may break it differently.
    """
    if len(q_feats) >= _SORTED_TREE_MIN_SETS:
        sel = _knn_by_sorted_sets(q_feats, p_feats, k)
    else:
        # np.take returns a contiguous (sets, 6, 3) array, so reshape copies nothing.
        pool_feat = np.take(q_feats, _VERTEX_ORDERS, axis=1).reshape(-1, 3)
        _, sel = _kd_tree(pool_feat).query(p_feats, k)
    return np.sort(np.asarray(sel, dtype=np.intp).reshape(len(p_feats), k), axis=1)


def _order_codes(feat: np.ndarray) -> np.ndarray:
    """Index in ``_VERTEX_ORDERS`` of each row's stable ascending argsort."""

    def key(f):
        return 4 * (f[:, 0] > f[:, 1]) + 2 * (f[:, 0] > f[:, 2]) + (f[:, 1] > f[:, 2])

    # Row o of the ranks is a feature that _VERTEX_ORDERS[o] sorts.
    code_of_key = np.zeros(8, dtype=np.intp)
    code_of_key[key(np.argsort(_VERTEX_ORDERS, axis=1))] = range(6)
    return code_of_key[key(feat)]


def _knn_by_sorted_sets(q_feats: np.ndarray, p_feats: np.ndarray, k: int) -> np.ndarray:
    """``_knn``'s rows, unsorted, from a kd-tree over the scene sets' sorted features.

    By the rearrangement inequality, the vertex order that lines a set's
    features up by rank with the template's is its nearest pool row, at
    distance ``|sort(p) - sort(q)|``.  With template gaps ``a, b`` and set
    gaps ``c, d`` between neighbouring sorted values, every other order is
    farther by at least ``2 min(ac, bd)`` in squared distance.  So the k
    nearest pool rows lie among the rows of the ``m = min(k, S)`` sets
    nearest in sorted features.  A template whose bound clears the m-th
    set's distance for all m sets keeps each set's rank-aligned row.  Any
    other template takes the k nearest of its sets' six rows each, by the
    build's own distance expression.
    """
    n_sets, n_tmpl = len(q_feats), len(p_feats)
    # Squared feature distances are at most 3; this slack is far above the
    # ulps by which two summation orders of one distance can differ, so no
    # comparison that rounding could decide is taken on the tree's distances.
    slack = 1e-12
    q_code = _order_codes(q_feats)
    # Features are positive, so the network's values are those of np.sort.
    q_sorted = _sort_rows(q_feats.copy())
    p_code = _order_codes(p_feats)
    p_sorted = _sort_rows(p_feats.copy())

    m = min(k, n_sets)
    tree = _kd_tree(q_sorted)
    dist, sets = tree.query(p_sorted, m + (m < n_sets))
    d2 = np.square(dist).reshape(n_tmpl, -1)
    sets = np.asarray(sets, dtype=np.intp).reshape(n_tmpl, -1)
    limit = d2[:, m - 1] + slack
    # Where the (m + 1)-th set is as near as the m-th within the slack, which
    # of them is nearer is for rounding to decide: every set that near is a
    # candidate.
    tied = d2[:, m] <= limit if m < n_sets else np.zeros(n_tmpl, dtype=bool)
    d2, sets = d2[:, :m], sets[:, :m]

    a, b = p_sorted[:, 1] - p_sorted[:, 0], p_sorted[:, 2] - p_sorted[:, 1]
    c, d = (q_sorted[:, 1] - q_sorted[:, 0])[sets], (q_sorted[:, 2] - q_sorted[:, 1])[sets]
    bound = 2 * np.minimum(a[:, None] * c, b[:, None] * d)
    done = (k == m) & ~tied & np.all(d2 + bound > limit[:, None], axis=1)
    sel = np.empty((n_tmpl, k), dtype=np.intp)
    # aligned[x, y] pairs each template rank, placed by argsort order y, with
    # the same set rank, placed by argsort order x.
    perms = _VERTEX_ORDERS[:, np.argsort(_VERTEX_ORDERS, axis=1)]
    aligned = 2 * perms[..., 0] + (perms[..., 1] > perms[..., 2])
    # A done template has k == m; the slice only fits the empty case k > m.
    sel[done, :m] = 6 * sets[done] + aligned[q_code[sets[done]], p_code[done, None]]
    expand = ~done & ~tied
    sel[expand] = _nearest_rows(q_feats, p_feats[expand], sets[expand], k)
    for t in np.flatnonzero(tied):
        near = np.array(tree.query_ball_point(p_sorted[t], np.sqrt(limit[t])), dtype=np.intp)
        sel[t] = _nearest_rows(q_feats, p_feats[t : t + 1], near[None], k)
    return sel


def _nearest_rows(q_feats: np.ndarray, p_feats: np.ndarray, sets: np.ndarray, k: int):
    """The ``k`` pool rows nearest each template among the six of each of its
    candidate ``sets``, by the build's distance: the same differences,
    squared and added in the same order."""
    # sq[i][j]: squared gap between template feature i and set feature j.
    sq = [[None] * 3 for _ in range(3)]
    for j, q_col in enumerate(q_feats.T):
        cand = np.take(q_col, sets)
        for i in range(3):
            sq[i][j] = (cand - p_feats[:, i, None]) ** 2
        # Freed before the next column's gather.
        del cand
    n_cand = sets.shape[1]
    dist2 = np.empty((len(sets), 6, n_cand))
    for o, (o0, o1, o2) in enumerate(_VERTEX_ORDERS.tolist()):
        np.add(sq[0][o0] + sq[1][o1], sq[2][o2], out=dist2[:, o])
    pick = np.argpartition(dist2.reshape(len(sets), 6 * n_cand), k - 1, axis=1)[:, :k]
    return 6 * np.take_along_axis(sets, pick % n_cand, axis=1) + pick // n_cand


def _kept_rows(q_sets: np.ndarray, q_feats: np.ndarray, p_feats: np.ndarray, sel: np.ndarray):
    """Scene vertices and squared feature distances of ``_knn``'s pool rows
    ``sel``, flattened template by template.  The distances are recomputed
    rather than taken from the kd-tree, so every entry is the same expression
    (squared coordinate differences, added in coordinate order) whatever
    finds the neighbours."""
    sets, orders = np.divmod(sel, 6)
    # Flat positions in q_sets and q_feats of each kept set's vertices, in its order.
    at = 3 * sets[..., None] + _VERTEX_ORDERS[orders]
    dist2 = np.zeros(sel.shape)
    for j in range(3):
        dist2 += (q_feats.ravel()[at[..., j]] - p_feats[:, j, None]) ** 2
    return q_sets.ravel()[at].reshape(-1, 3), dist2.reshape(-1)


def build_tensor(P, Q, sampling: SamplingConfig | None = None) -> SparseSymmetricTensor3:
    """Build the third-order affinity tensor for matching P into Q.

    Triples sampled from P are compared against the k nearest scene
    triangles in feature space; each retained pair emits one entry
    ``exp(-gamma * d^2)`` at the linearized correspondence triple, where the
    alignment is vertex-by-vertex.  The emitted orbit list is canonically
    sorted, so identical inputs produce bit-identical tensors.
    """
    sc = sampling if sampling is not None else SamplingConfig()
    P, Q = _point_sets(P, Q)
    n1, n2 = len(P), len(Q)
    if n1 < 3:
        raise ValueError("P needs at least 3 points to form a triangle")
    shape = MatchingShape(n1, n2)
    rng = np.random.default_rng(sc.seed)

    # A sampled scene draws from the same stream, after the template.
    p_triples = _sample_sorted_triples(rng, n1, int(sc.triples_per_point) * n1)
    p_triples, p_feats = _sine_features(P, p_triples)
    q_sets, q_feats = _sine_features(Q, _scene_triple_sets(rng, n2))

    if not len(p_triples) or not len(q_sets):
        return SparseSymmetricTensor3(shape)

    k = min(sc.knn, 6 * len(q_feats))
    sel = _knn(q_feats, p_feats, k)
    p_rows = np.repeat(p_triples, k, axis=0)
    q_rows, dist2 = _kept_rows(q_sets, q_feats, p_feats, sel)

    if sc.gamma is not None:
        gamma = float(sc.gamma)
    else:
        mean_d2 = float(dist2.mean())
        gamma = 1.0 / mean_d2 if mean_d2 > 0.0 else 1.0
    values = np.exp(-gamma * dist2)

    # Template rows are p0 < p1 < p2, so the linear indices p * n2 + q never coincide.
    return SparseSymmetricTensor3(shape, p_rows * n2 + q_rows, values)


def build_matrix2(P, Q) -> np.ndarray:
    """Second-order affinity matrix from pairwise-distance agreement.

    Entry ``((i1,j1),(i2,j2))`` is ``exp(-(dP[i1,i2] - dQ[j1,j2])^2 /
    SIGMA_S^2)`` for distinct rows and distinct columns, zero otherwise.
    Used only to run the quadratic subroutines as standalone baselines.
    Above ``tensor.DENSE_MATRIX_LIMIT`` rows it raises
    :class:`~hypermatch.tensor.ThresholdExceeded` before any n x n array is
    built, as ``contract_mat`` does.
    """
    P, Q = _point_sets(P, Q)
    n1, n2 = len(P), len(Q)
    n = n1 * n2
    if n > tensor.DENSE_MATRIX_LIMIT:
        raise tensor.ThresholdExceeded(
            f"refusing to materialize a {n}x{n} matrix (limit {tensor.DENSE_MATRIX_LIMIT})"
        )
    dP = np.hypot(P[:, 0, None] - P[None, :, 0], P[:, 1, None] - P[None, :, 1])
    dQ = np.hypot(Q[:, 0, None] - Q[None, :, 0], Q[:, 1, None] - Q[None, :, 1])
    gap = dP[:, None, :, None] - dQ[None, :, None, :]
    A = np.exp(-(gap**2) / SIGMA_S**2)
    rows = np.arange(n1)
    cols = np.arange(n2)
    A[rows, :, rows, :] = 0.0
    A[:, cols, :, cols] = 0.0
    return A.reshape(n1 * n2, n1 * n2)
