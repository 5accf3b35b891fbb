"""Independent reference implementations used to freeze expected values.

Everything defined here works on dense arrays with explicit permutation
loops, or is the scan, sort or full orbit pass the package has since
replaced, so it shares no code path with the orbit-based package internals.
The random instances and the enumeration and LAP brute force come from
``hypermatch.selfcheck``, which runs the same references.  The exception is
:func:`triangle_feature`, a one-triangle entry to the build's own feature
kernel, which the feature tests exercise.
"""

from __future__ import annotations

import itertools

import numpy as np

from hypermatch import (
    AssignmentVector,
    LiftedOperator,
    MatchingShape,
    MpmResult,
    SparseSymmetricTensor3,
)
from hypermatch import affinity, qap
from hypermatch.selfcheck import (  # noqa: F401 - re-exported to the tests
    all_assignments,
    lap_brute,
    random_matching,
    random_tensor,
)


def indicator(shape: MatchingShape, cols) -> np.ndarray:
    return AssignmentVector(shape, cols).indicator()


class DegenerateTriangle(ValueError):
    """Collinear, coincident, or with a side below ``affinity.MIN_SIDE``
    relative to the set's extent."""


def triangle_feature(points, triple) -> np.ndarray:
    """The tensor build's feature of one triangle: the interior-angle sines
    in vertex order, from ``affinity._sine_features``.

    Raises :class:`DegenerateTriangle` where the build would skip the triple.
    """
    pts = affinity._as_points(points, "points")
    tri = np.asarray(triple, dtype=np.intp).reshape(1, 3)
    if len(set(tri[0].tolist())) != 3:
        raise ValueError("triple must have three distinct indices")
    if tri.min() < 0 or tri.max() >= len(pts):
        raise ValueError(f"triple index outside [0, {len(pts)})")
    kept, feats = affinity._sine_features(pts, tri)
    if not len(kept):
        raise DegenerateTriangle(f"triple {tuple(tri[0])} is degenerate")
    return feats[0]


def sorted_rows(rows) -> np.ndarray:
    """Each row of ``rows`` sorted ascending by ``np.sort``, the per-row sort
    that ``tensor._sort_rows``' compare-and-swap steps replaced."""
    return np.sort(rows, axis=1)


def sine_features_by_rows(points: np.ndarray, triples: np.ndarray):
    """``affinity._sine_features`` from ``(S, 2)`` row gathers of the rescaled
    points, the measurable rows always taken through the mask."""
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
    side = affinity.MIN_SIDE
    valid = (d_ab >= side) & (d_ac >= side) & (d_bc >= side) & (area2 != 0.0)
    return triples[valid], feats[valid]


def nearest_rows_nine_gathers(q_feats, p_feats, sets, k: int) -> np.ndarray:
    """``affinity._nearest_rows`` with the candidate feature column gathered
    again for each template coordinate: nine gathers instead of three."""
    q_cols = q_feats.T
    sq = [[(q_cols[j][sets] - p_feats[:, i, None]) ** 2 for j in range(3)] for i in range(3)]
    n_cand = sets.shape[1]
    dist2 = np.empty((len(sets), 6, n_cand))
    for o, (o0, o1, o2) in enumerate(affinity._VERTEX_ORDERS.tolist()):
        np.add(sq[0][o0] + sq[1][o1], sq[2][o2], out=dist2[:, o])
    pick = np.argpartition(dist2.reshape(len(sets), 6 * n_cand), k - 1, axis=1)[:, :k]
    return 6 * np.take_along_axis(sets, pick % n_cand, axis=1) + pick // n_cand


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


def contract_vec_full(tensor: SparseSymmetricTensor3, x, y) -> np.ndarray:
    """``tensor.contract_vec(x, y)`` by a pass over every stored orbit, the
    package's kernel before it learned to skip orbits outside the support."""
    n = tensor.shape.n
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not tensor.val.size:
        return np.zeros(n)
    i, j, k = tensor.idx[:, 0], tensor.idx[:, 1], tensor.idx[:, 2]
    w_i = tensor.val * (x[j] * y[k] + x[k] * y[j])
    w_j = tensor.val * (x[i] * y[k] + x[k] * y[i])
    w_k = tensor.val * (x[i] * y[j] + x[j] * y[i])
    out = np.bincount(i, weights=w_i, minlength=n)
    out += np.bincount(j, weights=w_j, minlength=n)
    out += np.bincount(k, weights=w_k, minlength=n)
    return out


def lifted_contract_vec_full(op: LiftedOperator, x, y, z) -> np.ndarray:
    """``op.contract_vec(x, y, z)`` from three full-pass contractions, one
    per pair of arguments, with no reuse; each dot product is the pairwise
    sum of the elementwise product, as in the package."""
    x, y, z = (np.asarray(v, dtype=np.float64) for v in (x, y, z))
    cxy = contract_vec_full(op.tensor, x, y)
    out = np.full(op.n, float((z * cxy).sum()))
    out += float(z.sum()) * cxy
    out += float(y.sum()) * contract_vec_full(op.tensor, x, z)
    out += float(x.sum()) * contract_vec_full(op.tensor, y, z)
    if op.alpha:
        xy, xz, yz = (float((a * b).sum()) for a, b in ((x, y), (x, z), (y, z)))
        out += (op.alpha / 3.0) * (xy * z + xz * y + yz * x)
    return out


def score_full(tensor: SparseSymmetricTensor3, x) -> float:
    """``tensor.score(x)`` by one product expression over every stored orbit,
    the package's kernel before it reused one weight buffer, summed pairwise."""
    x = np.asarray(x, dtype=np.float64)
    if not tensor.val.size:
        return 0.0
    i, j, k = tensor.idx[:, 0], tensor.idx[:, 1], tensor.idx[:, 2]
    return 6.0 * float((tensor.val * (x[i] * x[j] * x[k])).sum())


def contract_mat_full(tensor: SparseSymmetricTensor3, x) -> np.ndarray:
    """``tensor.contract_mat(x)`` by a pass over every stored orbit, the
    package's kernel before it learned to skip orbits outside the support."""
    n = tensor.shape.n
    x = np.asarray(x, dtype=np.float64)
    if not tensor.val.size:
        return np.zeros((n, n))
    i, j, k = tensor.idx[:, 0], tensor.idx[:, 1], tensor.idx[:, 2]
    w_i = tensor.val * x[i]
    w_j = tensor.val * x[j]
    w_k = tensor.val * x[k]
    pos = np.concatenate([j * n + k, k * n + j, i * n + k, k * n + i, i * n + j, j * n + i])
    wts = np.concatenate([w_i, w_i, w_j, w_j, w_k, w_k])
    flat = np.bincount(pos, weights=wts, minlength=n * n)
    return flat.reshape(n, n)


def mpm_last_axis(A, shape: MatchingShape, x0) -> MpmResult:
    """``qap.mpm(A, shape, x0)`` with the max taken over the last axis of
    the (n1, n2, n1, n2) product, the package's pooling before it moved the
    pooled index outermost, each 2-norm the root of a pairwise sum of
    squares.  ``A`` and ``x0`` must be valid."""
    n = shape.n
    A = np.asarray(A, dtype=np.float64)
    x0 = np.asarray(x0, dtype=np.float64)
    n1, n2 = shape.n1, shape.n2
    blocks = A.reshape(n1, n2, n1, n2)
    diag = A.diagonal().reshape(n1, n2)
    rows = np.arange(n1)

    def pool(x):
        xm = x.reshape(n1, n2)
        pooled = (blocks * xm[None, None, :, :]).max(axis=3)  # (n1, n2, n1)
        total = pooled.sum(axis=2)
        own = pooled[rows, :, rows]
        return (total - own + xm * diag).reshape(n)

    x = x0 / np.sqrt((x0 * x0).sum())
    converged = False
    degenerate = False
    iterations = 0
    for _ in range(qap.MPM_MAX_ITER):
        iterations += 1
        new = pool(x)
        norm_new = float(np.sqrt((new * new).sum()))
        if norm_new == 0.0:
            degenerate = True
            break
        new = new / norm_new
        delta = float(np.sqrt(((new - x) ** 2).sum()))
        x = new
        if delta <= qap.MPM_TOL:
            converged = True
            break
    return MpmResult(x, iterations, converged, degenerate)


def contract3_mat(t3: np.ndarray, x) -> np.ndarray:
    return np.einsum("ikl,i->kl", t3, x)


def qap_brute(A: np.ndarray, shape: MatchingShape):
    """Exhaustive quadratic assignment maximum: (best objective, best columns)."""
    best_obj, best_cols = -np.inf, None
    for cols in all_assignments(shape):
        x = indicator(shape, cols)
        obj = float((x * (A @ x)).sum())
        if obj > best_obj:
            best_obj, best_cols = obj, cols
    return best_obj, best_cols


def knn_brute(pool_feat: np.ndarray, p_feats: np.ndarray, k: int) -> np.ndarray:
    """k nearest pool rows per template feature by a full scan, each row in
    ``argpartition``'s order (the tensor build's kNN before the kd-tree)."""
    sel = np.empty((len(p_feats), k), dtype=np.intp)
    for row, feat in enumerate(p_feats):
        d2 = ((pool_feat - feat) ** 2).sum(axis=1)
        if k < len(d2):
            sel[row] = np.argpartition(d2, k - 1)[:k]
        else:
            sel[row] = np.arange(k)
    return sel


def sample_sorted_triples_all_draws(rng, m: int, count: int) -> np.ndarray:
    """``affinity._sample_sorted_triples`` by ``count`` calls
    ``rng.choice(m, 3, replace=False)``, distinct rows by ``np.unique``."""
    draws = np.empty((count, 3), dtype=np.intp)
    for row in range(count):
        draws[row] = rng.choice(m, size=3, replace=False)
    draws.sort(axis=1)
    return np.unique(draws, axis=0)


def canonical_orbits(triples, values):
    """Canonical orbit storage by ``np.unique(axis=0)``: sorted distinct
    triples and the summed values of their duplicates."""
    idx = np.sort(np.asarray(triples, dtype=np.intp), axis=1)
    idx, inverse = np.unique(idx, axis=0, return_inverse=True)
    val = np.bincount(
        inverse.reshape(-1), weights=np.asarray(values, dtype=np.float64), minlength=len(idx)
    )
    return idx, val


def matching_brute(tensor: SparseSymmetricTensor3):
    """Exhaustive matching-score maximum: (best score, best columns)."""
    best_obj, best_cols = -np.inf, None
    for cols in all_assignments(tensor.shape):
        obj = tensor.score(indicator(tensor.shape, cols))
        if obj > best_obj:
            best_obj, best_cols = obj, cols
    return best_obj, best_cols
