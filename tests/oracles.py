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
    feats, valid = affinity._sine_features(pts, tri)
    if not valid[0]:
        raise DegenerateTriangle(f"triple {tuple(tri[0])} is degenerate")
    return feats[0]


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
    per pair of arguments, with no reuse."""
    x, y, z = (np.asarray(v, dtype=np.float64) for v in (x, y, z))
    cxy = contract_vec_full(op.tensor, x, y)
    out = np.full(op.n, float(z @ cxy))
    out += float(z.sum()) * cxy
    out += float(y.sum()) * contract_vec_full(op.tensor, x, z)
    out += float(x.sum()) * contract_vec_full(op.tensor, y, z)
    if op.alpha:
        out += (op.alpha / 3.0) * (float(x @ y) * z + float(x @ z) * y + float(y @ z) * x)
    return out


def score_full(tensor: SparseSymmetricTensor3, x) -> float:
    """``tensor.score(x)`` by one product expression over every stored orbit,
    the package's kernel before it reused one weight buffer."""
    x = np.asarray(x, dtype=np.float64)
    if not tensor.val.size:
        return 0.0
    i, j, k = tensor.idx[:, 0], tensor.idx[:, 1], tensor.idx[:, 2]
    return 6.0 * float(np.dot(tensor.val, x[i] * x[j] * x[k]))


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
    pooled index outermost.  ``A`` and ``x0`` must be valid."""
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

    x = x0 / float(np.linalg.norm(x0))
    converged = False
    degenerate = False
    iterations = 0
    for _ in range(qap.MPM_MAX_ITER):
        iterations += 1
        new = pool(x)
        norm_new = float(np.linalg.norm(new))
        if norm_new == 0.0:
            degenerate = True
            break
        new = new / norm_new
        delta = float(np.linalg.norm(new - x))
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
        obj = float(x @ (A @ x))
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
    """``affinity._sample_sorted_triples`` as it was before it could stop:
    always ``count`` draws, distinct rows by ``np.unique``."""
    draws = np.empty((count, 3), dtype=np.intp)
    for row in range(count):
        draws[row] = rng.choice(m, size=3, replace=False)
    draws.sort(axis=1)
    return np.unique(draws, axis=0)


def draws_until_complete(seed: int, m: int, count: int) -> int:
    """How many of ``count`` draws from ``default_rng(seed)`` it takes until
    every one of the C(m, 3) triples has come up; ``count`` if they never do."""
    rng = np.random.default_rng(seed)
    total = len(list(itertools.combinations(range(m), 3)))
    seen = set()
    for row in range(count):
        seen.add(tuple(sorted(rng.choice(m, size=3, replace=False).tolist())))
        if len(seen) == total:
            return row + 1
    return count


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
