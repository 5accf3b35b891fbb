"""Sparse symmetric third-order affinity tensors and implicit fourth-order lifting.

The third-order tensor is stored by canonical orbits: one strictly increasing
index triple stands for the six permuted copies of a symmetric entry.  A
:class:`LiftedOperator` evaluates contractions of the lifted fourth-order
tensor (four index-shifted copies of the third-order one, plus an optional
convexifying term scaled by ``alpha``) from the third-order tensor's own
kernels; the fourth-order tensor itself is never materialized.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DENSE_MATRIX_LIMIT",
    "ThresholdExceeded",
    "MatchingShape",
    "SparseSymmetricTensor3",
    "LiftedOperator",
    "alpha_bound",
    "f4_norm_exact",
]

# n above which n-by-n dense results are refused (~200 MB of float64).
DENSE_MATRIX_LIMIT = 5000


class ThresholdExceeded(ValueError):
    """The operation would materialize a larger object than allowed."""


@dataclass(frozen=True)
class MatchingShape:
    """Dimensions of a correspondence problem.

    ``n1`` template points (rows) are matched into ``n2`` scene points
    (columns), ``n1 <= n2``.  Candidate pairs are linearized row-major:
    the 0-based pair ``(i, j)`` maps to linear index ``i * n2 + j``.
    External documents use 1-based indices; everything in-process is 0-based.
    """

    n1: int
    n2: int

    def __post_init__(self) -> None:
        _check_number(self.n1, "n1", 1, count=True)
        _check_number(self.n2, "n2", self.n1, count=True)
        object.__setattr__(self, "n1", int(self.n1))
        object.__setattr__(self, "n2", int(self.n2))

    @property
    def n(self) -> int:
        return self.n1 * self.n2


def _as_vector(x, n: int, name: str = "vector") -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have length {n}, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


def _as_indices(values, name: str) -> np.ndarray:
    """``values`` as ``intp`` indices; a non-empty array of a non-integer dtype is refused."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integer indices, got dtype {arr.dtype}")
    return arr.astype(np.intp, copy=False)


def _check_number(value, name: str, low=None, *, count: bool = False, strict: bool = False):
    """Refuse setting ``name`` unless ``value`` is an integer (``count``) or a finite real,
    at least ``low`` (above it if ``strict``).  A bool is refused, a NumPy number is not."""
    kind = numbers.Integral if count else numbers.Real
    # type() first: the ABC test alone costs more than a MatchingShape, made per LAP.
    ok = type(value) is int or (isinstance(value, kind) and not isinstance(value, bool))
    try:  # not abs(value) <= the float max, which NumPy compares in float32 for a float32
        ok = ok and (count or math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok or (low is not None and (value <= low if strict else value < low)):
        what = "an integer" if count else "a finite number"
        bound = "" if low is None else f" {'>' if strict else '>='} {low}"
        raise ValueError(f"{name} must be {what}{bound}")


def unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a nonnegative (N, 3) index array in lexicographic
    order, and for each input row the position of its distinct row.

    Rows are ranked by one sort of the key ``(r0*m + r1)*m + r2`` with
    ``m = rows.max() + 1``, which orders them as ``np.lexsort`` does; when
    ``m**3`` would overflow int64, by ``np.lexsort`` itself.  The distinct
    rows are a Fortran-ordered array, so each of its columns is contiguous.
    """
    m = int(rows.max(initial=0)) + 1
    first = np.ones(len(rows), dtype=bool)
    if m <= 2**21:  # the largest key is m**3 - 1 <= 2**63 - 1
        key = (rows[:, 0] * m + rows[:, 1]) * m + rows[:, 2]
        # Equal keys are equal rows, so the sort need not be stable.
        order = np.argsort(key)
        key = key[order]
        first[1:] = key[1:] != key[:-1]
    else:
        order = np.lexsort(rows.T[::-1])
        key = rows[order]
        first[1:] = np.any(key[1:] != key[:-1], axis=1)
    # Freed before the gather below, which holds one column of scratch.
    del key
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    # Gathered one column at a time, so no temporary holds every row.
    sel = order[first]
    distinct = np.empty((len(sel), 3), dtype=rows.dtype, order="F")
    for c in range(3):
        distinct[:, c] = rows[sel, c]
    return distinct, inverse


class SparseSymmetricTensor3:
    """Nonnegative symmetric third-order tensor in canonical-orbit storage.

    Each stored orbit ``(i, j, k, v)`` with ``i < j < k`` represents the six
    permuted entries of value ``v``.  Triples are canonicalized at ingest
    (sorted ascending), triples with a repeated index are rejected, and
    duplicate triples are summed.  Triples must have an integer dtype, and
    ``triples`` and ``values`` are given together or not at all.  ``idx`` is
    Fortran-ordered, so each index column is contiguous.  Instances are
    immutable and safe to share across threads; all contractions run in the
    fixed stored-orbit order, so repeated evaluations are bit-identical.
    """

    __slots__ = ("shape", "idx", "val")

    def __init__(self, shape: MatchingShape, triples=None, values=None):
        n = shape.n
        if triples is None and values is None:
            idx = np.empty((0, 3), dtype=np.intp)
            val = np.empty(0, dtype=np.float64)
        elif triples is None or values is None:
            raise ValueError("triples and values must be given together")
        else:
            idx = _as_indices(triples, "triples")
            val = np.asarray(values, dtype=np.float64)
            if idx.ndim != 2 or idx.shape[1] != 3:
                raise ValueError(f"triples must be (m, 3), got shape {idx.shape}")
            if val.shape != (idx.shape[0],):
                raise ValueError("values must match the number of triples")
            if not np.all(np.isfinite(val)):
                raise ValueError("affinity values must be finite")
            if val.size and float(val.min()) < 0.0:
                raise ValueError("affinity values must be nonnegative")
            if idx.size:
                if int(idx.min()) < 0 or int(idx.max()) >= n:
                    raise ValueError(f"triple index outside [0, {n})")
                idx = np.sort(idx, axis=1)
                if np.any(idx[:, 0] == idx[:, 1]) or np.any(idx[:, 1] == idx[:, 2]):
                    raise ValueError("triples with a repeated index are not allowed")
                idx, inverse = unique_rows(idx)
                # bincount adds the weights in input order, so duplicates sum
                # as they come.
                val = np.bincount(inverse, weights=val, minlength=idx.shape[0])
        # Empty input arrives as the caller's own arrays; only views are frozen.
        idx, val = idx.view(), val.view()
        idx.setflags(write=False)
        val.setflags(write=False)
        self.shape = shape
        self.idx = idx
        self.val = val

    @property
    def nnz(self) -> int:
        """Number of stored canonical orbits."""
        return int(self.val.size)

    def score(self, x) -> float:
        """Matching score: the full symmetric tensor contracted with x three times.

        Equals ``6 * sum_orbits v * x_i * x_j * x_k`` since every orbit of
        distinct indices has exactly six permuted copies.
        """
        x = _as_vector(x, self.shape.n, "x")
        i, j, k = self.idx.T
        w = x[i]
        w *= x[j]
        w *= x[k]
        return 6.0 * float(np.dot(self.val, w))

    def trilinear(self, x, y, z) -> float:
        """The symmetric trilinear form evaluated at three vectors: ``z . contract_vec(x, y)``."""
        z = _as_vector(z, self.shape.n, "z")
        return float(z @ self.contract_vec(x, y))

    def contract_vec(self, x, y) -> np.ndarray:
        """Contract two modes: returns the vector ``l -> sum_ij T_ijl x_i y_j``.

        Each orbit ``(i, j, k, v)`` sends ``v * (x_a y_b + x_b y_a)`` to the
        output coordinate ``c`` for each choice of ``c`` in ``{i, j, k}``,
        ``{a, b}`` being the two remaining indices.

        An orbit with fewer than two indices in ``supp(x) | supp(y)`` sends
        only exact zeros.  When the support is not all of ``n``, as for a
        matching, only the other orbits are visited, in stored order;
        ``bincount`` then adds the same nonzero terms in the same order, so
        the result is bit-identical to a full pass.
        """
        n = self.shape.n
        same = y is x
        x = _as_vector(x, n, "x")
        y = x if same else _as_vector(y, n, "y")
        i, j, k = self.idx.T
        val = self.val
        inside = x != 0.0 if same else (x != 0.0) | (y != 0.0)
        if not inside.all():
            # Summed as uint8, since bool addition is a logical or.
            count = inside.view(np.uint8)
            keep = np.flatnonzero(count[i] + count[j] + count[k] >= 2)
            i, j, k, val = i[keep], j[keep], k[keep], val[keep]
        if not val.size:
            # bincount of no terms gives integer zeros.
            return np.zeros(n)
        xs = (x[i], x[j], x[k])
        ys = xs if same else (y[i], y[j], y[k])
        w = np.empty(val.size)
        t = w if same else np.empty(val.size)

        def weights(a, b):
            # val * (x_a y_b + x_b y_a), computed in place in w.
            np.multiply(xs[a], ys[b], out=w)
            if not same:
                np.multiply(xs[b], ys[a], out=t)
            # For y = x, t is w: x_a x_b + x_b x_a is 2 (x_a x_b) bit for bit.
            np.add(w, t, out=w)
            return np.multiply(w, val, out=w)

        out = np.bincount(i, weights=weights(1, 2), minlength=n)
        out += np.bincount(j, weights=weights(0, 2), minlength=n)
        out += np.bincount(k, weights=weights(0, 1), minlength=n)
        return out

    def contract_mat(self, x) -> np.ndarray:
        """Contract one mode: returns the symmetric matrix ``(k, l) -> sum_i T_ikl x_i``.

        An orbit with no index in ``supp(x)`` sends only exact zeros.  When
        the support is not all of ``n``, as for a matching, only the other
        orbits are visited, in stored order; each of the six weight streams
        keeps its order, so ``bincount`` gives the same bytes as a full pass.
        """
        n = self.shape.n
        if n > DENSE_MATRIX_LIMIT:
            raise ThresholdExceeded(
                f"refusing to materialize a {n}x{n} matrix (limit {DENSE_MATRIX_LIMIT})"
            )
        x = _as_vector(x, n, "x")
        i, j, k = self.idx.T
        val = self.val
        inside = x != 0.0
        if not inside.all():
            keep = np.flatnonzero(inside[i] | inside[j] | inside[k])
            i, j, k, val = i[keep], j[keep], k[keep], val[keep]
        if not val.size:
            return np.zeros((n, n))
        # Six streams: orbit index c sends val * x_c to (a, b) and to (b, a).
        # Mirrored positions receive identical weight streams, so the result
        # is exactly symmetric.
        pos = np.empty((6, val.size), dtype=np.intp)
        wts = np.empty((6, val.size))
        for s, (c, a, b) in enumerate(((i, j, k), (j, i, k), (k, i, j))):
            np.multiply(val, x[c], out=wts[2 * s])
            wts[2 * s + 1] = wts[2 * s]
            pos[2 * s] = a * n + b
            pos[2 * s + 1] = b * n + a
        flat = np.bincount(pos.reshape(-1), weights=wts.reshape(-1), minlength=n * n)
        return flat.reshape(n, n)

    def frobenius_norm(self) -> float:
        """Frobenius norm of the full symmetric tensor: ``sqrt(6 * sum v^2)``."""
        return float(np.sqrt(6.0 * np.dot(self.val, self.val)))


@dataclass(frozen=True)
class LiftedOperator:
    """Implicit fourth-order operator built from a third-order tensor.

    Represents the fourth-order tensor whose entries are the sums of the
    third-order entries over each dropped index, plus ``alpha`` times the
    symmetric tensor whose score function is the fourth power of the 2-norm.
    Everything is computed from the third-order tensor's contraction kernels.
    Of ``tensor`` it uses ``shape``, ``score``, ``contract_vec`` and ``contract_mat`` only.
    """

    tensor: SparseSymmetricTensor3
    alpha: float = 0.0

    def __post_init__(self) -> None:
        _check_number(self.alpha, "alpha", 0)
        object.__setattr__(self, "alpha", float(self.alpha))

    @property
    def n(self) -> int:
        return self.tensor.shape.n

    def form(self, x, y, z, t) -> float:
        """The symmetric multilinear form at four vectors: ``t . contract_vec(x, y, z)``.

        Invariant under any permutation of the arguments.
        """
        t = _as_vector(t, self.n, "t")
        return float(t @ self.contract_vec(x, y, z))

    def score(self, x) -> float:
        """Score function: the form on the diagonal, ``form(x, x, x, x)``.

        Equals ``4 * score3(x) * sum(x) + alpha * ||x||_2^4``.
        """
        # tensor.score checks x.
        x = np.asarray(x, dtype=np.float64)
        return 4.0 * self.tensor.score(x) * float(x.sum()) + self.alpha * float(x @ x) ** 2

    def contract_vec(self, x, y, z) -> np.ndarray:
        """Gradient-direction contraction: the vector ``form(x, y, z, .)``."""
        n = self.n
        # The tensor's contract_vec checks each operand.  A solve passes a
        # contraction memo as the tensor, which contracts a repeated pair once.
        x, y, z = (np.asarray(v, dtype=np.float64) for v in (x, y, z))
        tn = self.tensor
        cxy = tn.contract_vec(x, y)
        cxz = tn.contract_vec(x, z)
        cyz = tn.contract_vec(y, z)
        # The copy that drops the output index is constant: trilinear(x, y, z).
        out = np.full(n, float(z @ cxy))
        out += float(z.sum()) * cxy
        out += float(y.sum()) * cxz
        out += float(x.sum()) * cyz
        if self.alpha:
            out += (self.alpha / 3.0) * (
                float(x @ y) * z + float(x @ z) * y + float(y @ z) * x
            )
        return out

    def contract_mat(self, x, y) -> np.ndarray:
        """Hessian-direction contraction: the symmetric matrix ``form(x, y, ., .)``."""
        n = self.n
        # The tensor's contract_mat checks x and y and refuses an oversized n
        # before any n x n array.
        x, y = (np.asarray(v, dtype=np.float64) for v in (x, y))
        tn = self.tensor
        mx = tn.contract_mat(x)
        my = tn.contract_mat(y)
        c = tn.contract_vec(x, y)
        out = c[:, None] + c[None, :]
        out += float(y.sum()) * mx
        out += float(x.sum()) * my
        if self.alpha:
            out += (self.alpha / 3.0) * (
                float(x @ y) * np.eye(n) + np.outer(x, y) + np.outer(y, x)
            )
        return out


def alpha_bound(tensor: SparseSymmetricTensor3) -> float:
    """A convexification weight that is always sufficient.

    Three times ``4 * sqrt(n)`` times the third-order Frobenius norm.  By
    Cauchy-Schwarz ``||M||^2 <= n * ||T||^2`` in the closed form of
    :func:`f4_norm_exact`, so this is at least ``3 * f4_norm_exact``.  The
    solvers use this bound rather than the exact norm, since their output
    bytes depend on it.
    """
    return 12.0 * float(np.sqrt(tensor.shape.n)) * tensor.frobenius_norm()


def f4_norm_exact(tensor: SparseSymmetricTensor3) -> float:
    """Exact Frobenius norm of the lifted fourth-order tensor, in closed form.

    With ``F_ijkl = T_ijk + T_ijl + T_ikl + T_jkl``, each of the four copies
    squared and summed over its free index gives ``n * ||T||^2``, and each of
    the twelve cross terms shares two indices, giving ``||M||^2`` with
    ``M = contract_mat(ones)``.  So ``||F||^2 = 4n ||T||^2 + 12 ||M||^2``.
    The limit is ``contract_mat``'s: above ``DENSE_MATRIX_LIMIT`` it raises
    :class:`ThresholdExceeded`.
    """
    n = tensor.shape.n
    m = tensor.contract_mat(np.ones(n))
    return float(np.sqrt(4.0 * n * tensor.frobenius_norm() ** 2 + 12.0 * np.sum(m * m)))
