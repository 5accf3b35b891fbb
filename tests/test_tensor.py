"""Tensor storage, contractions, and the implicit fourth-order lift."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hypermatch import (
    LiftedOperator,
    MatchingShape,
    SparseSymmetricTensor3,
    ThresholdExceeded,
    alpha_bound,
    build_tensor,
    f4_norm_exact,
)
from hypermatch import bcagm
from hypermatch.tensor import DENSE_MATRIX_LIMIT, unique_rows
from test_affinity import scene_instance


def basis(n, i):
    e = np.zeros(n)
    e[i] = 1.0
    return e


class TestMatchingShape:
    def test_n_counts_the_pairs(self):
        assert MatchingShape(3, 5).n == 15

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            MatchingShape(0, 3)
        with pytest.raises(ValueError):
            MatchingShape(4, 3)


class TestConstruction:
    def test_canonicalizes_and_sums_duplicates(self):
        shape = MatchingShape(2, 3)
        t = SparseSymmetricTensor3(shape, [[3, 1, 0], [0, 1, 3], [2, 4, 5]], [1.0, 2.0, 0.5])
        assert t.nnz == 2
        assert t.idx.tolist() == [[0, 1, 3], [2, 4, 5]]
        np.testing.assert_allclose(t.val, [3.0, 0.5])

    # n = 2 250 000 exceeds 2**21, so the last shape's rows are ranked by
    # np.lexsort rather than by the int64 key.
    @pytest.mark.parametrize(
        "seed, n1, n2, m",
        [(0, 2, 3, 40), (1, 4, 6, 500), (2, 10, 40, 5000), (3, 1500, 1500, 5000)],
    )
    def test_matches_the_unique_oracle(self, seed, n1, n2, m):
        # few distinct triples, so most rows are duplicates in some vertex order
        rng = np.random.default_rng(seed)
        shape = MatchingShape(n1, n2)
        base = np.array([rng.choice(shape.n, 3, replace=False) for _ in range(max(1, m // 8))])
        triples = base[rng.integers(0, len(base), m)]
        triples = np.take_along_axis(triples, rng.permuted(np.tile([0, 1, 2], (m, 1)), axis=1), 1)
        values = rng.random(m)
        t = SparseSymmetricTensor3(shape, triples, values)
        assert (triples.max() >= 2**21) == (shape.n > 2**21)
        idx, val = oracles.canonical_orbits(triples, values)
        assert t.idx.tobytes() == idx.tobytes()
        assert t.val.tobytes() == val.tobytes()

    @pytest.mark.parametrize("m", [2**21, 2**21 + 1])
    def test_unique_rows_at_the_key_bound(self, m):
        # Entries near m - 1 put the int64 key (r0*m + r1)*m + r2 at its
        # largest, m**3 - 1 = 2**63 - 1 for m = 2**21; one more and the rows
        # go to np.lexsort.
        rng = np.random.default_rng(m)
        rows = rng.choice([0, 1, m // 2, m - 2, m - 1], size=(600, 3))
        rows[0] = m - 1
        got, inverse = unique_rows(rows)
        want, want_inverse = np.unique(rows, axis=0, return_inverse=True)
        assert got.tobytes() == want.tobytes()
        assert inverse.tobytes() == want_inverse.reshape(-1).astype(np.intp).tobytes()

    def test_rejects_repeated_indices(self):
        shape = MatchingShape(2, 3)
        with pytest.raises(ValueError, match="repeated"):
            SparseSymmetricTensor3(shape, [[0, 0, 1]], [1.0])

    def test_rejects_negative_and_nonfinite(self):
        shape = MatchingShape(2, 3)
        with pytest.raises(ValueError, match="nonnegative"):
            SparseSymmetricTensor3(shape, [[0, 1, 2]], [-1.0])
        with pytest.raises(ValueError, match="finite"):
            SparseSymmetricTensor3(shape, [[0, 1, 2]], [np.nan])

    def test_rejects_out_of_range_index(self):
        shape = MatchingShape(2, 2)
        with pytest.raises(ValueError, match="outside"):
            SparseSymmetricTensor3(shape, [[0, 1, 4]], [1.0])

    def test_empty_tensor(self):
        t = SparseSymmetricTensor3(MatchingShape(2, 3))
        assert t.nnz == 0
        assert t.score(np.ones(6)) == 0.0
        assert t.frobenius_norm() == 0.0

    def test_storage_is_readonly(self):
        t = SparseSymmetricTensor3(MatchingShape(2, 3), [[0, 1, 2]], [1.0])
        with pytest.raises(ValueError):
            t.val[0] = 2.0
        with pytest.raises(ValueError):
            t.idx[0, 0] = 1
        # Only the stored arrays are frozen, not the caller's, even when
        # empty input could be stored as it is.
        for orbits in (0, 2):
            triples = np.array([[0, 1, 2], [1, 2, 3]], dtype=np.intp)[:orbits]
            values = np.array([1.0, 2.0])[:orbits]
            t = SparseSymmetricTensor3(MatchingShape(2, 3), triples, values)
            assert not t.idx.flags.writeable and not t.val.flags.writeable
            assert triples.flags.writeable and values.flags.writeable

    def test_rejects_non_integer_triples(self):
        shape = MatchingShape(2, 3)
        with pytest.raises(ValueError, match="integer"):
            SparseSymmetricTensor3(shape, [[0, 1, 2.5]], [1.0])
        with pytest.raises(ValueError, match="integer"):
            SparseSymmetricTensor3(shape, np.array([[0.0, 1.0, 2.0]]), [1.0])
        with pytest.raises(ValueError, match=r"\(m, 3\)"):
            SparseSymmetricTensor3(shape, [[0, 1], [1, 2]], [1.0, 1.0])
        # No entry, no dtype to check: an empty float array is an empty tensor.
        assert SparseSymmetricTensor3(shape, np.empty((0, 3)), []).nnz == 0

    def test_rejects_triples_or_values_alone(self):
        shape = MatchingShape(2, 3)
        with pytest.raises(ValueError, match="together"):
            SparseSymmetricTensor3(shape, [[0, 1, 2]], None)
        with pytest.raises(ValueError, match="together"):
            SparseSymmetricTensor3(shape, None, [1.0])
        with pytest.raises(ValueError, match="number of triples"):
            SparseSymmetricTensor3(shape, [[0, 1, 2]], [1.0, 2.0])

    @pytest.mark.parametrize(
        "make",
        [
            lambda: SparseSymmetricTensor3(MatchingShape(2, 3)),
            lambda: SparseSymmetricTensor3(MatchingShape(2, 3), [[0, 1, 2]], [1.0]),
            lambda: SparseSymmetricTensor3(MatchingShape(2, 3), np.empty((0, 3)), []),
            lambda: oracles.random_tensor(np.random.default_rng(8), MatchingShape(4, 7), 300),
            lambda: build_tensor(*scene_instance(22, 10, 30)),
        ],
        ids=["empty", "one-orbit", "empty-input", "random", "built"],
    )
    def test_index_columns_are_contiguous_and_readonly(self, make):
        t = make()
        for c in range(3):
            column = t.idx[:, c]
            assert column.flags.c_contiguous
            assert not column.flags.writeable


class TestScore:
    def test_single_orbit_support(self):
        # all six permutations of one orbit contribute
        t = SparseSymmetricTensor3(MatchingShape(2, 3), [[0, 1, 2]], [1.0])
        x = np.zeros(6)
        x[[0, 1, 2]] = 1.0
        dense = oracles.dense_from_tensor(t)
        assert oracles.score3(dense, x) == 6.0
        assert t.score(x) == 6.0

    def test_single_point_support_is_zero(self):
        t = SparseSymmetricTensor3(MatchingShape(2, 3), [[0, 1, 2]], [1.0])
        assert t.score(basis(6, 0)) == 0.0

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        shape = MatchingShape(2, 5)
        for _ in range(20):
            t = oracles.random_tensor(rng, shape, 15)
            dense = oracles.dense_from_tensor(t)
            x = rng.standard_normal(shape.n)
            expected = oracles.score3(dense, x)
            assert t.score(x) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_rejects_bad_input(self):
        t = SparseSymmetricTensor3(MatchingShape(2, 3), [[0, 1, 2]], [1.0])
        with pytest.raises(ValueError, match="length"):
            t.score(np.ones(5))
        with pytest.raises(ValueError, match="finite"):
            t.score([np.inf] + [0.0] * 5)


class TestContractions:
    def test_contract_vec_single_orbit(self):
        t = SparseSymmetricTensor3(MatchingShape(2, 3), [[0, 1, 2]], [1.0])
        out = t.contract_vec(basis(6, 0), basis(6, 1))
        expected = np.zeros(6)
        expected[2] = 1.0
        np.testing.assert_array_equal(out, expected)

    def test_contract_vec_zero_and_repeated(self):
        t = SparseSymmetricTensor3(MatchingShape(2, 3), [[0, 1, 2]], [1.0])
        np.testing.assert_array_equal(t.contract_vec(np.zeros(6), np.zeros(6)), np.zeros(6))
        # a repeated index never appears in an off-diagonal symmetric tensor
        np.testing.assert_array_equal(t.contract_vec(basis(6, 0), basis(6, 0)), np.zeros(6))

    def test_contract_vec_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        shape = MatchingShape(3, 4)
        for _ in range(10):
            t = oracles.random_tensor(rng, shape, 20)
            dense = oracles.dense_from_tensor(t)
            x, y = rng.standard_normal((2, shape.n))
            np.testing.assert_allclose(
                t.contract_vec(x, y), oracles.contract3_vec(dense, x, y), rtol=1e-12, atol=1e-12
            )

    def test_contract_mat_single_orbit(self):
        t = SparseSymmetricTensor3(MatchingShape(2, 3), [[0, 1, 2]], [1.0])
        out = t.contract_mat(basis(6, 0))
        expected = np.zeros((6, 6))
        expected[1, 2] = expected[2, 1] = 1.0
        np.testing.assert_array_equal(out, expected)

    def test_contract_mat_zero_and_symmetry(self):
        rng = np.random.default_rng(9)
        shape = MatchingShape(3, 4)
        t = oracles.random_tensor(rng, shape, 25)
        np.testing.assert_array_equal(t.contract_mat(np.zeros(shape.n)), np.zeros((shape.n, shape.n)))
        m = t.contract_mat(rng.standard_normal(shape.n))
        np.testing.assert_array_equal(m, m.T)

    def test_contract_mat_matches_dense_oracle(self):
        rng = np.random.default_rng(10)
        shape = MatchingShape(3, 4)
        for _ in range(10):
            t = oracles.random_tensor(rng, shape, 20)
            dense = oracles.dense_from_tensor(t)
            x = rng.standard_normal(shape.n)
            np.testing.assert_allclose(
                t.contract_mat(x), oracles.contract3_mat(dense, x), rtol=1e-12, atol=1e-12
            )

    def test_contract_mat_threshold(self):
        t = SparseSymmetricTensor3(MatchingShape(2, 3000))
        with pytest.raises(ThresholdExceeded):
            t.contract_mat(np.zeros(6000))

    def test_trilinear_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        shape = MatchingShape(2, 5)
        t = oracles.random_tensor(rng, shape, 15)
        dense = oracles.dense_from_tensor(t)
        for _ in range(10):
            x, y, z = rng.standard_normal((3, shape.n))
            assert t.trilinear(x, y, z) == pytest.approx(
                oracles.trilinear3(dense, x, y, z), rel=1e-12, abs=1e-12
            )

    def test_deterministic_reduction(self):
        rng = np.random.default_rng(12)
        shape = MatchingShape(3, 4)
        t = oracles.random_tensor(rng, shape, 30)
        x, y = rng.standard_normal((2, shape.n))
        assert t.score(x) == t.score(x)
        np.testing.assert_array_equal(t.contract_vec(x, y), t.contract_vec(x, y))
        np.testing.assert_array_equal(t.contract_mat(x), t.contract_mat(x))


SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def random_tensors(draw):
    n1 = draw(st.integers(1, 4))
    # random_tensor draws three distinct indices, so n1 * n2 >= 3.
    n2 = draw(st.integers(max(n1, -(-3 // n1)), 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return oracles.random_tensor(rng, MatchingShape(n1, n2), draw(st.integers(0, 60)))


@st.composite
def vectors(draw, shape):
    """A 0/1 matching, or a vector with 0, 1, 2, a few or all n entries set to
    reals of either sign."""
    n = shape.n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return oracles.random_matching(rng, shape).indicator()
    size = min(n, draw(st.sampled_from([0, 1, 2, 3, 5, n])))
    x = np.zeros(n)
    x[rng.choice(n, size=size, replace=False)] = draw(
        st.lists(
            st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
            min_size=size,
            max_size=size,
        )
    )
    return x


@st.composite
def tensor_and_pair(draw):
    """A tensor and ``(x, y)``: ``y`` is ``x``, an equal copy, or drawn apart."""
    t = draw(random_tensors())
    x = draw(vectors(t.shape))
    relation = draw(st.sampled_from(["same", "copy", "other"]))
    if relation == "same":
        return t, x, x
    if relation == "copy":
        return t, x, x.copy()
    return t, x, draw(vectors(t.shape))


@SETTINGS
@given(case=tensor_and_pair())
def test_contract_vec_bytes_equal_the_full_pass(case):
    t, x, y = case
    expected = oracles.contract_vec_full(t, x, y).tobytes()
    assert t.contract_vec(x, y).tobytes() == expected
    # The tensor keeps no state between calls.
    assert t.contract_vec(x, y).tobytes() == expected
    # The solvers' contraction memo keys the pair unordered.
    assert t.contract_vec(y, x).tobytes() == expected


@SETTINGS
@given(
    t=random_tensors(),
    data=st.data(),
    alpha=st.sampled_from([0.0, 0.5, 3.0]),
    pattern=st.sampled_from(["uuu", "vuu", "uvu", "uuv", "uvw"]),
)
def test_lifted_contract_vec_bytes_equal_three_full_passes(t, data, alpha, pattern):
    named = {name: data.draw(vectors(t.shape)) for name in "uvw"}
    args = [named[name] for name in pattern]
    op = LiftedOperator(t, alpha)
    expected = oracles.lifted_contract_vec_full(op, *args).tobytes()
    assert op.contract_vec(*args).tobytes() == expected


@SETTINGS
@given(t=random_tensors(), data=st.data())
def test_score_bytes_equal_the_full_pass(t, data):
    x = data.draw(vectors(t.shape))
    expected = np.float64(oracles.score_full(t, x)).tobytes()
    assert np.float64(t.score(x)).tobytes() == expected


@SETTINGS
@given(t=random_tensors(), data=st.data())
def test_contract_mat_bytes_equal_the_full_pass(t, data):
    x = data.draw(vectors(t.shape))
    expected = oracles.contract_mat_full(t, x).tobytes()
    assert t.contract_mat(x).tobytes() == expected
    # The tensor keeps no state between calls.
    assert t.contract_mat(x).tobytes() == expected


@SETTINGS
@given(t=random_tensors())
def test_f4_norm_exact_equals_the_dense_lift(t):
    f4 = oracles.lift_dense(oracles.dense_from_tensor(t))
    expected = float(np.sqrt(np.sum(f4**2)))
    assert f4_norm_exact(t) == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestSupportAwareContraction:
    def matching_tensor(self, seed=0):
        shape = MatchingShape(4, 7)
        return oracles.random_tensor(np.random.default_rng(seed), shape, 300)

    def test_zero_vectors(self):
        t = self.matching_tensor()
        zero = np.zeros(t.shape.n)
        u = oracles.random_matching(np.random.default_rng(1), t.shape).indicator()
        for x, y in [(zero, zero), (zero, zero.copy()), (zero, u), (u, zero), (-zero, u)]:
            out = t.contract_vec(x, y)
            assert out.dtype == np.float64
            assert out.tobytes() == oracles.contract_vec_full(t, x, y).tobytes()

    def test_empty_tensor(self):
        t = SparseSymmetricTensor3(MatchingShape(3, 4))
        u = oracles.random_matching(np.random.default_rng(2), t.shape).indicator()
        for x, y in [(u, u), (u, np.zeros(12)), (np.ones(12), u)]:
            assert t.contract_vec(x, y).tobytes() == np.zeros(12).tobytes()
        op = LiftedOperator(t, 1.0)
        assert op.contract_vec(u, u, u).tobytes() == (
            oracles.lifted_contract_vec_full(op, u, u, u).tobytes()
        )

    def test_contract_mat_on_empty_tensor_and_zero_vectors(self):
        t = self.matching_tensor()
        empty = SparseSymmetricTensor3(t.shape)
        zero = np.zeros(t.shape.n)
        u = oracles.random_matching(np.random.default_rng(3), t.shape).indicator()
        for tensor, x in [(t, zero), (t, -zero), (empty, u), (empty, np.ones(t.shape.n))]:
            out = tensor.contract_mat(x)
            assert out.dtype == np.float64
            assert out.tobytes() == oracles.contract_mat_full(tensor, x).tobytes()

    def test_support_that_no_orbit_touches(self):
        t = SparseSymmetricTensor3(MatchingShape(2, 4), [[0, 1, 2], [1, 2, 3]], [1.0, 2.0])
        x = np.zeros(8)
        x[[5, 6, 7]] = [1.0, -2.0, 3.0]
        out = t.contract_vec(x, x)
        assert out.dtype == np.float64
        assert out.tobytes() == np.zeros(8).tobytes()
        # One index in an orbit's support is not enough.
        y = basis(8, 0)
        assert t.contract_vec(x, y).tobytes() == oracles.contract_vec_full(t, x, y).tobytes()

    def test_results_do_not_depend_on_call_order(self):
        rng = np.random.default_rng(4)
        u = oracles.random_matching(rng, MatchingShape(4, 7)).indicator()
        # Supports of 4 and of 23 or 24 of the 28 indices: both restricted.
        dense = rng.standard_normal(28)
        dense[:5] = 0.0
        sparse_first, dense_first = self.matching_tensor(), self.matching_tensor()
        a = [sparse_first.contract_vec(u, u), sparse_first.contract_vec(dense, u)]
        b = [dense_first.contract_vec(dense, u), dense_first.contract_vec(u, u)][::-1]
        assert [r.tobytes() for r in a] == [r.tobytes() for r in b]

    def test_threads_sharing_a_fresh_tensor_agree(self):
        rng = np.random.default_rng(5)
        shape = MatchingShape(4, 7)
        pairs = [
            (oracles.random_matching(rng, shape).indicator(),
             oracles.random_matching(rng, shape).indicator())
            for _ in range(6)
        ]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for seed in range(10):
                t = self.matching_tensor(seed)
                start = threading.Barrier(len(pairs))
                results = [None] * len(pairs)

                def work(slot, x, y, t=t, start=start, results=results):
                    start.wait(timeout=10)
                    results[slot] = t.contract_vec(x, y).tobytes()

                threads = [
                    threading.Thread(target=work, args=(slot, x, y))
                    for slot, (x, y) in enumerate(pairs)
                ]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=10)
                    assert not th.is_alive()
                assert results == [
                    oracles.contract_vec_full(t, x, y).tobytes() for x, y in pairs
                ]
        finally:
            sys.setswitchinterval(previous)

    def test_lifted_contract_vec_reuses_repeated_arguments(self, monkeypatch):
        t = self.matching_tensor()
        rng = np.random.default_rng(6)
        u, v, w = (oracles.random_matching(rng, t.shape).indicator() for _ in range(3))
        calls = []
        kernel = SparseSymmetricTensor3.contract_vec

        def counted(self, x, y):
            calls.append(None)
            return kernel(self, x, y)

        monkeypatch.setattr(SparseSymmetricTensor3, "contract_vec", counted)
        expected = [((u, u, u), 1), ((v, u, u), 2), ((u, v, u), 2), ((u, u, v), 2), ((u, v, w), 3)]
        for args, count in expected:
            # A solve hands LiftedOperator a fresh contraction memo, which
            # contracts a repeated pair of arguments once.
            calls.clear()
            got = LiftedOperator(bcagm._ContractionMemo(t)).contract_vec(*args)
            assert len(calls) == count
            assert got.tobytes() == LiftedOperator(t).contract_vec(*args).tobytes()


class TestLiftedOperator:
    def test_rejects_bad_alpha(self):
        t = SparseSymmetricTensor3(MatchingShape(2, 2))
        with pytest.raises(ValueError):
            LiftedOperator(t, -1.0)
        with pytest.raises(ValueError):
            LiftedOperator(t, np.inf)

    def test_contract_vec_zero_tensor(self):
        t = SparseSymmetricTensor3(MatchingShape(2, 2))
        op = LiftedOperator(t, 0.0)
        rng = np.random.default_rng(14)
        x, y, z = rng.standard_normal((3, 4))
        np.testing.assert_array_equal(op.contract_vec(x, y, z), np.zeros(4))

    def test_contract_vec_single_orbit_brute_force(self):
        # one orbit on the first three coordinates of a 4-vector space
        t = SparseSymmetricTensor3(MatchingShape(2, 2), [[0, 1, 2]], [1.0])
        op = LiftedOperator(t, 0.0)
        out = op.contract_vec(basis(4, 0), basis(4, 1), basis(4, 2))
        f4 = oracles.lift_dense(oracles.dense_from_tensor(t))
        expected = np.einsum("ijkl,i,j,k->l", f4, basis(4, 0), basis(4, 1), basis(4, 2))
        np.testing.assert_allclose(out, expected, rtol=1e-13)
        np.testing.assert_array_equal(expected, [2.0, 2.0, 2.0, 1.0])

    def test_contract_vec_diagonal_matches_score(self):
        rng = np.random.default_rng(15)
        shape = MatchingShape(2, 4)
        t = oracles.random_tensor(rng, shape, 12)
        op = LiftedOperator(t, 0.7)
        for _ in range(5):
            x = rng.standard_normal(shape.n)
            assert float(op.contract_vec(x, x, x) @ x) == pytest.approx(
                op.score(x), rel=1e-12
            )

    def test_contract_mat_zero_tensor(self):
        t = SparseSymmetricTensor3(MatchingShape(2, 2))
        op = LiftedOperator(t, 0.0)
        np.testing.assert_array_equal(
            op.contract_mat(np.ones(4), np.ones(4)), np.zeros((4, 4))
        )

    def test_contract_mat_bilinear_consistency(self):
        rng = np.random.default_rng(16)
        shape = MatchingShape(2, 4)
        t = oracles.random_tensor(rng, shape, 12)
        op = LiftedOperator(t, 1.3)
        for _ in range(5):
            x, y, z, w = rng.standard_normal((4, shape.n))
            m = op.contract_mat(x, y)
            assert float(z @ (m @ w)) == pytest.approx(op.form(x, y, z, w), rel=1e-11)

    def test_contract_mat_is_hessian(self):
        # 12 * form(x, x, ., .) equals the Hessian of the score, checked by
        # central finite differences
        rng = np.random.default_rng(17)
        shape = MatchingShape(2, 3)
        n = shape.n
        t = oracles.random_tensor(rng, shape, 10)
        op = LiftedOperator(t, 0.9)
        x = rng.standard_normal(n)
        hess = 12.0 * op.contract_mat(x, x)
        h = 1e-4
        fd = np.zeros((n, n))
        for a in range(n):
            for b in range(n):
                ea, eb = basis(n, a), basis(n, b)
                fd[a, b] = (
                    op.score(x + h * ea + h * eb)
                    - op.score(x + h * ea - h * eb)
                    - op.score(x - h * ea + h * eb)
                    + op.score(x - h * ea - h * eb)
                ) / (4.0 * h * h)
        scale = np.abs(hess).max()
        np.testing.assert_allclose(fd, hess, atol=1e-5 * scale)

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(18)
        shape = MatchingShape(2, 3)
        n = shape.n
        t = oracles.random_tensor(rng, shape, 10)
        op = LiftedOperator(t, 0.4)
        x = rng.standard_normal(n)
        grad = 4.0 * op.contract_vec(x, x, x)
        h = 1e-4
        fd = np.array(
            [(op.score(x + h * basis(n, a)) - op.score(x - h * basis(n, a))) / (2 * h) for a in range(n)]
        )
        scale = np.abs(grad).max()
        np.testing.assert_allclose(fd, grad, atol=1e-5 * scale)

    def test_form_permutation_invariance(self):
        import itertools

        rng = np.random.default_rng(19)
        shape = MatchingShape(2, 4)
        t = oracles.random_tensor(rng, shape, 15)
        op = LiftedOperator(t, 2.1)
        args = tuple(rng.standard_normal(shape.n) for _ in range(4))
        ref = op.form(*args)
        for perm in itertools.permutations(args):
            assert op.form(*perm) == pytest.approx(ref, rel=1e-12)

    def test_form_identity_support(self):
        # orbit on the identity-matching support of a 3x3 problem
        t = SparseSymmetricTensor3(MatchingShape(3, 3), [[0, 4, 8]], [1.0])
        op = LiftedOperator(t, 0.0)
        x = np.zeros(9)
        x[[0, 4, 8]] = 1.0
        assert op.form(x, x, x, x) == pytest.approx(72.0, rel=1e-12)  # 4 * 3 * 6
        assert op.form(*([np.zeros(9)] * 4)) == 0.0

    def test_score_on_matchings(self):
        # on a matching, the lifted score is 4*n1*score3 plus alpha*n1^2
        rng = np.random.default_rng(20)
        shape = MatchingShape(3, 5)
        for _ in range(20):
            t = oracles.random_tensor(rng, shape, 20)
            alpha = float(rng.uniform(0.0, 5.0))
            op = LiftedOperator(t, alpha)
            m = oracles.random_matching(rng, shape).indicator()
            expected = 4.0 * shape.n1 * t.score(m) + alpha * shape.n1**2
            assert op.score(m) == expected

    def test_contract_mat_threshold(self):
        op = LiftedOperator(SparseSymmetricTensor3(MatchingShape(2, 3000)), 1.0)
        with pytest.raises(ThresholdExceeded):
            op.contract_mat(np.zeros(6000), np.zeros(6000))

    @pytest.mark.parametrize("orbits", [0, 12])
    @pytest.mark.parametrize("bad", [np.ones(5), np.array([1.0, np.nan, 0, 0, 0, 0])])
    @pytest.mark.parametrize(
        "method, arity, slot",
        [("score", 1, 0)]
        + [("contract_vec", 3, s) for s in range(3)]
        + [("contract_mat", 2, s) for s in range(2)],
    )
    def test_rejects_a_bad_operand(self, method, arity, slot, bad, orbits):
        shape = MatchingShape(2, 3)
        op = LiftedOperator(oracles.random_tensor(np.random.default_rng(16), shape, orbits), 1.0)
        # The good operands are one array, so every reuse by identity applies.
        u = oracles.random_matching(np.random.default_rng(17), shape).indicator()
        args = [u] * arity
        args[slot] = bad
        with pytest.raises(ValueError):
            getattr(op, method)(*args)

    def test_score_trivial_cases(self):
        t = SparseSymmetricTensor3(MatchingShape(2, 3))
        op = LiftedOperator(t, 1.0)
        x = np.zeros(6)
        x[[0, 1]] = 1.0
        assert op.score(x) == pytest.approx(4.0)  # ||x||^4
        assert op.score(np.zeros(6)) == 0.0


class TestNormsAndBounds:
    def test_frobenius_norm_values(self):
        shape = MatchingShape(2, 3)
        t1 = SparseSymmetricTensor3(shape, [[0, 1, 2]], [1.0])
        assert t1.frobenius_norm() == pytest.approx(np.sqrt(6.0), rel=1e-15)
        t2 = SparseSymmetricTensor3(shape, [[0, 1, 2], [1, 2, 3]], [1.0, 2.0])
        assert t2.frobenius_norm() == pytest.approx(np.sqrt(30.0), rel=1e-15)
        assert SparseSymmetricTensor3(shape).frobenius_norm() == 0.0

    def test_alpha_bound_closed_form(self):
        t = SparseSymmetricTensor3(MatchingShape(3, 3), [[0, 4, 8]], [1.0])
        assert alpha_bound(t) == pytest.approx(36.0 * np.sqrt(6.0), rel=1e-15)
        assert alpha_bound(SparseSymmetricTensor3(MatchingShape(3, 3))) == 0.0

    def test_alpha_bound_dominates_exact(self):
        rng = np.random.default_rng(21)
        for shape in (MatchingShape(2, 4), MatchingShape(3, 5), MatchingShape(5, 6)):
            for _ in range(5):
                t = oracles.random_tensor(rng, shape, 15)
                assert alpha_bound(t) >= 3.0 * f4_norm_exact(t)
        # Built tensors at 10 into 10, 30 and 50 points: n = 100, 300, 500.
        for n_out in (0, 20, 40):
            t = build_tensor(*scene_instance(21, 10, n_out))
            assert t.nnz
            assert alpha_bound(t) >= 3.0 * f4_norm_exact(t) > 0.0

    def test_f4_norm_exact_values(self):
        assert f4_norm_exact(SparseSymmetricTensor3(MatchingShape(2, 3))) == 0.0
        # dual-implementation cross-check on a minimal tensor
        t = SparseSymmetricTensor3(MatchingShape(1, 3), [[0, 1, 2]], [1.0])
        f4 = oracles.lift_dense(oracles.dense_from_tensor(t))
        f4_loops = oracles.lift_dense_loops(oracles.dense_from_tensor(t))
        np.testing.assert_array_equal(f4, f4_loops)
        assert f4_norm_exact(t) == pytest.approx(float(np.sqrt((f4**2).sum())), rel=1e-13)

    def test_f4_norm_triangle_inequality(self):
        rng = np.random.default_rng(22)
        shape = MatchingShape(3, 4)
        for _ in range(10):
            t = oracles.random_tensor(rng, shape, 20)
            assert f4_norm_exact(t) <= 4.0 * np.sqrt(shape.n) * t.frobenius_norm() + 1e-12

    def test_f4_norm_threshold(self):
        # No size limit of its own: at n = 45 it still equals the dense lift.
        t = oracles.random_tensor(np.random.default_rng(26), MatchingShape(5, 9), 40)
        f4 = oracles.lift_dense(oracles.dense_from_tensor(t))
        assert f4_norm_exact(t) == pytest.approx(float(np.sqrt((f4**2).sum())), rel=1e-12)
        # The only limit is contract_mat's dense n x n refusal.
        shape = MatchingShape(50, 101)
        assert shape.n > DENSE_MATRIX_LIMIT
        with pytest.raises(ThresholdExceeded):
            f4_norm_exact(SparseSymmetricTensor3(shape, [[0, 1, 2]], [1.0]))


class TestImplicitLiftAgainstDense:
    def test_all_contractions_match_dense_expansion(self):
        rng = np.random.default_rng(23)
        for shape in (MatchingShape(2, 4), MatchingShape(3, 4)):
            for _ in range(5):
                t = oracles.random_tensor(rng, shape, 18)
                alpha = float(rng.uniform(0.0, 2.0))
                op = LiftedOperator(t, alpha)
                f4 = oracles.lift_dense(oracles.dense_from_tensor(t)) + alpha * oracles.g4_dense(shape.n)
                x, y, z, w = rng.standard_normal((4, shape.n))
                assert op.form(x, y, z, w) == pytest.approx(
                    oracles.form4(f4, x, y, z, w), rel=1e-10, abs=1e-10
                )
                # the closed-form score holds off matchings too
                assert op.score(x) == pytest.approx(
                    oracles.form4(f4, x, x, x, x), rel=1e-10, abs=1e-10
                )
                np.testing.assert_allclose(
                    op.contract_vec(x, y, z),
                    np.einsum("ijkl,i,j,k->l", f4, x, y, z),
                    rtol=1e-10,
                    atol=1e-10,
                )
                np.testing.assert_allclose(
                    op.contract_mat(x, y),
                    np.einsum("ijkl,i,j->kl", f4, x, y),
                    rtol=1e-10,
                    atol=1e-10,
                )


class TestConvexityProperties:
    def test_hessian_psd_at_exact_alpha(self):
        rng = np.random.default_rng(24)
        shape = MatchingShape(3, 4)
        for _ in range(5):
            t = oracles.random_tensor(rng, shape, 20)
            op = LiftedOperator(t, 3.0 * f4_norm_exact(t))
            for _ in range(5):
                x = rng.standard_normal(shape.n)
                eigs = np.linalg.eigvalsh(12.0 * op.contract_mat(x, x))
                assert eigs[0] >= -1e-8 * (1.0 + eigs[-1])

    def test_block_bound_inequalities(self):
        rng = np.random.default_rng(25)
        shape = MatchingShape(3, 3)
        t = oracles.random_tensor(rng, shape, 12)
        op = LiftedOperator(t, 3.0 * f4_norm_exact(t))
        for _ in range(100):
            x, y, z, w = rng.standard_normal((4, shape.n))
            scores = [op.score(v) for v in (x, y, z, w)]
            pair = op.form(x, x, y, y)
            assert max(scores[0], scores[1]) - pair >= -1e-9 * (
                1.0 + max(abs(pair), abs(scores[0]), abs(scores[1]))
            )
            quad = op.form(x, y, z, w)
            assert max(scores) - quad >= -1e-9 * (1.0 + max(abs(quad), abs(max(scores))))

    def test_cubic_score_is_indefinite(self):
        # the odd-order form always admits a negative curvature direction
        rng = np.random.default_rng(26)
        shape = MatchingShape(3, 3)
        t = oracles.random_tensor(rng, shape, 8)
        found = False
        for _ in range(50):
            x, y = rng.standard_normal((2, shape.n))
            value = t.trilinear(x, y, y)
            if value != 0.0:
                assert min(value, t.trilinear(-x, y, y)) < 0.0
                found = True
                break
        assert found
