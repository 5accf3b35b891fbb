"""Triangle-angle features and affinity construction."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hypermatch import (
    AffinityParams,
    SamplingConfig,
    SparseSymmetricTensor3,
    affinity,
    build_matrix2,
    build_tensor,
    run_method,
)
from oracles import DegenerateTriangle, triangle_feature

SQ3_2 = np.sqrt(3.0) / 2.0
SQ2_2 = np.sqrt(2.0) / 2.0


def orbit_map(tensor):
    return {tuple(row): v for row, v in zip(tensor.idx.tolist(), tensor.val.tolist())}


class TestTriangleFeature:
    def test_equilateral(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, SQ3_2]])
        np.testing.assert_allclose(triangle_feature(pts, (0, 1, 2)), [SQ3_2] * 3, rtol=1e-12)

    def test_right_isoceles(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(
            triangle_feature(pts, (0, 1, 2)), [1.0, SQ2_2, SQ2_2], rtol=1e-12
        )

    def test_scale_invariance(self):
        rng = np.random.default_rng(60)
        pts = rng.standard_normal((5, 2))
        f1 = triangle_feature(pts, (0, 2, 4))
        f2 = triangle_feature(2.0 * pts, (0, 2, 4))
        np.testing.assert_allclose(f1, f2, rtol=1e-12)

    def test_order_sensitivity(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        f = triangle_feature(pts, (1, 0, 2))
        np.testing.assert_allclose(f, [SQ2_2, 1.0, SQ2_2], rtol=1e-12)

    def test_degenerate_raises(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(DegenerateTriangle):
            triangle_feature(pts, (0, 1, 2))
        close = np.array([[0.0, 0.0], [1e-12, 0.0], [0.0, 1.0]])
        with pytest.raises(DegenerateTriangle):
            triangle_feature(close, (0, 1, 2))

    def test_huge_scales_keep_the_unit_features(self):
        unit = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        f = triangle_feature(unit, (0, 1, 2))
        np.testing.assert_allclose(triangle_feature(1e200 * unit, (0, 1, 2)), f, rtol=1e-12)
        # a power of two scales exactly, so the features are the same bits
        assert triangle_feature(2.0**600 * unit, (0, 1, 2)).tobytes() == f.tobytes()

    def test_rejects_bad_triple(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError, match="distinct"):
            triangle_feature(pts, (0, 0, 1))
        with pytest.raises(ValueError, match="outside"):
            triangle_feature(pts, (0, 1, 5))


class TestBuildTensor:
    def test_identical_sets_have_unit_identity_entries(self):
        P = np.array([[0.0, 0.0], [1.0, 0.2], [0.3, 1.1], [-0.8, 0.6]])
        t = build_tensor(P, P, SamplingConfig(seed=1))
        entries = orbit_map(t)
        n2 = 4
        for tri in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]:
            key = tuple(sorted(i * n2 + i for i in tri))
            assert entries[key] == 1.0
        assert 0.0 < t.val.min() and t.val.max() <= 1.0

    def test_values_bounded(self):
        rng = np.random.default_rng(61)
        P = rng.standard_normal((6, 2))
        Q = np.concatenate([P + 0.05 * rng.standard_normal((6, 2)), rng.standard_normal((3, 2))])
        t = build_tensor(P, Q, SamplingConfig(seed=2))
        assert t.nnz > 0
        assert 0.0 < t.val.min() and t.val.max() <= 1.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(62)
        P = rng.standard_normal((6, 2))
        Q = rng.standard_normal((8, 2))
        t1 = build_tensor(P, Q, SamplingConfig(seed=3))
        t2 = build_tensor(P, Q, SamplingConfig(seed=3))
        np.testing.assert_array_equal(t1.idx, t2.idx)
        np.testing.assert_array_equal(t1.val, t2.val)
        t3 = build_tensor(P, Q, SamplingConfig(seed=4))
        assert t3.nnz > 0  # different seed still builds something

    def test_scale_invariance_of_scene(self):
        rng = np.random.default_rng(63)
        P = rng.standard_normal((6, 2))
        Q = np.concatenate([P + 0.03 * rng.standard_normal((6, 2)), rng.standard_normal((4, 2))])
        t1 = build_tensor(P, Q, SamplingConfig(seed=5))
        t2 = build_tensor(P, 1.5 * Q, SamplingConfig(seed=5))
        m1, m2 = orbit_map(t1), orbit_map(t2)
        assert set(m1) == set(m2)
        for key, v in m1.items():
            assert m2[key] == pytest.approx(v, abs=1e-12)

    def test_gamma_normalization(self):
        # mean retained exponent is exactly -1 when gamma is computed
        rng = np.random.default_rng(64)
        P = rng.standard_normal((5, 2))
        Q = rng.standard_normal((7, 2))
        t = build_tensor(P, Q, SamplingConfig(seed=6, knn=40))
        mean_exponent = float(np.mean(np.log(t.val)))
        assert mean_exponent == pytest.approx(-1.0, rel=1e-9)

    def test_gamma_override(self):
        rng = np.random.default_rng(65)
        P = rng.standard_normal((5, 2))
        t = build_tensor(P, P, SamplingConfig(seed=7), AffinityParams(gamma=4.0))
        assert t.val.max() == 1.0

    def test_orbit_canonical_form(self):
        rng = np.random.default_rng(66)
        n2 = 6
        P = rng.standard_normal((5, 2))
        Q = rng.standard_normal((n2, 2))
        t = build_tensor(P, Q, SamplingConfig(seed=8))
        assert np.all(t.idx[:, 0] < t.idx[:, 1])
        assert np.all(t.idx[:, 1] < t.idx[:, 2])
        order = np.lexsort((t.idx[:, 2], t.idx[:, 1], t.idx[:, 0]))
        np.testing.assert_array_equal(order, np.arange(t.nnz))
        # every orbit spans three distinct template rows
        rows = t.idx // n2
        assert np.all(rows[:, 0] < rows[:, 1]) and np.all(rows[:, 1] < rows[:, 2])

    def test_sampled_scene_triples(self, monkeypatch):
        # C(12, 3) = 220 scene triple sets exceed the cap, so they are sampled
        monkeypatch.setattr(affinity, "Q_TRIPLE_CAP", 50)
        rng = np.random.default_rng(67)
        P = rng.standard_normal((6, 2))
        Q = np.concatenate([P + 0.03 * rng.standard_normal((6, 2)), rng.standard_normal((6, 2))])
        t1 = build_tensor(P, Q, SamplingConfig(seed=9))
        t2 = build_tensor(P, Q, SamplingConfig(seed=9))
        assert t1.nnz > 0
        assert np.all(t1.idx[:, 0] < t1.idx[:, 1])
        assert np.all(t1.idx[:, 1] < t1.idx[:, 2])
        np.testing.assert_array_equal(t1.idx, t2.idx)
        np.testing.assert_array_equal(t1.val, t2.val)

    # Template triples are distinct, and so are each template row's kNN pool
    # rows, so p * n2 + q (q < n2) gives every pair of a template triple and
    # an ordered scene triple its own linear triple, already sorted since
    # p0 < p1 < p2: the constructor has no row to merge.
    @pytest.mark.parametrize(
        "seed, n_in, n_out, cap",
        [(1, 10, 30, None), (2, 3, 0, None), (3, 6, 6, None), (4, 6, 6, 50), (5, 10, 10, 300)],
    )
    def test_emits_no_duplicate_triple(self, monkeypatch, seed, n_in, n_out, cap):
        if cap is not None:  # C(n2, 3) above the cap: the scene is sampled
            monkeypatch.setattr(affinity, "Q_TRIPLE_CAP", cap)
        emitted = []

        def recording(shape, triples=None, values=None):
            emitted.append(len(triples))
            return SparseSymmetricTensor3(shape, triples, values)

        monkeypatch.setattr(affinity, "SparseSymmetricTensor3", recording)
        P, Q = scene_instance(seed, n_in, n_out)
        t = build_tensor(P, Q, SamplingConfig(seed=seed))
        assert t.nnz > 0
        assert emitted == [t.nnz]

    def test_error_contracts(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="more points"):
            build_tensor(square, square[:3])
        with pytest.raises(ValueError, match="at least 3"):
            build_tensor(square[:2], square)
        with pytest.raises(ValueError, match="knn"):
            SamplingConfig(knn=0)
        with pytest.raises(ValueError, match="sigma_s"):
            AffinityParams(sigma_s=0)

    def test_collinear_template_yields_empty_tensor(self):
        line = np.column_stack([np.arange(5.0), np.zeros(5)])
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.7]])
        t = build_tensor(line, square, SamplingConfig(seed=9))
        assert t.nnz == 0

    def test_shared_huge_coordinate_is_collinear_without_warnings(self):
        # the rescale sends the shared x = 1e300 to inf; every triangle is still degenerate
        line = np.array([[1e300, 0.0], [1e300, 1e-300], [1e300, 3e-300], [1e300, 7e-300]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert build_tensor(line[:3], line).nnz == 0


@st.composite
def sampler_cases(draw):
    """``(seed, m, count)``: counts below, at and above C(m, 3)."""
    m = draw(st.integers(3, 12))
    count = draw(st.integers(1, 6 * math.comb(m, 3)))
    return draw(st.integers(0, 2**32 - 1)), m, count


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=sampler_cases(), stop=st.booleans())
def test_sampler_equals_the_all_draws_loop(case, stop):
    seed, m, count = case
    want_rng = np.random.default_rng(seed)
    want = oracles.sample_sorted_triples_all_draws(want_rng, m, count)
    rng = np.random.default_rng(seed)
    got = affinity._sample_sorted_triples(rng, m, count, stop)
    assert got.tobytes() == want.tobytes()
    if stop:
        # Stopped right after the draw that completed the set, or never.
        want_rng = np.random.default_rng(seed)
        for _ in range(oracles.draws_until_complete(seed, m, count)):
            want_rng.choice(m, size=3, replace=False)
    assert rng.bit_generator.state == want_rng.bit_generator.state


def test_sampler_stops_only_before_an_enumerated_scene(monkeypatch):
    # 10 scene points give C(10, 3) = 120 triple sets: enumerated at a cap
    # of 120, sampled from the template's stream at 119, where the template
    # sampler must make every draw.
    calls = []
    sample = affinity._sample_sorted_triples

    def record(rng, m, count, stop_when_complete):
        calls.append(stop_when_complete)
        return sample(rng, m, count, stop_when_complete)

    monkeypatch.setattr(affinity, "_sample_sorted_triples", record)
    P, Q = scene_instance(26, 4, 6)
    for cap in (math.comb(10, 3), math.comb(10, 3) - 1):
        monkeypatch.setattr(affinity, "Q_TRIPLE_CAP", cap)
        build_tensor(P, Q)
    assert calls == [True, False]


def scene_instance(seed, n_in, n_out, sigma=0.03):
    """The synthetic protocol: a noisy copy of the template plus outliers, permuted."""
    rng = np.random.default_rng(seed)
    P = rng.standard_normal((n_in, 2))
    Q = np.concatenate([P + sigma * rng.standard_normal((n_in, 2)), rng.standard_normal((n_out, 2))])
    return P, Q[rng.permutation(n_in + n_out)]


def grid_instance():
    """A 4x4 grid scene and six of its points: rich in congruent triangles,
    so many template rows tie at the k-th distance."""
    Q = np.array([[float(x), float(y)] for x in range(4) for y in range(4)])
    return Q[[0, 1, 5, 6, 10, 15]], Q


def recorded_knn(monkeypatch):
    """Wrap the build's kNN step; returns the list of its (args, result) calls."""
    calls = []
    knn = affinity._knn

    def record(pool_feat, p_feats, k):
        sel = knn(pool_feat, p_feats, k)
        calls.append(((pool_feat, p_feats, k), sel))
        return sel

    monkeypatch.setattr(affinity, "_knn", record)
    return calls


def selected_dist2(pool_feat, p_feats, sel):
    return ((pool_feat[sel] - p_feats[:, None]) ** 2).sum(axis=2)


class TestKnn:
    """The kd-tree kNN against the brute-force scan it replaced (oracles.knn_brute)."""

    @pytest.mark.parametrize(
        "seed, n_in, n_out, knn",
        [(1, 10, 30, 300), (2, 10, 40, 300), (3, 10, 40, 7), (4, 10, 5, 7), (5, 3, 0, 300)],
    )
    def test_neighbour_sets_equal_the_scan(self, monkeypatch, seed, n_in, n_out, knn):
        calls = recorded_knn(monkeypatch)
        P, Q = scene_instance(seed, n_in, n_out)
        build_tensor(P, Q, SamplingConfig(knn=knn))
        ((pool_feat, p_feats, k), sel), = calls
        assert sel.shape == (len(p_feats), k)
        np.testing.assert_array_equal(sel, np.sort(sel, axis=1))
        brute = np.sort(oracles.knn_brute(pool_feat, p_feats, k), axis=1)
        for row in range(len(sel)):
            np.testing.assert_array_equal(sel[row], brute[row])

    @pytest.mark.parametrize("knn", [1, 7, 40])
    def test_ties_on_a_grid_keep_the_distances(self, monkeypatch, knn):
        calls = recorded_knn(monkeypatch)
        P, Q = grid_instance()
        t1 = build_tensor(P, Q, SamplingConfig(knn=knn))
        t2 = build_tensor(P, Q, SamplingConfig(knn=knn))
        assert t1.idx.tobytes() == t2.idx.tobytes()
        assert t1.val.tobytes() == t2.val.tobytes()
        (pool_feat, p_feats, k), sel = calls[0]
        brute = oracles.knn_brute(pool_feat, p_feats, k)
        np.testing.assert_array_equal(
            np.sort(selected_dist2(pool_feat, p_feats, sel), axis=1),
            np.sort(selected_dist2(pool_feat, p_feats, brute), axis=1),
        )


class TestGammaSummationOrder:
    """Sorting each kNN row by pool index fixes the order in which gamma's
    mean is summed.  Against the tensor built from the scan's argpartition
    order, that moves ``val`` by a few ulps at most and nothing else."""

    # the val bytes move on (13, 10, 20) and (16, 10, 15) and not on the others
    @pytest.mark.parametrize(
        "seed, n_in, n_out", [(11, 10, 0), (12, 10, 10), (13, 10, 20), (14, 8, 30), (16, 10, 15)]
    )
    def test_within_ulps_of_the_scan_order(self, monkeypatch, seed, n_in, n_out):
        P, Q = scene_instance(seed, n_in, n_out)
        tree = build_tensor(P, Q)
        monkeypatch.setattr(affinity, "_knn", oracles.knn_brute)
        scan = build_tensor(P, Q)
        assert tree.idx.tobytes() == scan.idx.tobytes()
        np.testing.assert_allclose(tree.val, scan.val, rtol=1e-14, atol=0.0)
        for method in ("bcagm", "hopm"):
            a_tree = run_method(method, tree).assignment.to_one_based()
            a_scan = run_method(method, scan).assignment.to_one_based()
            assert a_tree == a_scan

    def test_explicit_gamma_is_bit_identical(self, monkeypatch):
        P, Q = scene_instance(15, 8, 12)
        params = AffinityParams(gamma=3.0)
        tree = build_tensor(P, Q, params=params)
        monkeypatch.setattr(affinity, "_knn", oracles.knn_brute)
        scan = build_tensor(P, Q, params=params)
        assert tree.idx.tobytes() == scan.idx.tobytes()
        assert tree.val.tobytes() == scan.val.tobytes()


class TestBuildMatrix2:
    def test_symmetry_range_and_zero_blocks(self):
        rng = np.random.default_rng(67)
        P = rng.standard_normal((3, 2))
        Q = rng.standard_normal((4, 2))
        A = build_matrix2(P, Q)
        assert A.shape == (12, 12)
        np.testing.assert_array_equal(A, A.T)
        assert A.min() >= 0.0 and A.max() <= 1.0
        view = A.reshape(3, 4, 3, 4)
        assert np.all(view[np.arange(3), :, np.arange(3), :] == 0.0)
        assert np.all(view.transpose(1, 0, 3, 2)[np.arange(4), :, np.arange(4), :] == 0.0)

    def test_identical_pair_distances_score_one(self):
        P = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        A = build_matrix2(P, P)
        view = A.reshape(3, 3, 3, 3)
        assert view[0, 0, 1, 1] == 1.0
        assert view[1, 1, 2, 2] == 1.0

    def test_unit_gap_scores_exp_minus_one(self):
        # |dP - dQ| equals sigma_s, so the entry is exp(-1)
        P = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 5.0]])
        Q = np.array([[0.0, 0.0], [1.5, 0.0], [0.0, 5.0]])
        A = build_matrix2(P, Q, AffinityParams(sigma_s=0.5))
        view = A.reshape(3, 3, 3, 3)
        assert view[0, 0, 1, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_rejects_larger_template(self):
        with pytest.raises(ValueError, match="more points"):
            build_matrix2(np.zeros((3, 2)), np.zeros((2, 2)))
