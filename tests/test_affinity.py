"""Triangle-angle features and affinity construction."""

import warnings

import numpy as np
import pytest

from hypermatch import (
    AffinityParams,
    DegenerateTriangle,
    SamplingConfig,
    affinity,
    build_matrix2,
    build_tensor,
    triangle_feature,
)

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

    def test_error_contracts(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="more points"):
            build_tensor(square, square[:3])
        with pytest.raises(ValueError, match="at least 3"):
            build_tensor(square[:2], square)

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
