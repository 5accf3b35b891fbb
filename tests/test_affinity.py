"""Triangle-angle features and affinity construction."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hypermatch import (
    SamplingConfig,
    SparseSymmetricTensor3,
    ThresholdExceeded,
    affinity,
    build_matrix2,
    build_tensor,
    run_method,
)
from hypermatch import tensor as tensor_module
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

    def test_sine_features_keep_exactly_the_measurable_rows(self):
        # A collinear run, a repeated point and a side far below MIN_SIDE
        # after the rescale, offered in every vertex order.
        pts = np.array(
            [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1e-12, 1.0], [1.0, 0.0], [0.3, 0.7]]
        )
        triples = np.array(list(itertools.permutations(range(len(pts)), 3)), dtype=np.intp)
        kept, feats = affinity._sine_features(pts, triples)
        want_rows, want_feats = [], []
        for row in triples.tolist():
            try:
                want_feats.append(triangle_feature(pts, row))
            except DegenerateTriangle:
                continue
            want_rows.append(row)
        assert 0 < len(want_rows) < len(triples)
        assert kept.tolist() == want_rows
        assert feats.tobytes() == np.array(want_feats).tobytes()

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


@st.composite
def feature_inputs(draw):
    """Point sets (random, with repeated points, or collinear, at scales
    1e-200 to 1e200) and index triples into them, with or without repeated
    indices; degenerate rows come up on every kind but the distinct random."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    m = draw(st.integers(3, 12))
    kind = draw(st.sampled_from(["random", "duplicate", "collinear"]))
    pts = rng.standard_normal((m, 2))
    if kind == "duplicate":
        pts = pts[rng.integers(0, max(2, m // 2), m)]
    elif kind == "collinear":
        pts = pts[0] + rng.standard_normal(m)[:, None] * pts[1]
    pts = pts * draw(st.sampled_from([1.0, 1e200, 1e-200, 2.0**600, 3.7e-12]))
    n_rows = draw(st.integers(0, 40))
    if draw(st.booleans()):
        triples = np.array([rng.choice(m, 3, replace=False) for _ in range(n_rows)])
    else:
        triples = rng.integers(0, m, (n_rows, 3))
    return pts, triples.astype(np.intp).reshape(-1, 3)


@settings(max_examples=300)
@given(case=feature_inputs())
def test_column_features_equal_the_row_gathers(case):
    pts, triples = case
    want_rows, want_feats = oracles.sine_features_by_rows(pts, triples)
    got_rows, got_feats = affinity._sine_features(pts, triples)
    assert got_rows.dtype == want_rows.dtype
    assert got_rows.tobytes() == want_rows.tobytes()
    assert got_feats.shape == want_feats.shape
    assert got_feats.tobytes() == want_feats.tobytes()
    if len(want_rows) == len(triples):
        # Nothing degenerate: the triples come back as they are.
        assert got_rows is triples


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
        t = build_tensor(P, P, SamplingConfig(seed=7, gamma=4.0))
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
        with pytest.raises(ValueError, match="triples_per_point"):
            SamplingConfig(triples_per_point=0)
        # A NumPy count is multiplied as a Python int, so 2**62 * 4 draws do not
        # wrap to zero in int64: they are refused as too many to allocate.
        with pytest.raises(ValueError):
            build_tensor(square, square, SamplingConfig(triples_per_point=np.int64(2**62)))
        for bad_p in (np.zeros((3, 3)), np.zeros((0, 2))):
            with pytest.raises(ValueError, match=r"P must be an \(m, 2\) array"):
                build_tensor(bad_p, square)

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
    """``(seed, m, count)``: small ``m`` with counts below, at and above
    C(m, 3), or large ``m`` with a few draws."""
    if draw(st.booleans()):
        m = draw(st.integers(3, 12))
        count = draw(st.integers(1, 6 * math.comb(m, 3)))
    else:
        m = draw(st.sampled_from([9_999, 10_000, 10_001, 2**20]))
        count = draw(st.integers(1, 40))
    return draw(st.integers(0, 2**32 - 1)), m, count


@settings(max_examples=150)
@given(case=sampler_cases())
# m = 3 draws first on [0, 0], which consumes nothing; Generator.choice tests
# m > 10000 before it picks Floyd's algorithm.
@example(case=(0, 3, 1))
@example(case=(5, 3, 40))
@example(case=(1, 9_999, 7))
@example(case=(2, 10_000, 7))
@example(case=(3, 10_001, 7))
@example(case=(4, 2**20, 3))
def test_sampler_equals_the_all_draws_loop(case):
    # One rng.integers call replays count rng.choice calls: the same
    # triples, and the generator ends in the same state.
    seed, m, count = case
    want_rng = np.random.default_rng(seed)
    want = oracles.sample_sorted_triples_all_draws(want_rng, m, count)
    rng = np.random.default_rng(seed)
    got = affinity._sample_sorted_triples(rng, m, count)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("n2", range(3, 61))
def test_enumerated_scene_sets_are_the_lexicographic_combinations(n2):
    want = np.array(list(itertools.combinations(range(n2), 3)), dtype=np.intp)
    got = affinity._scene_triple_sets(np.random.default_rng(0), n2)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def scene_sets_by_the_raw_draw_mask(rng, n2, cap):
    """The sampled scene sets, one rule at a time: a mask that drops the raw
    draws with a repeated vertex, a row sort, then ``np.unique``."""
    draws = rng.integers(0, n2, size=(cap, 3))
    distinct = (
        (draws[:, 0] != draws[:, 1])
        & (draws[:, 0] != draws[:, 2])
        & (draws[:, 1] != draws[:, 2])
    )
    draws = draws[distinct].astype(np.intp)
    draws.sort(axis=1)
    return np.unique(draws, axis=0)


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), n2=st.integers(4, 40), data=st.data())
def test_sampled_scene_sets_equal_the_raw_draw_mask(seed, n2, data):
    # Below C(n2, 3) the scene is sampled; small caps leave few distinct sets.
    cap = data.draw(st.integers(1, min(500, math.comb(n2, 3) - 1)))
    want_rng = np.random.default_rng(seed)
    want = scene_sets_by_the_raw_draw_mask(want_rng, n2, cap)
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(affinity, "Q_TRIPLE_CAP", cap)
        got = affinity._scene_triple_sets(rng, n2)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("seed", [0, 7])
def test_sampled_scene_draws_after_every_template_draw(monkeypatch, seed):
    # 10 scene points give C(10, 3) = 120 triple sets, sampled at a cap of
    # 119 from the stream that the template's 4 points leave after all
    # 50 * 4 draws, though each of their 4 triples comes up far sooner.
    drawn = []
    scene_triple_sets = affinity._scene_triple_sets

    def record(rng, n2):
        drawn.append(scene_triple_sets(rng, n2))
        return drawn[-1]

    monkeypatch.setattr(affinity, "_scene_triple_sets", record)
    monkeypatch.setattr(affinity, "Q_TRIPLE_CAP", math.comb(10, 3) - 1)
    P, Q = scene_instance(26, 4, 6)
    sampling = SamplingConfig(seed=seed)
    build_tensor(P, Q, sampling)
    rng = np.random.default_rng(seed)
    for _ in range(sampling.triples_per_point * len(P)):
        rng.choice(len(P), size=3, replace=False)
    want = scene_triple_sets(rng, len(Q))
    assert len(drawn) == 1
    assert drawn[0].tobytes() == want.tobytes()


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

    def record(q_feats, p_feats, k):
        sel = knn(q_feats, p_feats, k)
        calls.append(((q_feats, p_feats, k), sel))
        return sel

    monkeypatch.setattr(affinity, "_knn", record)
    return calls


def selected_dist2(pool_feat, p_feats, sel):
    return ((pool_feat[sel] - p_feats[:, None]) ** 2).sum(axis=2)


# _SORTED_TREE_MIN_SETS values that force each kNN route: the tree over all
# six vertex orders of every scene set, and the tree over the sets' sorted
# features.
KNN_ROUTES = {"pool-tree": math.inf, "sorted-sets": 0}


def knn_on_each_route(monkeypatch, q_feats, p_feats, k):
    """``affinity._knn`` on the same arguments, once per route."""
    found = {}
    for route, min_sets in KNN_ROUTES.items():
        monkeypatch.setattr(affinity, "_SORTED_TREE_MIN_SETS", min_sets)
        found[route] = affinity._knn(q_feats, p_feats, k)
    return found


def pool_of(q_feats):
    """The pool that ``_knn``'s codes index: row ``6 * s + o`` is set ``s``
    in vertex order ``o``."""
    return np.take(q_feats, affinity._VERTEX_ORDERS, axis=1).reshape(-1, 3)


def knn_brute_over_sets(q_feats, p_feats, k):
    """``oracles.knn_brute`` with ``_knn``'s arguments: scene features, not the pool."""
    return oracles.knn_brute(pool_of(q_feats), p_feats, k)


class TestKnn:
    """Both kNN routes against the brute-force scan (oracles.knn_brute).

    ``_knn`` searches one kd-tree over all pool rows below
    ``_SORTED_TREE_MIN_SETS`` scene sets, and a kd-tree over the sets' sorted
    features from there on; each test forces each route in turn.  Without
    ties both return the scan's rows; with ties, the scan's distances.
    """

    @pytest.mark.parametrize(
        "seed, n_in, n_out, knn",
        [
            (1, 10, 30, 300),
            (2, 10, 40, 300),
            (3, 10, 40, 7),
            (4, 10, 5, 7),
            (5, 3, 0, 300),
            (6, 10, 30, 1),
            (7, 10, 30, 7),
        ],
    )
    def test_neighbour_sets_equal_the_scan(self, monkeypatch, seed, n_in, n_out, knn):
        calls = recorded_knn(monkeypatch)
        P, Q = scene_instance(seed, n_in, n_out)
        build_tensor(P, Q, SamplingConfig(knn=knn))
        ((q_feats, p_feats, k), _), = calls
        brute = np.sort(knn_brute_over_sets(q_feats, p_feats, k), axis=1)
        for route, sel in knn_on_each_route(monkeypatch, q_feats, p_feats, k).items():
            assert sel.shape == (len(p_feats), k), route
            np.testing.assert_array_equal(sel, brute, err_msg=route)

    @pytest.mark.parametrize("knn", [1, 7, 40])
    def test_ties_on_a_grid_keep_the_distances(self, monkeypatch, knn):
        calls = recorded_knn(monkeypatch)
        P, Q = grid_instance()
        t1 = build_tensor(P, Q, SamplingConfig(knn=knn))
        t2 = build_tensor(P, Q, SamplingConfig(knn=knn))
        assert t1.idx.tobytes() == t2.idx.tobytes()
        assert t1.val.tobytes() == t2.val.tobytes()
        (q_feats, p_feats, k), _ = calls[0]
        pool_feat = pool_of(q_feats)
        brute = oracles.knn_brute(pool_feat, p_feats, k)
        want = np.sort(selected_dist2(pool_feat, p_feats, brute), axis=1)
        for route, sel in knn_on_each_route(monkeypatch, q_feats, p_feats, k).items():
            got = np.sort(selected_dist2(pool_feat, p_feats, sel), axis=1)
            np.testing.assert_array_equal(got, want, err_msg=route)

    # (template, set a, set b): the sets' nearest rows differ by an ulp in the
    # build's squared distance, and a kd-tree over the sorted features, which
    # sums in rank order and returns square roots, ranks them the other way
    # (scipy 1.17).  Only the check of the (m + 1)-th set against the slack
    # keeps the sorted-sets route on the build's nearest row there.
    @pytest.mark.parametrize(
        "p, a, b",
        [
            (
                [0.06289549845497133, 0.7258808637757768, 0.08776788675948677],
                [0.3950917083579676, 0.8735226311207321, 0.4723003367500115],
                [0.3950917083579675, 0.8735226311207325, 0.47230033675001143],
            ),
            (
                [0.22650039568236358, 0.7775441238817054, 0.17007850161486648],
                [0.5771979489865907, 0.5358989295791143, 0.6719028034776905],
                [0.5771979489865908, 0.5358989295791142, 0.6719028034776903],
            ),
        ],
    )
    def test_ulp_near_ties_follow_the_build_distance(self, monkeypatch, p, a, b):
        p_feats = np.array([p])
        for sets in ([a, b], [b, a]):
            q_feats = np.array(sets)
            brute = knn_brute_over_sets(q_feats, p_feats, 1)
            for route, sel in knn_on_each_route(monkeypatch, q_feats, p_feats, 1).items():
                np.testing.assert_array_equal(sel, brute, err_msg=route)

    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_sets=st.integers(1, 300),
        n_tmpl=st.integers(1, 8),
        knn=st.integers(1, 1900),
    )
    def test_random_pools_equal_the_scan_on_both_routes(self, seed, n_sets, n_tmpl, knn):
        # Uniform features tie with probability 0; knn past 6 * n_sets is
        # clipped as build_tensor clips it, so k >= n_sets and k = every row
        # both come up.
        rng = np.random.default_rng(seed)
        q_feats = rng.random((n_sets, 3))
        p_feats = rng.random((n_tmpl, 3))
        k = min(knn, 6 * n_sets)
        brute = np.sort(knn_brute_over_sets(q_feats, p_feats, k), axis=1)
        with pytest.MonkeyPatch.context() as monkeypatch:
            for route, sel in knn_on_each_route(monkeypatch, q_feats, p_feats, k).items():
                np.testing.assert_array_equal(sel, brute, err_msg=route)


@settings(max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_sets=st.integers(1, 40),
    n_tmpl=st.integers(1, 6),
    n_cand=st.integers(1, 12),
    data=st.data(),
)
def test_nearest_rows_equal_the_nine_gathers(seed, n_sets, n_tmpl, n_cand, data):
    # Features from a few values tie often, which argpartition must break
    # the same way on the same distances.
    rng = np.random.default_rng(seed)
    q_feats = rng.choice([0.25, 0.5, 0.75, 1.0], (n_sets, 3)) * rng.random((n_sets, 1))
    p_feats = rng.random((n_tmpl, 3))
    sets = rng.integers(0, n_sets, (n_tmpl, n_cand))
    k = data.draw(st.integers(1, 6 * n_cand))
    want = oracles.nearest_rows_nine_gathers(q_feats, p_feats, sets, k)
    got = affinity._nearest_rows(q_feats, p_feats, sets, k)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# Squared distances of features in [0, 1] are at most 3; a few ulps of that.
GAP_BOUND_TOL = 8 * np.finfo(float).eps


@settings(max_examples=300)
@given(
    q=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
    p=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
)
def test_rank_aligned_order_is_nearest_by_the_gap_bound(q, p):
    """The sorted-sets route's premise, for a scene set ``q`` and a template
    ``p`` (sines, so in [0, 1]): the vertex order that lines ``q`` up by rank
    with ``p`` is the nearest of the six, and every other order is farther by
    at least ``2 min(gap products)`` in squared distance, up to
    ``GAP_BOUND_TOL``."""
    q, p = np.array(q), np.array(p)
    rows = q[affinity._VERTEX_ORDERS]
    dist2 = ((rows - p) ** 2).sum(axis=1)
    aligned_order = np.empty(3, dtype=np.intp)
    aligned_order[np.argsort(p, kind="stable")] = np.argsort(q, kind="stable")
    aligned = int(np.flatnonzero((affinity._VERTEX_ORDERS == aligned_order).all(axis=1))[0])
    assert dist2[aligned] <= dist2.min() + GAP_BOUND_TOL
    qs, ps = np.sort(q), np.sort(p)
    gap_q, gap_p = np.diff(qs), np.diff(ps)
    bound = 2 * min(gap_q[0] * gap_p[0], gap_q[1] * gap_p[1])
    np.testing.assert_allclose(dist2[aligned], ((qs - ps) ** 2).sum(), rtol=0, atol=GAP_BOUND_TOL)
    for order in range(6):
        if order != aligned:
            assert dist2[order] >= dist2[aligned] + bound - GAP_BOUND_TOL


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
        monkeypatch.setattr(affinity, "_knn", knn_brute_over_sets)
        scan = build_tensor(P, Q)
        assert tree.idx.tobytes() == scan.idx.tobytes()
        np.testing.assert_allclose(tree.val, scan.val, rtol=1e-14, atol=0.0)
        for method in ("bcagm", "hopm"):
            a_tree = run_method(method, tree).assignment.to_one_based()
            a_scan = run_method(method, scan).assignment.to_one_based()
            assert a_tree == a_scan

    def test_explicit_gamma_is_bit_identical(self, monkeypatch):
        P, Q = scene_instance(15, 8, 12)
        sampling = SamplingConfig(gamma=3.0)
        tree = build_tensor(P, Q, sampling)
        monkeypatch.setattr(affinity, "_knn", knn_brute_over_sets)
        scan = build_tensor(P, Q, sampling)
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
        # |dP - dQ| equals affinity.SIGMA_S, so the entry is exp(-1)
        P = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 5.0]])
        Q = np.array([[0.0, 0.0], [1.5, 0.0], [0.0, 5.0]])
        assert affinity.SIGMA_S == 0.5
        A = build_matrix2(P, Q)
        view = A.reshape(3, 3, 3, 3)
        assert view[0, 0, 1, 1] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_rejects_larger_template(self):
        with pytest.raises(ValueError, match="more points"):
            build_matrix2(np.zeros((3, 2)), np.zeros((2, 2)))

    def test_refuses_more_rows_than_the_dense_limit(self, monkeypatch):
        # 3 into 4 points is n = 12 rows, so 12 x 12 entries
        P, Q = np.zeros((3, 2)), np.eye(4, 2)
        monkeypatch.setattr(tensor_module, "DENSE_MATRIX_LIMIT", 12)
        assert build_matrix2(P, Q).shape == (12, 12)
        monkeypatch.setattr(tensor_module, "DENSE_MATRIX_LIMIT", 11)
        # refused before the pairwise distances, the first array it builds
        monkeypatch.setattr(affinity.np, "hypot", None)
        with pytest.raises(ThresholdExceeded, match=r"refusing to materialize a 12x12 matrix"):
            build_matrix2(P, Q)
