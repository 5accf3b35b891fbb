"""Quadratic assignment subroutines and the ascent guard."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from hypermatch import (
    AssignmentVector,
    LiftedOperator,
    MatchingShape,
    ipfp,
    mpm,
    psi_with_guard,
    qap_objective,
    reshape_to_profit,
    solve_lap_max,
)
from hypermatch import qap as qap_module
from test_tensor import SETTINGS, random_tensors


def random_qap(rng, shape, density=1.0):
    n = shape.n
    A = rng.uniform(0.0, 1.0, size=(n, n))
    if density < 1.0:
        A *= rng.random((n, n)) < density
    A = (A + A.T) / 2.0
    np.fill_diagonal(A, 0.0)
    return A


def spy_on_lap(monkeypatch):
    """Record ``(profit, assignment)`` of every LAP the QAP solvers make."""
    calls = []

    def spy(profit):
        assignment = solve_lap_max(profit)
        calls.append((np.array(profit), assignment))
        return assignment

    monkeypatch.setattr(qap_module, "solve_lap_max", spy)
    return calls


SHAPE22 = MatchingShape(2, 2)
IDENTITY22 = AssignmentVector(SHAPE22, (0, 1))
SWAP22 = AssignmentVector(SHAPE22, (1, 0))


class TestIpfp:
    def test_diagonal_matrix_is_a_fixed_point(self):
        # with only diagonal affinity, the gradient at a matching vanishes
        # outside its support, so the projection returns the start: the
        # iteration cannot leave a fixed point even when a better matching
        # exists elsewhere
        A = np.diag([3.0, 1.0, 1.0, 3.0])
        res = ipfp(A, SWAP22)
        assert res.assignment.cols == (1, 0)
        assert res.objective == 2.0
        best_obj, best_cols = oracles.qap_brute(A, SHAPE22)
        assert best_obj == 6.0 and best_cols == (0, 1)
        # from the optimum's own basin it stays there
        res = ipfp(A, IDENTITY22)
        assert res.assignment.cols == (0, 1)
        assert res.objective == 6.0

    def test_escapes_when_gradient_points_elsewhere(self):
        # cross-support affinities pull the iterate from the identity start
        # to the strictly better swap matching
        A = np.zeros((4, 4))
        A[1, 2] = A[2, 1] = 5.0
        A[1, 3] = A[3, 1] = 4.0
        A[0, 2] = A[2, 0] = 4.0
        res = ipfp(A, IDENTITY22)
        assert res.assignment.cols == (1, 0)
        assert res.objective == 10.0
        best_obj, _ = oracles.qap_brute(A, SHAPE22)
        assert res.objective == best_obj

    def test_zero_matrix_returns_start(self):
        A = np.zeros((4, 4))
        res = ipfp(A, SWAP22)
        assert res.assignment.cols == SWAP22.cols
        assert res.objective == 0.0

    def test_identity_matrix_keeps_start(self):
        A = np.eye(4)
        res = ipfp(A, SWAP22)
        assert res.assignment.cols == SWAP22.cols
        assert res.objective == 2.0  # n1; every matching scores the same

    def test_never_below_start(self):
        rng = np.random.default_rng(31)
        shape = MatchingShape(3, 5)
        for _ in range(30):
            A = random_qap(rng, shape)
            x0 = oracles.random_matching(rng, shape)
            res = ipfp(A, x0)
            assert res.objective >= qap_objective(A, x0)
            recomputed = qap_objective(A, res.assignment)
            assert res.objective == pytest.approx(recomputed, rel=1e-10)

    def test_fixed_point_exit_solves_each_lap_once(self, monkeypatch):
        # the LAP that finds the fixed point also discretizes the final
        # iterate, so no closing LAP repeats it; sparse affinities reach a
        # fixed point within the cap more often than dense ones
        laps = spy_on_lap(monkeypatch)
        rng = np.random.default_rng(36)
        shape = MatchingShape(3, 5)
        fixed_points = 0
        for _ in range(20):
            A = random_qap(rng, shape, density=0.1)
            laps.clear()
            res = ipfp(A, oracles.random_matching(rng, shape))
            if res.inner_iterations == qap_module.IPFP_MAX_ITER:
                continue  # may have stopped at the cap instead
            fixed_points += 1
            assert len(laps) == res.inner_iterations
        assert fixed_points > 0

    def test_iteration_cap_exit_discretizes_the_final_iterate(self, monkeypatch):
        monkeypatch.setattr(qap_module, "IPFP_MAX_ITER", 1)
        laps = spy_on_lap(monkeypatch)
        rng = np.random.default_rng(37)
        shape = MatchingShape(3, 5)
        checked = 0
        for _ in range(20):
            A = random_qap(rng, shape)
            x0 = oracles.random_matching(rng, shape)
            laps.clear()
            res = ipfp(A, x0)
            assert res.inner_iterations == 1
            (g0, projected), (g1, final) = laps  # IPFP_MAX_ITER + 1 LAPs
            np.testing.assert_array_equal(g0, reshape_to_profit(A @ x0.indicator(), shape))
            if float((g0.ravel() * (projected.indicator() - x0.indicator())).sum()) <= 0.0:
                continue  # the start was already a fixed point
            checked += 1
            assert not np.array_equal(g1, g0)  # the closing LAP sees the moved iterate
            objectives = [qap_objective(A, c) for c in (x0, projected, final)]
            best = int(np.argmax(objectives))  # the first wins ties
            assert res.assignment.cols == (x0, projected, final)[best].cols
            assert res.objective == objectives[best]
        assert checked > 0

    def test_rejects_invalid_matrix(self):
        with pytest.raises(ValueError, match="symmetric"):
            ipfp(np.triu(np.ones((4, 4))), SWAP22)
        with pytest.raises(ValueError, match="nonnegative"):
            ipfp(-np.ones((4, 4)), SWAP22)
        with pytest.raises(ValueError, match="non-finite"):
            ipfp(np.full((4, 4), np.nan), SWAP22)
        with pytest.raises(ValueError, match="4x4"):
            ipfp(np.zeros((3, 3)), SWAP22)


class TestMpm:
    def test_zero_matrix_degenerates_to_start(self):
        res = mpm(np.zeros((4, 4)), SHAPE22, np.ones(4))
        assert res.degenerate
        assert not res.converged
        np.testing.assert_allclose(res.vector, np.ones(4) / 2.0)

    def test_one_update_concentrates_on_dominant_block(self, monkeypatch):
        # pairwise support for the identity matching only
        A = np.zeros((4, 4))
        A[0, 3] = A[3, 0] = 2.0
        monkeypatch.setattr(qap_module, "MPM_MAX_ITER", 1)
        res = mpm(A, SHAPE22, np.ones(4))
        expected = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        np.testing.assert_allclose(res.vector, expected, atol=1e-15)

    def test_unit_norm_and_nonnegative_iterates(self):
        rng = np.random.default_rng(32)
        shape = MatchingShape(3, 4)
        for _ in range(10):
            A = random_qap(rng, shape)
            x0 = rng.uniform(0.0, 1.0, size=shape.n) + 1e-3
            res = mpm(A, shape, x0)
            assert float(np.linalg.norm(res.vector)) == pytest.approx(1.0, rel=1e-12)
            assert res.vector.min() >= 0.0

    def test_diagonal_term_participates(self, monkeypatch):
        A = np.diag([4.0, 1.0, 1.0, 4.0])
        monkeypatch.setattr(qap_module, "MPM_MAX_ITER", 1)
        res = mpm(A, SHAPE22, np.ones(4))
        expected = np.array([4.0, 1.0, 1.0, 4.0]) / 2.0
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(res.vector, expected, atol=1e-15)

    def test_rejects_bad_start(self):
        A = np.zeros((4, 4))
        with pytest.raises(ValueError, match="nonzero"):
            mpm(A, SHAPE22, np.zeros(4))
        with pytest.raises(ValueError, match="nonnegative"):
            mpm(A, SHAPE22, np.array([1.0, -1.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="length"):
            mpm(A, SHAPE22, np.ones(5))


@st.composite
def qap_cases(draw):
    """``(A, shape, x0)``: a random QAP matrix, with ``n1 == n2`` and
    ``n1 == 1`` among the shapes, or the lifted Hessian of a random tensor at
    a matching; ``x0`` is all ones, a matching or a nonnegative vector."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n1 = draw(st.integers(1, 4))
        shape = MatchingShape(n1, draw(st.integers(n1, 6)))
        A = random_qap(rng, shape, draw(st.sampled_from([1.0, 0.5, 0.1])))
    else:
        t = draw(random_tensors())
        shape = t.shape
        u = oracles.random_matching(rng, shape).indicator()
        A = LiftedOperator(t, draw(st.sampled_from([0.0, 1.0]))).contract_mat(u, u)
    start = draw(st.sampled_from(["ones", "matching", "uniform"]))
    if start == "ones":
        x0 = np.ones(shape.n)
    elif start == "matching":
        x0 = oracles.random_matching(rng, shape).indicator()
    else:
        x0 = rng.uniform(0.0, 1.0, size=shape.n) + 1e-3
    return A, shape, x0


@SETTINGS
@given(case=qap_cases())
def test_mpm_bytes_equal_last_axis_pooling(case):
    A, shape, x0 = case
    res = mpm(A, shape, x0)
    ref = oracles.mpm_last_axis(A, shape, x0)
    assert res.vector.tobytes() == ref.vector.tobytes()
    assert res[1:] == ref[1:]  # iterations, converged, degenerate


def test_mpm_with_negative_zeros_equals_last_axis_pooling():
    # A pooled zero may take either sign, so values are compared, not bytes.
    rng = np.random.default_rng(37)
    for shape in (MatchingShape(1, 4), MatchingShape(3, 3), MatchingShape(3, 5)):
        for _ in range(5):
            A = random_qap(rng, shape)
            A[A < 0.4] = -0.0
            x0 = oracles.random_matching(rng, shape).indicator()
            res = mpm(A, shape, x0)
            ref = oracles.mpm_last_axis(A, shape, x0)
            assert np.array_equal(res.vector, ref.vector)
            assert res[1:] == ref[1:]


class TestPsiWithGuard:
    def test_ipfp_route(self):
        A = np.zeros((4, 4))
        A[1, 2] = A[2, 1] = 5.0
        A[1, 3] = A[3, 1] = 4.0
        A[0, 2] = A[2, 0] = 4.0
        res = psi_with_guard(A, IDENTITY22, "ipfp")
        assert res.assignment.cols == (1, 0)
        assert res.objective == 10.0

    def test_zero_matrix_returns_incumbent(self):
        res = psi_with_guard(np.zeros((4, 4)), SWAP22, "ipfp")
        assert res.assignment.cols == SWAP22.cols
        assert res.objective == 0.0
        res = psi_with_guard(np.zeros((4, 4)), SWAP22, "mpm")
        assert res.assignment.cols == SWAP22.cols

    def test_rejects_worse_candidate(self):
        # max-pooling drifts toward a column-conflicting direction whose
        # rounding scores below the incumbent; the guard must keep the
        # incumbent
        shape = MatchingShape(2, 3)
        A = np.zeros((6, 6))
        A[0, 4] = A[4, 0] = 3.0  # supports the incumbent (cols 0, 1)
        A[2, 4] = A[4, 2] = 2.0  # bridge to a weaker matching (cols 2, 1)
        A[2, 5] = A[5, 2] = 10.0  # column conflict, dead for matchings
        x0 = AssignmentVector(shape, (0, 1))
        incumbent_obj = qap_objective(A, x0)
        assert incumbent_obj == 6.0
        raw = mpm(A, shape, x0.indicator())
        candidate = solve_lap_max(reshape_to_profit(raw.vector, shape))
        assert qap_objective(A, candidate) < incumbent_obj
        res = psi_with_guard(A, x0, "mpm")
        assert res.assignment.cols == x0.cols
        assert res.objective == incumbent_obj

    def test_contract_on_random_instances(self):
        rng = np.random.default_rng(33)
        shape = MatchingShape(3, 5)
        for method in ("ipfp", "mpm"):
            for _ in range(25):
                A = random_qap(rng, shape)
                x0 = oracles.random_matching(rng, shape)
                res = psi_with_guard(A, x0, method)
                assert res.objective >= qap_objective(A, x0)
                if method == "ipfp":
                    # ipfp never falls below its start, so its result passes as is
                    direct = ipfp(A, x0)
                    assert (res.assignment.cols, res.objective) == (
                        direct.assignment.cols,
                        direct.objective,
                    )

    def test_sandwich_against_brute_force(self):
        rng = np.random.default_rng(34)
        for shape in (MatchingShape(2, 4), MatchingShape(3, 5), MatchingShape(4, 6)):
            for method in ("ipfp", "mpm"):
                for _ in range(10):
                    A = random_qap(rng, shape)
                    x0 = oracles.random_matching(rng, shape)
                    res = psi_with_guard(A, x0, method)
                    best_obj, _ = oracles.qap_brute(A, shape)
                    assert qap_objective(A, x0) <= res.objective <= best_obj + 1e-12

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="subroutine"):
            psi_with_guard(np.zeros((4, 4)), SWAP22, "sinkhorn")

    @pytest.mark.parametrize("method", ["ipfp", "mpm"])
    def test_rejects_invalid_matrix(self, method):
        with pytest.raises(ValueError, match="symmetric"):
            psi_with_guard(np.triu(np.ones((4, 4))), SWAP22, method)
        with pytest.raises(ValueError, match="nonnegative"):
            psi_with_guard(-np.ones((4, 4)), SWAP22, method)
        with pytest.raises(ValueError, match="non-finite"):
            psi_with_guard(np.full((4, 4), np.nan), SWAP22, method)
        with pytest.raises(ValueError, match="4x4"):
            psi_with_guard(np.zeros((3, 3)), SWAP22, method)

    def test_symmetry_tolerance(self):
        shape = MatchingShape(3, 4)
        A = random_qap(np.random.default_rng(38), shape)
        x0 = oracles.random_matching(np.random.default_rng(39), shape)
        near, far = A.copy(), A.copy()
        near[0, 5] *= 1.0 + 1e-14
        far[0, 5] *= 1.0 + 1e-9
        assert near[0, 5] != near[5, 0]
        ipfp(near, x0)
        mpm(near, shape, x0.indicator())
        for method in ("ipfp", "mpm"):
            psi_with_guard(near, x0, method)
        with pytest.raises(ValueError, match="symmetric"):
            ipfp(far, x0)
        with pytest.raises(ValueError, match="symmetric"):
            mpm(far, shape, x0.indicator())
        for method in ("ipfp", "mpm"):
            with pytest.raises(ValueError, match="symmetric"):
                psi_with_guard(far, x0, method)

    @pytest.mark.parametrize("method", ["ipfp", "mpm"])
    def test_validates_the_matrix_once(self, method, monkeypatch):
        calls = []
        check = qap_module._check_qap

        def counted(A, n):
            calls.append(n)
            return check(A, n)

        monkeypatch.setattr(qap_module, "_check_qap", counted)
        psi_with_guard(random_qap(np.random.default_rng(35), SHAPE22), SWAP22, method)
        assert calls == [SHAPE22.n]
