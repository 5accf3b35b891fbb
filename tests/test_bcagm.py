"""Block-coordinate ascent drivers: ascent guarantees, termination, merges."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hypermatch import bcagm as bcagm_module
from hypermatch import (
    LiftedOperator,
    MatchingShape,
    SolverConfig,
    SolverTrace,
    SparseSymmetricTensor3,
    TraceViolation,
    bcagm_psi_solve,
    bcagm_solve,
    default_start,
    f4_norm_exact,
    hopm_baseline,
    run_method,
)
from hypermatch.bcagm import ALPHA_SCHEDULES, TENSOR_METHODS
from test_golden import solution_doc
from test_tensor import random_tensors

def identity_tensor(n=3, value=1.0):
    shape = MatchingShape(n, n)
    triples = []
    for cols in [(a, b, c) for a in range(n) for b in range(a + 1, n) for c in range(b + 1, n)]:
        triples.append([i * n + i for i in cols])
    return SparseSymmetricTensor3(shape, triples, [value] * len(triples))


class TestConfig:
    def test_rejects_invalid(self):
        with pytest.raises(ValueError, match="variant"):
            SolverConfig(variant="gradient")
        with pytest.raises(ValueError, match="subroutine"):
            SolverConfig(subroutine="sm")
        with pytest.raises(ValueError, match="alpha_schedule"):
            SolverConfig(alpha_schedule="adaptive")


class TestTraceAudit:
    def test_accepts_valid_trace(self):
        trace = SolverTrace(
            stage_scores=[1.0, 2.0, 2.0, 3.0],
            u_scores3=[0.5, 1.5],
            alpha_phases=[{"alpha": 0.0, "stage_start": 0, "u_start": 0}],
        )
        trace.verify()

    def test_rejects_stage_decrease(self):
        trace = SolverTrace(
            stage_scores=[2.0, 1.0],
            u_scores3=[0.5],
            alpha_phases=[{"alpha": 0.0, "stage_start": 0, "u_start": 0}],
        )
        with pytest.raises(TraceViolation, match="stage"):
            trace.verify()

    def test_rejects_non_strict_merges(self):
        trace = SolverTrace(stage_scores=[], u_scores3=[1.0, 1.0], alpha_phases=[])
        with pytest.raises(TraceViolation, match="strictly"):
            trace.verify()

    def test_stage_check_is_per_phase(self):
        # values may drop across an alpha switch, only within-phase matters
        trace = SolverTrace(
            stage_scores=[5.0, 6.0, 2.0, 3.0],
            u_scores3=[0.1],
            alpha_phases=[
                {"alpha": 0.0, "stage_start": 0, "u_start": 0},
                {"alpha": 1.0, "stage_start": 2, "u_start": 1},
            ],
        )
        trace.verify()


class TestDefaultStart:
    def test_lands_on_a_matching(self):
        rng = np.random.default_rng(40)
        shape = MatchingShape(4, 6)
        t = oracles.random_tensor(rng, shape, 30)
        start = default_start(t)
        assert start.shape == shape
        x = start.indicator()
        assert float(x.sum()) == shape.n1

    def test_zero_tensor_still_valid(self):
        start = default_start(SparseSymmetricTensor3(MatchingShape(3, 4)))
        assert len(start.cols) == 3


class TestBcagmSolve:
    def test_identity_supporting_tensor(self):
        t = identity_tensor(3, value=1.5)
        best_obj, best_cols = oracles.matching_brute(t)
        assert best_cols == (0, 1, 2)
        sol = bcagm_solve(t)
        assert sol.assignment.cols == best_cols
        assert sol.score3 == pytest.approx(best_obj, rel=1e-12)
        assert sol.score3 == pytest.approx(6.0 * 1.5, rel=1e-12)

    def test_zero_tensor_terminates_at_first_stall(self):
        sol = bcagm_solve(SparseSymmetricTensor3(MatchingShape(3, 4)))
        assert sol.score3 == 0.0
        assert sol.trace.terminated == "stalled"
        assert len(sol.assignment.cols) == 3

    def test_monotone_traces_on_random_instances(self):
        rng = np.random.default_rng(41)
        shape = MatchingShape(5, 8)
        for _ in range(30):
            t = oracles.random_tensor(rng, shape, 50)
            sol = bcagm_solve(t)
            u = sol.trace.u_scores3
            assert all(b > a for a, b in zip(u, u[1:]))
            assert sol.trace.terminated == "stalled"
            assert sol.score3 == pytest.approx(
                t.score(sol.assignment.indicator()), rel=1e-10
            )

    def test_alpha_schedules(self):
        rng = np.random.default_rng(44)
        shape = MatchingShape(4, 6)
        t = oracles.random_tensor(rng, shape, 40)
        scores = {}
        for schedule in ALPHA_SCHEDULES:
            sol = bcagm_solve(t, SolverConfig(variant="bcagm", alpha_schedule=schedule))
            scores[schedule] = sol.score3
            assert sol.trace.terminated == "stalled"
        # the two-phase schedule can only improve on its first phase
        assert scores["zero_then_bound"] >= scores["zero_only"] - 1e-12

    def test_iteration_cap_reported(self, monkeypatch):
        rng = np.random.default_rng(46)
        shape = MatchingShape(4, 6)
        t = oracles.random_tensor(rng, shape, 40)
        monkeypatch.setattr(bcagm_module, "MAX_OUTER_ITERS", 1)
        sol = bcagm_solve(t)
        assert sol.trace.terminated == "max_outer_iters"
        assert sol.outer_iterations == 1


class TestReturnedScores:
    def test_scores_equal_a_fresh_evaluation_exactly(self, monkeypatch):
        # The returned scores are the ones held during the ascent; they must
        # be the very values a fresh evaluation of the matching gives.
        rng = np.random.default_rng(51)
        shape = MatchingShape(4, 6)
        runs = []
        for _ in range(5):
            t = oracles.random_tensor(rng, shape, 40)
            for name in TENSOR_METHODS:
                runs.append((t, run_method(name, t)))
                with monkeypatch.context() as m:
                    m.setattr(bcagm_module, "MAX_OUTER_ITERS", 1)
                    runs.append((t, run_method(name, t)))
        assert any(sol.trace.terminated == "max_outer_iters" for _, sol in runs)
        for t, sol in runs:
            x = sol.assignment.indicator()
            phases = sol.trace.alpha_phases
            # hopm has no alpha phases; its score4_alpha is taken at alpha 0.
            alpha = phases[-1]["alpha"] if phases else 0.0
            assert sol.score3 == t.score(x)
            assert sol.score4_alpha == LiftedOperator(t, alpha).score(x)


class TestContractionMemo:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        t=random_tensors(),
        schedule=st.sampled_from(tuple(ALPHA_SCHEDULES)),
        one_sweep=st.booleans(),
    )
    def test_solutions_equal_those_without_the_memo(self, t, schedule, one_sweep):
        with pytest.MonkeyPatch.context() as m:
            if one_sweep:
                m.setattr(bcagm_module, "MAX_OUTER_ITERS", 1)
            with_memo = [solution_doc(run_method(name, t, schedule)) for name in TENSOR_METHODS]
            m.setattr(bcagm_module, "_ContractionMemo", lambda tensor: tensor)
            without = [solution_doc(run_method(name, t, schedule)) for name in TENSOR_METHODS]
        assert with_memo == without

    def test_repeats_and_swapped_pairs_reuse_one_pass(self, monkeypatch):
        rng = np.random.default_rng(52)
        t = oracles.random_tensor(rng, MatchingShape(4, 6), 40)
        calls = []
        for name in ("score", "contract_vec", "contract_mat"):
            kernel = getattr(SparseSymmetricTensor3, name)

            def counted(self, *args, kernel=kernel, name=name):
                calls.append(name)
                return kernel(self, *args)

            monkeypatch.setattr(SparseSymmetricTensor3, name, counted)
        memo = bcagm_module._ContractionMemo(t)
        x, y = (oracles.random_matching(rng, t.shape).indicator() for _ in range(2))
        first = memo.contract_vec(x, y)
        # The swapped pair and an equal copy hit the same entry.
        assert memo.contract_vec(y, x.copy()) is first
        assert memo.contract_vec(x, x).tobytes() == memo.contract_vec(x, x.copy()).tobytes()
        assert memo.score(x) == memo.score(x.copy())
        assert memo.contract_mat(y) is memo.contract_mat(y.copy())
        assert calls == ["contract_vec", "contract_vec", "score", "contract_mat"]
        assert first.tobytes() == t.contract_vec(x, y).tobytes()
        with pytest.raises(ValueError):
            first[0] = 1.0
        with pytest.raises(ValueError):
            memo.contract_mat(y)[0, 0] = 1.0

    def test_holds_a_bounded_number_of_entries(self, monkeypatch):
        rng = np.random.default_rng(53)
        t = oracles.random_tensor(rng, MatchingShape(4, 6), 40)
        memo = bcagm_module._ContractionMemo(t)
        kernel = SparseSymmetricTensor3.contract_mat

        def one_matrix_at_a_time(self, x):
            # A miss drops the held matrix before it computes the next.
            assert not memo._mat
            return kernel(self, x)

        monkeypatch.setattr(SparseSymmetricTensor3, "contract_mat", one_matrix_at_a_time)
        for _ in range(50):
            x, y = rng.uniform(size=(2, t.shape.n))
            assert memo.contract_vec(x, y).tobytes() == t.contract_vec(x, y).tobytes()
            assert memo.score(x) == t.score(x)
            assert memo.contract_mat(y).tobytes() == kernel(t, y).tobytes()
            assert len(memo._vec) <= bcagm_module._MEMO_VECTORS
            assert len(memo._score) <= bcagm_module._MEMO_VECTORS
            assert len(memo._mat) == bcagm_module._MEMO_MATRICES == 1
        assert len(memo._vec) == len(memo._score) == bcagm_module._MEMO_VECTORS


class TestBcagmPsiSolve:
    @pytest.mark.parametrize("subroutine", ["ipfp", "mpm"])
    def test_identity_supporting_tensor(self, subroutine):
        t = identity_tensor(3, value=2.0)
        best_obj, best_cols = oracles.matching_brute(t)
        sol = bcagm_psi_solve(t, SolverConfig(variant="bcagm_psi", subroutine=subroutine))
        assert sol.assignment.cols == best_cols
        assert sol.score3 == pytest.approx(best_obj, rel=1e-12)

    @pytest.mark.parametrize("subroutine", ["ipfp", "mpm"])
    def test_zero_tensor(self, subroutine):
        sol = bcagm_psi_solve(
            SparseSymmetricTensor3(MatchingShape(3, 4)),
            SolverConfig(variant="bcagm_psi", subroutine=subroutine),
        )
        assert sol.score3 == 0.0
        assert sol.trace.terminated == "stalled"

    @pytest.mark.parametrize("subroutine", ["ipfp", "mpm"])
    def test_monotone_traces_on_random_instances(self, subroutine):
        rng = np.random.default_rng(47)
        shape = MatchingShape(5, 8)
        cfg = SolverConfig(variant="bcagm_psi", subroutine=subroutine)
        for _ in range(15):
            t = oracles.random_tensor(rng, shape, 50)
            sol = bcagm_psi_solve(t, cfg)
            u = sol.trace.u_scores3
            assert all(b > a for a, b in zip(u, u[1:]))
            assert sol.trace.terminated == "stalled"


class TestTinyScaleEquivalence:
    def test_free_maximum_equals_diagonal_maximum(self):
        # with the exact convexification weight, maximizing the form over
        # four independent blocks cannot beat the best single matching
        rng = np.random.default_rng(48)
        shape = MatchingShape(3, 3)
        matchings = [oracles.indicator(shape, cols) for cols in oracles.all_assignments(shape)]
        for _ in range(5):
            t = oracles.random_tensor(rng, shape, 12)
            op = LiftedOperator(t, 3.0 * f4_norm_exact(t))
            best_diag = max(op.score(x) for x in matchings)
            best_free = max(
                op.form(x, y, z, w)
                for x in matchings
                for y in matchings
                for z in matchings
                for w in matchings
            )
            assert best_free == pytest.approx(best_diag, rel=1e-10)

    def test_argmax_invariant_to_alpha_phase(self):
        # on matchings the alpha term is a constant shift, so the argmax
        # over matchings does not depend on alpha
        rng = np.random.default_rng(49)
        shape = MatchingShape(3, 3)
        assignments = oracles.all_assignments(shape)
        for _ in range(10):
            t = oracles.random_tensor(rng, shape, 12)
            op0 = LiftedOperator(t, 0.0)
            opb = LiftedOperator(t, 3.0 * f4_norm_exact(t))
            scores0 = [op0.score(oracles.indicator(shape, c)) for c in assignments]
            scoresb = [opb.score(oracles.indicator(shape, c)) for c in assignments]
            assert int(np.argmax(scores0)) == int(np.argmax(scoresb))
            shift = opb.alpha * shape.n1**2
            np.testing.assert_allclose(
                np.asarray(scoresb) - np.asarray(scores0),
                shift,
                rtol=1e-10,
                atol=1e-10 * (1.0 + shift),
            )


class TestHopmBaseline:
    def test_zero_tensor_degenerates(self):
        sol = hopm_baseline(SparseSymmetricTensor3(MatchingShape(3, 4)))
        assert sol.score3 == 0.0
        assert sol.trace.terminated == "degenerate"
        assert len(sol.assignment.cols) == 3

    def test_identity_supporting_tensor(self):
        t = identity_tensor(3)
        sol = hopm_baseline(t)
        assert sol.assignment.cols == (0, 1, 2)
        assert sol.trace.terminated == "converged"

    def test_iterates_have_unit_norm(self):
        # indirectly: convergence means successive normalized iterates agree
        rng = np.random.default_rng(50)
        t = oracles.random_tensor(rng, MatchingShape(4, 6), 40)
        sol = hopm_baseline(t)
        assert sol.trace.terminated in ("converged", "max_iters")
        assert sol.score3 == pytest.approx(t.score(sol.assignment.indicator()), rel=1e-10)

    def test_both_scores_come_from_one_score_pass(self, monkeypatch):
        rng = np.random.default_rng(50)
        t = oracles.random_tensor(rng, MatchingShape(4, 6), 40)
        calls = []
        kernel = SparseSymmetricTensor3.score

        def counted(self, x):
            calls.append(None)
            return kernel(self, x)

        monkeypatch.setattr(SparseSymmetricTensor3, "score", counted)
        sol = hopm_baseline(t)
        assert len(calls) == 1
        x = sol.assignment.indicator()
        assert sol.score3 == kernel(t, x)
        assert sol.score4_alpha == 4.0 * kernel(t, x) * float(x.sum())

    def test_iteration_cap_reported(self, monkeypatch):
        rng = np.random.default_rng(50)
        t = oracles.random_tensor(rng, MatchingShape(4, 6), 40)
        monkeypatch.setattr(bcagm_module, "HOPM_MAX_ITER", 1)
        sol = hopm_baseline(t)
        assert sol.trace.terminated == "max_iters"
        assert sol.outer_iterations == 1


class TestDispatcher:
    def test_run_method_routes_each_method(self, monkeypatch):
        # run_method calls the solvers by their module-global names.
        calls = []
        for solver in ("bcagm_solve", "bcagm_psi_solve", "hopm_baseline"):

            def record(tensor, cfg=None, solver=solver):
                calls.append((solver, cfg))

            monkeypatch.setattr(bcagm_module, solver, record)
        t = identity_tensor(3)
        for name, fields in TENSOR_METHODS.items():
            calls.clear()
            run_method(name, t, "zero_only")
            if fields is None:
                assert calls == [("hopm_baseline", None)]
                continue
            cfg = SolverConfig(**fields, alpha_schedule="zero_only")
            solver = "bcagm_solve" if cfg.variant == "bcagm" else "bcagm_psi_solve"
            assert calls == [(solver, cfg)]

    def test_default_config(self):
        # A solver called without a config runs its variant's defaults.
        t = identity_tensor(3)
        for name in TENSOR_METHODS:
            assert run_method(name, t).assignment.cols == (0, 1, 2)
        t = oracles.random_tensor(np.random.default_rng(54), MatchingShape(4, 6), 40)
        assert solution_doc(bcagm_solve(t)) == solution_doc(
            bcagm_solve(t, SolverConfig(variant="bcagm"))
        )
        assert solution_doc(bcagm_psi_solve(t)) == solution_doc(
            bcagm_psi_solve(t, SolverConfig(variant="bcagm_psi"))
        )

    def test_solvers_refuse_the_other_variant(self):
        t = identity_tensor(3)
        with pytest.raises(ValueError, match="variant"):
            bcagm_solve(t, SolverConfig(variant="bcagm_psi", subroutine="mpm"))
        with pytest.raises(ValueError, match="variant"):
            bcagm_psi_solve(t, SolverConfig(subroutine="mpm"))
