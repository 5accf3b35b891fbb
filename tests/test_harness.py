"""Synthetic benchmark harness: generation, accuracy, grid runner."""

import time

import numpy as np
import pytest

from hypermatch import (
    AssignmentVector,
    ExperimentSpec,
    MatchingShape,
    SamplingConfig,
    accuracy,
    build_tensor,
    gen_instance,
    prepare_case,
    records_to_csv,
    run_grid,
    trial_seed,
)
from hypermatch import bcagm, harness


class TestGenInstance:
    def test_noiseless_scene_is_a_permutation(self):
        P, Q, gt = gen_instance(8, 0, 0.0, 1.0, seed=1)
        assert Q.shape == (8, 2)
        np.testing.assert_array_equal(Q[gt], P)

    def test_outlier_count(self):
        P, Q, gt = gen_instance(6, 5, 0.1, 1.0, seed=2)
        assert P.shape == (6, 2)
        assert Q.shape == (11, 2)
        assert gt.shape == (6,)
        assert len(set(gt.tolist())) == 6

    def test_scale_applies_to_everything(self):
        P1, Q1, gt1 = gen_instance(6, 4, 0.05, 1.0, seed=3)
        P2, Q2, gt2 = gen_instance(6, 4, 0.05, 2.0, seed=3)
        np.testing.assert_array_equal(P1, P2)
        np.testing.assert_array_equal(gt1, gt2)
        np.testing.assert_allclose(Q2, 2.0 * Q1, rtol=0.0, atol=0.0)

    def test_determinism(self):
        a = gen_instance(5, 3, 0.2, 1.5, seed=4)
        b = gen_instance(5, 3, 0.2, 1.5, seed=4)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_rejects_invalid(self):
        with pytest.raises(ValueError):
            gen_instance(2, 0, 0.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            gen_instance(5, -1, 0.0, 1.0, seed=0)
        with pytest.raises(ValueError):
            gen_instance(5, 0, -0.1, 1.0, seed=0)
        with pytest.raises(ValueError):
            gen_instance(5, 0, 0.0, 0.0, seed=0)
        for sigma, scale in [(float("nan"), 1.0), (float("inf"), 1.0), (0.0, float("inf"))]:
            with pytest.raises(ValueError, match="finite"):
                gen_instance(5, 0, sigma, scale, seed=0)


class TestAccuracy:
    def test_counting(self):
        shape = MatchingShape(4, 5)
        gt = np.array([0, 1, 2, 3])
        assert accuracy(AssignmentVector(shape, (0, 1, 2, 3)), gt) == 1.0
        assert accuracy(AssignmentVector(shape, (4, 0, 1, 2)), gt) == 0.0
        assert accuracy(AssignmentVector(shape, (0, 1, 4, 3)), gt) == 0.75

    def test_shape_mismatch(self):
        shape = MatchingShape(3, 4)
        with pytest.raises(ValueError, match="cover"):
            accuracy(AssignmentVector(shape, (0, 1, 2)), np.array([0, 1]))

    @pytest.mark.parametrize("gt", [[0, 1, 7], [0, 0, 1]], ids=["column-out-of-range", "repeat"])
    def test_refuses_a_ground_truth_that_is_not_a_matching(self, gt):
        assignment = AssignmentVector(MatchingShape(3, 5), (0, 1, 2))
        with pytest.raises(ValueError, match="ground truth"):
            accuracy(assignment, gt)


class TestTrialSeed:
    def test_stable_and_distinct(self):
        s1 = trial_seed(7, 0, 0)
        assert s1 == trial_seed(7, 0, 0)
        others = {trial_seed(7, 0, 1), trial_seed(7, 5, 0), trial_seed(8, 0, 0)}
        assert s1 not in others

    def test_independent_of_sigma_and_scale(self):
        # specs differing only in deformation or scale share instances
        a = ExperimentSpec(n_in=6, n_out=(2,), sigma=0.03, scale=1.0)
        b = ExperimentSpec(n_in=6, n_out=(2,), sigma=0.03, scale=1.5)
        ca, cb = prepare_case(a, 2, 0), prepare_case(b, 2, 0)
        np.testing.assert_array_equal(ca.P, cb.P)
        np.testing.assert_allclose(cb.Q, 1.5 * ca.Q, rtol=0.0, atol=0.0)
        np.testing.assert_array_equal(ca.gt, cb.gt)


class TestExperimentSpec:
    def test_normalizes_scalar_n_out(self):
        spec = ExperimentSpec(n_in=5, n_out=3)
        assert spec.n_out == (3,)
        # a single method name is a one-method grid, as a single n_out is
        assert ExperimentSpec(n_in=5, methods="bcagm").methods == ("bcagm",)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown methods"):
            ExperimentSpec(n_in=5, methods=("bcagm", "rrwhm"))

    @pytest.mark.parametrize(
        "axis, value, message",
        [
            ("n_out", 5.0, "n_out must be an integer"),
            ("n_out", None, "n_out must be an integer"),
            ("methods", 5, "unknown methods"),
            ("methods", None, "unknown methods"),
        ],
    )
    def test_a_scalar_axis_meets_the_fields_own_check(self, axis, value, message):
        # A value that is not iterable is a grid of one, not a bare TypeError.
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(n_in=10, **{axis: value})

    def test_rejects_a_sampling_seed(self):
        # prepare_case derives every trial's sampling seed from seed_base, so
        # a seed given here would be silently ignored.
        with pytest.raises(ValueError, match="seed_base"):
            ExperimentSpec(n_in=5, sampling=SamplingConfig(seed=12345))
        assert ExperimentSpec(n_in=5, sampling=SamplingConfig(knn=7)).sampling.knn == 7

    def test_a_sampling_gamma_builds_every_trial(self, monkeypatch):
        # prepare_case replaces only the sampling seed, so gamma reaches every build.
        spec = ExperimentSpec(
            n_in=5, n_out=(0, 2), trials=2, sampling=SamplingConfig(gamma=2.5),
            deterministic=True,
        )
        built = []

        def recording_build(P, Q, sampling):
            built.append(sampling)
            return build_tensor(P, Q, sampling)

        monkeypatch.setattr(harness, "build_tensor", recording_build)
        run_grid(spec)
        assert len({s.seed for s in built}) == 4
        assert [s.gamma for s in built] == [2.5] * 4
        monkeypatch.undo()
        tuned = prepare_case(spec, 2, 1).tensor
        plain = prepare_case(ExperimentSpec(n_in=5, n_out=(0, 2), trials=2), 2, 1).tensor
        assert tuned.idx.tobytes() == plain.idx.tobytes()
        assert tuned.val.tobytes() != plain.val.tobytes()

    def test_rejects_invalid_grid(self):
        with pytest.raises(ValueError):
            ExperimentSpec(n_in=2)
        with pytest.raises(ValueError):
            ExperimentSpec(n_in=5, trials=0)
        with pytest.raises(ValueError):
            ExperimentSpec(n_in=5, scale=0.0)
        with pytest.raises(ValueError, match="n_out"):
            ExperimentSpec(n_in=5, n_out=(0, -1))
        with pytest.raises(ValueError, match="threads"):
            ExperimentSpec(n_in=5, threads=-1)
        for sigma, scale in [(float("nan"), 1.0), (float("inf"), 1.0), (0.0, float("inf"))]:
            with pytest.raises(ValueError, match="finite"):
                ExperimentSpec(n_in=5, sigma=sigma, scale=scale)


class TestRunGrid:
    def test_noiseless_single_trial_is_perfect(self):
        spec = ExperimentSpec(
            n_in=10, n_out=(0,), sigma=0.0, scale=1.0, trials=1,
            methods=("bcagm",), deterministic=True,
        )
        records = run_grid(spec)
        assert len(records) == 1
        rec = records[0]
        assert rec.status == "ok"
        assert rec.accuracy == 1.0
        assert rec.wall_time_ms == 0.0

    def test_empty_methods(self):
        with pytest.raises(ValueError, match="methods must not be empty"):
            ExperimentSpec(n_in=5, methods=())

    def test_row_order_and_count(self):
        spec = ExperimentSpec(
            n_in=6, n_out=(0, 2), trials=2, methods=("bcagm", "hopm"), deterministic=True,
        )
        records = run_grid(spec)
        assert len(records) == 8
        keys = [(r.n_out, r.trial, r.method) for r in records]
        expected = [
            (n_out, trial, m)
            for n_out in (0, 2)
            for trial in range(2)
            for m in ("bcagm", "hopm")
        ]
        assert keys == expected

    def test_csv_determinism(self):
        spec = ExperimentSpec(
            n_in=6, n_out=(0,), trials=2, methods=("bcagm", "mpm2"), deterministic=True,
        )
        csv1 = records_to_csv(run_grid(spec))
        csv2 = records_to_csv(run_grid(spec))
        assert csv1 == csv2
        header = csv1.splitlines()[0]
        assert header == (
            "method,trial,n_in,n_out,sigma,scale,accuracy,score3,iterations,wall_time_ms,status"
        )

    def test_score3_recomputes_from_assignment(self):
        spec = ExperimentSpec(
            n_in=6, n_out=(2,), trials=1, methods=("bcagm", "hopm", "ipfp2"), deterministic=True,
        )
        records = run_grid(spec)
        case = prepare_case(spec, 2, 0)
        for rec in records:
            # rebuild the method output on the reconstructed case
            matrix2 = None
            if rec.method not in bcagm.TENSOR_METHODS:
                from hypermatch import build_matrix2

                matrix2 = build_matrix2(case.P, case.Q)
            assignment, _ = harness._run_method(rec.method, case, matrix2)
            assert rec.score3 == pytest.approx(
                case.tensor.score(assignment.indicator()), rel=1e-10
            )

    def test_second_order_baselines_run(self):
        spec = ExperimentSpec(
            n_in=6, n_out=(2,), trials=1, methods=("ipfp2", "mpm2"), deterministic=True,
        )
        records = run_grid(spec)
        assert [r.method for r in records] == ["ipfp2", "mpm2"]
        assert all(r.status == "ok" for r in records)
        assert all(np.isfinite(r.score3) for r in records)

    def test_failed_method_is_recorded_not_dropped(self, monkeypatch):
        def boom(*args, **kwargs):
            raise ValueError("synthetic failure")

        monkeypatch.setattr(bcagm, "hopm_baseline", boom)
        spec = ExperimentSpec(
            n_in=6, n_out=(0,), trials=1, methods=("bcagm", "hopm"), deterministic=True,
        )
        records = run_grid(spec)
        assert len(records) == 2
        by_method = {r.method: r for r in records}
        assert by_method["bcagm"].status == "ok"
        assert by_method["hopm"].status == "error:ValueError"

    def test_trace_violation_aborts_the_run(self, monkeypatch):
        from hypermatch import TraceViolation

        def broken_solver(*args, **kwargs):
            raise TraceViolation("ascent audit failed")

        monkeypatch.setattr(bcagm, "bcagm_solve", broken_solver)
        spec = ExperimentSpec(n_in=6, n_out=(0,), trials=1, methods=("bcagm",))
        with pytest.raises(TraceViolation):
            run_grid(spec)

    def test_pool_never_has_more_workers_than_cores(self, monkeypatch):
        # The recorder builds at most two workers, whatever it is asked for.
        sizes, real_pool = [], harness.ThreadPoolExecutor

        def recording_pool(max_workers):
            sizes.append(max_workers)
            return real_pool(max_workers=min(max_workers, 2))

        monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(harness, "ThreadPoolExecutor", recording_pool)
        spec = ExperimentSpec(n_in=5, trials=3, methods=("hopm",), threads=10**6)
        assert len(run_grid(spec)) == 3
        assert sizes == [2]

    def test_trace_violation_stops_the_trials_not_yet_started(self, monkeypatch):
        from hypermatch import TraceViolation

        calls = []

        def run_trial(spec, n_out, trial):
            calls.append(trial)
            if trial == 0:
                raise TraceViolation("ascent audit failed")
            time.sleep(0.05)
            return []

        monkeypatch.setattr(harness, "_run_trial", run_trial)
        spec = ExperimentSpec(n_in=5, trials=20, threads=1)
        with pytest.raises(TraceViolation):
            run_grid(spec)
        assert len(calls) < 20

    def test_threaded_run_matches_sequential_values(self):
        base = dict(n_in=6, n_out=(0, 2), trials=2, methods=("bcagm",), deterministic=False)
        seq = run_grid(ExperimentSpec(**base, threads=1))
        for threads in (4, 0):  # 0 = one per core
            par = run_grid(ExperimentSpec(**base, threads=threads))
            assert [
                (r.method, r.trial, r.n_out, r.accuracy, r.score3, r.iterations) for r in seq
            ] == [(r.method, r.trial, r.n_out, r.accuracy, r.score3, r.iterations) for r in par]


class TestCsvFormat:
    def test_nine_significant_digits(self):
        from hypermatch import ResultRecord

        rec = ResultRecord(
            "bcagm", 0, 10, 0, 0.123456789123, 1.0, 1.0, 123.456789123456, 3, 0.0, "ok"
        )
        line = records_to_csv([rec]).splitlines()[1]
        assert line == "bcagm,0,10,0,0.123456789,1,1,123.456789,3,0,ok"
        # A failed method's row, as _run_trial records it.
        failed = ResultRecord("hopm", 1, 6, 2, 0.03, 1.5, 0.0, 0.0, 0, 0.0, "error:ValueError")
        line = records_to_csv([failed]).splitlines()[1]
        assert line == "hopm,1,6,2,0.03,1.5,0,0,0,0,error:ValueError"
        # A library caller's numpy scalars format by the declared field type.
        rec = ResultRecord(
            "mpm2", np.int64(2), 10, np.int64(5), np.float32(0.1), 2.0, 0.5, 1e-12, 7, 12.5, "ok"
        )
        line = records_to_csv([rec]).splitlines()[1]
        assert line == "mpm2,2,10,5,0.100000001,2,0.5,1e-12,7,12.5,ok"

    def test_emitted_numbers_roundtrip_at_declared_precision(self):
        spec = ExperimentSpec(
            n_in=6, n_out=(2,), trials=1, methods=("bcagm", "hopm"), deterministic=True,
        )
        rows = records_to_csv(run_grid(spec)).splitlines()[1:]
        for row in rows:
            fields = row.split(",")
            for text in (fields[4], fields[5], fields[6], fields[7], fields[9]):
                assert f"{float(text):.9g}" == text
