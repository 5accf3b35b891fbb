"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  The heavier criteria share a module-scoped benchmark run.
"""

import itertools
import json
import time

import numpy as np
import pytest

import oracles
from hypermatch import (
    ExperimentSpec,
    LiftedOperator,
    MatchingShape,
    bcagm_solve,
    f4_norm_exact,
    prepare_case,
    psi_with_guard,
    qap_objective,
    run_grid,
    run_method,
    solve_lap_max,
)
from hypermatch.bcagm import TENSOR_METHODS
from hypermatch.cli import main as cli_main


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed {suffix}"


# The paper's block-ascent methods: every registry entry but the hopm baseline.
ASCENT_METHODS = tuple(name for name, fields in TENSOR_METHODS.items() if fields is not None)


def test_criterion_01_monotonic_ascent():
    rng = np.random.default_rng(101)
    shape = MatchingShape(5, 8)
    tol = 1e-12
    failures = []
    started = time.perf_counter()
    for instance in range(100):
        tensor = oracles.random_tensor(rng, shape, 50)
        for name in ASCENT_METHODS:
            sol = run_method(name, tensor)
            u = sol.trace.u_scores3
            strict = all(b - a > -tol * (1.0 + abs(a)) and b > a for a, b in zip(u, u[1:]))
            if not strict:
                failures.append(f"instance {instance} {name}: {u}")
            if sol.trace.terminated != "stalled":
                failures.append(f"instance {instance} {name}: {sol.trace.terminated}")
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _report(1, "monotonic ascent", not failures, f"{elapsed:.1f}s, 300 traces" if not failures else "; ".join(failures[:3]))


def test_criterion_02_lifting_identity():
    rng = np.random.default_rng(102)
    shape = MatchingShape(3, 4)
    bad = 0
    for _ in range(1000):
        tensor = oracles.random_tensor(rng, shape, 15)
        x = oracles.random_matching(rng, shape).indicator()
        s4 = LiftedOperator(tensor, 0.0).score(x)
        if abs(s4 - 4.0 * shape.n1 * tensor.score(x)) > 1e-10 * (1.0 + abs(s4)):
            bad += 1
    _report(2, "lifting identity", bad == 0, f"{bad}/1000 violations" if bad else "1000 pairs")


def test_criterion_03_convexification():
    rng = np.random.default_rng(103)
    shape = MatchingShape(3, 4)  # n = 12
    failures = []
    for tensor_index in range(20):
        tensor = oracles.random_tensor(rng, shape, 20)
        alpha = 3.0 * f4_norm_exact(tensor)
        op = LiftedOperator(tensor, alpha)
        op0 = LiftedOperator(tensor, 0.0)
        for _ in range(10):
            x = rng.standard_normal(shape.n)
            eigs = np.linalg.eigvalsh(12.0 * op.contract_mat(x, x))
            if eigs[0] < -1e-8 * (1.0 + eigs[-1]):
                failures.append(f"tensor {tensor_index}: min eig {eigs[0]:.3e}")
        m = oracles.random_matching(rng, shape).indicator()
        shift = op.score(m) - op0.score(m)
        expected = alpha * shape.n1**2
        if abs(shift - expected) > 1e-10 * (1.0 + abs(expected)):
            failures.append(f"tensor {tensor_index}: shift {shift} != {expected}")
    _report(3, "convexification", not failures, "; ".join(failures[:3]) if failures else "200 Hessians PSD, constant shift exact")


def test_criterion_04_tiny_scale_equivalence():
    rng = np.random.default_rng(104)
    shape = MatchingShape(3, 3)
    matchings = [oracles.indicator(shape, cols) for cols in oracles.all_assignments(shape)]
    assert len(matchings) == 6
    failures = []
    for tensor_index in range(20):
        tensor = oracles.random_tensor(rng, shape, 12)
        op = LiftedOperator(tensor, 3.0 * f4_norm_exact(tensor))
        best_diag = max(op.score(x) for x in matchings)
        best_free = max(
            op.form(x, y, z, t)
            for x, y, z, t in itertools.product(matchings, repeat=4)
        )
        if abs(best_diag - best_free) > 1e-10 * (1.0 + abs(best_diag)):
            failures.append(f"tensor {tensor_index}: {best_diag} vs {best_free}")
    _report(4, "tiny-scale equivalence", not failures, "; ".join(failures[:3]) if failures else "20 tensors, 6 vs 1296 evaluations")


def test_criterion_05_block_bound_inequalities():
    rng = np.random.default_rng(105)
    shape = MatchingShape(3, 3)
    failures = 0
    for _ in range(3):
        tensor = oracles.random_tensor(rng, shape, 12)
        op = LiftedOperator(tensor, 3.0 * f4_norm_exact(tensor))
        for _ in range(1000):
            x, y, z, t = rng.standard_normal((4, shape.n))
            scores = [op.score(v) for v in (x, y, z, t)]
            pair = op.form(x, x, y, y)
            bound = max(scores[0], scores[1])
            if bound - pair < -1e-9 * (1.0 + max(abs(pair), abs(bound))):
                failures += 1
            quad = op.form(x, y, z, t)
            bound = max(scores)
            if bound - quad < -1e-9 * (1.0 + max(abs(quad), abs(bound))):
                failures += 1
    _report(5, "block bound inequalities", failures == 0, f"{failures} violations" if failures else "3 tensors x 1000 quadruples x 2 forms")


def test_criterion_06_lap_optimality():
    rng = np.random.default_rng(106)
    perms = np.array(list(itertools.permutations(range(7), 5)))
    rows = np.arange(5)
    bad = 0
    for _ in range(200):
        profit = rng.standard_normal((5, 7))
        got = solve_lap_max(profit)
        got_obj = float(profit[rows, np.array(got.cols)].sum())
        best_obj = float(profit[rows, perms].sum(axis=1).max())
        if got_obj != best_obj:
            bad += 1
    _report(6, "lap optimality", bad == 0, f"{bad}/200 suboptimal" if bad else "200 instances, exact equality")


def test_criterion_07_psi_contract():
    rng = np.random.default_rng(107)
    shape = MatchingShape(4, 4)  # n = 16, brute force has 24 matchings
    failures = 0
    for i in range(200):
        A = rng.uniform(0.0, 1.0, size=(shape.n, shape.n))
        A = (A + A.T) / 2.0
        np.fill_diagonal(A, 0.0)
        x0 = oracles.random_matching(rng, shape)
        incumbent = qap_objective(A, x0)
        best_obj, _ = oracles.qap_brute(A, shape)
        method = ("ipfp", "mpm")[i % 2]
        res = psi_with_guard(A, x0, method)
        if not (res.objective >= incumbent and res.objective <= best_obj + 1e-12):
            failures += 1
    _report(7, "psi ascent contract", failures == 0, f"{failures}/200 violations" if failures else "200 instances, both subroutines")


def test_criterion_08_implicit_lift_correctness():
    rng = np.random.default_rng(108)
    failures = 0
    shapes = [MatchingShape(2, 4), MatchingShape(3, 4), MatchingShape(2, 5), MatchingShape(3, 3), MatchingShape(2, 3)]
    for i in range(50):
        shape = shapes[i % len(shapes)]
        tensor = oracles.random_tensor(rng, shape, 15)
        alpha = float(rng.uniform(0.0, 2.0))
        op = LiftedOperator(tensor, alpha)
        f4 = oracles.lift_dense(oracles.dense_from_tensor(tensor))
        f4 = f4 + alpha * oracles.g4_dense(shape.n)
        x, y, z, t = rng.standard_normal((4, shape.n))
        ok = abs(op.form(x, y, z, t) - oracles.form4(f4, x, y, z, t)) <= 1e-10 * (
            1.0 + abs(op.form(x, y, z, t))
        )
        vec = op.contract_vec(x, y, z)
        ref_vec = np.einsum("ijkl,i,j,k->l", f4, x, y, z)
        ok &= bool(np.all(np.abs(vec - ref_vec) <= 1e-10 * (1.0 + np.abs(ref_vec))))
        mat = op.contract_mat(x, y)
        ref_mat = np.einsum("ijkl,i,j->kl", f4, x, y)
        ok &= bool(np.all(np.abs(mat - ref_mat) <= 1e-10 * (1.0 + np.abs(ref_mat))))
        if not ok:
            failures += 1
    _report(8, "implicit lift correctness", failures == 0, f"{failures}/50 mismatches" if failures else "50 tensors vs dense expansion")


GRID_SPEC = ExperimentSpec(
    n_in=10,
    n_out=(0, 10, 20),
    sigma=0.0,
    scale=1.0,
    trials=20,
    seed_base=2024,
    methods=tuple(TENSOR_METHODS),
    deterministic=True,
)


@pytest.fixture(scope="module")
def synthetic_grid():
    started = time.perf_counter()
    records = run_grid(GRID_SPEC)
    return records, time.perf_counter() - started


def _mean(records, method, n_out, field):
    values = [getattr(r, field) for r in records if r.method == method and r.n_out == n_out]
    assert len(values) == GRID_SPEC.trials
    return float(np.mean(values))


def test_criterion_09_synthetic_protocol(synthetic_grid):
    records, elapsed = synthetic_grid
    failures = []

    # brute-force confirmation of the perfect-recovery premise at tiny scale
    for n_in in (5, 6):
        small = ExperimentSpec(n_in=n_in, n_out=(0,), sigma=0.0, scale=1.0, trials=3,
                               seed_base=555, deterministic=True)
        for trial in range(small.trials):
            case = prepare_case(small, 0, trial)
            best_obj, best_cols = oracles.matching_brute(case.tensor)
            if not np.array_equal(np.array(best_cols), case.gt):
                failures.append(f"brute optimum not ground truth at n_in={n_in} trial {trial}")
            sol = bcagm_solve(case.tensor)
            if abs(sol.score3 - best_obj) > 1e-9 * (1.0 + abs(best_obj)):
                failures.append(f"bcagm missed brute optimum at n_in={n_in} trial {trial}")

    if any(r.status != "ok" for r in records):
        failures.append("error rows present")
    for method in ASCENT_METHODS:
        acc = _mean(records, method, 0, "accuracy")
        if acc < 0.95:
            failures.append(f"{method} accuracy at 0 outliers: {acc:.3f} < 0.95")
    for n_out in GRID_SPEC.n_out:
        hopm_score = _mean(records, "hopm", n_out, "score3")
        for method in ASCENT_METHODS:
            score = _mean(records, method, n_out, "score3")
            if score < hopm_score - 1e-9:
                failures.append(
                    f"{method} mean score {score:.2f} < hopm {hopm_score:.2f} at n_out={n_out}"
                )
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.0f}s >= 300s")
    _report(9, "synthetic protocol rerun", not failures,
            "; ".join(failures[:4]) if failures else f"{elapsed:.0f}s, 240 records")


NOISY_SPEC = ExperimentSpec(
    n_in=10,
    n_out=(10,),
    sigma=0.03,
    trials=GRID_SPEC.trials,  # as _mean expects
    seed_base=2024,
    methods=tuple(TENSOR_METHODS),
    deterministic=True,
)


def test_criterion_12_noisy_cell():
    # Criterion 09 draws at sigma 0; with noise hopm falls behind, so the
    # paper's claim over hopm is checked where the methods differ.
    records = run_grid(NOISY_SPEC)
    failures = []
    if any(r.status != "ok" for r in records):
        failures.append("error rows present")
    n_out = NOISY_SPEC.n_out[0]
    hopm_score, hopm_acc = (_mean(records, "hopm", n_out, f) for f in ("score3", "accuracy"))
    for method in ASCENT_METHODS:
        score, acc = (_mean(records, method, n_out, f) for f in ("score3", "accuracy"))
        if score <= hopm_score:
            failures.append(f"{method} mean score {score:.1f} <= hopm {hopm_score:.1f}")
        if acc < hopm_acc:
            failures.append(f"{method} mean accuracy {acc:.3f} < hopm {hopm_acc:.3f}")
    _report(12, "noisy cell", not failures,
            "; ".join(failures[:4]) if failures else f"hopm {hopm_score:.1f}, {hopm_acc:.3f}")


def test_criterion_10_scale_invariance():
    base = ExperimentSpec(
        n_in=10, n_out=(10,), sigma=0.03, scale=1.0, trials=20,
        seed_base=2024, methods=("bcagm",), deterministic=True,
    )
    scaled = ExperimentSpec(
        n_in=10, n_out=(10,), sigma=0.03, scale=1.5, trials=20,
        seed_base=2024, methods=("bcagm",), deterministic=True,
    )
    failures = []
    worst = 0.0
    for trial in range(base.trials):
        t1 = prepare_case(base, 10, trial).tensor
        t2 = prepare_case(scaled, 10, trial).tensor
        m1 = {tuple(r): v for r, v in zip(t1.idx.tolist(), t1.val.tolist())}
        m2 = {tuple(r): v for r, v in zip(t2.idx.tolist(), t2.val.tolist())}
        for key in m1.keys() | m2.keys():
            delta = abs(m1.get(key, 0.0) - m2.get(key, 0.0))
            worst = max(worst, delta)
            if delta > 1e-9:
                failures.append(f"trial {trial}: orbit {key} changed by {delta:.2e}")
                break
    acc1 = float(np.mean([r.accuracy for r in run_grid(base)]))
    acc2 = float(np.mean([r.accuracy for r in run_grid(scaled)]))
    if abs(acc1 - acc2) > 0.15:
        failures.append(f"mean accuracy gap {abs(acc1 - acc2):.3f} > 0.15")
    _report(10, "scale invariance", not failures,
            "; ".join(failures[:3]) if failures else f"max orbit delta {worst:.1e}, acc {acc1:.2f} vs {acc2:.2f}")


def test_criterion_11_cli_determinism(tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "format_version": 1,
        "points_p": [[0.0, 0.0], [1.0, 0.2], [0.3, 1.1], [-0.8, 0.6], [0.4, -0.7]],
        "points_q": [[0.3, 1.1], [0.0, 0.0], [0.4, -0.7], [1.0, 0.2], [-0.8, 0.6]],
    }))
    failures = []
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"result_{tag}.json"
        code = cli_main(["match", str(problem), "--output", str(out)])
        if code != 0:
            failures.append(f"match exit {code}")
        outs.append(out.read_bytes())
    if outs[0] != outs[1]:
        failures.append("result files differ")
    csvs = []
    for tag in ("a", "b"):
        out = tmp_path / f"grid_{tag}.csv"
        code = cli_main([
            "synth", "--n-in", "8", "--n-out", "0:6:3", "--trials", "2",
            "--methods", "bcagm,hopm", "--seed", "7", "--deterministic",
            "--output", str(out),
        ])
        if code != 0:
            failures.append(f"synth exit {code}")
        csvs.append(out.read_bytes())
    if csvs[0] != csvs[1]:
        failures.append("CSV files differ")
    _report(11, "cli determinism", not failures,
            "; ".join(failures) if failures else "byte-identical result and CSV files")
