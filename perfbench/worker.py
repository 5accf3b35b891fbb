"""The benchmark's workload process: set up, then time one workload.

    python -m perfbench.worker setup WORKLOAD WORKDIR
    python -m perfbench.worker run WORKLOAD WORKDIR SEED SECONDS TRACE SMOKE

``run.py`` starts it in a fresh single-threaded process with the checkout's
``src`` on the path.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from perfbench.spec import (
    MIN_MATCHINGS,
    TRACE_MATCHINGS,
    SIGMA,
    WARM_UP_P,
    WARM_UP_Q,
    WORKLOADS,
    Workload,
    write_problem,
)

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def set_up(workload: Workload, workdir: Path) -> float:
    """Seconds to import hypermatch and finish one warm-up matching."""
    problem, result = str(workdir / "warm-up.json"), str(workdir / "warm-up.out.json")
    write_problem(problem, WARM_UP_P, WARM_UP_Q)
    started = time.perf_counter()
    import hypermatch

    if workload.via_cli:
        import hypermatch.cli  # noqa: F401
    from perfbench import matching

    if workload.via_cli:
        code = matching.match_cli("bcagm", problem, result)
        if code != 0:
            raise RuntimeError(f"warm-up matching exited with code {code}")
    else:
        matching.match_api("bcagm", WARM_UP_P, WARM_UP_Q)
    elapsed = time.perf_counter() - started
    src = ROOT / "src"
    if src not in Path(hypermatch.__file__).resolve().parents:
        raise RuntimeError(f"hypermatch was imported from {hypermatch.__file__}, not {src}")
    return elapsed


def fingerprint() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


class Round:
    """The outcome of one pass over every matching of a round."""

    def __init__(self):
        self.seconds: list[float | None] = []  # per matching; None if it failed
        self.rows: list[tuple] = []  # (instance, method, assignment, score)
        self.errors: list[str] = []
        self.accuracy: list[float] = []

    @property
    def timed_s(self) -> float:
        return sum(s for s in self.seconds if s is not None)


def prepare_round(workload: Workload, seed: int, k: int, workdir: Path):
    """Instance ``k`` of every cell, and for a CLI workload their problem
    files followed by the result file."""
    from perfbench.instances import make_instance

    insts = [
        make_instance(seed, workload.name, n_in, n_out, k, SIGMA)
        for n_in, n_out in workload.cells
    ]
    files = []
    if workload.via_cli:
        for i, inst in enumerate(insts):
            files.append(str(workdir / f"problem-{i}.json"))
            write_problem(files[-1], inst.P.tolist(), inst.Q.tolist())
        files.append(str(workdir / "result.json"))
    return insts, files


def run_round(workload, insts, files, reference=None, tracer=None) -> Round:
    """Time every method on every instance of a round once.

    Without ``reference`` every output gets every check; with it, each
    output must equal the reference rows exactly.  The clock covers the
    matching only, never the checks.
    """
    from perfbench import matching

    out = Round()
    clock = time.perf_counter
    plan = [(i, method) for i in range(len(insts)) for method in workload.methods]
    for mid, (i, method) in enumerate(plan):
        inst = insts[i]
        key = matching.instance_key(inst)
        if tracer is not None:
            tracer.matching = mid
        try:
            started = clock()
            if workload.via_cli:
                output = matching.match_cli(method, files[i], files[-1])
            else:
                output = matching.match_api(method, inst.P, inst.Q)
            elapsed = clock() - started
        except Exception as exc:  # noqa: BLE001 - a failed matching is counted, not dropped
            out.errors.append(f"{key} {method}: {type(exc).__name__}: {exc}")
            out.seconds.append(None)
            out.rows.append((key, method, (), "failed"))
            out.accuracy.append(0.0)
            continue
        finally:
            if tracer is not None:
                tracer.matching = None
        try:
            if workload.via_cli:
                cols, score = matching.observe_cli(output, files[-1])
            else:
                cols, score = matching.observe_api(method, output)
            if reference is None:
                if workload.via_cli:
                    matching.check_cli(method, inst.P, inst.Q, files[-1])
                else:
                    matching.check_api(method, inst.P, inst.Q, output)
            elif (key, method, cols, score) != reference[len(out.rows)]:
                raise matching.CheckFailed("output differs from the earlier run's")
        except Exception as exc:  # noqa: BLE001 - a failed check is counted, not dropped
            out.errors.append(f"{key} {method}: {type(exc).__name__}: {exc}")
            out.seconds.append(None)
            out.rows.append((key, method, (), "failed"))
            out.accuracy.append(0.0)
            continue
        out.rows.append((key, method, cols, score))
        out.seconds.append(elapsed)
        out.accuracy.append(sum(c == g for c, g in zip(cols, inst.gt)) / len(inst.gt))
    return out


def _p(sorted_values, q):
    """Nearest-rank percentile: ``p90`` of 100 values has 10 above it."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def e2e_metrics(workload: Workload, rounds: list[Round], accuracy_rounds: int) -> dict:
    """End-to-end metrics over every completed matching of every round.

    Accuracy is taken over the first ``accuracy_rounds`` rounds, which every
    run completes, so it depends on the seed alone.
    """
    timed = [
        (row[1], sec * 1e3)
        for r in rounds
        for row, sec in zip(r.rows, r.seconds)
        if sec is not None
    ]
    all_ms = sorted(ms for _, ms in timed)
    metrics = {}
    if all_ms:
        metrics["match_ms.p50"] = (_p(all_ms, 50), "ms")
        metrics["match_ms.p90"] = (_p(all_ms, 90), "ms")
        metrics["matchings_per_s"] = (len(all_ms) / (sum(all_ms) / 1e3), "1/s")
    # Per method, the mean is the steadier figure: hopm's iteration count
    # varies widely between instances, so its median jumps with the draw.
    for method in workload.methods:
        ms = sorted(v for m, v in timed if m == method)
        if ms:
            metrics[f"match_ms.{method}.p50"] = (_p(ms, 50), "ms")
            metrics[f"match_ms.{method}.mean"] = (sum(ms) / len(ms), "ms")
    scored = [a for r in rounds[:accuracy_rounds] for a in r.accuracy]
    metrics["accuracy.mean"] = (sum(scored) / len(scored), "fraction")
    attempted = sum(len(r.rows) for r in rounds)
    failed = sum(len(r.errors) for r in rounds)
    metrics["failed_frac"] = (failed / attempted, "fraction")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def run(workload: Workload, workdir: Path, seed: int, seconds: float, trace: bool, smoke: bool):
    """Time rounds until ``seconds`` of matching time and ``MIN_MATCHINGS``
    matchings are done, and a whole pass over the pool if there is one;
    traced, time the first rounds that hold ``TRACE_MATCHINGS`` matchings
    untraced and then again traced.

    The digest covers those first rounds, so it is the same in both modes.
    """
    setup_s = set_up(workload, workdir)
    from perfbench import matching

    digest_rounds = 1 if smoke else workload.rounds_for(TRACE_MATCHINGS)
    min_rounds = 1 if smoke else max(workload.rounds_for(MIN_MATCHINGS), workload.pool or 0)
    result = {"setup_s": setup_s, "fingerprint": fingerprint(), "round_size": workload.round_size}

    def instance_index(r: int) -> int:
        return r if workload.pool is None else r % workload.pool

    def more() -> bool:
        if trace:
            return len(rounds) < digest_rounds
        return len(rounds) < min_rounds or sum(r.timed_s for r in rounds) < seconds

    rounds = []
    while more():
        k = instance_index(len(rounds))
        insts, files = prepare_round(workload, seed, k, workdir)
        reference = rounds[k].rows if k < len(rounds) else None
        rounds.append(run_round(workload, insts, files, reference))
    result["digest"] = matching.digest([row for r in rounds[:digest_rounds] for row in r.rows])

    counted = rounds
    if trace:
        from perfbench.tracing import Tracer

        tracer = Tracer()
        tracer.install()
        traced = []
        for r, untraced in enumerate(rounds):
            insts, files = prepare_round(workload, seed, instance_index(r), workdir)
            traced.append(run_round(workload, insts, files, untraced.rows, tracer))
        spans = ROOT / ".perfbench" / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.write(spans)
        layers = tracer.layer_metrics()
        layers["trace.overhead_ratio"] = (
            sum(r.timed_s for r in traced) / sum(r.timed_s for r in rounds),
            "ratio",
        )
        result.update(
            layers=layers,
            digest_traced=matching.digest([row for r in traced for row in r.rows]),
            spans_file=str(spans.relative_to(ROOT)),
        )
        counted = rounds + traced
    result.update(
        e2e=e2e_metrics(workload, rounds, min(min_rounds, len(rounds))),
        rounds=len(rounds),
        samples=sum(s is not None for r in rounds for s in r.seconds),
        attempted=sum(len(r.rows) for r in counted),
        failed=sum(len(r.errors) for r in counted),
        errors=[e for r in counted for e in r.errors][:10],
    )
    return result


def main(argv) -> int:
    command, name, workdir = argv[0], argv[1], Path(argv[2])
    workload = WORKLOADS[name]
    if command == "setup":
        result = {"setup_s": set_up(workload, workdir)}
    else:
        seed, seconds, trace, smoke = int(argv[3]), float(argv[4]), argv[5] == "1", argv[6] == "1"
        result = run(workload, workdir, seed, seconds, trace, smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
