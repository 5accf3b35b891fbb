"""Benchmark of hypermatch: points in, matching out, timed end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository.  The workloads are defined in
``perfbench/spec.py`` and the metrics in ``BENCHMARK.json``.  Each run:

* sets up several fresh single-threaded processes (import hypermatch, one
  warm-up matching on a 3-point problem) and reports the median as
  ``setup_s``;
* in a fresh process, generates the workload's instances from ``--seed``,
  times whole rounds of matchings until ``--seconds`` of matching time and
  at least 100 matchings are done, and checks every output;
* with ``--trace 1``, times the first rounds that hold at least 50
  matchings, untraced and then again with every layer wrapped, checks that
  both give the same results digest, and reports per-layer self times and
  counts; the spans go to ``.perfbench/spans-<workload>-seed<seed>.jsonl``.

It prints a readable report, then one JSON line: ``correct``,
``attempted``, ``failed`` and the ``metrics`` that ``BENCHMARK.json`` names
for the chosen trace mode.  It exits with a code other than 0, printing no
JSON line, if the program cannot be imported or a process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.spec import WORKLOADS  # noqa: E402
from perfbench.worker import THREAD_VARS  # noqa: E402

# Fresh set-up processes per run, besides the workload process itself.
SETUP_PROBES = 2
# Every process this script starts must end within this many seconds.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _worker(args: list[str], deadline: float) -> dict:
    """Run one worker process to completion; returns its JSON result."""
    cmd = [sys.executable, "-m", "perfbench.worker", *args]
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[:2]} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[:2]} failed ({proc.returncode}):\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _report(args, result: dict, setups: list[float]) -> None:
    fp = result["fingerprint"]
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print(
        f"machine: nproc={fp['nproc']} cpu_count={fp['cpu_count']} {fp['machine']} "
        f"python={fp['python']} numpy={fp['numpy']} scipy={fp['scipy']}"
    )
    print("threads: " + " ".join(f"{k}={v}" for k, v in fp["threads"].items()))
    print(
        f"samples: {result['samples']} matchings timed in {result['rounds']} round(s) "
        f"of {result['round_size']}; attempted {result['attempted']}, failed {result['failed']}"
    )
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
    print(f"digest: {result['digest']}")
    if "digest_traced" in result:
        print(f"digest.traced: {result['digest_traced']}")
        print(f"spans: {result['spans_file']}")
    for err in result["errors"]:
        print(f"FAILED {err}")
    print("end to end" + (" (untraced rounds)" if "layers" in result else "") + ":")
    for name, (value, unit) in result["e2e"].items():
        print(f"  {name:<32} {_fmt(value):>14} {unit}")
    if "layers" in result:
        print("per layer (traced rounds):")
        for name, (value, unit) in sorted(result["layers"].items()):
            print(f"  {name:<40} {_fmt(value):>14} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument(
        "--smoke", action="store_true",
        help="no floor on rounds or matchings, for the smoke test",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (ROOT / "src" / "hypermatch" / "__init__.py").is_file():
        print(f"perfbench: no hypermatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        bench = json.load(fp)
    wanted = bench["per_layer"] if args.trace == "1" else bench["end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [
            _worker(["setup", args.workload, str(workdir)], deadline)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        result = _worker(
            [
                "run", args.workload, str(workdir), str(args.seed), str(args.seconds),
                args.trace, "1" if args.smoke else "0",
            ],
            deadline,
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    setups.append(result["setup_s"])
    result["e2e"] = {"setup_s": (statistics.median(setups), "s"), **result["e2e"]}
    _report(args, result, setups)

    available = result.get("layers", result["e2e"])
    metrics = {}
    for spec in wanted:
        value, unit = available.get(spec["name"], (None, None))
        if unit != spec["unit"]:
            print(f"perfbench: metric {spec['name']} missing or not in {spec['unit']}",
                  file=sys.stderr)
            return 1
        metrics[spec["name"]] = {"value": value, "unit": unit}
    traced_same = result.get("digest_traced", result["digest"]) == result["digest"]
    correct = result["failed"] == 0 and traced_same
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
