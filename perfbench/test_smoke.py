"""Smoke test of the benchmark, on one-second runs.

Every metric ``BENCHMARK.json`` names is printed with its unit on every
workload, and the traced run reproduces the untraced results digest.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.spec import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace), "--smoke",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_metrics_printed_and_digests_agree(workload):
    digests = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_bench(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCH[section]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
            if section == "end_to_end":
                assert m["value"] > 0, name
        for line in lines:
            if line.startswith("digest"):
                name, value = line.split(": ")
                digests[trace, name] = value
    assert digests[0, "digest"] == digests[1, "digest"] == digests[1, "digest.traced"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = run_bench(tmp_path, "small-cli", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
