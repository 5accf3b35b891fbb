"""Span tracing of hypermatch's layers from outside the package.

Each public function is wrapped at every module attribute where the package
looks it up: ``from .lap import solve_lap_max`` binds the name separately in
``bcagm``, ``qap`` and ``cli``, so wrapping only the defining module would
miss those calls.  Methods are wrapped on their class.  Spans are recorded
only while a matching is open, so the benchmark's own checks do not count.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

from hypermatch import affinity, bcagm, lap, qap, tensor
from hypermatch.bcagm import SolverTrace
from hypermatch.tensor import LiftedOperator, SparseSymmetricTensor3

# Bytes of one stored orbit: three int64 indices and one float64 value.
ORBIT_BYTES = 32


def _orbit_pass(counts, args, kwargs, result):
    counts["tensor.orbit_passes"] += args[0].nnz


def _nnz(counts, args, kwargs, result):
    counts["affinity.nnz"] += result.nnz


def _ipfp_iterations(counts, args, kwargs, result):
    counts["qap.ipfp.iterations"] += result.inner_iterations


def _mpm_iterations(counts, args, kwargs, result):
    counts["qap.mpm.iterations"] += result.iterations


def _guard(counts, args, kwargs, result):
    x0 = args[1] if len(args) > 1 else kwargs["x0"]
    counts["qap.guard.improved"] += result.assignment.cols != x0.cols


def _block_ascent(counts, args, kwargs, result):
    counts["bcagm.outer_iterations"] += result.outer_iterations
    counts["bcagm.stages"] += len(result.trace.stage_scores)
    counts["bcagm.merges"] += len(result.trace.u_scores3) - 1


def _hopm(counts, args, kwargs, result):
    counts["bcagm.hopm_iterations"] += result.outer_iterations


# (module, attribute, span name, counter)
FUNCTIONS = (
    (affinity, "build_tensor", "affinity.build_tensor", _nnz),
    (affinity, "build_matrix2", "affinity.build_matrix2", None),
    (tensor, "alpha_bound", "tensor.alpha_bound", None),
    (lap, "solve_lap_max", "lap.solve_lap_max", None),
    (qap, "psi_with_guard", "qap.psi_with_guard", _guard),
    (qap, "ipfp", "qap.ipfp", _ipfp_iterations),
    (qap, "mpm", "qap.mpm", _mpm_iterations),
    (bcagm, "bcagm_solve", "bcagm.bcagm_solve", _block_ascent),
    (bcagm, "bcagm_psi_solve", "bcagm.bcagm_psi_solve", _block_ascent),
    (bcagm, "hopm_baseline", "bcagm.hopm_baseline", _hopm),
)

# (class, attribute, span name, counter)
METHODS = (
    (SparseSymmetricTensor3, "__init__", "tensor.ctor", None),
    (SparseSymmetricTensor3, "contract_vec", "tensor.contract_vec", _orbit_pass),
    (SparseSymmetricTensor3, "trilinear", "tensor.trilinear", _orbit_pass),
    (SparseSymmetricTensor3, "contract_mat", "tensor.contract_mat", _orbit_pass),
    (SparseSymmetricTensor3, "score", "tensor.score", _orbit_pass),
    (LiftedOperator, "contract_vec", "tensor.lifted_contract_vec", None),
    (LiftedOperator, "contract_mat", "tensor.lifted_contract_mat", None),
    (LiftedOperator, "score", "tensor.lifted_score", None),
    (SolverTrace, "verify", "bcagm.trace_verify", None),
)

CLI_MAIN = "cli.main"
SPAN_NAMES = tuple(f[2] for f in FUNCTIONS) + tuple(m[2] for m in METHODS) + (CLI_MAIN,)


class Tracer:
    """Keeps spans ``[name, start, end, parent, matching]`` in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.matching: int | None = None
        self._stack: list[int] = []

    def wrap(self, name, fn, counter=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.matching is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.matching]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function and method in the loaded hypermatch modules."""
        targets = [(getattr(mod, attr), name, counter) for mod, attr, name, counter in FUNCTIONS]
        cli = sys.modules.get("hypermatch.cli")
        if cli is not None:
            targets.append((cli.main, CLI_MAIN, None))
        wrappers = {id(fn): (fn, self.wrap(name, fn, counter)) for fn, name, counter in targets}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "hypermatch" and not mod_name.startswith("hypermatch."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
        for cls, attr, name, counter in METHODS:
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), counter))

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Self time and calls of every span name, plus the counters."""
        child_ms = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        self_ms = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            self_ms[name] += (end - start) * 1e3 - child_ms[sid]
            calls[name] += 1
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.self_ms"] = (self_ms[name], "ms")
            out[f"{name}.calls"] = (calls[name], "count")
        c = self.counts
        for key in (
            "affinity.nnz",
            "tensor.orbit_passes",
            "qap.ipfp.iterations",
            "qap.mpm.iterations",
            "bcagm.outer_iterations",
            "bcagm.stages",
            "bcagm.merges",
            "bcagm.hopm_iterations",
        ):
            out[key] = (c[key], "count")
        out["tensor.orbit_bytes_computed"] = (c["tensor.orbit_passes"] * ORBIT_BYTES, "B")
        guard_calls = calls["qap.psi_with_guard"]
        out["qap.guard.improved_ratio"] = (
            c["qap.guard.improved"] / guard_calls if guard_calls else 0.0,
            "fraction",
        )
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fp:
            for sid, (name, start, end, parent, matching) in enumerate(self.spans):
                fp.write(
                    json.dumps(
                        {
                            "id": sid,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "matching": matching,
                        }
                    )
                    + "\n"
                )
