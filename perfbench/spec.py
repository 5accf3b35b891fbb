"""The benchmark's workloads.  Pure data: importing this module loads no
third-party package, so the parent process and the set-up timer stay clean.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

TENSOR_METHODS = ("bcagm", "bcagm_ipfp", "bcagm_mp", "hopm")
SECOND_ORDER_METHODS = ("ipfp2", "mpm2")
ALL_METHODS = TENSOR_METHODS + SECOND_ORDER_METHODS

# Deformation noise of every workload; scale 1 throughout.
SIGMA = 0.03

# The 3-point problem of the untimed warm-up matching.
WARM_UP_P = [[0.0, 0.0], [1.0, 0.2], [0.3, 1.1]]
WARM_UP_Q = [[0.3, 1.1], [0.0, 0.0], [1.0, 0.2]]

# A run times at least this many matchings, so that p90 has ten samples
# beyond it.
MIN_MATCHINGS = 100
# A traced run times the rounds that hold at least this many matchings, once
# untraced and once traced.
TRACE_MATCHINGS = 50


def write_problem(path, P, Q) -> None:
    """Write a ``hypermatch match`` problem file; points are nested lists."""
    doc = {"format_version": 1, "points_p": P, "points_q": Q}
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp)


@dataclass(frozen=True)
class Workload:
    """A closed loop of rounds; a round is one instance of every
    ``(n_in, n_out)`` cell, each solved by every method in ``methods``.

    A run repeats whole rounds, so every run times the same mix.  Each round
    draws fresh instances, unless ``pool`` is set: then round ``r`` takes
    instance ``r % pool`` of every cell, and every pass over the pool after
    the first must reproduce the first pass's outputs exactly, which costs
    far less to check than a fresh output.  ``via_cli`` sends each matching
    through ``hypermatch.cli.main`` instead of the library calls.
    """

    name: str
    cells: tuple[tuple[int, int], ...]
    methods: tuple[str, ...]
    via_cli: bool = False
    pool: int | None = None

    @property
    def round_size(self) -> int:
        return len(self.cells) * len(self.methods)

    def rounds_for(self, matchings: int) -> int:
        """The fewest rounds that hold at least ``matchings`` matchings."""
        return -(-matchings // self.round_size)


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's synthetic protocol; solver-dominated.  ipfp2 and mpm2
        # never touch the tensor layer and are the control for changes to it.
        Workload(
            "outlier-sweep",
            tuple((10, n_out) for n_out in (0, 5, 10, 15, 20)),
            methods=ALL_METHODS,
        ),
        # n2 = 40..50: the brute-force kNN of the tensor build dominates,
        # the contractions matter little.
        Workload(
            "wide-scene",
            ((10, 30), (10, 40)),
            methods=("bcagm", "hopm"),
        ),
        # Tiny problems through the CLI: per-call overhead (validation,
        # allocation, Python drivers, JSON) dominates; covers n1 == 3 and
        # n1 == n2.  A pool of 192 instances keeps the seed's draw from
        # moving p90; cycling through it bounds the checks, which solve every
        # fresh problem again through the library.
        Workload(
            "small-cli",
            tuple((n_in, n_out) for n_in in (3, 4, 5, 6) for n_out in (0, 2, 4)),
            methods=TENSOR_METHODS,
            via_cli=True,
            pool=16,
        ),
    )
}
