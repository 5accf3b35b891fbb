"""Synthetic matching instances, generated by the benchmark itself.

The protocol is the paper's: a standard-normal template, a scene that is the
template plus Gaussian noise of deviation ``sigma``, with standard-normal
outliers appended, the whole scene multiplied by ``scale`` and randomly
permuted.  It is reimplemented here rather than taken from
``hypermatch.gen_instance`` so that a change to the package's generator
cannot change the workloads.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Instance:
    """``gt[i]`` is the scene position of template point ``i``."""

    key: str
    P: np.ndarray
    Q: np.ndarray
    gt: np.ndarray


def make_instance(
    seed: int, workload: str, n_in: int, n_out: int, k: int, sigma: float, scale: float = 1.0
) -> Instance:
    """The ``k``-th instance of one ``(n_in, n_out)`` cell of a workload.

    Every instance has its own stream, derived from the run seed, the
    workload name and the instance's coordinates, so instances do not depend
    on generation order.
    """
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode()), n_in, n_out, k])
    P = rng.standard_normal((n_in, 2))
    inliers = P + sigma * rng.standard_normal((n_in, 2))
    outliers = rng.standard_normal((n_out, 2))
    Q = np.concatenate([inliers, outliers], axis=0) * scale
    perm = rng.permutation(n_in + n_out)
    return Instance(f"{n_in}/{n_out}/{k}", P, Q[perm], np.argsort(perm)[:n_in])
