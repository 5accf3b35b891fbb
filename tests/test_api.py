"""The public names: every entry of each ``__all__`` resolves, and the
config types and ``run_method`` refuse a bad setting by name."""

import importlib
import pkgutil

import numpy as np
import pytest

import hypermatch
from hypermatch import (
    AffinityParams,
    ExperimentSpec,
    MatchingShape,
    SamplingConfig,
    SparseSymmetricTensor3,
    run_method,
)

MODULES = ["hypermatch"] + [
    f"hypermatch.{info.name}"
    for info in pkgutil.iter_modules(hypermatch.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


T3 = SparseSymmetricTensor3(MatchingShape(3, 3))


@pytest.mark.parametrize(
    "make, field",
    [
        pytest.param(lambda: SamplingConfig(knn=2.5), "knn", id="fractional-knn"),
        pytest.param(lambda: SamplingConfig(seed=True), "seed", id="bool-seed"),
        pytest.param(lambda: AffinityParams(gamma=True), "gamma", id="bool-gamma"),
        pytest.param(lambda: AffinityParams(gamma="1"), "gamma", id="string-gamma"),
        pytest.param(lambda: AffinityParams(gamma=10**400), "gamma", id="huge-int-gamma"),
        pytest.param(lambda: ExperimentSpec(n_in=4.5), "n_in", id="fractional-n_in"),
        pytest.param(lambda: ExperimentSpec(n_in=4, trials=2.5), "trials", id="fractional-trials"),
        pytest.param(
            lambda: ExperimentSpec(n_in=4, seed_base=1.5), "seed_base", id="fractional-seed_base"
        ),
        pytest.param(
            lambda: ExperimentSpec(n_in=4, alpha_schedule="nope"),
            "alpha_schedule",
            id="spec-unknown-schedule",
        ),
        pytest.param(lambda: run_method("nope", T3), "method", id="unknown-method"),
        pytest.param(
            lambda: run_method("hopm", T3, "nope"), "alpha_schedule", id="hopm-unknown-schedule"
        ),
        # Accepted: the check returns True.
        pytest.param(lambda: SamplingConfig(knn=np.int64(5)).knn == 5, None, id="numpy-knn"),
        pytest.param(
            lambda: ExperimentSpec(n_in=4, n_out=np.int64(3)).n_out == (3,),
            None,
            id="numpy-n_out",
        ),
        pytest.param(
            lambda: ExperimentSpec(n_in=4, scale=1e308).scale == 1e308, None, id="huge-scale"
        ),
    ],
)
def test_each_setting_is_checked_by_its_owner(make, field):
    # Every config type and run_method refuse a bad setting at once, with a
    # ValueError that names it, rather than failing later inside a build or solve.
    if field is None:
        assert make()
        return
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        make()
