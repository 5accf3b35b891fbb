"""The public names: every entry of each ``__all__`` resolves, and the
public types and functions refuse a bad setting by name."""

import importlib
import pkgutil

import numpy as np
import pytest

import hypermatch
from hypermatch import (
    AssignmentVector,
    ExperimentSpec,
    LiftedOperator,
    MatchingShape,
    SamplingConfig,
    SparseSymmetricTensor3,
    accuracy,
    gen_instance,
    run_method,
    trial_seed,
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
SHAPE23 = MatchingShape(2, 3)


@pytest.mark.parametrize(
    "make, field",
    [
        pytest.param(lambda: SamplingConfig(knn=2.5), "knn", id="fractional-knn"),
        pytest.param(lambda: SamplingConfig(seed=True), "seed", id="bool-seed"),
        pytest.param(lambda: SamplingConfig(seed=1.5), "seed", id="fractional-seed"),
        pytest.param(lambda: SamplingConfig(gamma=True), "gamma", id="bool-gamma"),
        pytest.param(lambda: SamplingConfig(gamma="1"), "gamma", id="string-gamma"),
        pytest.param(lambda: SamplingConfig(gamma=10**400), "gamma", id="huge-int-gamma"),
        pytest.param(lambda: ExperimentSpec(n_in=4.5), "n_in", id="fractional-n_in"),
        pytest.param(lambda: ExperimentSpec(n_in=4, trials=2.5), "trials", id="fractional-trials"),
        pytest.param(lambda: run_method("nope", T3), "method", id="unknown-method"),
        pytest.param(lambda: MatchingShape(True, 3), "n1", id="bool-n1"),
        pytest.param(lambda: MatchingShape(2.5, 3), "n1", id="fractional-n1"),
        pytest.param(lambda: LiftedOperator(T3, True), "alpha", id="bool-alpha"),
        pytest.param(lambda: LiftedOperator(T3, "1.5"), "alpha", id="string-alpha"),
        pytest.param(lambda: LiftedOperator(T3, 10**400), "alpha", id="huge-int-alpha"),
        pytest.param(
            lambda: AssignmentVector(SHAPE23, (0.7, 1.2)), "cols", id="fractional-cols"
        ),
        pytest.param(lambda: AssignmentVector(SHAPE23, ("1", 2)), "cols", id="string-cols"),
        pytest.param(
            lambda: accuracy(AssignmentVector(SHAPE23, (0, 1)), [0.5, 1.7]),
            "ground truth",
            id="fractional-ground-truth",
        ),
        pytest.param(
            lambda: gen_instance(5, 0, 0.0, 1.0, seed=1.5), "seed", id="fractional-instance-seed"
        ),
        pytest.param(
            lambda: gen_instance(5, 0, 0.0, 1.0, seed=True), "seed", id="bool-instance-seed"
        ),
        pytest.param(lambda: trial_seed(1.5, 0, 0), "seed_base", id="fractional-trial-seed"),
        pytest.param(lambda: ExperimentSpec(n_in=4, n_out=()), "n_out", id="empty-n_out"),
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
        pytest.param(lambda: type(MatchingShape(np.int64(2), 3).n1) is int, None, id="numpy-n1"),
        pytest.param(
            lambda: AssignmentVector(SHAPE23, np.array([1, 2])).cols == (1, 2),
            None,
            id="numpy-cols",
        ),
        pytest.param(
            lambda: LiftedOperator(T3, np.float32(2)).alpha == 2.0, None, id="float32-alpha"
        ),
        pytest.param(
            lambda: SamplingConfig(gamma=np.float32(2.0)).gamma == 2.0, None, id="float32-gamma"
        ),
        pytest.param(
            lambda: ExperimentSpec(n_in=4, sigma=np.float32(0.03)).sigma > 0,
            None,
            id="float32-sigma",
        ),
    ],
)
@pytest.mark.filterwarnings("error")  # a NumPy float of any width is accepted without a warning
def test_each_setting_is_checked_by_its_owner(make, field):
    # Every public type and function refuses a bad setting at once, with a
    # ValueError that names it, rather than truncating it or failing later
    # inside a build or solve.
    if field is None:
        assert make()
        return
    with pytest.raises(ValueError, match=rf"\b{field}\b"):
        make()
