"""The public names: every entry of each ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import hypermatch

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
