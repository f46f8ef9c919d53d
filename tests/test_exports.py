"""Every name a package lists in ``__all__`` resolves, and none is listed twice."""

import importlib

import pytest


@pytest.mark.parametrize("module_name", ["minieg", "minieg.bench", "minieg.problems"])
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    names = list(module.__all__)
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert [name for name in names if not hasattr(module, name)] == []
