"""Every name a module or package lists in ``__all__`` resolves, and none is listed twice.

A public name is declared once, in the ``__all__`` of the module that defines
it; each package re-exports the ``__all__`` of the modules it names below.
"""

import importlib
import pkgutil

import pytest

import minieg

REEXPORTS = {
    "minieg": ["minieg.core", "minieg.solvers"],
    "minieg.bench": ["minieg.bench.export", "minieg.bench.runner"],
    "minieg.problems": [
        "minieg.problems.affine",
        "minieg.problems.lasso",
        "minieg.problems.libsvm",
        "minieg.problems.logreg",
        "minieg.problems.spectral",
    ],
}
MODULES = [
    info.name
    for info in pkgutil.walk_packages(minieg.__path__, "minieg.")
    if not info.ispkg and hasattr(importlib.import_module(info.name), "__all__")
]


@pytest.mark.parametrize("module_name", sorted(REEXPORTS) + MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    names = list(module.__all__)
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    assert [name for name in names if not hasattr(module, name)] == []


def test_every_module_but_the_cli_is_re_exported_by_its_package():
    re_exported = {name for names in REEXPORTS.values() for name in names}
    assert sorted(MODULES) == sorted(re_exported | {"minieg.cli"})


@pytest.mark.parametrize("module_name", MODULES)
def test_a_module_exports_no_underscore_name(module_name):
    names = importlib.import_module(module_name).__all__
    assert [name for name in names if name.startswith("_")] == []


@pytest.mark.parametrize("package_name", sorted(REEXPORTS))
def test_a_package_exports_exactly_what_its_modules_declare(package_name):
    package = importlib.import_module(package_name)
    modules = [importlib.import_module(name) for name in REEXPORTS[package_name]]
    declared = {name: module for module in modules for name in module.__all__}
    assert sorted(set(package.__all__) - {"__version__"}) == sorted(declared)
    assert [name for name, module in declared.items()
            if getattr(package, name) is not getattr(module, name)] == []
