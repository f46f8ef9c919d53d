"""Every name a module or package lists in ``__all__`` resolves, and none is listed twice.

A public name is declared once, in the ``__all__`` of the module that defines
it; each package re-exports the ``__all__`` of the modules it names below.
"""

import enum
import importlib
import inspect
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


# The public options of the packages and the CLI, counted by the test below.
# A change that adds or removes an option changes this number in its diff.
OPTION_COUNT = 53


def _defaulted(obj) -> list[str]:
    try:
        parameters = inspect.signature(obj).parameters.values()
    except ValueError:  # a built-in constructor, such as an exception's, has no signature
        return []
    return [p.name for p in parameters if p.default is not inspect.Parameter.empty]


def test_the_option_count_is_pinned():
    """Counts the defaulted parameters of the public API.

    Method: for each distinct object in the ``__all__`` of ``minieg``,
    ``minieg.problems``, ``minieg.bench`` and ``minieg.cli``, count the
    parameters with a default in ``inspect.signature`` of every function,
    of every class other than an enum (its constructor, so a dataclass
    counts its defaulted fields), and of every function in a class's own
    namespace (``vars(cls)``) whose name does not start with an underscore.
    Constants, properties, inherited methods and a built-in constructor
    without a signature (``ConfigurationError``'s) count nothing. On a
    mismatch the message lists each object's defaulted parameters.
    """
    options, seen = {}, set()
    for package in ("minieg", "minieg.problems", "minieg.bench", "minieg.cli"):
        module = importlib.import_module(package)
        for name in module.__all__:
            obj = getattr(module, name)
            if id(obj) in seen or not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            seen.add(id(obj))
            if inspect.isfunction(obj):
                options[f"{package}.{name}"] = _defaulted(obj)
            elif not issubclass(obj, enum.Enum):
                options[f"{package}.{name}"] = _defaulted(obj)
                for key, member in vars(obj).items():
                    if inspect.isfunction(member) and not key.startswith("_"):
                        options[f"{package}.{name}.{key}"] = _defaulted(member)
    count = sum(len(names) for names in options.values())
    listing = "\n".join(f"{owner}: {', '.join(names)}" for owner, names in options.items() if names)
    assert count == OPTION_COUNT, listing
