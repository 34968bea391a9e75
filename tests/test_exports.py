"""Export hygiene: every subpackage's ``__all__`` matches what it defines.

This is the automated form of the docs audit: ``__all__`` entries must
resolve, public imported names must be listed, and every package/module must
carry a docstring.  Packages re-export lazily (``repro._lazy``), so an
exported name must also be listed by ``dir()`` and read as the very object
that its defining submodule binds.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
import types

import pytest

import repro

SUBPACKAGES = ["repro"] + [
    f"repro.{name}" for name in
    ["analysis", "analysis.compositional", "can", "contracts", "core",
     "experiments", "fleet", "mcc", "monitoring", "observability", "platform",
     "platooning", "routing", "scenarios", "security", "service", "sim",
     "skills", "vehicle", "virtualization"]
]


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_all_entries_resolve(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{package} has no __all__"
    assert len(exported) == len(set(exported)), f"{package}.__all__ has duplicates"
    for name in exported:
        assert hasattr(module, name), f"{package}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_public_names_are_exported(package):
    module = importlib.import_module(package)
    exported = set(getattr(module, "__all__", []))
    public = {name for name, value in vars(module).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)
              and name not in ("annotations",)}
    missing = public - exported
    assert not missing, f"{package}: public names not in __all__: {sorted(missing)}"


def _submodules(package):
    """Every module below ``package``, imported."""
    path = importlib.import_module(package).__path__
    return [importlib.import_module(info.name)
            for info in pkgutil.walk_packages(path, prefix=package + ".")
            if not info.name.endswith("__main__")]


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_exports_are_in_dir_and_are_their_submodules_objects(package):
    """The defining submodule of a class or a function is its own
    ``__module__``; a constant must be bound by some submodule."""
    module = importlib.import_module(package)
    listed = dir(module)
    submodules = _submodules(package)
    for name in module.__all__:
        assert name in listed, f"{package}: dir() lacks {name!r}"
        value = getattr(module, name)
        if inspect.isclass(value) or inspect.isfunction(value):
            assert value.__module__.startswith(package + "."), (package, name)
            home = vars(sys.modules[value.__module__])
            assert home.get(name) is value, (package, name)
        elif name != "__version__":  # set by repro/__init__.py itself
            assert any(vars(submodule).get(name) is value
                       for submodule in submodules), (package, name)


def test_every_module_has_a_docstring():
    packages = [repro]
    missing = []
    seen = set()
    while packages:
        package = packages.pop()
        for info in pkgutil.iter_modules(package.__path__,
                                         prefix=package.__name__ + "."):
            if info.name in seen or info.name.endswith("__main__"):
                continue
            seen.add(info.name)
            module = importlib.import_module(info.name)
            if module.__doc__ is None or not module.__doc__.strip():
                missing.append(info.name)
            if info.ispkg:
                packages.append(module)
    assert not missing, f"modules without docstrings: {missing}"
