"""Every lazily resolved package export is the object its module defines.

The root and each subpackage resolve the names of their ``__all__`` on
first access through a name -> module table (PEP 562).  A typo or a
stale row in a table must fail here, not at a user's first call.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + [
    m.name for m in pkgutil.iter_modules(repro.__path__, "repro.") if m.ispkg
]


def _defining_module(package, name: str):
    """Follow the export tables from ``package`` down to the plain module
    that binds ``name`` (or to the submodule ``name`` itself)."""
    while True:
        table = getattr(package, "_EXPORTS", None)
        if table is None or name not in package.__all__:
            return package
        module = next(m for m, names in table.items() if name in names)
        target = importlib.import_module(module, package.__name__)
        if module == "." + name and not hasattr(target, name):
            return target
        package = target


def test_every_subpackage_is_listed():
    assert {"repro.core", "repro.engine", "repro.service"} <= set(PACKAGES)


@pytest.mark.parametrize("package_name", PACKAGES)
def test_every_export_resolves_to_its_defining_object(package_name):
    package = importlib.import_module(package_name)
    table_names = [n for names in package._EXPORTS.values() for n in names]
    assert sorted(table_names) == sorted(set(package.__all__))
    assert len(set(package.__all__)) == len(package.__all__)
    listed = dir(package)
    for name in package.__all__:
        module = _defining_module(package, name)
        value = getattr(package, name)
        if not hasattr(module, name):
            assert value is module and module.__name__.endswith("." + name)
        else:
            assert value is getattr(module, name), name
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, name
        assert name in listed, name


@pytest.mark.parametrize("package_name", PACKAGES)
def test_unknown_name_is_an_attribute_error(package_name):
    package = importlib.import_module(package_name)
    assert not hasattr(package, "no_such_export")
    with pytest.raises(AttributeError, match="no_such_export"):
        package.no_such_export
