"""Every name a module exports exists: a removed function leaves no stale
``__all__`` entry behind."""

import importlib
import pkgutil

import pytest

import egorov

MODULES = ["egorov"] + [
    f"egorov.{info.name}" for info in pkgutil.iter_modules(egorov.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve_and_star_import_works(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert [name for name in exported if not hasattr(module, name)] == []
    namespace = {}
    exec(f"from {module_name} import *", namespace)
    assert set(exported) <= set(namespace)
