"""Every name in the package's __all__, and in each module's, resolves."""

import importlib
import pkgutil

import pytest

import treefactorials

MODULES = ["treefactorials"] + [f"treefactorials.{m.name}" for m in pkgutil.iter_modules(treefactorials.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
