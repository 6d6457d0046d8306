"""The public surface: every name in an __all__ resolves."""

import importlib
import pkgutil

import pytest

import filterlab

MODULES = ["filterlab"] + [f"filterlab.{info.name}" for info in pkgutil.iter_modules(filterlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())  # filterlab.errors has none
    assert [n for n in exported if not hasattr(module, n)] == []
