"""Every name a cavlab module exports through ``__all__`` exists."""
import importlib
import pkgutil

import pytest

import cavlab

MODULES = ["cavlab"] + [f"cavlab.{info.name}" for info in pkgutil.iter_modules(cavlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names {missing}"
