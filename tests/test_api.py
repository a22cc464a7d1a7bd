import importlib
import pkgutil

import pytest

import mdots

MODULES = ["mdots"] + [f"mdots.{m.name}" for m in pkgutil.iter_modules(mdots.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
