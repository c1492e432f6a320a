"""Every name a module lists in __all__ exists, so a deleted name cannot
stay listed."""

import importlib

import pytest

MODULES = ["zetacycles"] + [
    f"zetacycles.{name}"
    for name in ("cycles", "laplacian", "operators", "schwartz", "sheaf", "specfun")
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_listed_name_exists(module_name):
    module = importlib.import_module(module_name)
    assert module.__all__, module_name
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
