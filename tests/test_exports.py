"""Every name a module lists in __all__ exists, so a deleted name cannot
stay listed; and every name a module imports is used or listed, so a
deletion cannot leave its import behind."""

import ast
import importlib
from pathlib import Path

import pytest

import zetacycles

MODULES = ["zetacycles"] + [
    f"zetacycles.{name}"
    for name in ("cycles", "laplacian", "operators", "schwartz", "sheaf", "specfun")
]
SOURCES = sorted(Path(zetacycles.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("module_name", MODULES)
def test_every_listed_name_exists(module_name):
    module = importlib.import_module(module_name)
    assert module.__all__, module_name
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _listed_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported_names(tree) - used - _listed_names(tree)) == []
