"""The public names are each module's __all__, and each is listed once and
read somewhere: every name a module defines without a leading underscore is
in its __all__ and nothing else is; every listed name exists and is read by
the package, the benchmark or the acceptance gate; and every name a module
imports is used or listed, so a deletion cannot leave its import behind."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import zetacycles

MODULES = [
    f"zetacycles.{name}"
    for name in ("cycles", "laplacian", "operators", "schwartz", "sheaf", "specfun")
]
SOURCES = sorted(Path(zetacycles.__file__).parent.glob("*.py"))
BENCH = Path(__file__).resolve().parents[1] / "zcbench"
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def _tree(module_name: str) -> ast.Module:
    return ast.parse(Path(importlib.import_module(module_name).__file__).read_text())


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


def _defined_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _read_names(tree: ast.Module) -> set[str]:
    """Names loaded, and attributes, outside the definition of the same name."""
    reads = set()
    for node in tree.body:
        names = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
        reads |= names - set(_defined_names(node))
    return reads


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(_imported_names(tree) - used - _listed_names(tree)) == []


@pytest.mark.parametrize("module_name", MODULES)
def test_listed_names_are_the_public_names(module_name):
    tree = _tree(module_name)
    public = {n for node in tree.body for n in _defined_names(node) if not n.startswith("_")}
    assert sorted(_listed_names(tree) ^ public) == []


@pytest.mark.parametrize("module_name", MODULES)
def test_every_listed_name_is_read(module_name):
    """Read in src/, or named in zcbench (which binds names by string), or in
    the acceptance gate; a name read only by its own unit tests is not."""
    read = set().union(*(_read_names(ast.parse(p.read_text())) for p in SOURCES))
    for path in [*BENCH.glob("*.py"), ACCEPTANCE]:
        read.update(re.findall(r"\w+", path.read_text()))
    assert sorted(_listed_names(_tree(module_name)) - read) == []
