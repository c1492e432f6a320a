"""The public names are each module's __all__, and each is listed once and
read somewhere: every name a module defines without a leading underscore is
in its __all__ and nothing else is; every listed name exists and is read by
the package, the benchmark or the acceptance gate; and every name a module
imports is used or listed, so a deletion cannot leave its import behind.
The package also holds one zeta evaluator: the Riemann-Siegel route is a
test helper, which no package module defines, imports or reads, and nothing
in the package imports from the tests. The scalar zeta and psi evaluators
have one caller in the package, detect's row loop; every other caller takes
the array evaluators."""

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
RIEMANN_SIEGEL = Path(__file__).with_name("_riemann_siegel.py")
RS_NAMES = {
    "_RS_CONTOUR_NODES",
    "_RS_CONTOUR_RADIUS",
    "_RS_REMAINDER_COEFF",
    "_psi_rs",
    "_psi_rs_derivatives",
    "_riemann_siegel_raw",
    "_rs_correction_coeffs",
}


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


def test_riemann_siegel_route_is_a_test_helper():
    helper = ast.parse(RIEMANN_SIEGEL.read_text())
    assert RS_NAMES <= {n for node in helper.body for n in _defined_names(node)}
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        names = _imported_names(tree) | _read_names(tree)
        names.update(n for node in tree.body for n in _defined_names(node))
        assert sorted(names & RS_NAMES) == [], path.name


def test_only_detect_calls_the_scalar_evaluators():
    """Calls of zeta_critical or mellin_psi, by bare name or as module.attr,
    sit in cycles.detect alone, where the benchmark's tracer counts them."""
    callers = set()
    for path in SOURCES:
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in {"zeta_critical", "mellin_psi"}:
                    callers.add((path.stem, getattr(top, "name", None), name))
    assert callers == {("cycles", "detect", "zeta_critical"), ("cycles", "detect", "mellin_psi")}


def test_package_imports_nothing_from_the_tests():
    test_modules = {"tests"} | {p.stem for p in Path(__file__).parent.glob("*.py")}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            assert {m.partition(".")[0] for m in modules} & test_modules == set(), path.name


def test_no_module_imports_a_private_name_of_schwartz():
    """The Gaussian-polynomial algebra is read through schwartz's public names."""
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("schwartz"):
                assert [a.name for a in node.names if a.name.startswith("_")] == [], path.name
