"""Every exported name resolves, and the package's modules import each other without a cycle.

A deletion that leaves a name behind in a module's ``__all__``, or in the
package's own imports, fails here rather than at a user's import.
"""

import ast
import graphlib
import importlib
import pkgutil
from pathlib import Path

import pytest

import cdcov

MODULES = sorted(info.name for info in pkgutil.iter_modules(cdcov.__path__))
SOURCES = sorted(Path(cdcov.__file__).parent.glob("*.py"))


def _package_imports(node: ast.AST) -> list[str]:
    """The cdcov modules an import statement names, by file stem ("__init__" for the package)."""
    if isinstance(node, ast.Import):
        parts = [alias.name.split(".") for alias in node.names]
        return [p[1] if len(p) > 1 else "__init__" for p in parts if p[0] == "cdcov"]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level == 0:
        parts = (node.module or "").split(".")
        return [] if parts[0] != "cdcov" else [parts[1] if len(parts) > 1 else "__init__"]
    if node.module:
        return [node.module.split(".")[0]]
    return [alias.name if alias.name in MODULES else "__init__" for alias in node.names]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_is_defined(name):
    module = importlib.import_module(f"cdcov.{name}")
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []


def test_every_package_import_resolves():
    tree = ast.parse(Path(cdcov.__file__).read_text())
    imports = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert imports
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(f"cdcov.{module}"), name)
    ]
    assert missing == []


def test_no_package_import_inside_a_function():
    # a function-local import is how a module hides a cycle from import time
    inside = [
        f"{path.stem}.{fn.name}"
        for path in SOURCES
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_package_imports(node) for node in ast.walk(fn))
    ]
    assert inside == []


def test_import_graph_is_acyclic():
    graph = {
        path.stem: {m for node in ast.walk(ast.parse(path.read_text())) for m in _package_imports(node)}
        for path in SOURCES
    }
    assert graph["simulate"] >= {"sure"}
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError naming the cycle
