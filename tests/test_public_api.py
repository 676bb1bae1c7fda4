"""Every exported name resolves.

A deletion that leaves a name behind in a module's ``__all__``, or in the
package's own imports, fails here rather than at a user's import.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cdcov

MODULES = sorted(info.name for info in pkgutil.iter_modules(cdcov.__path__))


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
