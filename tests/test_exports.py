"""Every exported name resolves: no module's __all__ and no import in the
package's __init__ names something that is gone.  No module asserts:
python -O strips assert statements, so no result may rest on one.  Every
import sits at module level, where a reader of the header sees it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import localarc

MODULES = sorted(info.name for info in pkgutil.iter_modules(localarc.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    mod = importlib.import_module(f"localarc.{name}")
    exported = getattr(mod, "__all__", ())
    missing = [n for n in exported if not hasattr(mod, n)]
    assert not missing


def test_every_package_import_resolves():
    tree = ast.parse(Path(localarc.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names if not alias.name.startswith("_")
    ]
    missing = [
        (src, name) for src, name in imported
        if not hasattr(importlib.import_module(src), name)
        or not hasattr(localarc, name)
    ]
    assert imported and not missing


SOURCES = sorted(Path(localarc.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text())
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert not lines


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_module_level(path):
    tree = ast.parse(path.read_text())
    top = {id(node) for node in tree.body}
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and id(node) not in top]
    assert not lines
