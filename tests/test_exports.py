"""Every exported name resolves: no module's __all__ and no import in the
package's __init__ names something that is gone.  No module asserts:
python -O strips assert statements, so no result may rest on one.  Every
import sits at module level, where a reader of the header sees it, and
the CLI's imports stay free of the costly standard modules it has no use
for."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


# dataclasses (and the inspect it imports) generates code for each class
# it makes; cores forks by hand, so no process pool and no pickling
UNUSED_AT_START = ("dataclasses", "inspect", "multiprocessing",
                   "concurrent.futures", "pickle")


def test_cli_import_leaves_unused_modules_unloaded():
    code = ("import sys; before = set(sys.modules); import localarc.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ,
               PYTHONPATH=str(Path(localarc.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded = [name for name in out.split() for unused in UNUSED_AT_START
              if name == unused or name.startswith(unused + ".")]
    assert "localarc.cli" in out.split() and not loaded
