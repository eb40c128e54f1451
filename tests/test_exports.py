"""Every name a module lists in ``__all__`` must import, and the program
must use it: a public name that only tests reach is API to delete."""

import ast
import importlib
import pkgutil
from functools import cache
from pathlib import Path

import pytest

import deepwkb

MODULES = ["deepwkb"] + [f"deepwkb.{m.name}" for m in pkgutil.iter_modules(deepwkb.__path__)]

ROOT = Path(__file__).resolve().parents[1]
# The code whose references count as uses; tests do not count.
USERS = [ROOT / "src" / "deepwkb", ROOT / "scripts", ROOT / "perfbench"]
# Public names no stage uses yet: the minimum-action search waits for a
# stage of its own.
UNUSED = {"min_action_estimate"}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_import(name):
    # A star import raises AttributeError on a name __all__ lists but the module lacks.
    exec(f"from {name} import *", {})


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


@cache
def _references():
    """Every identifier the program reads: names, attributes and whole
    string constants (getattr and patch targets), outside the ``__all__``
    lists.  Definition lines hold no such node."""
    refs = set()
    for path in sorted(p for d in USERS for p in d.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        listed = {id(n) for node in ast.walk(tree) if _is_all(node) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in listed:
                continue
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                refs.add(node.value)
    return refs


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_used(name):
    public = set(getattr(importlib.import_module(name), "__all__", ()))
    unused = public - _references()
    assert unused == public & UNUSED, f"{name} exports names the program never uses"
