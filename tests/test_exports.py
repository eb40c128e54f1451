"""Every name a module lists in ``__all__`` must import."""

import pkgutil

import pytest

import deepwkb

MODULES = ["deepwkb"] + [f"deepwkb.{m.name}" for m in pkgutil.iter_modules(deepwkb.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_import(name):
    # A star import raises AttributeError on a name __all__ lists but the module lacks.
    exec(f"from {name} import *", {})
