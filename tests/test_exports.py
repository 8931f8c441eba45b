"""Every export list names what its module defines.

A helper deleted from a module but left in its ``__all__`` breaks
``from hsforge.<module> import *`` without failing any other test.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import hsforge

MODULES = ["hsforge"] + [f"hsforge.{info.name}"
                         for info in pkgutil.iter_modules(hsforge.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_exported_name(module):
    namespace: dict = {}
    exec(f"from {module} import *", namespace)
    exported = vars(importlib.import_module(module)).get("__all__", ())
    assert set(exported) <= namespace.keys()
