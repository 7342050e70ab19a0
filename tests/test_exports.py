"""Every name a module of the package exports in ``__all__`` exists."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import gwcount

MODULES = ["gwcount"] + [f"gwcount.{m.name}" for m in pkgutil.iter_modules(gwcount.__path__)]


def test_every_module_is_listed():
    assert {"gwcount.cli", "gwcount.keys", "gwcount.complex_engine",
            "gwcount.real_engine"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
