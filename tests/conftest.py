"""Fixtures shared by several test modules."""

import importlib
import sys

import pytest


@pytest.fixture
def no_enumeration(monkeypatch):
    """Make every use of all_perms in the package fail the test.

    Every loaded hesscomb module that binds the name is patched, so a module
    that starts enumerating the symmetric group fails at once instead of
    building n! tuples.
    """

    def forbidden(n):
        raise AssertionError(f"all_perms({n}) was called")

    importlib.import_module("hesscomb.cli")
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hesscomb" and hasattr(module, "all_perms"):
            monkeypatch.setattr(module, "all_perms", forbidden)
