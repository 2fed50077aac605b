"""Every name a module exports in `__all__` exists in it.

`from module import *` and the documentation read `__all__`; a name left
there after its definition goes fails only on a star import, which no other
test makes.
"""

import importlib

import pytest

MODULES = ("symbols", "series", "tails", "opmatrix", "geometry", "analysis", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"compopnum.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, missing
