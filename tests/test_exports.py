"""`__all__` and a module's public names agree both ways.

`from module import *` and the documentation read `__all__`; a name left
there after its definition goes fails only on a star import, which no other
test makes, and a public class or function missing from it is hidden from
both.
"""

import importlib
import inspect

import pytest

MODULES = ("symbols", "series", "tails", "linalg", "opmatrix", "geometry", "analysis", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"compopnum.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, missing


@pytest.mark.parametrize("name", MODULES)
def test_every_public_definition_is_exported(name):
    module = importlib.import_module(f"compopnum.{name}")
    public = [attr for attr, obj in vars(module).items()
              if not attr.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
              and obj.__module__ == module.__name__]
    unlisted = [attr for attr in public if attr not in module.__all__]
    assert not unlisted, unlisted
