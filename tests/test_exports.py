"""Each ``gsc`` module's ``__all__`` lists exactly its public definitions."""

import importlib
import inspect
import pkgutil

import pytest

import gsc

MODULES = [importlib.import_module(f"gsc.{info.name}")
           for info in pkgutil.iter_modules(gsc.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_names_exist_and_list_every_public_function_and_class(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == [], f"{module.__name__}.__all__ names what it lacks"
    public = {name for name, obj in vars(module).items()
              if (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module.__name__ and not name.startswith("_")}
    assert sorted(public - set(module.__all__)) == []

