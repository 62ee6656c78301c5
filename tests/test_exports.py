"""Each ``gsc`` module's ``__all__`` lists exactly its public definitions,
and the package itself exports nothing: importing it loads no module."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, gsc; "
             "print(sorted(m for m in sys.modules if m.startswith(('gsc.', 'numpy'))))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
