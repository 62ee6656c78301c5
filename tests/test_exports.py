"""Each ``gsc`` module's ``__all__`` lists exactly its public definitions,
each of them has a caller outside the tests, and the package itself exports
nothing: importing it loads no module."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gsc
from test_benchmark_names import LAYERS_PY, span_names

ROOT = Path(__file__).resolve().parents[1]
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


# public names that nothing outside the tests calls yet, each with its reason
UNCALLED = {
    "model.load_encoder": "the planned `gsc eval` command will load its checkpoints",
}


def _referenced_names() -> set:
    """Every name that code in ``src``, ``tools/`` or ``perfbench/`` uses (a
    bare name or an attribute), plus ``<layer>.<function>`` for each span
    name the benchmark reads. A ``def`` or ``class`` statement binds its name
    without using it, so a definition alone does not count."""
    names = {f"span:{name}" for name in
             span_names(ast.parse(LAYERS_PY.read_text(encoding="utf-8")))}
    for directory in ("src", "tools", "perfbench"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def test_every_public_function_and_class_has_a_caller_outside_the_tests():
    used = _referenced_names()
    uncalled = []
    for module in MODULES:
        layer = module.__name__.removeprefix("gsc.")
        for name, obj in vars(module).items():
            if ((inspect.isfunction(obj) or inspect.isclass(obj))
                    and obj.__module__ == module.__name__ and not name.startswith("_")
                    and name not in used and f"span:{layer}.{name}" not in used):
                uncalled.append(f"{layer}.{name}")
    assert sorted(uncalled) == sorted(UNCALLED)


def test_importing_the_package_loads_no_submodule_and_no_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, gsc; "
             "print(sorted(m for m in sys.modules if m.startswith(('gsc.', 'numpy'))))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"
