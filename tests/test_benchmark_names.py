"""Every span name the benchmark reads names a public function of ``gsc``.

``perfbench/layers.py`` wraps each public function of each ``gsc`` module
and names its span ``<layer>.<function>`` after the module that defines it.
A metric that reads a span of a function that was deleted, renamed or moved
reads 0 and the run still reports correct, so this test reads the names out
of ``layers.py`` (without importing it) and looks each one up.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
SPAN_READERS = {"seconds", "calls", "ms"}  # train_metrics' helpers, name arguments first


def _strings(node) -> list:
    return [n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def span_names(tree: ast.Module) -> set:
    """The span names ``layers.py`` reads: the string arguments of
    ``seconds``, ``calls`` and ``ms``, the ``"<name>".__eq__`` members it
    passes to ``_seconds``, the keys of the dict ``hooks`` returns and the
    members of ``VALIDATE``."""
    names = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in SPAN_READERS):
            names.update(_strings(ast.Tuple(elts=node.args)))
        elif (isinstance(node, ast.Attribute) and node.attr == "__eq__"
              and isinstance(node.value, ast.Constant)):
            names.add(node.value.value)
        elif isinstance(node, ast.FunctionDef) and node.name == "hooks":
            for ret in (n for n in ast.walk(node) if isinstance(n, ast.Return)):
                names.update(_strings(ast.Tuple(elts=ret.value.keys)))
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "VALIDATE" for t in node.targets):
            names.update(_strings(node.value))
    return names


NAMES = sorted(span_names(ast.parse(LAYERS_PY.read_text(encoding="utf-8"))))


def test_the_benchmark_reads_span_names():
    # every traced layer has a metric; a parse that found none would pass below
    assert len(NAMES) >= 20
    assert {name.partition(".")[0] for name in NAMES} >= {
        "trainer", "losses", "model", "numerics", "discrimination", "evalmetrics", "synthdata"}


@pytest.mark.parametrize("name", NAMES)
def test_span_name_is_a_public_function_of_its_layer(name):
    layer, _, function = name.partition(".")
    assert function and not function.startswith("_"), name
    module = importlib.import_module(f"gsc.{layer}")
    fn = getattr(module, function, None)
    assert inspect.isfunction(fn), f"gsc.{layer} has no function {function}"
    # layers.py names a span after the function's own name and module, not the alias
    assert (fn.__module__, fn.__name__) == (f"gsc.{layer}", function), (
        f"{name} is {fn.__module__}.{fn.__name__}")
