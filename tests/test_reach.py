import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "reach", Path(__file__).resolve().parents[1] / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)

FIXTURE = '''"""A module docstring."""


def ran(x):
    """A function docstring."""
    if x:
        return 1
    return 2


@staticmethod
def never(
        y):
    return y
'''


def _import_and_call_ran(path):
    spec = importlib.util.spec_from_file_location("reach_fixture", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.ran(True) == 1


def test_unreached_lists_the_statements_a_callable_does_not_run(tmp_path):
    root = (tmp_path / "pkg").resolve()
    (root / "sub").mkdir(parents=True)
    (root / "mod.py").write_text(FIXTURE)
    (root / "sub" / "other.py").write_text("x = 1\n")  # never imported
    missed = reach.unreached(root, lambda: _import_and_call_ran(root / "mod.py"))
    # `return 2` and never's body; its decorated head ran at import, and
    # docstrings are not statements
    assert missed == {root / "mod.py": [8, 14], root / "sub" / "other.py": [1]}


def test_statements_map_each_head_to_its_lines():
    heads = reach.statements(FIXTURE)
    assert sorted(heads) == [4, 6, 7, 8, 12, 14]
    assert list(heads[4]) == [4] and list(heads[12]) == [11, 12, 13]


def test_main_without_a_package_directory_exits_2(tmp_path, capsys):
    assert reach.main([str(tmp_path)]) == 2
    assert "usage:" in capsys.readouterr().err
