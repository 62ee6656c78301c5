import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

FIXTURE = '''"""A module docstring
over two lines."""

import os  # a trailing comment


# a comment line
def f(a,
      b):
    """A function docstring."""
    x = "a string, not a docstring"
    return (a +
            b)


class C:
    """A class docstring
    on two lines.
    """

    y = """a multi-line
string value"""
'''
FIXTURE_CODE_LINES = 9  # import, def f (2), x, return (2), class C, y (2)


def test_code_lines_skip_blanks_comments_and_docstrings():
    assert code_lines.code_lines(FIXTURE) == FIXTURE_CODE_LINES


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     9  a.py", "     1  sub/b.py", "    10  total"]


def test_code_lines_without_a_directory_exits_2(tmp_path):
    assert code_lines.main([str(tmp_path / "missing")]) == 2
