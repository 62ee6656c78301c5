"""Statement lines of ``gsc`` that no cell of ``tools/output_digest.py`` runs.

    python3 tools/reach.py SRC

imports ``gsc`` from the directory ``SRC`` (the ``src`` directory of a
checkout) and, under ``sys.settrace``, runs every cell of
``output_digest.cells`` in this process, outputs in a temporary directory,
then ``gsc report --csv`` over two of their ``report.json`` files. It prints
one ``<path>:<line>  <text>`` line, the path relative to ``SRC``, per
statement of ``SRC/gsc`` that none of them ran, then ``<count>  unreached``.
A statement ran if any line of its head ran (a compound statement's lines
before its body, a decorated one's decorators included); docstrings are
not statements here, by ``tools/code_lines.py``'s rule.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from code_lines import docstring_lines  # noqa: E402
import output_digest  # noqa: E402


def statements(text: str) -> dict:
    """{first line: lines of its head} of every statement of ``text`` but docstrings."""
    tree = ast.parse(text)
    skip = docstring_lines(tree)
    heads = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and node.lineno not in skip:
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            body = getattr(node, "body", None)
            last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
            heads[node.lineno] = range(first, last + 1)
    return heads


def unreached(root: Path, fn) -> dict:
    """{path: [line, ...]} of the statements of each ``.py`` file under
    ``root`` that ``fn()`` does not run; import the package inside ``fn``,
    so its module-level statements count."""
    prefix = str(root.resolve()) + "/"
    ran = defaultdict(set)

    def line(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return line

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 line if frame.f_code.co_filename.startswith(prefix) else None)
    try:
        fn()
    finally:
        sys.settrace(previous)
    missed = {path: [n for n, head in sorted(statements(path.read_text(encoding="utf-8")).items())
                     if not ran[str(path)].intersection(head)]
              for path in sorted(root.resolve().rglob("*.py"))}
    return {path: lines for path, lines in missed.items() if lines}


def run_cells(out: Path) -> None:
    """Every cell of ``output_digest.cells`` under ``out``, then ``gsc report
    --csv`` over the reports of the first two, train cells."""
    import gsc.cli

    (out / output_digest.TRAIN_CONFIG_FILE).write_text(json.dumps(output_digest.TRAIN_CONFIG))
    cells = output_digest.cells(out)
    reports = [str(Path(argv[-1]) / "report.json") for argv in cells[:2]]  # argv ends --out DIR
    for cell in [*cells, ["report", *reports, "--csv", str(out / "summary.csv")]]:
        with contextlib.redirect_stdout(io.StringIO()):
            if gsc.cli.main(cell) != 0:
                raise SystemExit(f"gsc {' '.join(cell)} failed")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1 or not (Path(args[0]) / "gsc").is_dir():
        print("usage: python3 tools/reach.py SRC  (SRC holds the gsc package)", file=sys.stderr)
        return 2
    src = Path(args[0]).resolve()
    sys.path.insert(0, str(src))
    with tempfile.TemporaryDirectory() as out:
        missed = unreached(src / "gsc", lambda: run_cells(Path(out)))
    for path, lines in missed.items():
        text = path.read_text(encoding="utf-8").splitlines()
        for n in lines:
            print(f"{path.relative_to(src)}:{n}  {text[n - 1].strip()}")
    print(f"{sum(map(len, missed.values()))}  unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
