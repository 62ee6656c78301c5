import importlib.util
from pathlib import Path

import numpy as np
import pytest

from gsc import cli

_SPEC = importlib.util.spec_from_file_location(
    "output_digest", Path(__file__).resolve().parents[1] / "tools" / "output_digest.py")
output_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_digest)


def test_non_json_outputs_names_nan_and_infinity_and_passes_strict_json(tmp_path):
    (tmp_path / "cell").mkdir()
    (tmp_path / "ok.json").write_text('{"a": 1.5, "b": null}')
    (tmp_path / "cell" / "report.json").write_text('{"auc": NaN}')
    (tmp_path / "cell" / "metrics.jsonl").write_text('{"loss": 0.5}\n{"loss": Infinity}\n')
    (tmp_path / "notes.txt").write_text("NaN")  # only .json and .jsonl are read
    problems = output_digest.non_json_outputs(tmp_path)
    assert [p.partition(":")[0] for p in problems] == ["cell/metrics.jsonl", "cell/report.json"]
    assert "Infinity" in problems[0] and "NaN" in problems[1]
    (tmp_path / "cell" / "report.json").write_text('{"auc": null}')
    (tmp_path / "cell" / "metrics.jsonl").write_text('{"loss": 0.5}\n{"loss": 1e308}\n')
    assert output_digest.non_json_outputs(tmp_path) == []


def test_array_digest_covers_shape_and_dtype():
    arr = np.arange(12, dtype=np.int64)
    digest = output_digest.array_digest(arr)
    assert output_digest.array_digest(arr.copy()) == digest
    # the same bytes under another shape or dtype
    assert output_digest.array_digest(arr.reshape(3, 4)) != digest
    assert output_digest.array_digest(arr.view(np.float64)) != digest
    assert output_digest.array_digest(arr.view(np.uint64)) != digest


def test_main_exits_2_on_a_wrong_argument_count(tmp_path, capsys):
    for argv in ([], ["src"], ["src", str(tmp_path / "out"), "extra"]):
        assert output_digest.main(argv) == 2
    assert "usage:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_exits_2_on_an_existing_out_before_any_cell(tmp_path, monkeypatch, capsys):
    def no_cell(out):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(output_digest, "cells", no_cell)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "kept.txt").write_text("kept")
    assert output_digest.main(["src", str(tmp_path / "out")]) == 2
    assert "exists" in capsys.readouterr().err
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["kept.txt"]


def test_help_captures_are_equal_and_pinned_to_the_width(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for name, argv in output_digest.HELP_ARGV.items():
        first = output_digest.help_text(cli.main, argv)
        assert first.startswith(f"usage: gsc {' '.join(argv)}".rstrip()), name
        assert output_digest.help_text(cli.main, argv) == first, name
    narrow = output_digest.help_text(cli.main, ["train"])
    monkeypatch.setenv("COLUMNS", "200")
    assert output_digest.help_text(cli.main, ["train"]) != narrow  # help wraps to COLUMNS


def test_help_text_propagates_an_error_exit():
    with pytest.raises(SystemExit) as exc:
        output_digest.help_text(cli.main, ["no-such-command"])
    assert exc.value.code == 2
