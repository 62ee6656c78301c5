import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

WORKLOADS = ("w1", "w2")
METRICS = {"train_s": "lower", "det_acc": "higher"}


def _checkouts(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for root in (parent, change):
        root.mkdir()
    bench = {"run_seconds": 1,
             "workloads": [{"name": w} for w in WORKLOADS],
             "end_to_end": [{"name": name, "better": better, "bound": 0.25}
                            for name, better in METRICS.items()]}
    (change / "BENCHMARK.json").write_text(json.dumps(bench))
    return parent, change


def _stub_runs(monkeypatch, fail_on=None):
    """Replace ``run_once`` by a stub whose call ``fail_on`` raises."""
    calls = []

    def run_once(root, workload, seed, seconds):
        calls.append((root.name, workload))
        if len(calls) == fail_on:
            raise RuntimeError(f"{root} {workload} exited 1: boom")
        value = float(len(calls))
        return {"train_s": value, "det_acc": 0.5}, {"python": "stub"}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    return calls


def _lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_a_failed_last_run_keeps_every_finished_run(tmp_path, monkeypatch):
    parent, change = _checkouts(tmp_path)
    out = tmp_path / "BENCH.json"
    total = 3 * len(WORKLOADS) * 2
    calls = _stub_runs(monkeypatch, fail_on=total)
    with pytest.raises(RuntimeError, match="boom"):
        bench_pairs.main([str(parent), str(change), str(out), "--pairs", "3"])
    assert len(calls) == total and not out.exists()
    rows = _lines(bench_pairs.runs_path(out))
    assert len(rows) == total - 1
    assert [(r["side"], r["workload"]) for r in rows] == calls[:-1]
    assert [r["metrics"]["train_s"] for r in rows] == [float(i) for i in range(1, total)]
    assert rows[0]["pair"] == 0 and rows[-1]["pair"] == 2 and rows[-1]["env"] == {"python": "stub"}


def test_the_record_is_built_from_the_runs_file(tmp_path, monkeypatch):
    parent, change = _checkouts(tmp_path)
    out = tmp_path / "BENCH.json"
    _stub_runs(monkeypatch)
    assert bench_pairs.main([str(parent), str(change), str(out), "--pairs", "4"]) == 0
    rows = _lines(bench_pairs.runs_path(out))
    record = json.loads(out.read_text())
    assert record["environment"] == {"python": "stub"}
    for workload in WORKLOADS:
        for side in ("parent", "change"):
            values = [r["metrics"]["train_s"] for r in rows
                      if r["workload"] == workload and r["side"] == side]
            assert len(values) == 4
            assert record["workloads"][workload]["train_s"][side]["values"] == values
        # the side that runs first alternates, so each side wins two pairs
        row = record["workloads"][workload]["train_s"]
        assert row["change_wins"] == row["parent_wins"] == 2
        assert record["workloads"][workload]["det_acc"]["change_wins"] == 0
