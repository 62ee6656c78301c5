"""Tests of the benchmark's own helpers: span arithmetic, the tail rule, patching."""

import math

import pytest

import layers
from benchstats import percentile, samples_beyond, tail_percentile
from spans import Tracer, covered_length, outermost, self_times


def test_self_time_subtracts_children_only_once():
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("trainer.run", 1.0, 4.0, 0),
        ("losses.grad_total", 2.0, 3.0, 1),
        ("trainer.evaluate_retrieval", 5.0, 7.0, 0),
    ]
    # the grandchild is part of its parent's time, not the root's
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0]


def test_self_time_merges_overlapping_children():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 5.0, 0), ("c", 3.0, 6.0, 0), ("d", 9.0, 12.0, 0)]
    # children cover [1, 6] and [9, 10] of the parent: 6 of its 10 seconds
    assert self_times(spans)[0] == pytest.approx(4.0)
    assert covered_length([(5.0, 6.0), (0.0, 2.0), (1.0, 3.0)]) == 4.0
    assert covered_length([]) == 0.0


def test_outermost_skips_calls_nested_in_the_same_group():
    spans = [
        ("losses.grad_total", 0.0, 5.0, -1),
        ("numerics.as_matrix", 0.0, 1.0, 0),
        ("numerics.require_finite", 0.2, 0.8, 1),
        ("numerics.require_finite", 2.0, 2.5, 0),
    ]
    assert outermost(spans, layers.VALIDATE.__contains__) == [1, 3]


@pytest.mark.parametrize("n, expected", [(1, None), (19, None), (20, 50), (40, 75),
                                         (210, 95), (672, 98), (10_000, 99)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10
        if expected < 99:
            assert samples_beyond(n, expected + 1) < 10


def test_nearest_rank_percentile():
    samples = [float(v) for v in range(1, 101)]
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 95) == 95.0
    assert percentile([3.0, 1.0, 2.0], 100) == 3.0
    assert percentile([7.0], 1) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_patching_wraps_call_sites_and_restores_originals():
    np = pytest.importorskip("numpy")
    modules = layers.modules()
    before = [dict(vars(m)) for m in modules]
    import gsc.discrimination
    import gsc.trainer

    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched(modules, layers.span_name):
            # the trainer's own binding is wrapped, not only the defining module's
            assert gsc.trainer.grad_total is not before[modules.index(gsc.trainer)]["grad_total"]
            gsc.discrimination.cross_modal_indicator(np.eye(3), 0.5)
            raise RuntimeError("restore must survive an exception")
    for module, saved in zip(modules, before):
        assert all(vars(module)[k] is v for k, v in saved.items())
    names = [name for name, _, _, _ in tracer.spans]
    assert names[0] == "discrimination.cross_modal_indicator"
    assert "numerics.softmax_rows" in names
    assert all(end >= start for _, start, end, _ in tracer.spans)


def test_traced_training_counts_match_the_schedule(tmp_path):
    import gsc.cli

    tracer = Tracer(layers.hooks())
    argv = ["train", "--n", "150", "--rho", "0.4", "--seed", "3", "--epochs", "1",
            "--warmup", "1", "--batch-size", "40", "--out", str(tmp_path)]
    with tracer.patched(layers.modules(), layers.span_name):
        assert gsc.cli.main(argv) == 0
    metrics = layers.train_metrics(tracer.spans, tracer.counters, 1)
    batches = math.ceil(120 / 40)  # 150 samples: 120 train, 15 dev, 15 test
    assert metrics["losses.grad_total_calls"][0] == 2 * batches * 2
    assert metrics["evalmetrics.recall_calls"][0] == 6 * 3
    assert metrics["discrimination.gmm_fit_calls"][0] == 2 * 2
    assert 0 < metrics["discrimination.gmm_iter_ratio"][0] <= 1
    assert metrics["trainer.run_s"][0] > metrics["losses.grad_total_s"][0] > 0
