"""Per-layer metrics of ``gsc`` computed from spans recorded around its modules.

A layer is one module of the package. Every public function of a layer is
wrapped wherever it is bound, and its span is named ``<layer>.<function>``.
Which end-to-end metric and workload each layer metric should move is
written down in README.md next to this file.
"""

from __future__ import annotations

import importlib
import inspect
import os
from collections import defaultdict

from benchstats import percentile
from spans import outermost, self_times

LAYERS = ("synthdata", "model", "losses", "numerics", "discrimination",
          "evalmetrics", "trainer", "cli")
VALIDATE = frozenset({"numerics.as_matrix", "numerics.require_finite"})


def modules():
    return [importlib.import_module(f"gsc.{layer}") for layer in LAYERS]


def span_name(fn):
    """``layer.function`` for a public function defined in a traced layer."""
    package, _, layer = (fn.__module__ or "").partition(".")
    if package != "gsc" or layer not in LAYERS or fn.__name__.startswith("_"):
        return None
    return f"{layer}.{fn.__name__}"


def _count_bytes_read(args, kwargs, result, counters):
    path = args[0] if args else kwargs["path"]
    counters["synthdata.bytes_read"] += os.path.getsize(path)


def _gmm_hook():
    from gsc.discrimination import gmm_fit
    signature = inspect.signature(gmm_fit)

    def count_iterations(args, kwargs, result, counters):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        cap = max(int(bound.arguments["iters"]), 1)  # gmm_fit runs at least one
        counters["discrimination.gmm_iters"] += len(result.loglik)
        counters["discrimination.gmm_iter_cap"] += cap
    return count_iterations


def hooks() -> dict:
    return {"synthdata.load_dataset": _count_bytes_read,
            "discrimination.gmm_fit": _gmm_hook()}


def _seconds(spans, member) -> float:
    """Time inside spans whose name satisfies ``member``, nested ones counted once."""
    return sum(spans[i][2] - spans[i][1] for i in outermost(spans, member))


def train_metrics(spans, counters, n_calls: int) -> dict:
    """Per-call layer metrics over the spans of ``n_calls`` traced ``gsc train`` calls.

    Returns {name: (value, unit)}. Times are per call; ``*_p50``/``*_p75``/
    ``*_p95`` are nearest-rank percentiles over all calls' samples.
    """
    durations = defaultdict(list)
    layer_self = defaultdict(float)
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        durations[name].append(end - start)
        layer_self[name.partition(".")[0]] += own

    def calls(*names):
        return sum(len(durations[n]) for n in names) / n_calls

    def seconds(*names):
        return _seconds(spans, frozenset(names).__contains__) / n_calls

    def ms(name, p):
        return 1e3 * percentile(durations[name], p)

    iters = counters["discrimination.gmm_iters"]
    cap = counters["discrimination.gmm_iter_cap"]
    discrimination = [n for n in durations if n.startswith("discrimination.")]
    return {
        "trainer.run_s": (seconds("trainer.run"), "s"),
        "trainer.epoch_ms_p50": (ms("trainer.train_epoch", 50), "ms"),
        "trainer.epoch_ms_p75": (ms("trainer.train_epoch", 75), "ms"),
        "trainer.eval_s": (seconds("trainer.evaluate_retrieval"), "s"),
        "trainer.self_s": (layer_self["trainer"] / n_calls, "s"),
        "losses.grad_total_calls": (calls("losses.grad_total"), "count"),
        "losses.grad_total_s": (seconds("losses.grad_total"), "s"),
        "losses.step_ms_p50": (ms("losses.grad_total", 50), "ms"),
        "losses.step_ms_p95": (ms("losses.grad_total", 95), "ms"),
        "losses.loss_cm_s": (seconds("losses.loss_cm"), "s"),
        "losses.loss_im_s": (seconds("losses.loss_im"), "s"),
        "losses.self_s": (layer_self["losses"] / n_calls, "s"),
        "model.encode_calls": (calls("model.encode"), "count"),
        "model.encode_s": (seconds("model.encode"), "s"),
        "model.sim_matrix_s": (seconds("model.sim_matrix"), "s"),
        "numerics.softmax_rows_calls": (calls("numerics.softmax_rows"), "count"),
        "numerics.softmax_rows_s": (seconds("numerics.softmax_rows"), "s"),
        "numerics.adam_step_calls": (calls("numerics.adam_step"), "count"),
        "numerics.adam_step_s": (seconds("numerics.adam_step"), "s"),
        "numerics.validate_calls": (calls(*VALIDATE), "count"),
        "numerics.validate_s": (seconds(*VALIDATE), "s"),
        "discrimination.calls": (calls(*discrimination), "count"),
        "discrimination.s": (seconds(*discrimination), "s"),
        "discrimination.indicator_s": (seconds("discrimination.cross_modal_indicator"), "s"),
        "discrimination.structure_score_s": (seconds("discrimination.intra_structure_score"), "s"),
        "discrimination.gmm_fit_calls": (calls("discrimination.gmm_fit"), "count"),
        "discrimination.gmm_fit_s": (seconds("discrimination.gmm_fit"), "s"),
        "discrimination.gmm_iters": (iters / n_calls, "count"),
        "discrimination.gmm_iter_ratio": (iters / cap if cap else 0.0, "ratio"),
        "evalmetrics.recall_calls": (calls("evalmetrics.recall_at_k"), "count"),
        "evalmetrics.recall_s": (seconds("evalmetrics.recall_at_k"), "s"),
        "evalmetrics.detection_s": (seconds("evalmetrics.detection_metrics"), "s"),
        "synthdata.load_s": (seconds("synthdata.load_dataset"), "s"),
        "synthdata.bytes_read": (counters["synthdata.bytes_read"] / n_calls, "bytes"),
        "cli.self_s": (layer_self["cli"] / n_calls, "s"),
        "cli.bytes_written": (counters["cli.bytes_written"] / n_calls, "bytes"),
    }


def gen_metrics(spans) -> dict:
    """Set-up layer metrics from the spans of one traced ``gsc gen`` call."""
    return {"synthdata.generate_s": (_seconds(spans, "synthdata.generate".__eq__), "s"),
            "synthdata.save_s": (_seconds(spans, "synthdata.save_dataset".__eq__), "s")}
