"""Benchmark of ``gsc train``: wall time, memory and quality on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gsc_desk --seed 11 --seconds 30 --trace 0

Set-up makes ``DATASETS`` datasets, each with ``gsc gen --n 2500 --rho 0.4``
(2000 train pairs, 800 of them mismatched; 250 dev; 250 test) in a fresh
interpreter, dataset j from seed ``<seed> + 1000 * j``. The run is then a
closed loop in this one process: one ``gsc.cli.main(["train", ...])`` call at
a time, 1 warm-up + 20 epochs each, cycling through the datasets, until the
next call would end after ``--seconds``. BLAS is pinned to one thread before
numpy is imported.

``--trace 0`` reports the end-to-end metrics; quality is the mean over the
datasets, because one dataset's test recall moves too much from seed to seed
to bound. ``--trace 1`` trains on the first dataset only, alternating
untraced calls with calls in which every public function of every ``gsc``
module is wrapped, and reports the per-layer split of the traced calls (see
README.md for what each metric should move). Either way the last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; exit code 0 means every correctness check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import layers
from benchstats import MIN_BEYOND, percentile, samples_beyond, tail_percentile
from spans import Tracer

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACES = ROOT / ".perfbench_out"

N, RHO, N_TRAIN = 2500, 0.4, 2000
WARMUP, EPOCHS = 1, 20
NETS = 2
DATASETS = 3
SEED_STRIDE = 1000
WORKLOADS = {
    # Every layer active, 672 small steps: per-call overhead, dev recall and
    # the label-dump write path are large shares.
    "gsc_desk": {"mode": "gsc", "batch": 128, "extra": ["--dump-labels"]},
    # Same steps without label estimation: a discrimination change must not
    # move it, and dev recall is its largest share after the loss.
    "baseline_desk": {"mode": "baseline", "batch": 128, "extra": []},
    # 5 batches of 400: the O(B^3) loss dominates and quality sits below the
    # retrieval ceiling.
    "gsc_bigbatch": {"mode": "gsc", "batch": 400, "extra": []},
}
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy, gsc.cli; "
              "sys.exit(gsc.cli.main(sys.argv[2:]))")


def pin_blas() -> None:
    """Must run before anything imports numpy: BLAS reads these once, at load.

    Nothing this file imports at module level loads numpy.
    """
    if "numpy" in sys.modules:
        raise SystemExit("numpy was imported before the BLAS thread count was pinned")
    os.environ.update(BLAS_PIN)


def gen_argv(seed: int, out: Path) -> list:
    return ["gen", "--n", str(N), "--rho", str(RHO), "--seed", str(seed), "--out", str(out)]


def train_argv(workload: str, seed: int, data: Path) -> list:
    spec = WORKLOADS[workload]
    return ["train", "--data", str(data), "--mode", spec["mode"], "--seed", str(seed),
            "--batch-size", str(spec["batch"]), "--epochs", str(EPOCHS),
            "--warmup", str(WARMUP), *spec["extra"]]


def expected_batches(batch: int) -> int:
    """Batches per network per epoch, as ``trainer.batch_schedule`` cuts them."""
    full, rest = divmod(N_TRAIN, batch)
    return full + (rest >= 2 or (rest == 1 and full == 0))


def blas_threads():
    """Thread count OpenBLAS reports from inside this process, or None."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment(numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_build": blas_build,
        "blas_threads_pinned": int(BLAS_PIN["OPENBLAS_NUM_THREADS"]),
        "blas_threads_reported": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_setup(seed: int, out: Path) -> float:
    """Seconds for a fresh interpreter to import gsc and numpy and run ``gsc gen``."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *gen_argv(seed, out)],
                          capture_output=True, text=True, timeout=120, check=False)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"gsc gen exited {proc.returncode}: {proc.stderr.strip()}")
    return elapsed


def digest(out: Path) -> dict:
    """sha256 and size of every file a ``gsc train`` call wrote."""
    return {p.name: (hashlib.sha256(p.read_bytes()).hexdigest(), p.stat().st_size)
            for p in sorted(out.iterdir())}


class Runner:
    """Closed-loop ``gsc train`` calls, each into a fresh directory.

    ``argvs[j]`` trains on dataset j. The first successful call on a dataset
    keeps its file digests as the reference every later call on it must match.
    """

    def __init__(self, gsc_cli, argvs: list, work: Path):
        self.cli = gsc_cli
        self.argvs = argvs
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.references: dict = {}
        self.reports: dict = {}
        self.problems: list = []

    def call(self, j: int):
        """One call on dataset j; returns (seconds, bytes written), or None if it failed."""
        out = self.work / f"call{self.attempted}"
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(self.argvs[j] + ["--out", str(out)])
        except Exception:  # a failed call is counted, and the loop goes on
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            self.problems.append(f"call {self.attempted} exited {code}")
            shutil.rmtree(out, ignore_errors=True)
            return None
        files = digest(out)
        if j not in self.references:
            self.references[j] = files
            with open(out / "report.json", encoding="utf-8") as fh:
                self.reports[j] = json.load(fh)
        elif files != self.references[j]:
            self.problems.append(f"call {self.attempted} on dataset {j} wrote different files "
                                 "than the first call on it")
        shutil.rmtree(out)
        return elapsed, sum(size for _, size in files.values())


QUALITY_RANGE = {"test_rsum": 600.0, "test_r1_i2t": 100.0, "test_r1_t2i": 100.0,
                 "det_acc": 1.0, "det_auc": 1.0}
QUALITY_UNIT = {"test_rsum": "%", "test_r1_i2t": "%", "test_r1_t2i": "%",
                "det_acc": "ratio", "det_auc": "ratio"}
GATED_QUALITY = ("test_rsum", "det_acc", "det_auc")


def quality(report: dict) -> dict:
    retrieval, detection = report["retrieval"], report["detection"]
    return {"test_rsum": retrieval["recall_sum"], "test_r1_i2t": retrieval["i2t"]["r1"],
            "test_r1_t2i": retrieval["t2i"]["r1"], "det_acc": detection["accuracy"],
            "det_auc": detection["auc"]}


def quality_problems(j: int, q: dict) -> list:
    return [f"dataset {j}: {k}={q[k]} outside [0, {hi}]" for k, hi in QUALITY_RANGE.items()
            if q[k] is None or not 0.0 <= q[k] <= hi]


def measure(runner: Runner, seconds: float) -> list:
    """Untraced calls, cycling through the datasets, until the next call would
    end after ``seconds``; every dataset is trained at least once and one twice."""
    times = []
    start = time.perf_counter()
    while True:
        done = runner.call(runner.attempted % DATASETS)
        if done is not None:
            times.append(done[0])
        elapsed = time.perf_counter() - start
        if runner.attempted > DATASETS and elapsed * (1 + 1 / runner.attempted) > seconds:
            return times


def measure_traced(runner: Runner, seconds: float, tracer: Tracer) -> tuple:
    """Calls on dataset 0: untraced, traced, traced, then alternating, until
    time is up. Returns (untraced call times, traced call times)."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        k = runner.attempted
        trace_this = k in (1, 2) or (k > 2 and k % 2 == 0)
        with tracer.patched(layers.modules(), layers.span_name) if trace_this else contextlib.nullcontext():
            done = runner.call(0)
        if done is not None:
            (traced if trace_this else plain).append(done[0])
            if trace_this:
                tracer.counters["cli.bytes_written"] += done[1]
        elapsed = time.perf_counter() - start
        if runner.attempted >= 3 and elapsed * (1 + 1 / runner.attempted) > seconds:
            return plain, traced


def schedule_problems(workload: str, metrics: dict) -> list:
    """Per-call counts the schedule fixes: steps, recall calls, estimation."""
    spec = WORKLOADS[workload]
    epochs = WARMUP + EPOCHS
    expect = {
        "losses.grad_total_calls": NETS * expected_batches(spec["batch"]) * epochs,
        "evalmetrics.recall_calls": 6 * (epochs + 1),
    }
    problems = [f"{k}={metrics[k][0]} per call, expected {v}"
                for k, v in expect.items() if metrics[k][0] != v]
    if (metrics["discrimination.calls"][0] > 0) != (spec["mode"] != "baseline"):
        problems.append(f"discrimination.calls={metrics['discrimination.calls'][0]} in mode {spec['mode']}")
    return problems


def traced_metrics(args, runner: Runner, gsc_cli, work: Path, problems: list) -> dict:
    gen_tracer = Tracer()
    with gen_tracer.patched(layers.modules(), layers.span_name):
        with contextlib.redirect_stdout(io.StringIO()):
            if gsc_cli.main(gen_argv(args.seed, work / "gen_traced")) != 0:
                problems.append("traced gsc gen failed")
    tracer = Tracer(layers.hooks())
    plain, traced = measure_traced(runner, args.seconds, tracer)
    print(f"calls untraced={len(plain)} traced={len(traced)}")
    if not (plain and traced):
        return {}
    metrics = layers.train_metrics(tracer.spans, tracer.counters, len(traced))
    metrics.update(layers.gen_metrics(gen_tracer.spans))
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    problems += schedule_problems(args.workload, metrics)
    steps = metrics["losses.grad_total_calls"][0] * len(traced)
    for what, n, p in (("epoch", len(traced) * EPOCHS, 75), ("step", steps, 95)):
        if samples_beyond(n, p) < MIN_BEYOND:
            problems.append(f"{what} p{p} has fewer than {MIN_BEYOND} of {n} samples beyond it")
    TRACES.mkdir(exist_ok=True)
    tracer.write(TRACES / f"{args.workload}-seed{args.seed}.json")
    return metrics


def timed_metrics(args, runner: Runner, setups: list) -> dict:
    times = measure(runner, args.seconds)
    print(f"train_s samples={len(times)} " + " ".join(f"{t:.4f}" for t in times)
          + (f" (min {min(times):.4f})" if times else ""))
    tail = tail_percentile(len(times))
    print("train_s tail: " + (f"p{tail} = {percentile(times, tail)} s" if tail
                              else f"none ({len(times)} calls: even the median has fewer than {MIN_BEYOND} beyond it)"))
    print(f"error_rate = {runner.failed / runner.attempted} ({runner.failed}/{runner.attempted})")
    if not times or len(runner.reports) < DATASETS:
        return {}
    mean = {k: statistics.fmean(quality(r)[k] for r in runner.reports.values()) for k in QUALITY_UNIT}
    for k in ("test_r1_i2t", "test_r1_t2i"):
        print(f"{k} (mean over datasets) = {mean[k]} {QUALITY_UNIT[k]}")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "train_s": (statistics.median(times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
        **{k: (mean[k], QUALITY_UNIT[k]) for k in GATED_QUALITY},
    }


def contract_problems(metrics: dict, trace: int) -> list:
    """The printed metrics must be exactly the ones BENCHMARK.json declares."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer" if trace else "end_to_end"]]
    if sorted(declared) == sorted(metrics):
        return []
    return [f"metrics differ from BENCHMARK.json: missing {sorted(set(declared) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(declared))}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas()
    sys.path.insert(0, str(SRC))
    try:
        import numpy
        import gsc.cli
        from gsc.synthdata import load_dataset
    except ImportError as err:
        print(f"cannot import gsc from {SRC}: {err}", file=sys.stderr)
        return 2
    if not Path(gsc.cli.__file__).resolve().is_relative_to(SRC):
        print(f"gsc imported from {gsc.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    env = environment(numpy)
    print("env " + json.dumps(env, sort_keys=True))
    problems = []
    if env["blas_threads_reported"] not in (None, 1):
        problems.append(f"BLAS reports {env['blas_threads_reported']} threads, not 1")

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        seeds = [args.seed + SEED_STRIDE * j for j in range(DATASETS)]
        dirs = [work / f"data{j}" for j in range(DATASETS)]
        setups = [run_setup(seed, d) for seed, d in zip(seeds, dirs)]
        for j, d in enumerate(dirs):
            train = load_dataset(d / "train.json")
            noisy = int(train.noise_mask.sum())
            if train.n != N_TRAIN or noisy != math.ceil(RHO * N_TRAIN):
                problems.append(f"dataset {j}: train split has {train.n} pairs, {noisy} noisy")
        runner = Runner(gsc.cli, [train_argv(args.workload, seed, d) for seed, d in zip(seeds, dirs)], work)
        if args.trace:
            metrics = traced_metrics(args, runner, gsc.cli, work, problems)
        else:
            metrics = timed_metrics(args, runner, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for j, report in sorted(runner.reports.items()):
        q = quality(report)
        problems += quality_problems(j, q)
        print(f"dataset {j} (seed {seeds[j]}): " + " ".join(f"{k}={v}" for k, v in q.items()))
    problems += runner.problems
    if metrics:
        problems += contract_problems(metrics, args.trace)
    for problem in problems:
        print(f"check failed: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    correct = not problems and runner.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
