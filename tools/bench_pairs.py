"""Paired ``perfbench/run.py`` runs of two checkouts, summarized as one BENCH record.

    python3 tools/bench_pairs.py PARENT CHANGE OUT.json [--pairs 10] [--seed 23]

PARENT and CHANGE are the roots of two checkouts, each with its own
``perfbench/run.py``, ``src`` and ``BENCHMARK.json``. For every pair and
every workload the two checkouts' benchmarks run back to back, each in a
fresh process with the run length of CHANGE's ``BENCHMARK.json``; the side
that runs first alternates from pair to pair. OUT.json holds, per workload
and per end-to-end metric, each side's values, median and quartiles, and the
number of pairs each side won (ties count for neither), the median gap in
the metric's better direction, the parent's interquartile range and
``claim_holds``: whether CHANGE is better by the benchmark's rule for a
claimed gain, better in at least 9 of 10 pairs and by a median gap larger
than the parent's interquartile range. Beside it, ``no_regression`` applies
the benchmark's rule for a regression, with the metric's ``bound`` in
BENCHMARK.json read as a fraction of the parent's median: "holds" when every
run of CHANGE is better than every run of the parent, else "unresolved" when
the parent's interquartile range is wider than the bound, since the runs then
cannot show a regression of that size, else "holds" when CHANGE's median is
worse than the parent's by at most the bound and "fails" when by more. It
holds the environment the benchmark printed too (Python, numpy, the BLAS
build and thread count), and the script prints one line per workload and
metric with both verdicts.

Each run is written as it finishes, one JSON line ``{pair, workload, side,
metrics, env}`` in ``OUT.runs.jsonl`` beside OUT.json, and the record is
built from those lines, so a run that fails or a summary that raises keeps
every run finished before it. A run that exits non-zero stops the script
with its standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple:
    """(metrics, env) from one ``perfbench/run.py --trace 0`` run in ``root``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root} {workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, env


def runs_path(out: Path) -> Path:
    """The file beside ``out`` that holds one JSON line per finished run."""
    return out.with_suffix(".runs.jsonl")


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def verdict(row: dict, pairs: int) -> dict:
    """The claim rule for one metric's ``row``: CHANGE better in at least 9
    of 10 pairs, and its median better by more than the parent's IQR."""
    sign = 1.0 if row["better"] == "higher" else -1.0
    gap = sign * (row["change"]["median"] - row["parent"]["median"])
    iqr = row["parent"]["q3"] - row["parent"]["q1"]
    holds = row["change_wins"] >= math.ceil(0.9 * pairs) and gap > iqr
    return {"median_gap": gap, "parent_iqr": iqr, "claim_holds": holds}


def no_regression(row: dict, bound: float) -> str:
    """The regression rule for one metric's ``row`` after ``verdict``:
    "holds", "fails" or "unresolved" (see the module docstring); ``bound``
    is a fraction of the parent's median."""
    sign = 1.0 if row["better"] == "higher" else -1.0
    if min(sign * c for c in row["change"]["values"]) > max(sign * p for p in
                                                             row["parent"]["values"]):
        return "holds"
    allowed = bound * abs(row["parent"]["median"])
    if row["parent_iqr"] > allowed:
        return "unresolved"
    return "holds" if -row["median_gap"] <= allowed else "fails"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=23)
    args = parser.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    with open(runs_path(args.out), "w", encoding="utf-8") as fh:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    metrics, env = run_once(getattr(args, side), workload, args.seed, seconds)
                    fh.write(json.dumps({"pair": i, "workload": workload, "side": side,
                                         "metrics": metrics, "env": env}, sort_keys=True) + "\n")
                    fh.flush()
                    print(f"pair {i} {workload} {side} train_s={metrics['train_s']:.3f}",
                          flush=True)

    runs = {w: {"parent": [], "change": []} for w in workloads}
    with open(runs_path(args.out), "r", encoding="utf-8") as fh:
        for line in fh:
            row = json.loads(line)
            runs[row["workload"]][row["side"]].append(row["metrics"])
            env = row["env"]
    record = {"command": "python3 tools/bench_pairs.py PARENT CHANGE OUT.json "
                         f"--pairs {args.pairs} --seed {args.seed}",
              "seed": args.seed, "pairs": args.pairs, "run_seconds": seconds,
              "environment": env, "workloads": {}}
    for workload, sides in runs.items():
        rows = {}
        for name, metric in end_to_end.items():
            direction = metric["better"]
            parent = [m[name] for m in sides["parent"]]
            change = [m[name] for m in sides["change"]]
            sign = 1.0 if direction == "higher" else -1.0
            row = {
                "better": direction,
                "parent": summary(parent),
                "change": summary(change),
                "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                "parent_wins": sum(sign * (p - c) > 0 for p, c in zip(parent, change)),
            }
            row.update(verdict(row, args.pairs))
            row["no_regression"] = no_regression(row, metric["bound"])
            rows[name] = row
            print(f"{workload} {name}: median {row['parent']['median']:.4g} -> "
                  f"{row['change']['median']:.4g} (parent IQR {row['parent_iqr']:.4g}), "
                  f"change better in {row['change_wins']}/{args.pairs} pairs, claim "
                  f"{'holds' if row['claim_holds'] else 'does not hold'}, no regression "
                  f"{row['no_regression']}")
        record["workloads"][workload] = rows
    args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
