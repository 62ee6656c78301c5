"""Digest of every output file of a fixed set of ``gsc`` runs.

    python3 tools/output_digest.py SRC OUT

imports the ``gsc`` package from the directory ``SRC`` (the ``src`` directory
of a checkout), runs the cells below with their outputs under ``OUT`` (which
must not exist yet), and prints one ``<sha256>  <path>`` line per output
file, paths relative to ``OUT``, then for each split the ``gen`` cell wrote
one ``<sha256>  <split file>:json`` line, the digest of the JSON head the
split's ``.json`` file holds (``json.dumps(json.load(f), sort_keys=True)``;
the matrices are in the ``.npy`` files beside it), and one
``<sha256>  <split file>:<field>`` line per array that
``gsc.synthdata.load_dataset`` returns (the digest covers the array's dtype,
shape and bytes), then for each checkpoint ``ckpt_*.json`` one
``<sha256>  <path>:theta`` line, the array digest of its flat parameter
vector, then for each train cell with a label dump one
``<sha256>  <cell>/labels.json:<field>`` line per field (``y``, ``y_cm``,
``y_im``, each an (epochs, n) float64 array, and the ``noise_mask``), then
for each train cell's ``report.json`` one
``<sha256>  <cell>/report.json:quality`` line, the digest of its test
``retrieval`` and its detection ``accuracy`` and ``auc`` (null without a
detection report). The checkpoint lines are read from ``<stem>.theta.npy``
beside each checkpoint head and the label lines from ``labels.json`` and
the ``labels.<field>.npy`` files beside it, so a change of how either is
stored changes only the file lines, and one of the split files' layout
only the file lines and the splits' ``:json`` lines; a change that reassociates floats shows by the
``:quality`` lines whether the quality fields moved. It exits 1,
naming the file, if a ``.json`` or ``.jsonl`` output holds a ``NaN`` or
``Infinity`` token, which ``json.dumps`` writes but JSON does not allow,
and, naming the path, if a ``.partial-*`` staging entry of ``gen`` or
``train`` is left under ``OUT`` after the cells. A pure refactor leaves every byte of every output and every
loaded array unchanged, so the digests of two checkouts diff empty:

    python3 tools/output_digest.py old/src /tmp/old > old.txt
    python3 tools/output_digest.py src /tmp/new > new.txt
    diff old.txt new.txt

The cells: the 6 modes x ``--warmup`` 0/1/2 of a small in-memory
``gsc train --dump-labels`` run, the same gsc run with every train pair
mismatched (``--rho 1.0``, so one detection class is empty), the same run
with its mode and knobs read from the config file ``OUT/train_config.json``
(``TRAIN_CONFIG``: mode no_ensemble, whose overrides replace the file's
warm-up and momenta, and a ``hidden_dims`` string), a small
``gsc sweep`` of two modes at two noise rates (``SMALL_SWEEP``, so its
``summary.csv`` is digested too), the benchmark's ``gsc gen`` at seed 11 and its workload command lines on that
dataset (``gen_argv``, ``train_argv`` and ``WORKLOADS``, taken from the
``perfbench/run.py`` beside this tool, so the two cannot drift apart), and
``gsc fdcheck --seeds 3``, whose stdout (each
seed's worst finite-difference error and its coordinate) is written to
``OUT/fdcheck.txt``, so a change to the backward pass shows those errors
equal to the last bit or not. The text of ``gsc --help`` and of each
subcommand's ``--help`` is written to ``OUT/help/gsc.txt`` and
``OUT/help/<subcommand>.txt`` (``HELP_ARGV``) and digested with the other
files, so a change to the command-line surface (a flag, its type, its help
or their order) shows as well; ``COLUMNS`` is set to 80 first, since
argparse wraps help to the terminal width. BLAS is pinned to one thread
before numpy loads, so the float results do not depend on the machine's
thread count.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

SMALL_TRAIN = ["--n", "300", "--rho", "0.4", "--epochs", "3", "--batch-size", "32",
               "--seed", "7", "--dump-labels"]
SMALL_SWEEP = ["--n", "300", "--rhos", "0,0.4", "--modes", "gsc,baseline", "--epochs", "2",
               "--seed", "7"]
# OUT/<TRAIN_CONFIG_FILE> holds TRAIN_CONFIG, the config file of one train cell
TRAIN_CONFIG_FILE = "train_config.json"
TRAIN_CONFIG = {"mode": "no_ensemble", "warmup_epochs": 2, "beta1": 0.3, "beta2": 0.2,
                "hidden_dims": "16"}
DATA = "data"
SPLIT_ARRAYS = ("img", "txt", "match_perm", "noise_mask", "cluster_ids")
LABEL_FIELDS = ("y", "y_cm", "y_im")
BENCH_SEED = 11
STDOUT_FILES = {"fdcheck": "fdcheck.txt"}  # subcommand -> file under OUT holding its stdout
# OUT/help/<name>.txt holds the --help text of the command line HELP_ARGV[name]
HELP_ARGV = {"gsc": [], **{command: [command]
                           for command in ("gen", "train", "sweep", "fdcheck", "report")}}


def load_benchmark():
    """The module ``perfbench/run.py`` of this checkout, loaded by file path;
    it imports its sibling modules, and nothing that loads numpy."""
    bench_dir = Path(__file__).resolve().parents[1] / "perfbench"
    sys.path.insert(0, str(bench_dir))
    spec = importlib.util.spec_from_file_location("perfbench_run", bench_dir / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cells(out: Path) -> list:
    """(argv) of every cell, outputs under ``out``; ``gen`` precedes its users."""
    from gsc.trainer import MODES

    bench = load_benchmark()

    argvs = [["train", "--mode", mode, "--warmup", str(warmup), *SMALL_TRAIN,
              "--out", str(out / f"train_{mode}_w{warmup}")]
             for mode in MODES for warmup in (0, 1, 2)]
    argvs.append(["train", "--mode", "gsc", *SMALL_TRAIN, "--rho", "1.0",
                  "--out", str(out / "train_gsc_rho1")])
    argvs.append(["train", "--config", str(out / TRAIN_CONFIG_FILE), *SMALL_TRAIN,
                  "--out", str(out / "train_config")])
    argvs.append(["sweep", *SMALL_SWEEP, "--out", str(out / "sweep")])
    data = out / DATA
    argvs.append(bench.gen_argv(BENCH_SEED, data))
    argvs += [[*bench.train_argv(name, BENCH_SEED, data), "--out", str(out / name)]
              for name in bench.WORKLOADS]
    argvs.append(["fdcheck", "--seeds", "3"])
    return argvs


def array_digest(arr) -> str:
    """sha256 of an array's dtype, shape and C-order bytes."""
    head = f"{arr.dtype.str} {arr.shape}\n".encode("ascii")
    return hashlib.sha256(head + arr.tobytes(order="C")).hexdigest()


def checkpoint_theta(path: Path):
    """The flat parameter vector of the checkpoint ``path``."""
    import numpy as np

    return np.load(path.with_suffix(".theta.npy"), allow_pickle=False)


def label_arrays(cell: Path) -> dict:
    """``{y, y_cm, y_im, noise_mask}`` of the label dump in ``cell``, from
    ``labels.json`` and its ``.npy`` files."""
    import numpy as np

    head = cell / "labels.json"
    with open(head, "r", encoding="utf-8") as fh:
        arrays = {"noise_mask": np.array(json.load(fh)["noise_mask"], dtype=bool)}
    for name in LABEL_FIELDS:
        arrays[name] = np.load(head.with_suffix(f".{name}.npy"), allow_pickle=False)
    return arrays


def help_text(main, argv) -> str:
    """What ``main([*argv, "--help"])`` prints; argparse prints the help and
    exits 0, and any other exit propagates."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        try:
            main([*argv, "--help"])
        except SystemExit as done:
            if done.code != 0:
                raise
    return stdout.getvalue()


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def non_json_outputs(out: Path) -> list:
    """``<file>: <error>`` for every ``.json``/``.jsonl`` output under ``out``
    that does not parse as strict JSON (one document per ``.jsonl`` line)."""
    problems = []
    for path in sorted(p for p in out.rglob("*") if p.suffix in (".json", ".jsonl")):
        text = path.read_text(encoding="utf-8")
        try:
            for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
                json.loads(doc, parse_constant=_reject_constant)
        except ValueError as err:
            problems.append(f"{path.relative_to(out).as_posix()}: {err}")
    return problems


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/output_digest.py SRC OUT", file=sys.stderr)
        return 2
    src, out = Path(args[0]).resolve(), Path(args[1])
    if out.exists():
        print(f"{out} exists; give a fresh output directory", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["COLUMNS"] = "80"  # argparse wraps help to it
    sys.path.insert(0, str(src))
    import gsc.cli

    if Path(gsc.cli.__file__).resolve().parents[1] != src:
        print(f"gsc was imported from {gsc.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    out.mkdir(parents=True)
    (out / TRAIN_CONFIG_FILE).write_text(json.dumps(TRAIN_CONFIG), encoding="utf-8")
    for cell in cells(out):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = gsc.cli.main(cell)
        if code != 0:
            print(f"exit {code}: gsc {' '.join(cell)}", file=sys.stderr)
            return 1
        if cell[0] in STDOUT_FILES:
            (out / STDOUT_FILES[cell[0]]).write_text(stdout.getvalue(), encoding="utf-8")
    (out / "help").mkdir()
    for name, argv in HELP_ARGV.items():
        (out / "help" / f"{name}.txt").write_text(help_text(gsc.cli.main, argv), encoding="utf-8")
    problems = [f"{p.relative_to(out).as_posix()}: a staging entry left after its command"
                for p in sorted(out.rglob(".partial-*"))] + non_json_outputs(out)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    from gsc.synthdata import load_dataset

    for tag in ("train", "dev", "test"):
        path = out / DATA / f"{tag}.json"
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.dumps(json.load(fh), sort_keys=True)
        print(f"{hashlib.sha256(doc.encode('utf-8')).hexdigest()}  {DATA}/{tag}.json:json")
        ds = load_dataset(path)
        for name in SPLIT_ARRAYS:
            print(f"{array_digest(getattr(ds, name))}  {DATA}/{tag}.json:{name}")
    for path in sorted(out.rglob("ckpt_*.json")):
        print(f"{array_digest(checkpoint_theta(path))}  {path.relative_to(out).as_posix()}:theta")
    for cell in sorted(p.parent for p in out.rglob("labels.json")):
        arrays = label_arrays(cell)
        for name in (*LABEL_FIELDS, "noise_mask"):
            print(f"{array_digest(arrays[name])}  "
                  f"{(cell / 'labels.json').relative_to(out).as_posix()}:{name}")
    for path in sorted(out.rglob("report.json")):
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
        detection = report["detection"] or {}  # None when a run has no detection
        fields = json.dumps({"retrieval": report["retrieval"], "accuracy": detection.get("accuracy"),
                             "auc": detection.get("auc")}, sort_keys=True)
        print(f"{hashlib.sha256(fields.encode('utf-8')).hexdigest()}  "
              f"{path.relative_to(out).as_posix()}:quality")
    return 0


if __name__ == "__main__":
    sys.exit(main())
