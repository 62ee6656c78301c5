"""Command-line entry point: dataset generation, training, sweeps, checks.

Subcommands: gen, train, sweep, fdcheck, report. A flat JSON config file can
set any training or generation key; explicit flags override file values,
which override the built-in defaults. Each flag of gen, train and sweep that
sets a key is declared from the key (``config_flags``): the key is its
destination and the key's default fixes its type; ``--clusters``,
``--warmup`` and ``--dump-labels`` are the flags of ``n_clusters``,
``warmup_epochs`` and ``track_labels``. Every float array a command writes
(a split's matrices, a checkpoint's ``theta``, the ``--dump-labels`` arrays)
is a ``.npy`` file beside a JSON head, written by ``numerics.write_arrays``;
the label dump is written as the run goes, one epoch's row at a time through
``numerics.ArrayRowWriter``, so no more than one epoch's labels are held.
``gen`` and ``train`` write every output into a staging directory inside
``--out`` and move the files into ``--out`` only when the command has
succeeded (``staged``), so a failed ``gen`` or ``train`` leaves ``--out``
holding the files it held before; SIGTERM cleans up as Ctrl-C does.
Every cell of a ``sweep`` trains from the sweep's ``seed``, so its
``summary.csv`` row is the ``report --csv`` row of ``train --seed S --rho r
--mode m`` with the sweep's other keys, and every mode at a noise rate
trains on the same splits from the same initial networks. A sweep generates
and splits its data once (``build_splits``); a noise rate only re-pairs the
train split, sharing its features.
Exit codes: 0 success, 1 check failure, 2 usage/input error or an output
path that cannot be written, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import shutil
import signal
import sys
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .evalmetrics import (CSV_COLUMNS, RECALL_KS, DetectionReport, RetrievalReport,
                          assemble_report, csv_row)
from .losses import fd_check
from .model import Encoder, save_encoder
from .numerics import (ArrayRowWriter, NumericalError, derive_rng, json_entry, read_json_object,
                       require_int, require_positive, require_real, require_unit_interval)
from .synthdata import GenSpec, generate, inject_noise, load_dataset, save_dataset, split
from .trainer import MODES, TrainConfig, check_split_sizes, evaluate_retrieval, run

# the dataclasses own the key sets; a dataset's seed is the run's ``seed``
GEN_KEYS = tuple(f.name for f in fields(GenSpec) if f.name != "seed")
SPLIT_KEYS = ("f_train", "f_dev", "f_test")
TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig))

DEFAULTS = {
    **{k: getattr(GenSpec(), k) for k in GEN_KEYS},
    "f_train": 0.8,
    "f_dev": 0.1,
    "f_test": 0.1,
    "rho": 0.0,
    **{k: getattr(TrainConfig(), k) for k in TRAIN_KEYS},
    "track_labels": False,  # train writes the label dump (`_label_dump`)
}


def load_config(args, ignored=None) -> dict:
    """DEFAULTS <- the ``--config`` file <- the flags given.

    ``config_flags`` declares each flag of a config key with the key as its
    argparse dest and the type of the key's ``DEFAULTS`` value as its type,
    so every flag whose dest is a ``DEFAULTS`` key overrides the file when
    it is given (not None), parsed to the type the file's value is checked
    for. Each value of the file is checked for its JSON type here, its range
    after the merge. The file may not set a key of ``ignored``, which maps
    the keys ``sweep`` does not take from a config file to the reason.
    """
    cfg = dict(DEFAULTS)
    if args.config:
        file_cfg = read_json_object(args.config)
        for key, value in file_cfg.items():
            if key not in DEFAULTS:
                raise ValueError(f"{args.config}: unknown config key {key!r}")
            if key in (ignored or {}):
                raise ValueError(f"{args.config}: sweep ignores config key {key!r}; "
                                 f"{ignored[key]}")
            kind, where = type(DEFAULTS[key]), f"{args.config}: {key}"
            if kind is float:
                require_real(value, where)
            elif kind is int:
                require_int(value, where)
            elif kind is bool and type(value) is not bool:
                raise ValueError(f"{where} must be true or false, got {value!r}")
            elif kind is tuple and isinstance(value, str):
                file_cfg[key] = comma_list(value, int, where)
            elif kind is tuple and not isinstance(value, list):
                raise ValueError(f"{where} must be a list of integers or a comma-separated "
                                 f"string, got {value!r}")
        cfg.update(file_cfg)
    cfg.update({k: v for k, v in vars(args).items() if k in DEFAULTS and v is not None})
    return cfg


_PIECE_KINDS = {int: "an integer", float: "a number"}  # a str piece always converts


def comma_list(text: str, kind, where: str) -> list:
    """The non-blank pieces of the comma-separated ``text``, stripped and
    converted by ``kind``, one of int, float and str; a ValueError names
    ``where`` (a flag, or a config file and key), the piece and ``text`` if a
    piece does not convert."""
    values = []
    for piece in (tok.strip() for tok in text.split(",")):
        if piece:
            try:
                values.append(kind(piece))
            except ValueError:
                raise ValueError(f"{where}: {piece!r} in {text!r} is not "
                                 f"{_PIECE_KINDS[kind]}") from None
    return values


def train_config_from(cfg: dict) -> TrainConfig:
    return TrainConfig(**{k: cfg[k] for k in TRAIN_KEYS if k != "hidden_dims"},
                       hidden_dims=tuple(cfg["hidden_dims"]))  # load_config splits a string


def gen_spec_from(cfg: dict, seed: int) -> GenSpec:
    return GenSpec(seed=seed, **{k: cfg[k] for k in GEN_KEYS})


def seed_and_rho(cfg: dict) -> tuple:
    """The merged config's ``seed``, any integer (`derive_rng` masks it), and
    ``rho``, a real number in [0, 1]; a ValueError names a ``rho`` outside
    [0, 1]. ``load_config`` has checked the types of both."""
    require_unit_interval(cfg["rho"], "rho")
    return int(cfg["seed"]), float(cfg["rho"])


def out_root(args) -> Path:
    """The output directory, created; called once the inputs are checked, so
    a rejected command leaves no directory behind."""
    base = args.out or os.environ.get("GSC_OUT_DIR") or "runs"
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


@contextlib.contextmanager
def staged(out: Path):
    """A fresh staging directory ``out/.partial-*`` for a command's outputs.

    When the block ends without an exception, each file of the staging
    directory replaces its namesake in ``out``, after a check that none of
    those names is a directory in ``out``; the staging directory is deleted
    either way. So a command that fails, its outputs written or not, leaves
    ``out`` holding the files it held before. This is the only code that
    removes an output file.
    """
    stage = Path(tempfile.mkdtemp(prefix=".partial-", dir=out))
    try:
        yield stage
        names = sorted(p.name for p in stage.iterdir())
        for name in names:
            if (out / name).is_dir():
                raise IsADirectoryError(f"{out / name} is a directory")
        for name in names:
            os.replace(stage / name, out / name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def build_splits(cfg: dict, seed: int, rhos) -> list:
    """One ``(train, dev, test)`` per noise rate of ``rhos``, from one
    generation and one split: each rate re-pairs the clean train split
    (``inject_noise``, from the same ``noise`` generator), so every tuple
    shares the features, and the dev and test splits, of the others."""
    ds = generate(gen_spec_from(cfg, seed))
    train, dev, test = split(ds, cfg["f_train"], cfg["f_dev"], cfg["f_test"],
                             derive_rng(seed, "split"))
    return [(inject_noise(train, rho, derive_rng(seed, "noise")), dev, test) for rho in rhos]


def cmd_gen(args) -> int:
    cfg = load_config(args)
    seed, rho = seed_and_rho(cfg)
    train, dev, test = build_splits(cfg, seed, [rho])[0]
    check_split_sizes("baseline", train, dev, test)  # the smallest minimums of any mode
    out = out_root(args)
    files = {tag: f"{tag}.json" for tag in ("train", "dev", "test")}
    manifest = {
        "files": files,
        "rho": rho,
        "seed": seed,
        "spec": asdict(gen_spec_from(cfg, seed)),
        "splits": {k: cfg[k] for k in SPLIT_KEYS},
    }
    with staged(out) as stage:
        for tag, ds in (("train", train), ("dev", dev), ("test", test)):
            save_dataset(ds, stage / files[tag])
        with open(stage / "manifest.json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(manifest, sort_keys=True))
    print(f"wrote {out / 'manifest.json'} "
          f"(train={train.n}, dev={dev.n}, test={test.n}, "
          f"noisy={int(train.noise_mask.sum())})")
    return 0


def load_splits(data_path: str):
    """Load train/dev/test from a manifest file or its directory."""
    path = Path(data_path)
    if path.is_dir():
        path = path / "manifest.json"
    files = json_entry(path, read_json_object(path), "files", dict)
    names = [json_entry(path, files, tag, str) for tag in ("train", "dev", "test")]
    return tuple(load_dataset(path.parent / name) for name in names)


def _run_cell(tc: TrainConfig, splits, on_labels=None):
    """Train one cell and evaluate its best checkpoint on test."""
    train, dev, test = splits
    result = run(tc, train, dev, on_labels)
    return result, evaluate_retrieval(result.best_nets, test)


def _label_dump(directory: Path, tc: TrainConfig, train) -> ArrayRowWriter:
    """The writer of the label dump in ``directory``: ``labels.json`` holds the
    train split's noise mask and ``labels.{y,y_cm,y_im}.npy`` one row per
    epoch of ``tc``'s schedule (its mode's warm-up included), each row
    appended by ``run``'s ``on_labels`` sink as its epoch ends."""
    return ArrayRowWriter(directory / "labels.json", {"noise_mask": train.noise_mask.tolist()},
                          ("y", "y_cm", "y_im"), (tc.warmup_epochs + tc.epochs, train.n))


def cmd_train(args) -> int:
    cfg = load_config(args)
    seed, rho = seed_and_rho(cfg)
    mode = str(cfg["mode"])
    tc = train_config_from(cfg)
    splits = load_splits(args.data) if args.data else build_splits(cfg, seed, [rho])[0]
    rho = float(splits[0].meta.get("rho", rho))
    check_split_sizes(mode, *splits)
    out = out_root(args)  # before training, so an unwritable --out exits 2 at once
    with staged(out) as stage:
        dump = _label_dump(stage, tc, splits[0]) if cfg["track_labels"] else None
        result, test_retr = _run_cell(tc, splits, None if dump is None else dump.append)
        if dump is not None:
            dump.close()
        with open(stage / "metrics.jsonl", "w", encoding="utf-8") as fh:
            for row in result.history:
                fh.write(json.dumps(row, sort_keys=True) + "\n")
        report = assemble_report(test_retr, result.detection, {
            "mode": mode, "rho": rho, "seed": seed,
            "best_epoch": result.best_epoch,
            "best_dev_recall_sum": result.best_recall_sum,
        })
        with open(stage / "report.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, sort_keys=True, indent=2)
        for net in result.best_nets:
            for modality, enc in (("img", net.img_enc), ("txt", net.txt_enc)):
                save_encoder(enc, stage / f"ckpt_{net.name}_{modality}.json")
    print(f"mode={mode} rho={rho} seed={seed} "
          f"test_rsum={test_retr.recall_sum:.1f} det_acc={result.detection.accuracy:.3f} "
          f"-> {out / 'report.json'}")
    return 0


# the config keys sweep does not take from a config file, and why
SWEEP_IGNORES = {"mode": "its grid comes from --modes and --rhos",
                 "rho": "its grid comes from --modes and --rhos",
                 "track_labels": "it writes no label dump"}


def cmd_sweep(args) -> int:
    cfg = load_config(args, SWEEP_IGNORES)
    rhos = comma_list(args.rhos, float, "--rhos")
    for rho in rhos:
        require_unit_interval(rho, "rho")
    modes = comma_list(args.modes, str, "--modes")
    for flag, values in (("--rhos", rhos), ("--modes", modes)):
        if not values:
            raise ValueError(f"{flag} names no value, so the grid has no cell")
    seed = int(cfg["seed"])
    configs = {mode: train_config_from({**cfg, "mode": mode}) for mode in modes}
    cells = build_splits(cfg, seed, rhos)  # every mode at a rate trains on the same data
    for mode in modes:  # noise leaves the split sizes as they are
        check_split_sizes(mode, *cells[0])
    out = out_root(args)
    csv_path = out / "summary.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        fh.flush()
        for rho, splits in zip(rhos, cells):
            for mode in modes:
                result, test_retr = _run_cell(configs[mode], splits)
                writer.writerow(csv_row(mode, rho, test_retr, result.detection))
                fh.flush()
                print(f"done rho={rho} mode={mode} rsum={test_retr.recall_sum:.1f}")
    print(f"wrote {csv_path}")
    return 0


def cmd_fdcheck(args) -> int:
    # one pair is its own only negative, so a batch of one has a constant loss
    require_int(args.seeds, "--seeds", 1)
    require_int(args.batch, "--batch", 2)
    require_positive(args.h, "--h")
    require_positive(args.tol, "--tol")
    dims = comma_list(args.dims, int, "--dims")
    # the text encoder takes dims[0] - 1 inputs, and an output row of width 1 is +-1,
    # so its gradient is 0
    if len(dims) < 2 or min(dims) < 1 or dims[0] < 2 or dims[-1] < 2:
        raise ValueError(f"--dims {args.dims!r} must list at least two widths, each at least 1 "
                         "and the first and the last at least 2")
    worst = None
    all_pass = True
    for seed in range(args.seeds):
        rng = derive_rng(seed, "fdcheck")
        enc_img = Encoder.init(dims, rng)
        enc_txt = Encoder.init([dims[0] - 1, *dims[1:]], rng)
        x_img = rng.standard_normal((args.batch, dims[0]))
        x_txt = rng.standard_normal((args.batch, dims[0] - 1))
        y = rng.uniform(0.1, 1.0, size=args.batch)
        rep = fd_check(enc_img, enc_txt, x_img, x_txt, y,
                       tau1=0.07, tau2=1.0, gamma=0.01, h=args.h, tol=args.tol)
        print(f"seed {seed}: max_rel_err={rep.max_rel_err:.3e} "
              f"({rep.n_coords} coords, worst {rep.worst_param}) "
              f"{'ok' if rep.passed else 'FAIL'}")
        if worst is None or rep.max_rel_err > worst.max_rel_err:
            worst = rep
        all_pass = all_pass and rep.passed
    if not all_pass:
        print(f"fdcheck FAILED: worst parameter {worst.worst_param} "
              f"rel err {worst.max_rel_err:.3e} (tol {worst.tol})")
        return 1
    print("fdcheck passed")
    return 0


def cmd_report(args) -> int:
    rows = [_report_row(path) for path in args.inputs]
    if args.csv:  # written first, so an output path that cannot be written prints nothing
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            writer.writerows(rows)
    print(" ".join(f"{c:>8}" for c in CSV_COLUMNS))
    for row in rows:
        print(" ".join(f"{v:>8.1f}" if isinstance(v, float) else f"{str(v):>8}"
                       for v in row))
    if args.csv:
        print(f"wrote {args.csv}")
    return 0


def _report_row(path) -> list:
    """The CSV row of the ``report.json`` at ``path``; a ValueError names the
    file and the key that is missing or of the wrong JSON type. ``meta`` and
    ``detection`` may be absent, and ``detection`` and its AUC and means null."""
    rep = read_json_object(path)
    meta = json_entry(path, rep, "meta", dict) if "meta" in rep else {}
    retr = json_entry(path, rep, "retrieval", dict)
    sides = [json_entry(path, retr, side, dict) for side in ("i2t", "t2i")]
    retrieval = RetrievalReport(*(json_entry(path, recalls, f"r{k}", float)
                                  for recalls in sides for k in RECALL_KS))
    det = json_entry(path, rep, "detection", (dict, type(None))) if "detection" in rep else None
    if det is not None:
        det = DetectionReport(json_entry(path, det, "accuracy", float),
                              *(json_entry(path, det, key, (float, type(None)))
                                for key in ("auc", "mean_clean", "mean_noisy")))
    return csv_row(meta.get("mode", "?"), meta.get("rho", ""), retrieval, det)


# the config keys whose flag is not ``--<key>`` with dashes for underscores
FLAG_ALIASES = {"n_clusters": "--clusters", "warmup_epochs": "--warmup",
                "track_labels": "--dump-labels"}


def config_flags(parser: argparse.ArgumentParser, keys, helps: dict) -> None:
    """Add one flag per config key of ``keys``, then ``--config`` and ``--out``.

    A key's flag is ``--<key>`` with dashes for underscores, or its alias in
    ``FLAG_ALIASES``; its argparse dest is the key, and its type the type of
    the key's default in ``DEFAULTS``, the type ``load_config`` checks the
    config file's value against; a bool key is a switch that sets True.
    ``helps`` maps a key to its help text.
    """
    for key in keys:
        flag = FLAG_ALIASES.get(key, "--" + key.replace("_", "-"))
        kind = type(DEFAULTS[key])
        parse = {"action": "store_const", "const": True} if kind is bool else {"type": kind}
        parser.add_argument(flag, dest=key, help=helps.get(key), **parse)
    parser.add_argument("--config")
    parser.add_argument("--out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gsc",
        description="Noise-robust cross-modal retrieval training on synthetic paired data.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_gen = sub.add_parser("gen", help="generate train/dev/test dataset files")
    config_flags(p_gen, ("n", "rho", "seed", "n_clusters", "sigma_cluster", "sigma_view",
                         "d_latent", "d_img", "d_txt", *SPLIT_KEYS),
                 {"n": "total samples before splitting", "rho": "train-split noise rate in [0, 1]"})
    p_gen.set_defaults(func=cmd_gen)

    p_train = sub.add_parser("train", help="run one training configuration")
    p_train.add_argument("--data", help="dataset directory or manifest from `gen`")
    p_train.add_argument("--mode", choices=MODES)
    config_flags(p_train, ("rho", "seed", "epochs", "n", "batch_size", "lr", "gamma", "tau1",
                           "tau2", "beta1", "beta2", "warmup_epochs", "track_labels"),
                 {"rho": "noise rate when generating in-memory data",
                  "track_labels": "write every epoch's labels, as the epoch ends, to "
                  "labels.json and labels.{y,y_cm,y_im}.npy"})
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", help="noise-rate x mode grid, one CSV row per cell")
    p_sweep.add_argument("--rhos", default="0,0.2,0.4,0.6")
    p_sweep.add_argument("--modes", default="gsc,baseline")
    config_flags(p_sweep, ("seed", "epochs", "n"),
                 {"seed": "every cell's data and init seed (config key `seed`, default 0)"})
    p_sweep.set_defaults(func=cmd_sweep)

    p_fd = sub.add_parser("fdcheck", help="finite-difference gradient verification")
    p_fd.add_argument("--seeds", type=int, default=3)
    p_fd.add_argument("--batch", type=int, default=6)
    p_fd.add_argument("--dims", default="8,10,4", help="image-encoder dims; text uses dims[0]-1 inputs")
    p_fd.add_argument("--h", type=float, default=1e-5)
    p_fd.add_argument("--tol", type=float, default=1e-4)
    p_fd.set_defaults(func=cmd_fdcheck)

    p_rep = sub.add_parser("report", help="print/merge report JSON files")
    p_rep.add_argument("inputs", nargs="+", help="report.json files")
    p_rep.add_argument("--csv", help="also write a merged CSV summary")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    """Run the command ``argv`` names and return its exit code: 3 on a
    NumericalError, 2 on invalid arguments or an output that cannot be
    written, each reported as one stderr line.

    The command runs with numpy's floating-point warnings off
    (``np.errstate(all="ignore")``): a non-finite value is reported by the
    package's own checks, which name where it arose, and a warning would
    only add lines before that message."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            return args.func(args)
    except NumericalError as err:
        print(f"numerical abort: {err}", file=sys.stderr)
        return 3
    except OSError as err:  # input files raise ValueError, so this is an output path
        print(f"cannot write output: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"invalid arguments: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    # SIGTERM raises SystemExit, so `staged` deletes its staging directory as
    # on Ctrl-C; `main` leaves signals alone for callers that run it in-process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())


if __name__ == "__main__":
    entry()
