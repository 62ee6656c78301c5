import argparse
import csv
import json
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from gsc import cli, trainer
from gsc.losses import grad_total
from gsc.model import load_encoder
from gsc.numerics import MIN_COSINE_TEMPERATURE, NumericalError


def run_cli(*argv):
    return cli.main(list(argv))


def read_jsonl(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


GEN_ARGS = ["--n", "120", "--clusters", "6", "--d-latent", "6",
            "--d-img", "10", "--d-txt", "9", "--seed", "7"]
FAST_TRAIN = ["--n", "160", "--epochs", "2", "--batch-size", "32", "--seed", "5"]


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset, want", [
    ({}, ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"]),  # an explicit setting wins
], ids=["unset", "openblas-2"])
def test_importing_gsc_pins_blas_to_one_thread_unless_set(preset, want):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    code = f"import os, gsc; print(' '.join(os.environ.get(v, '-') for v in {BLAS_VARS!r}))"
    proc = subprocess.run([sys.executable, "-c", code], env={**env, **preset},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == want


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

SPLIT_FILES = [f"{tag}{suffix}" for tag in ("train", "dev", "test")
               for suffix in (".json", ".img.npy", ".txt.npy")]


def test_gen_writes_three_splits_and_manifest(tmp_path):
    out = tmp_path / "d"
    assert run_cli("gen", *GEN_ARGS, "--rho", "0.4", "--out", str(out)) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted([*SPLIT_FILES, "manifest.json"])
    train = json.loads((out / "train.json").read_text())
    n_train = train["meta"]["N"]
    assert sum(train["mask"]) == int(np.ceil(0.4 * n_train))
    dev = json.loads((out / "dev.json").read_text())
    assert sum(dev["mask"]) == 0


def test_gen_zero_noise_mask_all_false(tmp_path):
    out = tmp_path / "d"
    assert run_cli("gen", *GEN_ARGS, "--rho", "0", "--out", str(out)) == 0
    train = json.loads((out / "train.json").read_text())
    assert sum(train["mask"]) == 0


def test_gen_is_byte_identical_across_reruns(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_cli("gen", *GEN_ARGS, "--rho", "0.4", "--out", str(out1))
    run_cli("gen", *GEN_ARGS, "--rho", "0.4", "--out", str(out2))
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted([*SPLIT_FILES, "manifest.json"])  # the 10 files gen writes
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_on_generated_dataset(tmp_path):
    data = tmp_path / "d"
    run_cli("gen", *GEN_ARGS, "--rho", "0.4", "--out", str(data))
    out = tmp_path / "run"
    code = run_cli("train", "--data", str(data), "--out", str(out),
                   "--mode", "gsc", "--epochs", "2", "--batch-size", "32", "--seed", "5")
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["meta"]["mode"] == "gsc"
    assert report["retrieval"]["recall_sum"] > 0
    rows = read_jsonl(out / "metrics.jsonl")
    assert len(rows) == 3  # 1 warm-up + 2 epochs
    assert {"epoch", "mode", "loss_cm", "loss_im", "dev_r1_i2t", "dev_r1_t2i",
            "recall_sum", "det_acc", "det_auc"} == set(rows[0])
    assert (out / "ckpt_A_img.json").exists() and (out / "ckpt_B_txt.json").exists()


def test_checkpoints_load_back_to_the_reported_test_retrieval(tmp_path):
    data = tmp_path / "d"
    assert run_cli("gen", *GEN_ARGS, "--rho", "0.4", "--out", str(data)) == 0
    out = tmp_path / "run"
    assert run_cli("train", "--data", str(data), "--out", str(out), "--epochs", "2",
                   "--batch-size", "32", "--seed", "5") == 0
    nets = []
    for name in "AB":
        paths = [out / f"ckpt_{name}_{m}.json" for m in ("img", "txt")]
        assert all(sorted(json.loads(path.read_text())) == ["dims"] for path in paths)
        nets.append(trainer.Network(name, *map(load_encoder, paths)))
    retr = trainer.evaluate_retrieval(nets, cli.load_splits(str(data))[2])
    reported = json.loads((out / "report.json").read_text())["retrieval"]
    assert [getattr(retr, f"r{k}_{d}") for d in ("i2t", "t2i") for k in (1, 5, 10)] == [
        reported[d][f"r{k}"] for d in ("i2t", "t2i") for k in (1, 5, 10)]


class _MakesDir:
    """An object whose unpickling creates the directory ``path``."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return os.mkdir, (self.path,)


def _resave(key, make):
    """A corruption of the split at ``path`` that saves ``make(matrix, path)``
    in place of its ``key`` matrix."""
    def corrupt(path):
        npy = path.with_suffix(f".{key}.npy")
        np.save(npy, make(np.load(npy), path), allow_pickle=True)
    return corrupt


def _edit_head(text_edit):
    def corrupt(path):
        path.write_text(text_edit(path.read_text()))
    return corrupt


def _inline(layout):
    """A rewrite of the split at ``path`` into an earlier layout, the
    matrices inline as lists and no ``.npy`` files."""
    def rewrite(path):
        obj = json.loads(path.read_text())
        for key in ("img", "txt"):
            npy = path.with_suffix(f".{key}.npy")
            obj[key] = np.load(npy).tolist()
            npy.unlink()
        path.write_text(layout(obj))
    return rewrite


def _row_per_line(obj):
    """``obj`` in the layout of one matrix row a line of an earlier `gsc gen`."""
    head = json.dumps({k: v for k, v in obj.items() if k not in ("img", "txt")},
                      sort_keys=True)
    img, txt = (",\n".join(json.dumps(row) for row in obj[key]) for key in ("img", "txt"))
    return f'{head[:-1]}, "img": [\n{img}\n], "txt": [\n{txt}\n]}}\n'


def _truncate(path):
    npy = path.with_suffix(".img.npy")
    npy.write_bytes(npy.read_bytes()[:-8])


# the train split of GEN_ARGS: 96 rows of 10 image and 9 text features
REGENERATE = "regenerate it with `gsc gen`"
MALFORMED_SPLITS = {
    "truncated": (_truncate, "train.img.npy: Failed to read all data"),
    "missing-npy": (lambda path: path.with_suffix(".txt.npy").unlink(),
                    "train.txt.npy: No such file or directory"),
    "float32": (_resave("img", lambda m, _: m.astype(np.float32)),
                "train.img.npy: expected a float64 matrix of shape (96, 10), got float32"),
    "int": (_resave("txt", lambda m, _: m.astype(np.int64)),
            "train.txt.npy: expected a float64 matrix of shape (96, 9), got int64"),
    "string-in-row": (_resave("txt", lambda m, _: m.astype(str)), "train.txt.npy: expected"),
    "row-count": (_resave("img", lambda m, _: m[:-1]),
                  "train.img.npy: expected a float64 matrix of shape (96, 10), "
                  "got float64 of shape (95, 10)"),
    "ragged-row": (_resave("img", lambda m, _: m[:, :-1]),
                   "train.img.npy: expected a float64 matrix of shape (96, 10), "
                   "got float64 of shape (96, 9)"),
    "pickled-object": (_resave("txt", lambda _, path: np.array(
        [_MakesDir(path.parent / "unpickled")], dtype=object)),
        "train.txt.npy: Object arrays cannot be loaded when allow_pickle=False"),
    "nan": (_resave("txt", lambda m, _: np.where(m == m[7, 2], np.nan, m)),
            "text features contains non-finite entries"),
    "row-per-line-layout": (_inline(_row_per_line), REGENERATE),
    "single-line-layout": (_inline(lambda obj: json.dumps(obj, sort_keys=True)), REGENERATE),
    "null-rho": (_edit_head(lambda text: text.replace('"rho": 0.4', '"rho": null', 1)),
                 "meta.rho must be a real number, got None"),
    "rho-above-one": (_edit_head(lambda text: text.replace('"rho": 0.4', '"rho": 1.5', 1)),
                      "meta.rho must lie in [0, 1], got 1.5"),
}


@pytest.mark.parametrize("case", list(MALFORMED_SPLITS))
def test_train_on_malformed_split_exits_2_naming_the_file(tmp_path, capsys, case):
    corrupt, message = MALFORMED_SPLITS[case]
    data = tmp_path / "d"
    run_cli("gen", *GEN_ARGS, "--rho", "0.4", "--out", str(data))
    path = data / "train.json"
    corrupt(path)
    capsys.readouterr()
    assert run_cli("train", "--data", str(data), "--out", str(tmp_path / "run")) == 2
    err = capsys.readouterr().err
    assert f"{path}: " in err and message in err
    assert not (data / "unpickled").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda m: m.pop("files"), "missing key 'files'"),
    (lambda m: m["files"].pop("dev"), "missing key 'dev'"),
    (lambda m: m.update(files=["train.json", "dev.json", "test.json"]),
     "'files' must be a JSON object, got ['train.json'"),
    (lambda m: m["files"].update(dev=5), "'dev' must be a JSON string, got 5"),
    (lambda m: m["files"].update(test=None), "'test' must be a JSON string, got None"),
], ids=["no-files", "no-dev-file", "files-list", "dev-number", "test-null"])
def test_train_on_manifest_without_a_split_exits_2_naming_it(tmp_path, capsys, edit, message):
    data = tmp_path / "d"
    run_cli("gen", *GEN_ARGS, "--out", str(data))
    path = data / "manifest.json"
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run_cli("train", "--data", str(data), "--out", str(tmp_path / "run")) == 2
    assert f"{path}: {message}" in capsys.readouterr().err


def test_train_with_every_pair_noisy_has_undefined_auc(tmp_path):
    out = tmp_path / "run"
    assert run_cli("train", *FAST_TRAIN, "--rho", "1.0", "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["meta"]["rho"] == 1.0
    assert report["detection"]["auc"] is None


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("rho, empty", [(1.0, "mean_clean"), (0.0, "mean_noisy")])
def test_train_with_one_class_of_pairs_writes_valid_json(tmp_path, rho, empty):
    out = tmp_path / "run"
    assert run_cli("train", *FAST_TRAIN, "--rho", str(rho), "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text(), parse_constant=_reject_constant)
    assert report["detection"][empty] is None  # no pair of that class to average
    for line in (out / "metrics.jsonl").read_text().splitlines():
        json.loads(line, parse_constant=_reject_constant)


@pytest.mark.parametrize("batch_size", [128, 1000])  # the train split has 128 pairs
def test_batch_at_least_the_train_split_is_one_batch(tmp_path, monkeypatch, batch_size):
    sizes = []

    def counting(enc_img, enc_txt, x_img, *args):
        sizes.append(x_img.shape[0])
        return grad_total(enc_img, enc_txt, x_img, *args)

    monkeypatch.setattr(trainer, "grad_total", counting)
    out = tmp_path / "run"
    assert run_cli("train", *FAST_TRAIN, "--batch-size", str(batch_size),
                   "--rho", "0.4", "--out", str(out)) == 0
    assert sizes == [128] * 2 * 3  # 2 networks x (1 warm-up + 2 epochs)
    assert len(read_jsonl(out / "metrics.jsonl")) == 3


def test_train_zero_epochs_reports_warmup_state(tmp_path):
    out = tmp_path / "run"
    code = run_cli("train", *FAST_TRAIN, "--epochs", "0", "--rho", "0.4",
                   "--out", str(out))
    assert code == 0
    rows = read_jsonl(out / "metrics.jsonl")
    assert len(rows) == 1
    assert (out / "report.json").exists()


def test_train_with_no_epoch_at_all_exits_2(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("train", *FAST_TRAIN, "--epochs", "0", "--warmup", "0",
                   "--out", str(out)) == 2
    assert "warmup_epochs + epochs" in capsys.readouterr().err
    assert not (out / "metrics.jsonl").exists() and not (out / "report.json").exists()
    # a no_ensemble config holds its mode's 5-epoch warm-up, so the same flags still train
    assert run_cli("train", *FAST_TRAIN, "--mode", "no_ensemble", "--epochs", "0",
                   "--warmup", "0", "--out", str(out)) == 0
    assert len(read_jsonl(out / "metrics.jsonl")) == 5


def test_tau1_below_the_cosine_floor_exits_2_naming_it(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("train", *FAST_TRAIN, "--tau1", "0.001", "--out", str(out)) == 2
    assert "tau1 must be at least 0.00282328" in capsys.readouterr().err
    assert not (out / "report.json").exists()
    assert run_cli("train", *FAST_TRAIN, "--tau1", repr(MIN_COSINE_TEMPERATURE),
                   "--out", str(out)) == 0
    assert len(read_jsonl(out / "metrics.jsonl")) == 3


def test_train_missing_dataset_exits_2(tmp_path):
    assert run_cli("train", "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "o")) == 2


@pytest.mark.parametrize("argv", [
    ["train", "--tau1", "-1"],
    ["gen", "--n", "0"],
    ["gen", "--n", "40", "--clusters", "2"],  # a dev split of 4, which no mode can train on
    ["train", "--n", "50"],  # a dev split of 5, below the 10 that Recall@10 needs
    ["train", "--data", "nowhere"],
    ["sweep", "--n", "50", "--epochs", "1"],  # every cell's dev split has 5 samples
    # no train sample at all, which even a mode without label estimation needs
    ["train", "--mode", "baseline", "--n", "40", "--epochs", "1", "--config", "no-train.json"],
    ["sweep", "--rhos", "", "--n", "120", "--epochs", "1"],  # a grid of no cell
    ["sweep", "--rhos", "0", "--modes", " , ", "--n", "120", "--epochs", "1"],
], ids=["train-bad-config", "gen-no-samples", "gen-small-split", "train-small-split",
        "train-no-data", "sweep-small-split", "train-empty-train-split", "sweep-no-rho",
        "sweep-no-mode"])
def test_a_rejected_command_creates_no_out_directory(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # "nowhere" names no file in it
    (tmp_path / "no-train.json").write_text(json.dumps({"f_train": 0.0, "f_dev": 0.5,
                                                        "f_test": 0.5}))
    assert run_cli(*argv, "--out", "X") == 2
    assert not (tmp_path / "X").exists()


def test_train_no_ensemble_maps_to_long_warmup(tmp_path):
    out = tmp_path / "run"
    code = run_cli("train", *FAST_TRAIN, "--mode", "no_ensemble", "--rho", "0.4",
                   "--out", str(out))
    assert code == 0
    rows = read_jsonl(out / "metrics.jsonl")
    assert len(rows) == 5 + 2  # 5 warm-up epochs replace ensembling


LABEL_FILES = ["labels.json", "labels.y.npy", "labels.y_cm.npy", "labels.y_im.npy"]
CKPT_FILES = [f"ckpt_{net}_{modality}{suffix}" for net in "AB" for modality in ("img", "txt")
              for suffix in (".json", ".theta.npy")]


@pytest.mark.parametrize("mode, n_epochs", [
    ("gsc", 1 + 2),
    ("no_ensemble", 5 + 2),  # the mode's 5 warm-up epochs replace the configured 1
], ids=["gsc", "no_ensemble"])
def test_train_dump_labels(tmp_path, mode, n_epochs):
    argv = ["train", *FAST_TRAIN, "--rho", "0.5", "--mode", mode, "--dump-labels"]
    out = tmp_path / "run"
    assert run_cli(*argv, "--out", str(out)) == 0
    # every output, and no staging entry
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["metrics.jsonl", "report.json", *LABEL_FILES, *CKPT_FILES])
    # the rows a direct run of the same cell hands its sink
    cfg = cli.load_config(cli.build_parser().parse_args(argv))
    seed, rho = cli.seed_and_rho(cfg)
    train, dev, _ = cli.build_splits(cfg, seed, [rho])[0]
    rows = []
    trainer.run(cli.train_config_from(cfg), train, dev, rows.append)
    assert len(rows) == n_epochs
    head = json.loads((out / "labels.json").read_text())
    assert head == {"noise_mask": train.noise_mask.tolist()} and any(head["noise_mask"])
    n_train = 128  # 160 * default f_train 0.8
    for key in ("y", "y_cm", "y_im"):
        dumped = np.load(out / f"labels.{key}.npy", allow_pickle=False)
        assert dumped.dtype == np.float64 and dumped.shape == (n_epochs, n_train)
        assert np.array_equal(dumped, np.stack([row[key] for row in rows]))
    # a rerun writes the same bytes
    again = tmp_path / "again"
    assert run_cli(*argv, "--out", str(again)) == 0
    for name in LABEL_FILES:
        assert (again / name).read_bytes() == (out / name).read_bytes()


def _snapshot(directory):
    """Every entry under ``directory``: a file's bytes, None for a directory."""
    return {p.relative_to(directory).as_posix(): p.read_bytes() if p.is_file() else None
            for p in directory.rglob("*")}


def _abort_at_epoch_2(monkeypatch, out):
    """Make training raise NumericalError as epoch 2 starts, after the dump
    has two rows on disk in the staging directory."""
    train_epoch = trainer.train_epoch

    def aborting(state, *args):
        if state.epoch == 2:
            (stage,) = out.glob(".partial-*")
            row_bytes = (stage / "labels.y.npy").stat().st_size - 128  # a 128-byte .npy header
            assert row_bytes == 2 * 128 * 8  # two rows of the 128 train samples
            raise NumericalError("epoch 2, net A, batch 0: non-finite values in the loss")
        return train_epoch(state, *args)

    monkeypatch.setattr(trainer, "train_epoch", aborting)


def _report_is_a_directory(monkeypatch, out):
    (out / "report.json").unlink(missing_ok=True)
    (out / "report.json").mkdir(parents=True)


def _train_fails_leaving_out_as_it_was(monkeypatch, capsys, out, argv, make_fail, code, message):
    if make_fail:
        make_fail(monkeypatch, out)
    before = _snapshot(out) if out.exists() else {}
    with np.errstate(all="ignore"):
        assert run_cli("train", *FAST_TRAIN, *argv, "--dump-labels", "--out", str(out)) == code
    assert message in capsys.readouterr().err
    assert out.is_dir() and _snapshot(out) == before


@pytest.mark.parametrize("argv, make_fail, code, message", [
    (["--tau2", "1e-300"], None, 3, "numerical abort: epoch 0, net A, batch 0"),
    ([], _abort_at_epoch_2, 3, "numerical abort: epoch 2, net A, batch 0"),
    # the run ends, then an output cannot be written
    ([], _report_is_a_directory, 2, "cannot write output: "),
], ids=["abort-at-epoch-0", "abort-at-epoch-2", "unwritable-report"])
def test_a_failed_train_leaves_no_label_dump(tmp_path, monkeypatch, capsys, argv, make_fail,
                                             code, message):
    _train_fails_leaving_out_as_it_was(monkeypatch, capsys, tmp_path / "o", argv, make_fail,
                                       code, message)


@pytest.mark.parametrize("make_fail, code, message", [
    (_abort_at_epoch_2, 3, "numerical abort: epoch 2, net A, batch 0"),
    (_report_is_a_directory, 2, "cannot write output: "),
], ids=["abort-at-epoch-2", "unwritable-report"])
def test_a_failed_train_leaves_an_earlier_run_as_it_was(tmp_path, monkeypatch, capsys, make_fail,
                                                        code, message):
    out = tmp_path / "o"
    assert run_cli("train", *FAST_TRAIN, "--seed", "3", "--dump-labels", "--out", str(out)) == 0
    _train_fails_leaving_out_as_it_was(monkeypatch, capsys, out, [], make_fail, code, message)


@pytest.mark.parametrize("earlier", [False, True], ids=["empty-out", "earlier-gen"])
def test_a_failed_gen_leaves_out_as_it_was(tmp_path, capsys, earlier):
    out = tmp_path / "g"
    if earlier:
        assert run_cli("gen", *GEN_ARGS, "--out", str(out)) == 0
        (out / "test.json").unlink()
    (out / "test.json").mkdir(parents=True)
    before = _snapshot(out)
    assert run_cli("gen", *GEN_ARGS, "--seed", "8", "--out", str(out)) == 2
    assert "cannot write output: " in capsys.readouterr().err
    assert _snapshot(out) == before


def test_sigterm_to_a_train_leaves_out_as_it_was(tmp_path):
    """The `gsc` script's entry point turns SIGTERM into exit code 143, so the
    staging directory is deleted as on Ctrl-C."""
    out = tmp_path / "k"
    out.mkdir()
    (out / "earlier.txt").write_text("an earlier output")
    before = _snapshot(out)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    argv = ["train", "--n", "400", "--epochs", "100000", "--dump-labels", "--out", str(out)]
    proc = subprocess.Popen([sys.executable, "-c", "from gsc.cli import entry; entry()", *argv],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not any(out.glob(".partial-*/labels.json")):  # training has begun
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.02)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
    assert _snapshot(out) == before


def test_track_labels_in_config_and_dump_labels_are_one_switch(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"track_labels": True}))
    by_flag, by_config, off = tmp_path / "flag", tmp_path / "config", tmp_path / "off"
    args = [*FAST_TRAIN, "--rho", "0.5"]
    assert run_cli("train", *args, "--dump-labels", "--out", str(by_flag)) == 0
    assert run_cli("train", *args, "--config", str(cfg_path), "--out", str(by_config)) == 0
    for name in LABEL_FILES:
        assert (by_config / name).read_bytes() == (by_flag / name).read_bytes()
    cfg_path.write_text(json.dumps({"track_labels": False}))
    assert run_cli("train", *args, "--config", str(cfg_path), "--out", str(off)) == 0
    assert not any(off.glob("labels.*"))


# argparse dests of gen, train and sweep that are not config keys
NON_CONFIG_DESTS = {"help", "config", "out", "data", "rhos", "modes"}


def test_every_flag_of_a_config_command_is_a_config_key_or_listed():
    (subparsers,) = [a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    for command in ("gen", "train", "sweep"):
        for action in subparsers.choices[command]._actions:
            assert action.dest in cli.DEFAULTS or action.dest in NON_CONFIG_DESTS, \
                (command, action.option_strings, action.dest)


def test_a_flag_overrides_its_config_key(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_clusters": 3, "warmup_epochs": 2}))
    args = cli.build_parser().parse_args(["train", "--config", str(cfg_path), "--warmup", "0"])
    cfg = cli.load_config(args)
    assert (cfg["n_clusters"], cfg["warmup_epochs"], cfg["track_labels"]) == (3, 0, False)
    args = cli.build_parser().parse_args(["gen", "--clusters", "4", "--config", str(cfg_path)])
    assert cli.load_config(args)["n_clusters"] == 4


@pytest.mark.parametrize("n, split_cfg, split_name, minimum", [
    (30, {}, "dev", 10),  # 24/3/3 samples
    (40, {"f_train": 0.4, "f_dev": 0.5, "f_test": 0.1}, "test", 10),  # 16/20/4
    (23, {"f_train": 0.1, "f_dev": 0.45, "f_test": 0.45}, "train", 4),  # 3/10/10
    (40, {"mode": "baseline", "f_train": 0.0, "f_dev": 0.5, "f_test": 0.5}, "train", 1),  # 0/20/20
])
def test_train_rejects_too_small_split_before_training(tmp_path, capsys, n, split_cfg,
                                                       split_name, minimum):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_clusters": 2, **split_cfg}))
    out = tmp_path / "run"
    code = run_cli("train", "--n", str(n), "--config", str(cfg_path), "--out", str(out))
    assert code == 2
    err = capsys.readouterr().err
    assert f"{split_name} split" in err and f"at least {minimum}" in err
    assert not (out / "metrics.jsonl").exists()


@pytest.mark.parametrize("rho", ["nan", "-0.5", "1.5"])
@pytest.mark.parametrize("argv, output", [
    (["gen", "--n", "100"], "manifest.json"),
    (["train", *FAST_TRAIN], "metrics.jsonl"),
    (["sweep", "--n", "120", "--epochs", "1", "--rhos", "0,{rho}"], "summary.csv"),
], ids=["gen", "train", "sweep"])
def test_noise_rate_outside_unit_interval_exits_2(tmp_path, capsys, rho, argv, output):
    argv = [arg.format(rho=rho) for arg in argv]
    if argv[0] != "sweep":
        argv += ["--rho", rho]
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == 2
    assert f"rho must lie in [0, 1], got {float(rho)}" in capsys.readouterr().err
    assert not (out / output).exists()


def test_train_numerical_abort_exits_3(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise NumericalError("epoch 1, net A, batch 0: non-finite loss value")

    monkeypatch.setattr(cli, "run", explode)
    assert run_cli("train", *FAST_TRAIN, "--out", str(tmp_path / "o")) == 3


@pytest.mark.parametrize("tau2, stage", [
    ("1e-307", "the loss"),  # core / tau2 overflows, so the structure logits are not finite
    ("1e-300", "the Adam second moment"),  # the loss is finite, a gradient's square is not
])
def test_train_nonfinite_loss_or_adam_moment_exits_3_naming_it(tmp_path, capsys, tau2, stage):
    argv = ["train", "--n", "300", "--rho", "0.4", "--epochs", "1", "--batch-size", "32",
            "--seed", "7", "--tau2", tau2, "--out", str(tmp_path / "o")]
    with np.errstate(all="ignore"):
        assert run_cli(*argv) == 3
    assert (f"numerical abort: epoch 0, net A, batch 0: non-finite values in {stage}"
            in capsys.readouterr().err)
    assert not (tmp_path / "o" / "report.json").exists()


def test_train_with_nonfinite_dev_embeddings_exits_3_naming_the_evaluation(tmp_path, capsys):
    # every weight stays finite after epoch 0, but both networks' dev embeddings overflow
    out = tmp_path / "o"
    argv = ["train", "--n", "300", "--epochs", "1", "--warmup", "0", "--batch-size", "240",
            "--lr", "1e308", "--out", str(out)]
    with np.errstate(all="ignore"):
        assert run_cli(*argv) == 3
    assert ("numerical abort: epoch 0, net A, dev evaluation: non-finite values in image "
            "embeddings" in capsys.readouterr().err)
    assert list(out.iterdir()) == []


NONFINITE_TRAINS = {
    # a step's squared embedding norms overflow, which a division by them would
    # turn into rows of zeros
    "embedding-norm-overflow": (["--epochs", "3", "--warmup", "1", "--batch-size", "64",
                                 "--lr", "1e200"],
                                "epoch 0, net A, batch 1: non-finite values in image embeddings"),
    "dev-embeddings": (["--epochs", "1", "--warmup", "0", "--batch-size", "240", "--lr", "1e308"],
                       "epoch 0, net A, dev evaluation: non-finite values in image embeddings"),
    "loss": (["--rho", "0.4", "--epochs", "1", "--batch-size", "32", "--seed", "7",
              "--tau2", "1e-307"], "epoch 0, net A, batch 0: non-finite values in the loss"),
    "adam-moment": (["--rho", "0.4", "--epochs", "1", "--batch-size", "32", "--seed", "7",
                     "--tau2", "1e-300"],
                    "epoch 0, net A, batch 0: non-finite values in the Adam second moment"),
}


@pytest.mark.parametrize("argv, message", list(NONFINITE_TRAINS.values()),
                         ids=list(NONFINITE_TRAINS))
def test_a_numerical_abort_prints_one_line_and_no_warning(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("train", "--n", "300", *argv, "--out", str(out)) == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"numerical abort: {message}\n"
    assert list(out.iterdir()) == []


def test_train_rejects_a_width_1_embedding_before_writing(tmp_path, capsys):
    # every unit row of width 1 is +-1, so no gradient would move a network
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"embed_dim": 1}))
    out = tmp_path / "run"
    assert run_cli("train", *FAST_TRAIN, "--config", str(cfg_path), "--out", str(out)) == 2
    assert "embed_dim must be an integer >= 2, got 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["gmm_floor", "lr_decay"])
def test_train_rejects_nonfinite_config_value_before_training(tmp_path, capsys, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: float("nan")}))  # written as NaN
    out = tmp_path / "run"
    assert run_cli("train", *FAST_TRAIN, "--config", str(cfg_path), "--out", str(out)) == 2
    assert f"{key} must be positive and finite" in capsys.readouterr().err
    assert not (out / "metrics.jsonl").exists()


@pytest.mark.parametrize("command, key, value", [
    ("gen", "n", 300.5), ("gen", "n_clusters", 4.5), ("gen", "d_img", "48"),
    ("train", "batch_size", 64.5), ("train", "epochs", 1.5), ("train", "embed_dim", "8"),
    ("train", "hidden_dims", [16.7]), ("train", "epochs", True),
])
def test_non_integer_config_field_exits_2_naming_it(tmp_path, capsys, command, key, value):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    extra = ["--n", "160"] if command == "train" and key != "n" else []
    assert run_cli(command, *extra, "--config", str(cfg_path), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "must be an integer" in err and key in err
    assert not any(out.glob("*.json*"))


@pytest.mark.parametrize("config, message", [
    ({"hidden_dims": 64}, "hidden_dims must be a list of integers"),
    (5, "must hold a JSON object, got 5"),
    ({"lr": "0.1"}, "lr must be a real number, got '0.1'"),
    ({"lr": True}, "lr must be a real number, got True"),
    ({"gamma": None}, "gamma must be a real number, got None"),
    ({"beta1": "0.5"}, "beta1 must be a real number, got '0.5'"),
], ids=["hidden_dims-int", "top-level-number", "lr-string", "lr-bool", "gamma-null",
        "beta1-string"])
def test_config_value_of_the_wrong_type_exits_2_naming_it(tmp_path, capsys, config, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert run_cli("train", *FAST_TRAIN, "--config", str(cfg_path), "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not (out / "metrics.jsonl").exists()


@pytest.mark.parametrize("command", ["gen", "train"])
@pytest.mark.parametrize("config, message", [
    ({"rho": None}, "rho must be a real number, got None"),
    ({"rho": "0.4"}, "rho must be a real number, got '0.4'"),
    ({"seed": None}, "seed must be an integer, got None"),
    ({"seed": "7"}, "seed must be an integer, got '7'"),
    ({"seed": 7.5}, "seed must be an integer, got 7.5"),
], ids=["rho-null", "rho-string", "seed-null", "seed-string", "seed-float"])
def test_seed_or_rho_of_the_wrong_type_exits_2_naming_it(tmp_path, capsys, command, config,
                                                         message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    extra = FAST_TRAIN[:2] if command == "train" else ["--n", "100"]
    assert run_cli(command, *extra, "--config", str(cfg_path), "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_negative_seed_in_config_is_accepted(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": -3}))
    out = tmp_path / "out"
    assert run_cli("gen", "--n", "100", "--config", str(cfg_path), "--out", str(out)) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] == -3


def test_usage_error_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli("train", "--bogus-flag")
    assert exc.value.code == 2


def test_config_file_and_flag_precedence(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"epochs": 4, "batch_size": 32, "n": 160,
                                    "seed": 9, "rho": 0.4}))
    out = tmp_path / "run"
    code = run_cli("train", "--config", str(cfg_path), "--epochs", "1",
                   "--out", str(out))
    assert code == 0
    rows = read_jsonl(out / "metrics.jsonl")
    assert len(rows) == 2  # flag epochs=1 overrides file epochs=4, plus warm-up
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"learning_rate": 0.1}))
    assert run_cli("train", "--config", str(bad), "--out", str(out)) == 2


def test_train_gsc_beats_baseline_under_noise(tmp_path):
    # paired desk-scale runs on the same data seed
    scores = {}
    for mode in ("baseline", "gsc"):
        out = tmp_path / mode
        code = run_cli("train", "--mode", mode, "--rho", "0.4", "--seed", "11",
                       "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        scores[mode] = report["retrieval"]["recall_sum"]
    assert scores["gsc"] > scores["baseline"]


def test_out_dir_defaults_to_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("GSC_OUT_DIR", str(tmp_path / "from-env"))
    assert run_cli("gen", *GEN_ARGS, "--rho", "0") == 0
    assert (tmp_path / "from-env" / "manifest.json").exists()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_default_grid_is_four_rhos_by_two_modes(tmp_path):
    out = tmp_path / "s"
    assert run_cli("sweep", "--n", "120", "--epochs", "1", "--out", str(out)) == 0
    lines = (out / "summary.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 4 * 2
    cells = [tuple(line.split(",")[:2]) for line in lines[1:]]
    assert cells == [(m, str(float(r)))
                     for r in (0, 0.2, 0.4, 0.6) for m in ("gsc", "baseline")]

def test_sweep_grid_rows_and_reproducibility(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    args = ["sweep", "--rhos", "0,0.5", "--modes", "gsc,baseline",
            "--n", "120", "--epochs", "1", "--seed", "3"]
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    lines = (out1 / "summary.csv").read_text().strip().splitlines()
    assert lines[0] == ",".join(
        ["mode", "noise", "r1_i2t", "r5_i2t", "r10_i2t",
         "r1_t2i", "r5_t2i", "r10_t2i", "rsum", "det_acc", "det_auc"])
    assert len(lines) == 1 + 4  # header + 2 rhos x 2 modes
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()


SWEEP_KEYS = ["--n", "120", "--epochs", "1", "--seed", "7"]


def _split_bytes(ds):
    return (ds.img.tobytes(), ds.txt.tobytes(), ds.match_perm.tobytes(),
            ds.cluster_ids.tobytes(), json.dumps(ds.meta, sort_keys=True))


def test_a_sweep_trains_every_mode_at_a_noise_rate_on_the_same_data(tmp_path, monkeypatch):
    cells = {}  # rho -> per mode: the bytes of its splits and of its initial net A
    run_cell = cli._run_cell

    def capturing(tc, splits, on_labels=None):
        net_a = trainer.init_state(tc, splits[0]).nets[0]
        cells.setdefault(splits[0].meta["rho"], []).append(
            ([_split_bytes(ds) for ds in splits], net_a.theta.tobytes()))
        return run_cell(tc, splits, on_labels)

    monkeypatch.setattr(cli, "_run_cell", capturing)
    modes = ("gsc", "baseline", "cm_only", "single_net")
    assert run_cli("sweep", "--rhos", "0,0.4", "--modes", ",".join(modes), *SWEEP_KEYS,
                   "--out", str(tmp_path)) == 0
    assert sorted(cells) == [0.0, 0.4]
    for per_mode in cells.values():
        assert len(per_mode) == len(modes)
        assert all(cell == per_mode[0] for cell in per_mode)


def test_a_sweep_row_is_the_report_row_of_the_matching_train(tmp_path):
    assert run_cli("sweep", "--rhos", "0,0.4", "--modes", "gsc,cm_only", *SWEEP_KEYS,
                   "--out", str(tmp_path / "s")) == 0
    reports = []
    for rho in ("0", "0.4"):
        for mode in ("gsc", "cm_only"):
            out = tmp_path / f"{mode}-{rho}"
            assert run_cli("train", "--rho", rho, "--mode", mode, *SWEEP_KEYS,
                           "--out", str(out)) == 0
            reports.append(str(out / "report.json"))
    assert run_cli("report", *reports, "--csv", str(tmp_path / "trains.csv")) == 0
    assert (tmp_path / "trains.csv").read_bytes() == (tmp_path / "s" / "summary.csv").read_bytes()


def test_adding_a_mode_or_a_noise_rate_leaves_existing_rows_unchanged(tmp_path):
    rows = {}
    for rhos, modes in (("0.4", "cm_only"), ("0,0.4", "cm_only"), ("0.4", "gsc,cm_only"),
                        ("0,0.4", "baseline,cm_only,gsc")):
        out = tmp_path / f"{rhos}-{modes}"
        assert run_cli("sweep", "--rhos", rhos, "--modes", modes, *SWEEP_KEYS,
                       "--out", str(out)) == 0
        lines = (out / "summary.csv").read_text().splitlines()[1:]
        rows[rhos, modes] = {tuple(line.split(",")[:2]): line for line in lines}
    largest = rows.pop(("0,0.4", "baseline,cm_only,gsc"))
    for grid in rows.values():
        assert all(largest[cell] == line for cell, line in grid.items())


def test_a_sweep_generates_and_splits_its_data_once(tmp_path, monkeypatch):
    calls = []
    generate = cli.generate
    monkeypatch.setattr(cli, "generate", lambda spec: calls.append(spec) or generate(spec))
    assert run_cli("sweep", "--rhos", "0,0.4,1", "--modes", "baseline", *SWEEP_KEYS,
                   "--out", str(tmp_path)) == 0
    assert len(calls) == 1


# 21 samples split 1 / 10 / 10
TINY_TRAIN = {"f_train": 0.04, "f_dev": 0.48, "f_test": 0.48}


@pytest.mark.parametrize("rhos, modes, message", [
    ("0,0.4", "baseline", "cannot mismatch 2 of 1 pairs"),
    ("0", "baseline,gsc", "train split has 1 samples; mode 'gsc' needs at least 4"),
], ids=["noise-rate", "mode"])
def test_a_sweep_rejects_a_bad_cell_before_creating_out(tmp_path, capsys, rhos, modes, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(TINY_TRAIN))
    out = tmp_path / "s"
    assert run_cli("sweep", "--config", str(path), "--n", "21", "--epochs", "1",
                   "--rhos", rhos, "--modes", modes, "--out", str(out)) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sweep_rejects_unknown_mode(tmp_path):
    assert run_cli("sweep", "--modes", "gsc,wat", "--out", str(tmp_path)) == 2


GRID = "its grid comes from --modes and --rhos"


@pytest.mark.parametrize("config, key, reason", [
    ({"mode": "wat", "rho": 0.9}, "mode", GRID), ({"mode": "gsc"}, "mode", GRID),
    ({"rho": 0.2}, "rho", GRID), ({"track_labels": True}, "track_labels",
                                  "it writes no label dump"),
], ids=["config0-mode", "config1-mode", "config2-rho", "config3-track_labels"])
def test_sweep_rejects_a_config_key_its_grid_sets(tmp_path, capsys, config, key, reason):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "s"
    assert run_cli("sweep", "--config", str(path), "--rhos", "0", "--modes", "baseline",
                   "--n", "120", "--epochs", "1", "--out", str(out)) == 2
    assert f"{path}: sweep ignores config key {key!r}; {reason}" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


# ---------------------------------------------------------------------------
# fdcheck and report
# ---------------------------------------------------------------------------

def test_fdcheck_passes_and_fails_on_tight_tol(capsys):
    assert run_cli("fdcheck", "--seeds", "2", "--batch", "4", "--dims", "6,5,3") == 0
    out = capsys.readouterr().out
    assert "fdcheck passed" in out
    assert run_cli("fdcheck", "--seeds", "1", "--batch", "4", "--dims", "6,5,3",
                   "--tol", "1e-12") == 1


@pytest.mark.parametrize("flag, value", [
    ("--seeds", "0"), ("--seeds", "-2"), ("--batch", "1"), ("--h", "0"), ("--tol", "nan"),
    ("--dims", "1,4"), ("--dims", "8"), ("--dims", "8,0,4"), ("--dims", "4,3,1"),
])
def test_fdcheck_rejects_arguments_that_check_nothing(capsys, flag, value):
    assert run_cli("fdcheck", "--seeds", "1", "--batch", "3", "--dims", "4,3",
                   flag, value) == 2
    captured = capsys.readouterr()
    assert flag in captured.err
    assert "fdcheck passed" not in captured.out


@pytest.mark.parametrize("argv, config, message", [
    (["train", "--n", "160"], {"hidden_dims": "64,x"},
     "{config}: hidden_dims: 'x' in '64,x' is not an integer"),
    (["train", "--n", "160"], {"hidden_dims": "16, 8.5"},
     "{config}: hidden_dims: '8.5' in '16, 8.5' is not an integer"),
    (["sweep", "--rhos", "0,x", "--modes", "baseline", "--n", "120", "--epochs", "1"], None,
     "--rhos: 'x' in '0,x' is not a number"),
    (["fdcheck", "--seeds", "1", "--dims", "8,x,4"], None,
     "--dims: 'x' in '8,x,4' is not an integer"),
], ids=["config-hidden_dims", "config-hidden_dims-float", "sweep-rhos", "fdcheck-dims"])
def test_a_bad_piece_of_a_comma_separated_list_exits_2_naming_its_source(tmp_path, capsys,
                                                                         argv, config, message):
    cfg_path = tmp_path / "cfg.json"
    if config is not None:
        cfg_path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg_path)]
    out = tmp_path / "out"
    if argv[0] != "fdcheck":
        argv = [*argv, "--out", str(out)]
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert message.format(config=cfg_path) in captured.err
    assert not out.exists() and "seed 0" not in captured.out


def test_a_comma_separated_hidden_dims_in_a_config_file_is_split(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"hidden_dims": " 16, 8,"}))
    cfg = cli.load_config(argparse.Namespace(config=str(cfg_path)))
    assert cli.train_config_from(cfg).hidden_dims == (16, 8)


def test_report_prints_and_merges(tmp_path, capsys):
    out = tmp_path / "run"
    run_cli("train", *FAST_TRAIN, "--rho", "0.4", "--out", str(out))
    clean = tmp_path / "clean"  # rho 0: one class, so the AUC is undefined
    run_cli("train", *FAST_TRAIN, "--rho", "0", "--out", str(clean))
    capsys.readouterr()
    merged = tmp_path / "merged.csv"
    code = run_cli("report", str(out / "report.json"), str(clean / "report.json"),
                   "--csv", str(merged))
    assert code == 0
    printed = capsys.readouterr().out
    assert "rsum" in printed and "gsc" in printed
    assert "None" not in printed
    with open(merged, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[0]["det_auc"] != ""
    assert rows[1]["noise"] == "0.0" and rows[1]["det_auc"] == ""


@pytest.mark.parametrize("case", ["csv-in-a-missing-dir", "csv-a-directory", "out-a-file"])
def test_an_output_path_that_cannot_be_written_exits_2(tmp_path, capsys, case):
    report = tmp_path / "report.json"
    recalls = {f"r{k}": 50.0 for k in (1, 5, 10)}
    report.write_text(json.dumps({"retrieval": {"i2t": recalls, "t2i": recalls}}))
    (tmp_path / "a-dir").mkdir()
    (tmp_path / "a-file").write_text("")
    target, argv = {
        "csv-in-a-missing-dir": (tmp_path / "no" / "x.csv", ["report", str(report), "--csv"]),
        "csv-a-directory": (tmp_path / "a-dir", ["report", str(report), "--csv"]),
        "out-a-file": (tmp_path / "a-file", ["train", *FAST_TRAIN, "--out"]),
    }[case]
    assert run_cli(*argv, str(target)) == 2
    captured = capsys.readouterr()  # nothing printed before the output path failed
    assert captured.out == ""
    assert captured.err.startswith("cannot write output: ") and str(target) in captured.err


def _without_r5(report):
    del report["retrieval"]["t2i"]["r5"]
    return report


@pytest.mark.parametrize("edit, message", [
    (lambda _: {"meta": {}}, ": missing key 'retrieval'"),
    (lambda _: [1, 2], " must hold a JSON object, got [1, 2]"),
    (_without_r5, ": missing key 'r5'"),
], ids=["no-retrieval", "list", "no-r5"])
def test_report_on_a_malformed_report_exits_2_naming_it(tmp_path, capsys, edit, message):
    out = tmp_path / "run"
    run_cli("train", *FAST_TRAIN, "--rho", "0.4", "--out", str(out))
    path = out / "report.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    capsys.readouterr()
    assert run_cli("report", str(path)) == 2
    assert f"{path}{message}" in capsys.readouterr().err
