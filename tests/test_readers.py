"""Every JSON input file goes through one reader, so every bad one fails the
same way.

Five readers: the `--config` file, a `--data` manifest, a split's head, a
`report.json` given to `gsc report`, and an encoder checkpoint. Four kinds of
bad input: text that is not JSON, a top level that is not an object, a
missing key, and a value of the wrong JSON type or a non-finite number. A
command exits 2 and a checkpoint read raises ValueError, and the message
names the file and, where there is one, the key. A checkpoint's head names
its ``.npy`` vector too, whose errors name both files.
"""

import json
import math
import os
import shutil

import numpy as np
import pytest

from gsc import cli
from gsc.model import load_encoder

GEN_ARGS = ["--n", "120", "--clusters", "6", "--d-latent", "6",
            "--d-img", "10", "--d-txt", "9", "--seed", "7", "--rho", "0.4"]
TRAIN_ARGS = ["--epochs", "1", "--batch-size", "32", "--seed", "5"]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A `gen` dataset ``d`` and a `train --data d` run ``run`` made once."""
    root = tmp_path_factory.mktemp("readers")
    assert cli.main(["gen", *GEN_ARGS, "--out", str(root / "d")]) == 0
    assert cli.main(["train", "--data", str(root / "d"), *TRAIN_ARGS,
                     "--out", str(root / "run")]) == 0
    return root


def _text(edit):
    """A corruption that rewrites the file's text with ``edit(text)``."""
    def corrupt(path):
        path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    return corrupt


def _doc(edit):
    """A corruption that applies ``edit`` to the file's JSON document in place."""
    def corrupt(path):
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
    return corrupt


def _config(doc_text):
    def write(path):
        path.write_text(doc_text, encoding="utf-8")
    return write


def _train_on_config(root, path, capsys):
    argv = ["train", "--n", "160", *TRAIN_ARGS, "--config", str(path),
            "--out", str(root / "out")]
    return _exit_2(argv, capsys)


def _train_on_data(root, path, capsys):
    return _exit_2(["train", "--data", str(root / "d"), "--out", str(root / "out")], capsys)


def _report(root, path, capsys):
    return _exit_2(["report", str(path)], capsys)


def _exit_2(argv, capsys):
    capsys.readouterr()
    assert cli.main(argv) == 2
    return capsys.readouterr().err


def _checkpoint(root, path, capsys):
    with pytest.raises(ValueError) as exc:
        load_encoder(path)
    return str(exc.value)


class _MakesDir:
    """An object whose unpickling creates the directory ``path``."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return os.mkdir, (self.path,)


def _theta(make):
    """A corruption that saves ``make(theta, path)`` in place of the
    checkpoint's theta vector."""
    def corrupt(path):
        npy = path.with_suffix(".theta.npy")
        np.save(npy, make(np.load(npy), path), allow_pickle=True)
    return corrupt


def _set_first_weight(value):
    return _theta(lambda theta, _: np.where(np.arange(theta.size) == 0, value, theta))


# ckpt_A_img of GEN_ARGS: dims [10, 64, 32], so 10 * 64 + 64 + 64 * 32 + 32 parameters
THETA = "ckpt_A_img.theta.npy: expected a float64 vector of shape (2784,)"


READERS = {
    "config": ("cfg.json", _train_on_config),
    "manifest": ("d/manifest.json", _train_on_data),
    "split-head": ("d/train.json", _train_on_data),
    "report": ("run/report.json", _report),
    "checkpoint": ("run/ckpt_A_img.json", _checkpoint),
}

# (reader, kind) -> (corruption, the message after the file's path)
CASES = {
    ("config", "not-json"): (_config('{"epochs": '), ": Expecting value"),
    ("config", "not-an-object"): (_config("[1, 2]"), " must hold a JSON object, got [1, 2]"),
    # no config key is required; the key a config file can get wrong is an unknown one
    ("config", "unknown-key"): (_config('{"learning_rate": 0.1}'),
                                ": unknown config key 'learning_rate'"),
    ("config", "missing-file"): (lambda path: None, ": No such file or directory"),
    ("config", "wrong-type"): (_config('{"lr": "0.1"}'), ": lr must be a real number, got '0.1'"),
    ("config", "integer-key-float"): (_config('{"epochs": 1.5}'),
                                      ": epochs must be an integer, got 1.5"),
    ("config", "bool-key-string"): (_config('{"track_labels": "no"}'),
                                    ": track_labels must be true or false, got 'no'"),
    ("config", "hidden-dims-number"): (_config('{"hidden_dims": 5}'),
                                       ": hidden_dims must be a list of integers or a "
                                       "comma-separated string, got 5"),
    ("manifest", "not-json"): (_text(lambda t: t[:-7]), ": Expecting"),
    ("manifest", "not-an-object"): (_text(lambda t: f"[{t}]"), " must hold a JSON object, got [{"),
    ("manifest", "missing-key"): (_doc(lambda d: d["files"].pop("test")), ": missing key 'test'"),
    ("manifest", "wrong-type"): (_doc(lambda d: d["files"].update(dev=5)),
                                 ": 'dev' must be a JSON string, got 5"),
    ("split-head", "not-json"): (_text(lambda t: t[:-9]), ": Expecting"),
    ("split-head", "not-an-object"): (_text(lambda _: "[]"), " must hold a JSON object, got []"),
    ("split-head", "missing-key"): (_doc(lambda d: d["meta"]["dims"].pop("txt")),
                                    ": missing key 'txt'"),
    ("split-head", "wrong-type"): (_doc(lambda d: d.update(perm=5)),
                                   ": 'perm' must be a JSON list, got 5"),
    ("split-head", "meta-a-list"): (_doc(lambda d: d.update(meta=[])),
                                    ": 'meta' must be a JSON object, got []"),
    ("split-head", "mask-null"): (_doc(lambda d: d.update(mask=None)),
                                  ": 'mask' must be a JSON list, got None"),
    ("report", "a-directory"): (lambda path: path.unlink() or path.mkdir(), ": Is a directory"),
    ("report", "not-json"): (_text(lambda _: '{"a": '), ": Expecting value"),
    ("report", "not-an-object"): (_text(lambda _: "[1, 2]"), " must hold a JSON object, got [1, 2]"),
    ("report", "missing-key"): (_doc(lambda d: d["retrieval"]["t2i"].pop("r10")),
                                ": missing key 'r10'"),
    ("report", "wrong-type"): (_doc(lambda d: d.update(retrieval=[])),
                               ": 'retrieval' must be a JSON object, got []"),
    ("report", "recall-a-string"): (_doc(lambda d: d["retrieval"]["i2t"].update(r1="90")),
                                    ": 'r1' must be a JSON number, got '90'"),
    ("report", "non-finite"): (_doc(lambda d: d["detection"].update(accuracy=math.nan)),
                               ": 'accuracy' must be a JSON number, got nan"),
    ("report", "detection-a-list"): (_doc(lambda d: d.update(detection=[])),
                                     ": 'detection' must be a JSON object or null, got []"),
    ("checkpoint", "not-json"): (_text(lambda t: t[:len(t) // 2]), ": Expecting"),
    ("checkpoint", "not-an-object"): (_text(lambda t: f"[{t}]"), " must hold a JSON object"),
    ("checkpoint", "missing-key"): (_doc(lambda d: d.pop("dims")), ": missing key 'dims'"),
    ("checkpoint", "wrong-type"): (_doc(lambda d: d.update(dims={})),
                                   ": 'dims' must be a JSON list, got {}"),
    ("checkpoint", "dims-entry-a-float"): (_doc(lambda d: d["dims"].__setitem__(1, 64.0)),
                                           ": encoder dim must be an integer >= 1, got 64.0"),
    ("checkpoint", "non-finite"): (_set_first_weight(math.nan),
                                   ": ckpt_A_img.theta.npy: theta contains non-finite entries"),
    ("checkpoint", "infinite"): (_set_first_weight(-math.inf),
                                 ": ckpt_A_img.theta.npy: theta contains non-finite entries"),
    ("checkpoint", "float32"): (_theta(lambda t, _: t.astype(np.float32)),
                                f": {THETA}, got float32 of shape (2784,)"),
    ("checkpoint", "a-bool"): (_theta(lambda t, _: t > 0), f": {THETA}, got bool of shape (2784,)"),
    ("checkpoint", "wrong-length"): (_theta(lambda t, _: t[:-1]),
                                     f": {THETA}, got float64 of shape (2783,)"),
    ("checkpoint", "missing-npy"): (lambda path: path.with_suffix(".theta.npy").unlink(),
                                    ": ckpt_A_img.theta.npy: No such file or directory"),
    ("checkpoint", "pickled-object"): (
        _theta(lambda _, path: np.array([_MakesDir(path.parent / "unpickled")], dtype=object)),
        ": ckpt_A_img.theta.npy: Object arrays cannot be loaded when allow_pickle=False"),
}


@pytest.mark.parametrize("reader, kind", list(CASES), ids=[f"{r}-{k}" for r, k in CASES])
def test_a_bad_input_file_is_refused_naming_it(tmp_path, capsys, pristine, reader, kind):
    shutil.copytree(pristine, tmp_path, dirs_exist_ok=True)
    name, read = READERS[reader]
    corrupt, message = CASES[reader, kind]
    path = tmp_path / name
    corrupt(path)
    assert f"{path}{message}" in read(tmp_path, path, capsys)
    assert not (tmp_path / "out" / "report.json").exists()
    assert not any(tmp_path.rglob("unpickled"))


def test_every_reader_meets_every_kind_of_bad_input():
    kinds = {reader: {kind for r, kind in CASES if r == reader} for reader in READERS}
    for reader, seen in kinds.items():
        assert {"not-json", "not-an-object"} <= seen, reader
        assert seen & {"missing-key", "unknown-key"}, reader
        assert seen & {"wrong-type", "non-finite"}, reader


def test_load_encoder_names_a_top_level_that_is_not_an_object(tmp_path):
    path = tmp_path / "ckpt.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError) as exc:
        load_encoder(path)
    assert str(exc.value) == f"{path} must hold a JSON object, got [1, 2]"


@pytest.mark.parametrize("reader", list(READERS))
def test_a_good_input_file_reads(tmp_path, capsys, pristine, reader):
    shutil.copytree(pristine, tmp_path, dirs_exist_ok=True)
    name, _ = READERS[reader]
    path = tmp_path / name
    if reader == "config":
        path.write_text(json.dumps({"epochs": 1, "lr": 0.005, "track_labels": False}))
        argv = ["train", "--n", "160", *TRAIN_ARGS, "--config", str(path),
                "--out", str(tmp_path / "out")]
    elif reader == "report":
        argv = ["report", str(path)]
    elif reader == "checkpoint":
        enc = load_encoder(path)
        assert enc.dims == json.loads(path.read_text())["dims"]
        assert np.array_equal(enc.theta, np.load(path.with_suffix(".theta.npy")))
        return
    else:
        argv = ["train", "--data", str(tmp_path / "d"), *TRAIN_ARGS,
                "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
