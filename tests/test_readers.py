"""Every JSON input file goes through one reader, so every bad one fails the
same way.

Five readers: the `--config` file, a `--data` manifest, a split's head, a
`report.json` given to `gsc report`, and an encoder checkpoint. Four kinds of
bad input: text that is not JSON, a top level that is not an object, a
missing key, and a value of the wrong JSON type or a non-finite number. A
command exits 2 and a checkpoint read raises ValueError, and the message
names the file and, where there is one, the key.
"""

import json
import math
import shutil

import pytest

from gsc import cli
from gsc.model import encoder_from_json
from gsc.numerics import read_json_object

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
        encoder_from_json(read_json_object(path), path)
    return str(exc.value)


def _set_first_weight(value):
    def edit(doc):
        doc["weights"][0][0][0] = value
    return edit


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
    ("checkpoint", "missing-key"): (_doc(lambda d: d.pop("biases")), ": missing key 'biases'"),
    ("checkpoint", "wrong-type"): (_doc(lambda d: d.update(biases={})),
                                   ": 'biases' must be a JSON list, got {}"),
    ("checkpoint", "non-finite"): (_doc(_set_first_weight(math.nan)),
                                   ": 'weights' must hold finite numbers only"),
    ("checkpoint", "infinite"): (_doc(_set_first_weight(-math.inf)),
                                 ": 'weights' must hold finite numbers only"),
    ("checkpoint", "a-bool"): (_doc(_set_first_weight(True)),
                               ": 'weights' must hold finite numbers only"),
    ("checkpoint", "ragged-row"): (_doc(lambda d: d["weights"][0][1].pop()),
                                   ": 'weights' inconsistent with dims"),
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


def test_every_reader_meets_every_kind_of_bad_input():
    kinds = {reader: {kind for r, kind in CASES if r == reader} for reader in READERS}
    for reader, seen in kinds.items():
        assert {"not-json", "not-an-object"} <= seen, reader
        assert seen & {"missing-key", "unknown-key"}, reader
        assert seen & {"wrong-type", "non-finite"}, reader


def test_encoder_from_json_names_a_top_level_that_is_not_an_object():
    with pytest.raises(ValueError, match=r"^ckpt\.json must hold a JSON object, got \[1, 2\]$"):
        encoder_from_json([1, 2], "ckpt.json")


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
        enc = encoder_from_json(read_json_object(path), path)
        assert enc.dims == json.loads(path.read_text())["dims"]
        return
    else:
        argv = ["train", "--data", str(tmp_path / "d"), *TRAIN_ARGS,
                "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 0
