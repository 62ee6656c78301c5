import io
import json
import re

import numpy as np
import pytest

from gsc import synthdata
from gsc.numerics import derive_rng
from gsc.synthdata import (GenSpec, dataset_from_json, dataset_to_json, generate,
                           inject_noise, load_dataset, save_dataset, split)


def test_generate_zero_noise_is_deterministic_image_of_centers():
    spec = GenSpec(n=12, n_clusters=12, sigma_cluster=0.0, sigma_view=0.0,
                   d_latent=4, d_img=6, d_txt=5, seed=5)
    ds, info = generate(spec, return_latent=True)
    # with zero spread the latent IS its cluster center, and both modalities
    # are exact linear images of the same latent
    assert np.array_equal(ds.img, info.latent @ info.img_map)
    assert np.array_equal(ds.txt, info.latent @ info.txt_map)
    assert np.array_equal(ds.match_perm, np.arange(12))
    assert not ds.noise_mask.any()


def test_generate_is_reproducible():
    spec = GenSpec(n=40, n_clusters=8, seed=9)
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.img, b.img)
    assert np.array_equal(a.txt, b.txt)
    assert np.array_equal(a.cluster_ids, b.cluster_ids)


def test_generate_pairs_recoverable_by_nearest_neighbor_through_latent():
    # oracle: least-squares latent recovery per modality + brute-force 1-NN
    spec = GenSpec(n=200, n_clusters=10, sigma_cluster=1.0, sigma_view=0.1,
                   d_latent=8, d_img=16, d_txt=12, seed=1)
    ds, info = generate(spec, return_latent=True)
    z_img = ds.img @ np.linalg.pinv(info.img_map)
    z_txt = ds.txt @ np.linalg.pinv(info.txt_map)
    hits = 0
    for j in range(ds.n):
        dist = np.linalg.norm(z_img - z_txt[j], axis=1)
        hits += int(np.argmin(dist) == j)
    assert hits / ds.n >= 0.95


def test_generate_invalid_spec():
    with pytest.raises(ValueError):
        generate(GenSpec(n=0))
    with pytest.raises(ValueError):
        generate(GenSpec(n=5, n_clusters=6))
    with pytest.raises(ValueError):
        generate(GenSpec(sigma_view=-0.1))


def test_inject_noise_zero_rate_is_identity():
    ds = generate(GenSpec(n=30, n_clusters=6, seed=2))
    out = inject_noise(ds, 0.0, derive_rng(2, "noise"))
    assert np.array_equal(out.match_perm, np.arange(30))
    assert not out.noise_mask.any()


def test_inject_noise_full_rate_is_derangement_over_seeds():
    ds = generate(GenSpec(n=25, n_clusters=5, seed=3))
    for seed in range(100):
        out = inject_noise(ds, 1.0, derive_rng(seed, "noise"))
        assert np.all(out.match_perm != np.arange(25))
        assert out.noise_mask.all()
        assert np.array_equal(np.sort(out.match_perm), np.arange(25))


def test_inject_noise_exact_count():
    ds = generate(GenSpec(n=1000, seed=4))
    out = inject_noise(ds, 0.4, derive_rng(4, "noise"))
    assert int(out.noise_mask.sum()) == 400


def test_inject_noise_count_and_mask_consistency_property():
    rng = derive_rng(5, "noise-props")
    ds = generate(GenSpec(n=60, n_clusters=6, seed=5))
    for _ in range(100):
        rho = float(rng.uniform(0.0, 1.0))
        out = inject_noise(ds, rho, rng)
        k = int(np.ceil(rho * 60))
        if k == 1:
            k = 2
        assert int(out.noise_mask.sum()) == k
        assert np.array_equal(out.noise_mask, out.match_perm != np.arange(60))
        # restricted to the selected indices the permutation has no fixed point
        sel = np.flatnonzero(out.noise_mask)
        assert np.all(out.match_perm[sel] != sel)


def test_inject_noise_single_selection_rounds_up_to_two():
    ds = generate(GenSpec(n=10, n_clusters=4, seed=6))
    out = inject_noise(ds, 0.05, derive_rng(6, "noise"))  # ceil(0.5) == 1 -> 2
    assert int(out.noise_mask.sum()) == 2


def test_inject_noise_reproducible():
    ds = generate(GenSpec(n=50, n_clusters=5, seed=7))
    a = inject_noise(ds, 0.3, derive_rng(7, "noise"))
    b = inject_noise(ds, 0.3, derive_rng(7, "noise"))
    assert np.array_equal(a.match_perm, b.match_perm)


def test_inject_noise_errors():
    ds = generate(GenSpec(n=20, n_clusters=4, seed=8))
    with pytest.raises(ValueError):
        inject_noise(ds, 1.5, derive_rng(8, "noise"))
    with pytest.raises(ValueError):
        inject_noise(ds, -0.1, derive_rng(8, "noise"))
    noisy = inject_noise(ds, 0.5, derive_rng(8, "noise"))
    with pytest.raises(ValueError):
        inject_noise(noisy, 0.5, derive_rng(8, "noise"))


def test_split_all_train_returns_dataset_unchanged():
    ds = generate(GenSpec(n=21, n_clusters=7, seed=9))
    train, dev, test = split(ds, 1.0, 0.0, 0.0, derive_rng(9, "split"))
    assert np.array_equal(train.img, ds.img)
    assert np.array_equal(train.txt, ds.txt)
    assert dev.n == 0 and test.n == 0


def test_split_sizes_floor_with_remainder_to_train():
    ds = generate(GenSpec(n=103, seed=10))
    train, dev, test = split(ds, 0.7, 0.15, 0.15, derive_rng(10, "split"))
    assert dev.n == 15 and test.n == 15
    assert train.n == 103 - 30
    assert train.split_tag == "train" and dev.split_tag == "dev" and test.split_tag == "test"


def test_split_is_disjoint_cover():
    ds = generate(GenSpec(n=50, n_clusters=10, seed=11))
    # tag rows by a unique feature value so membership is checkable
    train, dev, test = split(ds, 0.6, 0.2, 0.2, derive_rng(11, "split"))
    seen = np.concatenate([train.img[:, 0], dev.img[:, 0], test.img[:, 0]])
    assert seen.shape[0] == 50
    assert np.unique(seen).shape[0] == 50
    assert set(np.round(seen, 12)) == set(np.round(ds.img[:, 0], 12))


def test_split_invalid_fractions():
    ds = generate(GenSpec(n=10, n_clusters=5, seed=12))
    with pytest.raises(ValueError):
        split(ds, 0.5, 0.5, 0.5, derive_rng(12, "split"))
    with pytest.raises(ValueError):
        split(ds, -0.2, 0.6, 0.6, derive_rng(12, "split"))


def test_dataset_json_round_trip(tmp_path):
    ds = inject_noise(generate(GenSpec(n=15, n_clusters=5, seed=13)), 0.4, derive_rng(13, "noise"))
    path = tmp_path / "ds.json"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert np.array_equal(back.img, ds.img)
    assert np.array_equal(back.txt, ds.txt)
    assert np.array_equal(back.match_perm, ds.match_perm)
    assert np.array_equal(back.noise_mask, ds.noise_mask)
    assert np.array_equal(back.cluster_ids, ds.cluster_ids)
    assert back.meta["rho"] == pytest.approx(0.4)


def test_dataset_serialization_is_byte_identical(tmp_path):
    ds = generate(GenSpec(n=8, n_clusters=4, seed=14))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_dataset(ds, p1)
    save_dataset(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_dataset_json_container_keys():
    ds = generate(GenSpec(n=5, n_clusters=5, seed=15))
    obj = dataset_to_json(ds)
    assert set(obj) == {"meta", "img", "txt", "perm", "mask", "clusters"}
    for key in ("N", "dims", "seed", "rho"):
        assert key in obj["meta"]
    assert dataset_from_json(json.loads(json.dumps(obj))).n == 5


def _load_oracle(path):
    """The loader before row-by-row decoding: the whole object, then arrays."""
    with open(path, "r", encoding="utf-8") as fh:
        return dataset_from_json(json.load(fh))


def _assert_same_dataset(got, want):
    for name in ("img", "txt", "match_perm", "noise_mask", "cluster_ids"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name
    assert got.split_tag == want.split_tag
    assert got.meta == want.meta


def _dumps_split(obj):
    """``obj`` as text in the layout of ``save_dataset``, for a split of at
    least one row: the other keys, sorted, on line 1, then one row a line."""
    head = json.dumps({k: v for k, v in obj.items() if k not in ("img", "txt")},
                      sort_keys=True)
    img, txt = (",\n".join(json.dumps(row) for row in obj[key]) for key in ("img", "txt"))
    return f'{head[:-1]}, "img": [\n{img}\n], "txt": [\n{txt}\n]}}\n'


# 0 dev rows (an empty matrix), 39 test rows and 200 noisy train rows
SPLITS = split(generate(GenSpec(n=239, n_clusters=8, seed=16)), 200 / 239, 0.0,
               39 / 239, derive_rng(16, "split"))


class _ShortReads(io.RawIOBase):
    """A binary file whose every read returns at most ``chunk`` bytes."""

    def __init__(self, path, chunk):
        self._fh, self._chunk = open(path, "rb"), chunk

    def readable(self):
        return True

    def readinto(self, buf):
        data = self._fh.read(min(len(buf), self._chunk))
        buf[:len(data)] = data
        return len(data)

    def close(self):
        self._fh.close()
        super().close()


def _read_in_pieces(monkeypatch, chunk):
    """Make ``load_dataset`` read its file ``chunk`` bytes at a time, so lines
    and numbers arrive cut across reads."""
    def pieces_open(path, mode="r", encoding=None):
        assert mode == "r"
        raw = io.BufferedReader(_ShortReads(path, chunk), buffer_size=chunk)
        return io.TextIOWrapper(raw, encoding=encoding)
    monkeypatch.setattr(synthdata, "open", pieces_open, raising=False)


# the layout save_dataset writes, and re-serializations of the same JSON
# document that load_dataset refuses
LAYOUTS = {"save_dataset": None, "indent": {"indent": 2},
           "tabs-sorted": {"indent": "\t", "sort_keys": True},
           "compact": {"separators": (",", ":")}}
# the file read as it comes, then with read boundaries after every
# character, inside most numbers, and between rows
CHUNKS = [None, 1, 7, 4096]


@pytest.mark.parametrize("dump_kw, chunk", [
    pytest.param(kw, chunk, id=name if chunk is None else f"{name}-chunk{chunk}")
    for chunk in CHUNKS for name, kw in LAYOUTS.items() if chunk is None or kw is None])
@pytest.mark.parametrize("tag", ["train", "dev", "test"])
def test_load_dataset_equals_json_load(tmp_path, monkeypatch, tag, dump_kw, chunk):
    ds = SPLITS[("train", "dev", "test").index(tag)]
    if tag == "train":
        ds = inject_noise(ds, 0.4, derive_rng(16, "noise"))
    path = tmp_path / "split.json"
    save_dataset(ds, path)
    with open(path, "r", encoding="utf-8") as fh:
        assert json.load(fh) == dataset_to_json(ds)  # the file is JSON
    if chunk is not None:
        _read_in_pieces(monkeypatch, chunk)
    back = load_dataset(path)
    _assert_same_dataset(back, _load_oracle(path))
    assert back.n == ds.n
    # the 0-row dev split keeps its width: (0, 48) and (0, 40)
    assert back.img.shape == ds.img.shape and back.txt.shape == ds.txt.shape
    if dump_kw is not None:
        # the same document in another layout is refused, never misread
        path.write_text(json.dumps(json.loads(path.read_text()), **dump_kw))
        _assert_same_dataset(back, _load_oracle(path))
        with pytest.raises(ValueError, match="regenerate it with `gsc gen`"):
            load_dataset(path)


def test_load_dataset_accepts_other_key_order_and_blanks(tmp_path):
    ds = inject_noise(SPLITS[0], 0.4, derive_rng(17, "noise"))
    path = tmp_path / "split.json"
    save_dataset(ds, path)
    lines = path.read_text().split("\n")
    # line 1 in reverse key order with an unknown key and other blanks,
    # integers and blanks in a row, and exponents that json.dumps never writes
    head = json.loads(lines[0][:-len(', "img": [')] + "}")
    head["scale"] = 1.5
    lines[0] = (json.dumps(dict(reversed(list(head.items()))), separators=("\t,", " :  "))[:-1]
                + ', "img": [')
    row = json.loads(lines[6][:-1])
    row[::3] = [int(v) for v in row[::3]]
    lines[6] = " " + json.dumps(row, separators=(" ,\t", ":")) + "\t,"
    lines[7] = "[" + ", ".join(f"{v:.17E}" for v in ds.img[6]) + "],"
    path.write_text("\n".join(lines))
    back = load_dataset(path)
    _assert_same_dataset(back, _load_oracle(path))
    assert back.meta == ds.meta and back.img[5].tolist() == row
    assert np.array_equal(back.img[6], ds.img[6])


def _edited(edit):
    """A corruption of the file text that applies ``edit`` to its object and
    writes it back in the same layout."""
    def corrupt(text):
        obj = json.loads(text)
        edit(obj)
        return _dumps_split(obj)
    return corrupt


REGENERATE = "regenerate it with `gsc gen`"
LOADER_ERRORS = {
    "truncated": (lambda text: text[:len(text) // 2], "does not end in ',\\n'"),
    "trailing-data": (lambda text: text + "{}", "line 82: extra data"),
    "row-without-comma": (lambda text: text.replace("],\n", "]\n", 1),
                          "line 2: img row 0: the line does not end in ',\\n'"),
    "unclosed-rows": (lambda text: text.replace('\n], "txt"', '\n]], "txt"'),
                      "line 41: expected '], \"txt\": [\\n' after the img rows"),
    "ragged-row": (_edited(lambda o: o["img"][3].pop()),
                   "line 5: img row 3: expected a list of 48 numbers"),
    "string-in-row": (_edited(lambda o: o["txt"][30].__setitem__(2, "x")),
                      "txt row 30: could not convert string to float: 'x'"),
    "object-in-row": (_edited(lambda o: o["txt"][1].__setitem__(0, {})),
                      "line 43: txt row 1: float() argument must be"),
    "perm-not-a-list": (_edited(lambda o: o.__setitem__("perm", 5)), "has no len()"),
    "scalar-row": (_edited(lambda o: o["txt"].__setitem__(0, 7.0)),
                   "line 42: txt row 0: expected a list of 40 numbers"),
    "nested-rows": (_edited(lambda o: o.__setitem__("img", [[r] for r in o["img"]])),
                    "img row 0: expected a list of 48 numbers"),
    "missing-key": (_edited(lambda o: o.pop("perm")), "missing key 'perm'"),
    "single-line-layout": (lambda text: json.dumps(json.loads(text), sort_keys=True),
                           REGENERATE),
    "indent-2": (lambda text: json.dumps(json.loads(text), indent=2), REGENERATE),
}


@pytest.mark.parametrize("layout", ["save_dataset"])
def test_load_dataset_error_positions_do_not_depend_on_the_chunk(tmp_path, monkeypatch, layout):
    path = tmp_path / "bad.json"
    save_dataset(SPLITS[2], path)
    text = path.read_text()
    # in line 1, in an img row, and in the closing line of the txt rows
    for cut in (1, len(text) // 3, len(text) - 2):
        path.write_text(text[:cut] + "]" + text[cut:])
        messages = []
        for chunk in (len(text) + 1, 1, 7, 4096):  # the whole file first
            _read_in_pieces(monkeypatch, chunk)
            with pytest.raises(ValueError) as exc:
                load_dataset(path)
            messages.append(str(exc.value))
        # the message and the line of the file it names
        assert len(set(messages)) == 1
        assert re.search(rf"\bline {text[:cut].count(chr(10)) + 1}\b", messages[0])


@pytest.mark.parametrize("case", sorted(LOADER_ERRORS))
def test_load_dataset_errors_name_the_file(tmp_path, case):
    corrupt, message = LOADER_ERRORS[case]
    path = tmp_path / "bad.json"
    save_dataset(SPLITS[2], path)
    text = path.read_text()
    assert _dumps_split(json.loads(text)) == text  # corruptions keep the layout
    path.write_text(corrupt(text))
    with pytest.raises(ValueError) as exc:
        load_dataset(path)
    assert str(exc.value).startswith(f"{path}: ") and message in str(exc.value)
