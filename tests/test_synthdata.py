import dataclasses
import io
import json
import os
import pickle

import numpy as np
import pytest

from gsc import numerics, synthdata
from gsc.numerics import derive_rng
from gsc.synthdata import (GenSpec, PairDataset, generate, inject_noise, load_dataset,
                           save_dataset, split)


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


def _dataset(**change):
    """A valid dataset of 4 pairs with the fields in ``change`` replaced."""
    fields = {"img": np.zeros((4, 3)), "txt": np.zeros((4, 2)), "match_perm": np.arange(4),
              "cluster_ids": np.zeros(4, dtype=int), **change}
    return PairDataset(**fields)


DATASET_ERRORS = {
    "row-counts": ({"txt": np.zeros((3, 2))}, "img/txt row counts differ"),
    "not-a-permutation": ({"match_perm": np.array([0, 1, 1, 3])}, "not a permutation"),
    "nan-img": ({"img": np.where(np.eye(4, 3) == 1, np.nan, 0.0)}, "image features"),
    "cluster-ids-shape": ({"cluster_ids": np.zeros((4, 1), dtype=int)},
                          r"cluster_ids must have shape \(4,\)"),
}


@pytest.mark.parametrize("case", sorted(DATASET_ERRORS))
def test_a_dataset_is_checked_when_built(case):
    change, message = DATASET_ERRORS[case]
    _dataset()  # the unchanged fields are valid
    with pytest.raises(ValueError, match=message):
        _dataset(**change)


def test_a_dataset_field_cannot_be_rebound():
    ds = _dataset()
    with pytest.raises(dataclasses.FrozenInstanceError):
        ds.match_perm = np.array([1, 0, 2, 3])
    assert np.array_equal(ds.match_perm, np.arange(4))


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


@pytest.mark.parametrize("fracs", [(0.6, 0.2, 0.2), (1.0, 0.0, 0.0)],
                         ids=["three-ways", "all-train"])
def test_no_split_shares_memory_with_its_source_or_another_split(fracs):
    ds = generate(GenSpec(n=50, n_clusters=10, seed=11))
    parts = [ds, *split(ds, *fracs, derive_rng(11, "split"))]
    for name in ("img", "txt", "match_perm", "cluster_ids"):
        for i, a in enumerate(parts):
            for b in parts[i + 1:]:
                assert not np.shares_memory(getattr(a, name), getattr(b, name)), name


def test_split_invalid_fractions():
    ds = generate(GenSpec(n=10, n_clusters=5, seed=12))
    with pytest.raises(ValueError):
        split(ds, 0.5, 0.5, 0.5, derive_rng(12, "split"))
    with pytest.raises(ValueError):
        split(ds, -0.2, 0.6, 0.6, derive_rng(12, "split"))


ARRAYS = ("img", "txt", "match_perm", "noise_mask", "cluster_ids")


def _assert_same_dataset(got, want):
    """Every array equal bit for bit, with its dtype and shape, and the tags."""
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.split_tag == want.split_tag


def test_dataset_json_round_trip(tmp_path):
    ds = inject_noise(generate(GenSpec(n=15, n_clusters=5, seed=13)), 0.4, derive_rng(13, "noise"))
    path = tmp_path / "ds.json"
    save_dataset(ds, path)
    back = load_dataset(path)
    _assert_same_dataset(back, ds)
    assert back.meta["rho"] == pytest.approx(0.4)


def test_dataset_serialization_is_byte_identical(tmp_path):
    ds = generate(GenSpec(n=8, n_clusters=4, seed=14))
    save_dataset(ds, tmp_path / "a.json")
    save_dataset(ds, tmp_path / "b.json")
    for suffix in (".json", ".img.npy", ".txt.npy"):
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()


def test_dataset_json_container_keys(tmp_path):
    ds = generate(GenSpec(n=5, n_clusters=5, seed=15))
    path = tmp_path / "ds.json"
    save_dataset(ds, path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds.img.npy", "ds.json", "ds.txt.npy"]
    head = json.loads(path.read_text())
    assert set(head) == {"meta", "perm", "mask", "clusters"}
    for key in ("N", "dims", "seed", "rho", "split"):
        assert key in head["meta"]
    # the matrices are plain .npy files that np.load reads without pickle
    for key in ("img", "txt"):
        assert np.array_equal(np.load(tmp_path / f"ds.{key}.npy", allow_pickle=False),
                              getattr(ds, key))


def _load_oracle(path):
    """The split read by hand: the head with json.load, each matrix with np.load."""
    head = json.loads(path.read_text())
    img, txt = (np.load(path.with_suffix(f".{key}.npy"), allow_pickle=False)
                for key in ("img", "txt"))
    return PairDataset(img=img, txt=txt, match_perm=np.asarray(head["perm"]),
                       cluster_ids=np.asarray(head["clusters"]), meta=head["meta"])


def _row_per_line(obj):
    """``obj``, matrices inline, in the row-per-line layout of an earlier
    `gsc gen`: the other keys, sorted, on line 1, then one row a line."""
    head = json.dumps({k: v for k, v in obj.items() if k not in ("img", "txt")},
                      sort_keys=True)
    img, txt = (",\n".join(json.dumps(row) for row in obj[key]) for key in ("img", "txt"))
    return f'{head[:-1]}, "img": [\n{img}\n], "txt": [\n{txt}\n]}}\n'


def _inline(layout):
    """A rewrite of the split at ``path`` into an earlier layout: ``layout``
    of the head with both matrices inline as lists, and no ``.npy`` files."""
    def rewrite(path):
        obj = json.loads(path.read_text())
        for key in ("img", "txt"):
            npy = path.with_suffix(f".{key}.npy")
            obj[key] = np.load(npy).tolist()
            npy.unlink()
        path.write_text(layout(obj))
    return rewrite


# 0 dev rows (an empty matrix), 39 test rows and 200 noisy train rows
SPLITS = split(generate(GenSpec(n=239, n_clusters=8, seed=16)), 200 / 239, 0.0,
               39 / 239, derive_rng(16, "split"))
REGENERATE = "regenerate it with `gsc gen`"
# the layout save_dataset writes, and JSON serializations of earlier
# layouts, with the matrices inline, that load_dataset refuses
LAYOUTS = {"save_dataset": None, "indent": {"indent": 2},
           "tabs-sorted": {"indent": "\t", "sort_keys": True},
           "compact": {"separators": (",", ":")}}


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
    """Make ``load_dataset`` read its files ``chunk`` bytes at a time, as a
    file system may return fewer bytes than a read asks for: the head's text
    and numbers, and the ``.npy`` headers and data, arrive cut across reads."""
    def pieces_open(path, mode="r", encoding=None):
        raw = _ShortReads(path, chunk)
        if mode == "rb":
            return raw
        assert mode == "r"
        return io.TextIOWrapper(io.BufferedReader(raw, buffer_size=chunk), encoding=encoding)
    for module in (synthdata, numerics):  # numerics reads the head
        monkeypatch.setattr(module, "open", pieces_open, raising=False)


# the files read as they come, then with read boundaries after every byte,
# inside most numbers, and inside the matrices' data
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
    if chunk is not None:
        _read_in_pieces(monkeypatch, chunk)
    back = load_dataset(path)
    _assert_same_dataset(back, ds)
    oracle = _load_oracle(path)
    assert back.meta == oracle.meta
    for name in ARRAYS:
        assert np.array_equal(getattr(back, name), getattr(oracle, name)), name
    assert back.noise_mask.tolist() == json.loads(path.read_text())["mask"]
    # the 0-row dev split keeps its width: (0, 48) and (0, 40)
    assert back.img.shape == (ds.n, 48) and back.txt.shape == (ds.n, 40)
    if dump_kw is not None:
        # the same split in an earlier layout is refused, never misread
        _inline(lambda obj: json.dumps(obj, **dump_kw))(path)
        with pytest.raises(ValueError, match=REGENERATE):
            load_dataset(path)


def test_load_dataset_accepts_other_key_order_and_blanks(tmp_path):
    ds = inject_noise(SPLITS[0], 0.4, derive_rng(17, "noise"))
    path = tmp_path / "split.json"
    save_dataset(ds, path)
    # the head in reverse key order with an unknown key, other blanks and no
    # final newline
    head = json.loads(path.read_text())
    head["scale"] = 1.5
    path.write_text(json.dumps(dict(reversed(list(head.items()))), separators=("\t,", " :  ")))
    back = load_dataset(path)
    _assert_same_dataset(back, ds)
    assert back.meta == ds.meta


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


def _edit_head(edit):
    def corrupt(path):
        head = json.loads(path.read_text())
        edit(head)
        path.write_text(json.dumps(head))
    return corrupt


def _edit_bytes(key, edit):
    def corrupt(path):
        npy = path.with_suffix(f".{key}.npy")
        npy.write_bytes(edit(npy.read_bytes()))
    return corrupt


def _pickled(_, path):
    return np.array([_MakesDir(path.parent / "unpickled")], dtype=object)


LOADER_ERRORS = {
    "truncated": (_edit_bytes("img", lambda b: b[:len(b) // 2]),
                  "bad.img.npy: Failed to read all data"),
    "truncated-header": (_edit_bytes("txt", lambda b: b[:20]), "bad.txt.npy: EOF"),
    "trailing-data": (_edit_bytes("txt", lambda b: b + b"\0"),
                      "bad.txt.npy: extra data after the matrix"),
    "missing-npy": (lambda path: path.with_suffix(".txt.npy").unlink(),
                    "bad.txt.npy: No such file or directory"),
    "not-npy": (_edit_bytes("img", lambda b: pickle.dumps([1.0, 2.0])),
                "bad.img.npy: the magic string is not correct"),
    "ragged-row": (_resave("img", lambda m, _: m[:, :-1]),
                   "bad.img.npy: expected a float64 matrix of shape (39, 48), "
                   "got float64 of shape (39, 47)"),
    "row-count": (_resave("txt", lambda m, _: m[:-1]),
                  "bad.txt.npy: expected a float64 matrix of shape (39, 40), "
                  "got float64 of shape (38, 40)"),
    "float32": (_resave("img", lambda m, _: m.astype(np.float32)),
                "bad.img.npy: expected a float64 matrix of shape (39, 48), got float32"),
    "string-in-row": (_resave("txt", lambda m, _: m.astype(str)), "got <U"),
    "object-in-row": (_resave("txt", _pickled),
                      "bad.txt.npy: Object arrays cannot be loaded when allow_pickle=False"),
    "scalar-row": (_resave("txt", lambda m, _: m[0]),
                   "expected a float64 matrix of shape (39, 40), got float64 of shape (40,)"),
    "nested-rows": (_resave("img", lambda m, _: m[:, None, :]), "got float64 of shape (39, 1, 48)"),
    "nan": (_resave("img", lambda m, _: np.where(m == m[3, 5], np.nan, m)),
            "image features contains non-finite entries"),
    "missing-key": (_edit_head(lambda h: h.pop("perm")), "missing key 'perm'"),
    # the head's mask is a second copy of what its perm says
    "mask-disagrees": (_edit_head(lambda h: h["mask"].__setitem__(3, True)),
                       "mask inconsistent with"),
    "mask-length": (_edit_head(lambda h: h["mask"].pop()), "mask"),
    "perm-not-a-list": (_edit_head(lambda h: h.__setitem__("perm", 5)),
                        "'perm' must be a JSON list, got 5"),
    "width-not-an-integer": (_edit_head(lambda h: h["meta"]["dims"].__setitem__("img", 48.0)),
                             "meta.dims.img must be an integer >= 1, got 48.0"),
    "row-per-line-layout": (_inline(_row_per_line), REGENERATE),
    "single-line-layout": (_inline(lambda obj: json.dumps(obj, sort_keys=True)), REGENERATE),
    "indent-2": (_inline(lambda obj: json.dumps(obj, indent=2)), REGENERATE),
}


@pytest.mark.parametrize("case", sorted(LOADER_ERRORS))
def test_load_dataset_errors_name_the_file(tmp_path, case):
    corrupt, message = LOADER_ERRORS[case]
    path = tmp_path / "bad.json"
    save_dataset(SPLITS[2], path)
    corrupt(path)
    with pytest.raises(ValueError) as exc:
        load_dataset(path)
    assert str(exc.value).startswith(f"{path}: ") and message in str(exc.value)
    assert not (tmp_path / "unpickled").exists()


def test_a_pickled_matrix_is_refused_unread(tmp_path):
    path = tmp_path / "bad.json"
    save_dataset(SPLITS[2], path)
    _resave("txt", _pickled)(path)
    with pytest.raises(ValueError, match="allow_pickle=False"):
        load_dataset(path)
    assert not (tmp_path / "unpickled").exists()
    # the file does unpickle into the tripwire, so the check above has teeth
    np.load(path.with_suffix(".txt.npy"), allow_pickle=True)
    assert (tmp_path / "unpickled").is_dir()
