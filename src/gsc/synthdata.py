"""Synthetic paired two-modality datasets with controlled correspondence noise.

Samples live in a shared latent space with cluster structure; each modality
observes a latent point through its own fixed random linear map plus view
noise. Mismatches are injected by permuting which text is presented with
which image (features stay untouched, so marginals are preserved), and the
permutation restricted to the selected pairs has no fixed points.

A split file is ``dataset_to_json``'s object as JSON with one matrix row per
line: line 1 holds the other keys, sorted, and opens ``"img"``; then come the
image rows, a line that closes them and opens ``"txt"``, the text rows and a
closing line. ``load_dataset`` reads it a line at a time into preallocated
float64 matrices, so it holds the text and the Python floats of one row at a
time, never of the whole file, and it rejects any other layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .numerics import (derive_rng, require_finite, require_int, require_positive,
                       require_unit_interval)

__all__ = [
    "GenSpec",
    "LatentInfo",
    "PairDataset",
    "dataset_from_json",
    "dataset_to_json",
    "generate",
    "inject_noise",
    "load_dataset",
    "save_dataset",
    "split",
]


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one synthetic dataset draw."""

    n: int = 2500
    d_latent: int = 16
    d_img: int = 48
    d_txt: int = 40
    n_clusters: int = 20
    sigma_cluster: float = 0.35
    sigma_view: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        for name in ("n", "d_latent", "d_img", "d_txt", "n_clusters"):
            require_int(getattr(self, name), name, 1)
        if self.n_clusters > self.n:
            raise ValueError(f"n_clusters must lie in [1, n], got {self.n_clusters}")
        require_positive(self.sigma_cluster, "sigma_cluster", allow_zero=True)
        require_positive(self.sigma_view, "sigma_view", allow_zero=True)


@dataclass
class LatentInfo:
    """Ground-truth latents and modality maps, for diagnostics and oracles."""

    latent: np.ndarray
    img_map: np.ndarray
    txt_map: np.ndarray


@dataclass
class PairDataset:
    """Paired features with ground-truth correspondence bookkeeping.

    ``match_perm[i]`` is the index of the text presented as image i's
    partner; the true partner is always text i, so ``noise_mask[i]`` is
    exactly ``match_perm[i] != i``. Datasets are immutable by convention:
    every operation returns a new instance.
    """

    img: np.ndarray
    txt: np.ndarray
    match_perm: np.ndarray
    noise_mask: np.ndarray
    cluster_ids: np.ndarray
    split_tag: str = "train"
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return int(self.img.shape[0])

    def is_clean(self) -> bool:
        return not bool(self.noise_mask.any())

    def paired_txt(self) -> np.ndarray:
        """Text features in presentation order: row i pairs with img row i."""
        return self.txt[self.match_perm]

    def validate(self) -> None:
        n = self.n
        if self.txt.shape[0] != n:
            raise ValueError("img/txt row counts differ")
        for name, arr in (("match_perm", self.match_perm),
                          ("noise_mask", self.noise_mask),
                          ("cluster_ids", self.cluster_ids)):
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
        if not np.array_equal(np.sort(self.match_perm), np.arange(n)):
            raise ValueError("match_perm is not a permutation")
        if not np.array_equal(self.noise_mask, self.match_perm != np.arange(n)):
            raise ValueError("noise_mask inconsistent with match_perm")
        require_finite(self.img, "image features")
        require_finite(self.txt, "text features")


def generate(spec: GenSpec, return_latent: bool = False):
    """Draw a clean dataset: identity pairing, zero noise mask.

    Latents are cluster centers plus isotropic spread; modality features are
    fixed random full-rank linear images of the latents plus view noise. The
    draw order (centers, assignments, latents, maps, view noise) is fixed,
    so identical specs reproduce byte-identical datasets.
    """
    spec.validate()
    rng = derive_rng(spec.seed, "gen")
    centers = rng.standard_normal((spec.n_clusters, spec.d_latent))
    cluster_ids = rng.permutation(np.arange(spec.n) % spec.n_clusters)
    z = centers[cluster_ids] + spec.sigma_cluster * rng.standard_normal((spec.n, spec.d_latent))
    img_map = rng.standard_normal((spec.d_latent, spec.d_img)) / np.sqrt(spec.d_latent)
    txt_map = rng.standard_normal((spec.d_latent, spec.d_txt)) / np.sqrt(spec.d_latent)
    img = z @ img_map + spec.sigma_view * rng.standard_normal((spec.n, spec.d_img))
    txt = z @ txt_map + spec.sigma_view * rng.standard_normal((spec.n, spec.d_txt))
    ds = PairDataset(
        img=img,
        txt=txt,
        match_perm=np.arange(spec.n),
        noise_mask=np.zeros(spec.n, dtype=bool),
        cluster_ids=cluster_ids.astype(int),
        split_tag="train",
        meta={
            "N": spec.n,
            "dims": {"latent": spec.d_latent, "img": spec.d_img, "txt": spec.d_txt},
            "seed": spec.seed,
            "rho": 0.0,
            "n_clusters": spec.n_clusters,
            "sigma_cluster": spec.sigma_cluster,
            "sigma_view": spec.sigma_view,
        },
    )
    if return_latent:
        return ds, LatentInfo(latent=z, img_map=img_map, txt_map=txt_map)
    return ds


def _derangement(k: int, rng: np.random.Generator) -> np.ndarray:
    """Fixed-point-free permutation of range(k), k >= 2."""
    base = np.arange(k)
    for _ in range(1000):
        p = rng.permutation(k)
        if not np.any(p == base):
            return p
    # probability of reaching here is (1 - 1/e)^1000; rotation as backstop
    return np.roll(base, 1)


def inject_noise(ds: PairDataset, rho: float, rng: np.random.Generator) -> PairDataset:
    """Mismatch exactly ceil(rho * N) pairs of a clean dataset.

    The selected texts are deranged among themselves, so every selected pair
    is genuinely mismatched and every untouched pair stays clean. A rounded
    count of 1 is bumped to 2 because a single-element derangement does not
    exist.
    """
    require_unit_interval(rho, "rho")
    if not ds.is_clean():
        raise ValueError("noise injection expects a clean dataset")
    n = ds.n
    k = int(np.ceil(rho * n))
    if k == 1:
        k = 2
    if k > n:
        raise ValueError(f"cannot mismatch {k} of {n} pairs")
    perm = np.arange(n)
    if k >= 2:
        chosen = np.sort(rng.choice(n, size=k, replace=False))
        perm[chosen] = chosen[_derangement(k, rng)]
    meta = dict(ds.meta)
    meta["rho"] = float(rho)
    return PairDataset(
        img=ds.img.copy(),
        txt=ds.txt.copy(),
        match_perm=perm,
        noise_mask=perm != np.arange(n),
        cluster_ids=ds.cluster_ids.copy(),
        split_tag=ds.split_tag,
        meta=meta,
    )


def _subset(ds: PairDataset, idx: np.ndarray, tag: str) -> PairDataset:
    idx = np.sort(idx)
    meta = dict(ds.meta)
    meta.update({"N": int(idx.size), "rho": 0.0, "split": tag})
    return PairDataset(
        img=ds.img[idx].copy(),
        txt=ds.txt[idx].copy(),
        match_perm=np.arange(idx.size),
        noise_mask=np.zeros(idx.size, dtype=bool),
        cluster_ids=ds.cluster_ids[idx].copy(),
        split_tag=tag,
        meta=meta,
    )


def split(ds: PairDataset, f_train: float, f_dev: float, f_test: float,
          rng: np.random.Generator):
    """Disjoint train/dev/test cover of a clean dataset.

    Dev and test get floor(f * N) samples each, the remainder goes to train.
    Row order within each split follows the original dataset, so f=(1,0,0)
    returns the input unchanged. Noise is injected into the train split by
    the caller afterwards; dev/test stay clean.
    """
    fracs = (f_train, f_dev, f_test)
    for name, f in zip(("f_train", "f_dev", "f_test"), fracs):
        require_positive(f, name, allow_zero=True)
    if abs(sum(fracs) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {sum(fracs)}")
    if not ds.is_clean():
        raise ValueError("split expects a clean dataset; inject noise per split afterwards")
    n = ds.n
    n_dev = int(np.floor(f_dev * n))
    n_test = int(np.floor(f_test * n))
    n_train = n - n_dev - n_test
    order = rng.permutation(n)
    train = _subset(ds, order[:n_train], "train")
    dev = _subset(ds, order[n_train:n_train + n_dev], "dev")
    test = _subset(ds, order[n_train + n_dev:], "test")
    return train, dev, test


_MATRIX_KEYS = ("img", "txt")
_HEAD_END = ', "img": [\n'  # line 1: json.dumps of the other keys, this in place of "}"
_CLOSE = {"img": '], "txt": [\n', "txt": "]}\n"}  # the line after each matrix's rows


def dataset_to_json(ds: PairDataset) -> dict:
    """JSON-ready container: {meta, img, txt, perm, mask, clusters}."""
    meta = dict(ds.meta)
    meta.setdefault("N", ds.n)
    meta["split"] = ds.split_tag
    return {
        "meta": meta,
        "img": ds.img.tolist(),
        "txt": ds.txt.tolist(),
        "perm": ds.match_perm.tolist(),
        "mask": ds.noise_mask.tolist(),
        "clusters": ds.cluster_ids.tolist(),
    }


def _features(rows, meta: dict, key: str) -> np.ndarray:
    """Float64 feature matrix; an empty split takes its width from ``meta["dims"]``."""
    arr = np.asarray(rows, dtype=float)
    return arr.reshape(0, meta["dims"][key]) if arr.shape == (0,) else arr


def dataset_from_json(obj: dict) -> PairDataset:
    meta = dict(obj["meta"])
    if "rho" in meta:  # `gsc train --data` reports the train split's noise rate
        require_unit_interval(meta["rho"], "meta.rho")
    ds = PairDataset(
        img=_features(obj["img"], meta, "img"),
        txt=_features(obj["txt"], meta, "txt"),
        match_perm=np.asarray(obj["perm"], dtype=int),
        noise_mask=np.asarray(obj["mask"], dtype=bool),
        cluster_ids=np.asarray(obj["clusters"], dtype=int),
        split_tag=meta.get("split", "train"),
        meta=meta,
    )
    ds.validate()
    return ds


def save_dataset(ds: PairDataset, path) -> None:
    """Write ``dataset_to_json(ds)`` as JSON with one matrix row per line."""
    obj = dataset_to_json(ds)
    head = json.dumps({k: v for k, v in obj.items() if k not in _MATRIX_KEYS}, sort_keys=True)
    n = ds.n
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(head[:-1] + _HEAD_END)
        for key in _MATRIX_KEYS:
            fh.writelines(json.dumps(row) + (",\n" if i + 1 < n else "\n")
                          for i, row in enumerate(obj[key]))
            fh.write(_CLOSE[key])


def _read_rows(fh, key: str, out: np.ndarray, line: int) -> None:
    """Fill ``out`` from the next row lines of ``fh``, the first of them line
    ``line`` of the file, and read the closing line of ``key`` after them."""
    n, width = out.shape
    for i in range(n):
        end = ",\n" if i + 1 < n else "\n"
        text = fh.readline()
        try:
            if not text.endswith(end):
                raise ValueError(f"the line does not end in {end!r}")
            row = json.loads(text[:-len(end)])
            if not isinstance(row, list) or len(row) != width:
                raise ValueError(f"expected a list of {width} numbers")
            out[i] = row
        except (TypeError, ValueError) as err:
            raise ValueError(f"line {line + i}: {key} row {i}: {err}") from None
    if fh.readline() != _CLOSE[key]:
        raise ValueError(f"line {line + n}: expected {_CLOSE[key]!r} after the {key} rows")


def _read_split(fh) -> dict:
    """The object of a ``save_dataset`` file, ``img`` and ``txt`` as float64
    matrices of ``len(perm)`` rows and ``meta["dims"]`` columns."""
    head = fh.readline()
    if not head.endswith(_HEAD_END):
        raise ValueError("not in the layout of `gsc gen` (one matrix row per line); "
                         "regenerate it with `gsc gen`")
    obj = json.loads(head[:-len(_HEAD_END)] + "}")
    n, line = len(obj["perm"]), 2
    for key in _MATRIX_KEYS:
        width = obj["meta"]["dims"][key]
        require_int(width, f"meta.dims.{key}", 1)
        obj[key] = np.empty((n, width))
        _read_rows(fh, key, obj[key], line)
        line += n + 1
    if fh.read(1):
        raise ValueError(f"line {line}: extra data after the closing line")
    return obj


def load_dataset(path) -> PairDataset:
    """Read a ``save_dataset`` file; a malformed one, or one in another
    layout, raises ValueError naming ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return dataset_from_json(_read_split(fh))
    except KeyError as err:
        raise ValueError(f"{path}: missing key {err}") from None
    except (TypeError, ValueError) as err:
        raise ValueError(f"{path}: {err}") from None
