"""Synthetic paired two-modality datasets with controlled correspondence noise.

Samples live in a shared latent space with cluster structure; each modality
observes a latent point through its own fixed random linear map plus view
noise. Mismatches are injected by permuting which text is presented with
which image (features stay untouched, so marginals are preserved), and the
permutation restricted to the selected pairs has no fixed points.

A split is a JSON head ``<split>.json``, ``{meta, perm, mask, clusters}``
with sorted keys, and beside it one ``np.save`` file per feature matrix,
``<split>.img.npy`` and ``<split>.txt.npy``, written by
``numerics.write_arrays``. ``load_dataset`` reads each matrix with
``numerics.read_array``, which never unpickles, and accepts only a float64
matrix of ``len(perm)`` rows and ``meta["dims"]`` columns, so the matrices
round-trip bit for bit; a split of an earlier layout, whose head holds the
matrices inline, is refused.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import (array_path, derive_rng, json_entry, read_array, read_json_object,
                       require_finite, require_int, require_positive, require_unit_interval,
                       write_arrays)

__all__ = [
    "GenSpec",
    "LatentInfo",
    "PairDataset",
    "generate",
    "inject_noise",
    "load_dataset",
    "save_dataset",
    "split",
]


@dataclass(frozen=True)
class GenSpec:
    """Parameters for one synthetic dataset draw, checked when built."""

    n: int = 2500
    d_latent: int = 16
    d_img: int = 48
    d_txt: int = 40
    n_clusters: int = 20
    sigma_cluster: float = 0.35
    sigma_view: float = 0.1
    seed: int = 0

    def __post_init__(self):
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


@dataclass(frozen=True)
class PairDataset:
    """Paired features with ground-truth correspondence bookkeeping.

    ``match_perm[i]`` is the index of the text presented as image i's
    partner; the true partner is always text i, so the noise mask is
    derived from it, and the split name from ``meta``. Construction checks
    that the rows of every field agree, that ``match_perm`` is a
    permutation and that the features are finite; the fields cannot be
    rebound, and every operation returns a new instance.
    """

    img: np.ndarray
    txt: np.ndarray
    match_perm: np.ndarray
    cluster_ids: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return int(self.img.shape[0])

    @property
    def noise_mask(self) -> np.ndarray:
        """True where pair i is mismatched: ``match_perm[i] != i``."""
        return self.match_perm != np.arange(self.n)

    @property
    def split_tag(self) -> str:
        return self.meta.get("split", "train")

    def is_clean(self) -> bool:
        return not bool(self.noise_mask.any())

    def paired_txt(self, idx) -> np.ndarray:
        """Text features of the samples ``idx`` in presentation order: row k
        pairs with img row idx[k]."""
        return self.txt[self.match_perm[idx]]

    def __post_init__(self):
        n = self.n
        if self.txt.shape[0] != n:
            raise ValueError("img/txt row counts differ")
        for name, arr in (("match_perm", self.match_perm), ("cluster_ids", self.cluster_ids)):
            if arr.shape != (n,):
                raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
        if not np.array_equal(np.sort(self.match_perm), np.arange(n)):
            raise ValueError("match_perm is not a permutation")
        require_finite(self.img, "image features")
        require_finite(self.txt, "text features")


def generate(spec: GenSpec, return_latent: bool = False):
    """Draw a clean dataset: identity pairing, zero noise mask.

    Latents are cluster centers plus isotropic spread; modality features are
    fixed random full-rank linear images of the latents plus view noise. The
    draw order (centers, assignments, latents, maps, view noise) is fixed,
    so identical specs reproduce byte-identical datasets.
    """
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
        cluster_ids=cluster_ids.astype(int),
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
        cluster_ids=ds.cluster_ids.copy(),
        meta=meta,
    )


def _subset(ds: PairDataset, idx: np.ndarray, tag: str) -> PairDataset:
    idx = np.sort(idx)
    meta = dict(ds.meta)
    meta.update({"N": int(idx.size), "rho": 0.0, "split": tag})
    return PairDataset(
        img=ds.img[idx],
        txt=ds.txt[idx],
        match_perm=np.arange(idx.size),
        cluster_ids=ds.cluster_ids[idx],
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


def save_dataset(ds: PairDataset, path) -> None:
    """Write the head ``{meta, perm, mask, clusters}`` as JSON to ``path``
    and each feature matrix beside it (``numerics.write_arrays``)."""
    meta = dict(ds.meta)
    meta.setdefault("N", ds.n)
    meta["split"] = ds.split_tag
    head = {"meta": meta, "perm": ds.match_perm.tolist(), "mask": ds.noise_mask.tolist(),
            "clusters": ds.cluster_ids.tolist()}
    write_arrays(path, head, {key: getattr(ds, key) for key in _MATRIX_KEYS})


def load_dataset(path) -> PairDataset:
    """Read a ``save_dataset`` split; a malformed one, or one in an earlier
    layout, raises ValueError naming ``path``. The head's ``mask`` must
    equal the mask its ``perm`` gives."""
    head = read_json_object(path)
    if any(key in head for key in _MATRIX_KEYS):
        raise ValueError(f"{path}: holds its matrices inline, the layout of an earlier "
                         "`gsc gen`; regenerate it with `gsc gen`")
    meta = json_entry(path, head, "meta", dict)
    dims = json_entry(path, meta, "dims", dict)
    widths = [json_entry(path, dims, key, float) for key in _MATRIX_KEYS]
    perm, mask, clusters = (json_entry(path, head, key, list)
                            for key in ("perm", "mask", "clusters"))
    try:
        if "rho" in meta:  # `gsc train --data` reports the train split's noise rate
            require_unit_interval(meta["rho"], "meta.rho")
        features = {}
        for key, width in zip(_MATRIX_KEYS, widths):
            require_int(width, f"meta.dims.{key}", 1)
            features[key] = read_array(array_path(path, key), (len(perm), width))
        ds = PairDataset(
            **features,
            match_perm=np.asarray(perm, dtype=int),
            cluster_ids=np.asarray(clusters, dtype=int),
            meta=meta,
        )
        if not np.array_equal(np.asarray(mask, dtype=bool), ds.noise_mask):
            raise ValueError("mask inconsistent with perm")
        return ds
    except (TypeError, ValueError) as err:
        raise ValueError(f"{path}: {err}") from None
