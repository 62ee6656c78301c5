"""Synthetic paired two-modality datasets with controlled correspondence noise.

Samples live in a shared latent space with cluster structure; each modality
observes a latent point through its own fixed random linear map plus view
noise. Mismatches are injected by permuting which text is presented with
which image (features stay untouched, so marginals are preserved), and the
permutation restricted to the selected pairs has no fixed points.

A split file is one JSON object (``dataset_to_json``). ``load_dataset``
reads it ``_CHUNK`` (64 KiB) characters at a time and walks it with the
stdlib JSON scanner, decoding the two feature matrices row by row and
converting each block of rows to float64 at once; a value cut by a chunk
boundary is decoded again after the next read. ``json.load`` would hold one
Python float per feature value (about 176k for a 2,000-row split, several
times the matrices' own bytes) until the arrays are built, and reading the
text whole would hold the file's bytes and its text at once (2 x 3.7 MB for
that split); either transient would set the process's peak memory. The
floats parse exactly as ``json.load`` parses them, so the arrays are
identical.
"""

from __future__ import annotations

import json
import re
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(dataset_to_json(ds), sort_keys=True))


_DECODER = json.JSONDecoder()
_BLANKS = r"[ \t\n\r]*"
_WHITESPACE = re.compile(_BLANKS)
_DELIMITERS = {close: re.compile(_BLANKS + r"(?:(,)|" + re.escape(close) + ")" + _BLANKS)
               for close in "]}"}
_TOKENS = {token: re.compile(_BLANKS + re.escape(token) + _BLANKS) for token in "{:["}
_EMPTY_ROWS = re.compile(r"\]")
_MATRIX_KEYS = ("img", "txt")
_BLOCK_ROWS = 64
_CHUNK = 1 << 16  # characters read from the file per refill
_NUMBER_TAIL = 2  # a number cut after '1e' or '1e-' decodes as 1, 2 characters short


class _Source:
    """The text of an open file from ``pos`` on, read ``_CHUNK`` characters
    at a time.

    Each step matches a pattern or decodes a value at ``pos`` and moves
    ``pos`` past it. A step whose result reaches the end of the buffer (for
    a decoded value: stops within ``_NUMBER_TAIL`` of it, or fails) may have
    been cut by a chunk boundary, so it is repeated after a refill until the
    file is exhausted. A refill drops the text before ``pos`` and reads at
    least as many characters as are left, so a value longer than a chunk is
    decoded in a number of attempts logarithmic in its length. Errors carry
    ``json.JSONDecodeError``'s message, placed in the whole file.
    """

    def __init__(self, fh):
        self.fh = fh
        self.text = ""
        self.pos = 0
        self.base = 0        # file offset of text[0]
        self.lines = 0       # newlines before text[0]
        self.line_start = 0  # file offset of the line holding text[0]
        self.eof = False

    @property
    def offset(self) -> int:
        return self.base + self.pos

    def refill(self) -> None:
        """Drop the text before ``pos`` and append the next chunk."""
        newline = self.text.rfind("\n", 0, self.pos)  # count only lines that exist
        if newline >= 0:
            self.lines += self.text.count("\n", 0, newline + 1)
            self.line_start = self.base + newline + 1
        chunk = self.fh.read(max(_CHUNK, len(self.text) - self.pos))
        self.base += self.pos
        self.text = self.text[self.pos:] + chunk
        self.pos = 0
        self.eof = not chunk

    def match(self, pattern: re.Pattern):
        """Match of ``pattern`` (blanks and one-character tokens) at ``pos``,
        or None; a failure is final once a non-blank character is buffered."""
        while True:
            m = pattern.match(self.text, self.pos)
            end = _WHITESPACE.match(self.text, self.pos).end() if m is None else m.end()
            if self.eof or end < len(self.text):
                break
            self.refill()
        if m is not None:
            self.pos = m.end()
        return m

    def decode(self):
        """The JSON value at ``pos``."""
        while True:
            try:
                value, end = _DECODER.raw_decode(self.text, self.pos)
            except json.JSONDecodeError as err:
                if self.eof:
                    raise self.error(err.msg, self.base + err.pos) from None
            else:
                if self.eof or end + _NUMBER_TAIL < len(self.text):
                    self.pos = end
                    return value
            self.refill()

    def error(self, msg: str, at: int) -> ValueError:
        """``json.JSONDecodeError``'s message for ``msg`` at file offset ``at``,
        which must lie in the buffer."""
        i = at - self.base
        newline = self.text.rfind("\n", 0, i)
        line = self.lines + self.text.count("\n", 0, i) + 1
        column = i - newline if newline >= 0 else at - self.line_start + 1
        return ValueError(f"{msg}: line {line} column {column} (char {at})")


def _expect(src: _Source, token: str, msg: str) -> None:
    """Skip ``token`` and the blanks around it, or raise ``msg`` where it should be."""
    if src.match(_TOKENS[token]) is None:
        src.match(_WHITESPACE)
        raise src.error(msg, src.offset)


def _delimiter(src: _Source, close: str) -> bool:
    """Skip the ``,`` or ``close`` at the first non-blank position and the
    blanks after it; return whether it closed."""
    m = src.match(_DELIMITERS[close])
    if m is None:
        src.match(_WHITESPACE)
        raise src.error("Expecting ',' delimiter", src.offset)
    return m.group(1) is None


def _decode_matrix(src: _Source, key: str) -> np.ndarray:
    """The list of number rows at ``pos`` as a float64 matrix.

    The stdlib scanner decodes one row at a time and every ``_BLOCK_ROWS``
    rows become one float64 block, so no Python float outlives its block.
    """
    _expect(src, "[", f"Expecting a list of rows for {key!r}")
    if src.match(_EMPTY_ROWS) is not None:
        return np.asarray([], dtype=float)  # dataset_from_json gives it its width
    blocks, rows, n, width, closed = [], [], 0, None, False
    while not closed:
        at = src.offset
        row = src.decode()
        if not isinstance(row, list):
            raise src.error(f"{key} row {n} is not a list", at)
        width = len(row) if width is None else width
        if len(row) != width:
            raise src.error(f"{key} row {n} has {len(row)} values, row 0 has {width}", at)
        rows.append(row)
        n += 1
        closed = _delimiter(src, "]")
        if closed or len(rows) == _BLOCK_ROWS:
            blocks.append(np.array(rows, dtype=float))
            rows = []
    if blocks[0].ndim != 2:  # equal-length rows of lists
        raise ValueError(f"{key} rows must hold numbers, not lists")
    return np.concatenate(blocks)


def _decode_split(fh) -> dict:
    """``json.load(fh)`` for a split file, with ``img`` and ``txt`` as
    float64 matrices: the top-level object is walked with the same scanner,
    and every other value is decoded whole."""
    src = _Source(fh)
    _expect(src, "{", "Expecting '{'")
    obj, closed = {}, False
    while not closed:
        at = src.offset
        key = src.decode()
        if not isinstance(key, str):
            raise src.error("Expecting property name enclosed in double quotes", at)
        _expect(src, ":", "Expecting ':' delimiter")
        obj[key] = _decode_matrix(src, key) if key in _MATRIX_KEYS else src.decode()
        closed = _delimiter(src, "}")
    if src.pos != len(src.text):
        raise src.error("Extra data", src.offset)
    return obj


def load_dataset(path) -> PairDataset:
    """Read a ``save_dataset`` file; a malformed one raises ValueError naming
    ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = _decode_split(fh)
        return dataset_from_json(obj)
    except KeyError as err:
        raise ValueError(f"{path}: missing key {err}") from None
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
