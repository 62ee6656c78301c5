"""Per-modality MLP encoders with unit-norm outputs, plus similarity matrices.

An encoder is a stack of affine layers with tanh between them and a final
row-wise L2 normalization, so all similarities are cosines. ``encode`` keeps
the intermediate activations needed for the hand-derived backward pass in
`losses`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numerics import AdamState, as_matrix, require_computed

__all__ = [
    "EmbeddingBatch",
    "Encoder",
    "ForwardCache",
    "encode",
    "encode_pair",
    "encoder_from_json",
    "encoder_to_json",
    "sim_matrix",
]

NORM_FLOOR = 1e-12


@dataclass
class ForwardCache:
    """Intermediates retained by ``encode``: enough to rerun or backprop.

    ``inputs[l]`` is the activation entering affine layer l; ``norms`` are
    the (floored) row L2 norms of the last affine output.
    """

    inputs: list
    norms: np.ndarray


@dataclass
class EmbeddingBatch:
    """A batch of unit-norm embedding rows."""

    matrix: np.ndarray
    cache: ForwardCache | None = None


def _interleave(weights, biases):
    params = []
    for w, b in zip(weights, biases):
        params.append(w)
        params.append(b)
    return params


@dataclass
class Encoder:
    """MLP parameters plus the Adam state that trains them.

    Weight matrices are (d_in, d_out); ``params()`` returns the live arrays
    in the fixed order W0, b0, W1, b1, ... that gradient lists follow.
    """

    weights: list
    biases: list
    adam: AdamState

    @classmethod
    def init(cls, dims: Sequence[int], rng: np.random.Generator) -> "Encoder":
        """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) init for every layer."""
        if len(dims) < 2:
            raise ValueError("encoder needs at least input and output dims")
        if any(int(d) < 1 for d in dims):
            raise ValueError(f"all dims must be >= 1, got {list(dims)}")
        weights, biases = [], []
        for d_in, d_out in zip(dims[:-1], dims[1:]):
            bound = 1.0 / np.sqrt(d_in)
            weights.append(rng.uniform(-bound, bound, size=(d_in, d_out)))
            biases.append(rng.uniform(-bound, bound, size=d_out))
        return cls(weights=weights, biases=biases,
                   adam=AdamState.for_params(_interleave(weights, biases)))

    @property
    def dims(self) -> list:
        return [int(self.weights[0].shape[0])] + [int(w.shape[1]) for w in self.weights]

    def params(self) -> list:
        return _interleave(self.weights, self.biases)

    def param_names(self) -> list:
        names = []
        for l in range(len(self.weights)):
            names.append(f"W{l}")
            names.append(f"b{l}")
        return names

    def copy(self) -> "Encoder":
        return Encoder(weights=[w.copy() for w in self.weights],
                       biases=[b.copy() for b in self.biases],
                       adam=self.adam.copy())


def encode(enc: Encoder, x) -> EmbeddingBatch:
    """Forward pass: affine/tanh stack, then row-wise L2 normalization."""
    a = as_matrix(x, "encoder input")
    if a.shape[1] != enc.dims[0]:
        raise ValueError(f"input dim {a.shape[1]} != encoder input dim {enc.dims[0]}")
    inputs = []
    last = len(enc.weights) - 1
    for l, (w, b) in enumerate(zip(enc.weights, enc.biases)):
        inputs.append(a)
        z = a @ w + b
        a = np.tanh(z) if l < last else z
    norms = np.maximum(np.linalg.norm(a, axis=1), NORM_FLOOR)
    with np.errstate(invalid="ignore"):  # non-finite rows are caught downstream
        matrix = a / norms[:, None]
    return EmbeddingBatch(matrix=matrix, cache=ForwardCache(inputs=inputs, norms=norms))


def encode_pair(enc_img: Encoder, enc_txt: Encoder, x_img, x_txt):
    """Encode paired batches; NumericalError names a non-finite side."""
    e_img = encode(enc_img, x_img)
    e_txt = encode(enc_txt, x_txt)
    if e_img.matrix.shape[0] != e_txt.matrix.shape[0]:
        raise ValueError("image/text batch sizes differ")
    require_computed("image embeddings", e_img.matrix)
    require_computed("text embeddings", e_txt.matrix)
    return e_img, e_txt


def sim_matrix(a: EmbeddingBatch, b: EmbeddingBatch,
               out: np.ndarray | None = None) -> np.ndarray:
    """Pairwise dot products; cosines when both batches are unit-norm.

    Written into ``out`` if given, else into a fresh array.
    """
    if a.matrix.shape[1] != b.matrix.shape[1]:
        raise ValueError(f"embedding dims differ: {a.matrix.shape[1]} vs {b.matrix.shape[1]}")
    return np.matmul(a.matrix, b.matrix.T, out=out)


def encoder_to_json(enc: Encoder) -> dict:
    """Checkpoint container: {dims, weights, biases, adam_state, step}."""
    return {
        "dims": enc.dims,
        "weights": [w.tolist() for w in enc.weights],
        "biases": [b.tolist() for b in enc.biases],
        "adam_state": {
            "m": [m.tolist() for m in enc.adam.m],
            "v": [v.tolist() for v in enc.adam.v],
            "beta1": enc.adam.beta1,
            "beta2": enc.adam.beta2,
            "eps": enc.adam.eps,
        },
        "step": enc.adam.step,
    }


def encoder_from_json(obj: dict) -> Encoder:
    weights = [np.asarray(w, dtype=float) for w in obj["weights"]]
    biases = [np.asarray(b, dtype=float) for b in obj["biases"]]
    st = obj["adam_state"]
    adam = AdamState(
        m=[np.asarray(m, dtype=float) for m in st["m"]],
        v=[np.asarray(v, dtype=float) for v in st["v"]],
        step=int(obj["step"]),
        beta1=float(st["beta1"]),
        beta2=float(st["beta2"]),
        eps=float(st["eps"]),
    )
    enc = Encoder(weights=weights, biases=biases, adam=adam)
    if enc.dims != list(obj["dims"]):
        raise ValueError("checkpoint dims inconsistent with stored weights")
    return enc
